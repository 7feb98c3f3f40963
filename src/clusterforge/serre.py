"""Translates, recognition of projectives and BGP reflections on lattices.

tau is the BGP Coxeter functor C+: over a PID the cluster category is an
orbit category whose rigid indecomposables do not depend on the ground
ring, so on a non-projective exceptional lattice the composite of the
sink reflections at every vertex, over Z, is the translate (Bernstein-
Gelfand-Ponomarev 1973; Auslander-Platzeck-Reiten 1979).  Each
reflection takes a saturated kernel, so the result is again a lattice,
and acts on dimension vectors by a simple reflection, so dim tau M is
the Coxeter transform of dim M.

Exceptional modules are determined by their dimension vectors, so an
exceptional module is P_i (or I_i) exactly when its dimension vector is
that of P_i (or I_i); projective_index_of and injective_index_of
compare them and build no isomorphism, and tau_canonical reads a
projective translate as the value rep.projective returns.  The
dimension vector of a lattice is its generator counts; a module given
by a presentation with relations has its rank per vertex instead.

tau_inv goes through the opposite quiver: dualize, translate, dualize
back.  f_apply is one step of the orbit autoequivalence on shifted
lattices: it lowers the shift by one on non-projectives and by two on
projectives, so iterated application leaves any fixed shift window.
The cluster category computes on its fundamental domain and never walks
an orbit; f_apply is the reference that its closed forms are checked
against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IsInjective,
    IsProjective,
    NotExceptional,
    PreconditionViolated,
    SimpleAtVertex,
    VertexNotSinkOrSource,
)
from .memo import memo
from .quiver import Quiver, validate
from .zlinalg import IntMatrix, _matrix, free_cokernel, surjection_kernel_basis
from . import rep
from .rep import ZRep


@dataclass(frozen=True)
class ShiftedModule:
    """A lattice placed in a single degree of the derived category."""

    module: ZRep
    shift: int


# ---------------------------------------------------------------------------
# recognizing projectives and injective lattices

def index_by_dims(q: Quiver, dims: tuple, lattice_at) -> int | None:
    """The i with lattice_at(q, i) of dimension vector dims, if any."""
    return next((i for i in q.vertices if lattice_at(q, i).gens == dims), None)


def _index_by_dim(m: ZRep, lattice_at) -> int | None:
    i = index_by_dims(m.quiver, rep.dim_vector(m), lattice_at)
    if i is not None and not rep.is_exceptional(m):
        raise PreconditionViolated("recognition requires an exceptional module")
    return i


def projective_index_of(m: ZRep) -> int | None:
    """The i with m isomorphic to P_i, for an exceptional module m."""
    return _index_by_dim(m, rep.projective)


def injective_index_of(m: ZRep) -> int | None:
    """The i with m isomorphic to I_i, for an exceptional module m."""
    return _index_by_dim(m, rep.injective_lattice)


# ---------------------------------------------------------------------------
# AR translation

@memo
def tau(m: ZRep) -> ZRep:
    """The translate of a non-projective exceptional lattice.

    tau is the Coxeter functor C+: the sink reflections at every vertex
    of a topological order, last first, which walk through intermediate
    orientations back to the orientation of m.  The translate is put on
    m.quiver itself, so memo lookups and quiver checks against it meet
    the identical quiver.
    """
    if not m.is_lattice or not rep.is_exceptional(m):
        raise NotExceptional("tau is only defined on exceptional lattices")
    if projective_index_of(m) is not None:
        raise IsProjective("tau is undefined on projectives")
    q, t = m.quiver, m
    for v in reversed(validate(q)):
        q, t = reflect(q, t, v)
    return rep._lattice(m.quiver, t.gens, t.actions)


def tau_canonical(m: ZRep) -> ZRep:
    """tau m, read as rep.projective(q, i) when the translate is P_i.

    The sink reflections build a projective translate as a lattice
    isomorphic to P_i but not always equal to the value rep.projective
    returns, which the pools and the memo tables hold; a caller that
    pairs the translate with pool lattices reads this one, so no pair is
    reduced twice under two values of the same module.
    """
    t = tau(m)
    i = projective_index_of(t)
    return t if i is None else rep.projective(m.quiver, i)


@memo
def tau_inv(m: ZRep) -> ZRep:
    """Inverse translate, computed through the opposite quiver."""
    if not m.is_lattice or not rep.is_exceptional(m):
        raise NotExceptional("tau_inv is only defined on exceptional lattices")
    if injective_index_of(m) is not None:
        raise IsInjective("tau_inv is undefined on injective lattices")
    return rep.dualize(tau(rep.dualize(m)))


def f_apply(x: ShiftedModule, power: int) -> ShiftedModule:
    """One application of the orbit autoequivalence or its inverse.

    Forward: non-projective modules translate and drop one shift,
    projectives become injective lattices and drop two.  Backward is
    the mirror through injective lattices.
    """
    if power not in (1, -1):
        raise PreconditionViolated("f_apply moves one step at a time")
    m, s = x.module, x.shift
    if power == 1:
        i = projective_index_of(m)
        if i is not None:
            return ShiftedModule(rep.injective_lattice(m.quiver, i), s - 2)
        return ShiftedModule(tau(m), s - 1)
    i = injective_index_of(m)
    if i is not None:
        return ShiftedModule(rep.projective(m.quiver, i), s + 2)
    return ShiftedModule(tau_inv(m), s + 1)


# ---------------------------------------------------------------------------
# BGP reflections

def reflect(q: Quiver, m: ZRep, vertex: int) -> tuple:
    """Reflection functor at a sink or source, over the integers.

    Returns (reflected quiver, reflected lattice).  Kernels are taken
    saturated and cokernels modulo torsion so the output is a lattice;
    a failing exactness check means the input had a simple summand (or
    a torsion obstruction) at the vertex and raises SimpleAtVertex.
    """
    if m.quiver is not q and m.quiver != q:
        raise PreconditionViolated("module does not live over the given quiver")
    if not m.is_lattice:
        raise PreconditionViolated("reflection functors act on lattices")
    if q.is_sink(vertex):
        return _reflect_sink(q, m, vertex)
    if q.is_source(vertex):
        return _reflect_source(q, m, vertex)
    raise VertexNotSinkOrSource(f"vertex {vertex} is neither a sink nor a source")


def _reflect_sink(q: Quiver, m: ZRep, k: int) -> tuple:
    # the stacked map [M_a for a into k], its rows read off the action rows
    incoming = q.arrows_into(k)
    offsets = {}
    at = 0
    for a in incoming:
        offsets[a] = at
        at += m.gens[q.arrows[a][0] - 1]
    rows = zip(*(m.actions[a].entries for a in incoming)) if incoming else [()] * m.gens[k - 1]
    stacked = _matrix(m.gens[k - 1], at, tuple(sum(row, ()) for row in rows))
    kb = surjection_kernel_basis(stacked)
    if kb is None:
        raise SimpleAtVertex(f"total map into sink {k} is not surjective")
    new_q = q.reflected(k)
    gens = tuple(kb.cols if v == k else m.gens[v - 1] for v in q.vertices)
    actions = tuple(_matrix(m.gens[s - 1], kb.cols,
                            kb.entries[offsets[a]:offsets[a] + m.gens[s - 1]])
                    if t == k else m.actions[a] for a, (s, t) in enumerate(q.arrows))
    return new_q, rep._lattice(new_q, gens, actions)


def _reflect_source(q: Quiver, m: ZRep, k: int) -> tuple:
    outgoing = q.arrows_out_of(k)
    stacked = IntMatrix.zero(0, m.gens[k - 1])
    offsets = {}
    for a in outgoing:
        offsets[a] = stacked.rows
        stacked = stacked.vstack(m.actions[a])
    proj, _ = free_cokernel(stacked)
    if stacked.rows - proj.rows != stacked.cols:
        raise SimpleAtVertex(f"total map out of source {k} is not injective")
    new_q = q.reflected(k)
    gens = tuple(proj.rows if v == k else m.gens[v - 1] for v in q.vertices)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        if s == k:
            block = proj.submatrix(range(proj.rows),
                                   range(offsets[a], offsets[a] + m.gens[t - 1]))
            actions.append(block)
        else:
            actions.append(m.actions[a])
    return new_q, rep._lattice(new_q, gens, tuple(actions))
