"""Finitely presented integer representations of an acyclic quiver.

A ZRep assigns to each vertex i a presented abelian group Z^{g_i}/im(R_i)
and to each arrow a: u -> v an action matrix M_a: Z^{g_u} -> Z^{g_v} that
descends to the quotients.  Arrows act along their direction.  A ZRep
with no relations anywhere is a lattice.

Convention for the cyclic torsion test module on the quiver 1 -> 2: the
Z/2 vertex group is placed at the *source* vertex.  With arrows acting
along their direction this is the unique placement whose minimal
projective resolution has the three-term shape P -> P + P' -> P''
featuring a multiplication-by-2 entry next to an arrow entry; at the
sink the resolution collapses to two terms.

Hom(m, n) and Ext^1(m, n) are H^0 and H^1 of Hom(P., n) for one
projective complex P. -> m kept on m (`ZRep._presentation`): for a
lattice the standard presentation with its unit entries split off, on
every exceptional lattice tried the minimal resolution's; otherwise the
minimal projective resolution, whose every stage is a projective cover
of a top, minimal as built.  Between lattices each ordered pair costs
one `smith_invariants` reduction, with no transform tracked; with
relations in either module the homology is read with the relations of
n as extra columns.  A Hom basis is the kernel of the same system,
computed on first read and never for a Hom of rank 0, each element of
Hom(P_0, n) lifted to vertexwise maps through a right inverse of P_0 ->
m kept on m.  Over F_p and Q `field_hom_ext_dims` reads the same system
of the lattice `base_change` keeps, reduced over the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from .errors import (
    DimensionMismatch,
    NoSolution,
    PreconditionViolated,
)
from .memo import hash_once, memo, once
from .quiver import Quiver, validate
from .zlinalg import (
    FinAbGroup,
    IntMatrix,
    _matrix,
    block_diag,
    column_span_basis,
    free_cokernel,
    free_group,
    is_split_injective,
    kernel_basis,
    kernel_rank_cokernel,
    rank,
    rref_mod_p,
    smith_invariants,
    snf,
    solve_matrix,
    subquotient_structure,
)

# ---------------------------------------------------------------------------
# paths

@memo
def paths_from(q: Quiver, i: int) -> dict:
    """All paths starting at i, grouped by endpoint and sorted.

    A path is a tuple of arrow indices in traversal order; the empty
    tuple is the trivial path at i.  Sorting by the arrow tuple gives
    the canonical basis order used for projectives everywhere.
    """
    validate(q)
    found = {j: [] for j in q.vertices}
    stack = [((), i)]
    while stack:
        path, at = stack.pop()
        found[at].append(path)
        for a, (s, t) in enumerate(q.arrows):
            if s == at:
                stack.append((path + (a,), t))
    return {j: tuple(sorted(ps)) for j, ps in found.items()}


# ---------------------------------------------------------------------------
# representations

@hash_once
@dataclass(frozen=True)
class ZRep:
    """A finitely presented representation over the integral path algebra."""

    quiver: Quiver
    gens: tuple            # generator count per vertex
    relations: tuple       # per vertex, a g_i x r_i IntMatrix
    actions: tuple         # per arrow, a g_{t(a)} x g_{s(a)} IntMatrix

    def __post_init__(self):
        q = self.quiver
        if len(self.gens) != q.n or len(self.relations) != q.n:
            raise DimensionMismatch("per-vertex data does not match quiver")
        if len(self.actions) != len(q.arrows):
            raise DimensionMismatch("per-arrow data does not match quiver")
        for g, r in zip(self.gens, self.relations):
            if r.rows != g:
                raise DimensionMismatch("relation matrix rows must equal generator count")
        for a, (s, t) in enumerate(q.arrows):
            m = self.actions[a]
            if (m.rows, m.cols) != (self.gens[t - 1], self.gens[s - 1]):
                raise DimensionMismatch(f"action matrix for arrow {a} has wrong shape")
            ms = m.mul(self.relations[s - 1])
            if ms.cols and not _in_column_span(self.relations[t - 1], ms):
                raise DimensionMismatch(f"action for arrow {a} does not preserve relations")

    @property
    @once
    def is_lattice(self) -> bool:
        return all(r.cols == 0 for r in self.relations)

    @property
    @once
    def _presentation(self) -> tuple:
        """(p0, p1, p2, d1, d2, tops) of the projective complex P. -> self
        that Hom and Ext^1 out of self are read off, built on first read:
        `_lattice_presentation` for a lattice, else `projective_resolution`.

        Slots are vertices, and d_k holds one row per slot of p_k of
        (column, path sum) pairs over the slots of p_{k-1}, a path sum
        running from the column's vertex to the row's.  tops[j] is the
        image of p0's slot j: a generator index for a lattice, else a
        generator-lift vector.
        """
        if self.is_lattice:
            return _lattice_presentation(self)
        return _resolution_complex(projective_resolution(self))

    @property
    @once
    def _sections(self) -> tuple:
        """Per vertex v, rows Y_v over the basis (j, p) of (P_0)_v with
        eps_v Y_v = I modulo the relations, eps_v sending (j, p) to
        self(p) tops[j]: the top rows of a solution of [eps_v | R_v] Y = I,
        which exists as P_0 -> self is onto.  Built on first read."""
        q, gens = self.quiver, self.gens
        p0, tops = self._presentation[0], self._presentation[5]
        if self.is_lattice:
            tops = [tuple(int(i == k) for i in range(gens[v - 1])) for v, k in zip(p0, tops)]
        out = []
        for v in q.vertices:
            cols = [_act(self, p, tops[j]) for j, p in _ambient(q, p0, v)]
            eps = _matrix(gens[v - 1], len(cols),
                          tuple(tuple(c[r] for c in cols) for r in range(gens[v - 1])))
            y = solve_matrix(eps.hstack(self.relations[v - 1]), IntMatrix.identity(gens[v - 1]))
            out.append(y.entries[:len(cols)])
        return tuple(out)

    @property
    @once
    def _path_actions(self) -> dict:
        """The action of each nonempty path read so far, filled by
        `_path_action`."""
        return {}

    def is_zero(self) -> bool:
        return all(d == 0 for d in dim_vector(self))


def _in_column_span(span: IntMatrix, cols: IntMatrix) -> bool:
    try:
        solve_matrix(span, cols)
        return True
    except NoSolution:
        return False


def make_lattice(q: Quiver, ranks, actions) -> ZRep:
    ranks = tuple(int(r) for r in ranks)
    empty = tuple(IntMatrix.zero(r, 0) for r in ranks)
    return ZRep(q, ranks, empty, tuple(actions))


def _lattice(q: Quiver, ranks: tuple, actions: tuple) -> ZRep:
    """A lattice built where its shapes hold by construction, such as each
    step of a reflection, without the checks of the public constructor."""
    m = object.__new__(ZRep)
    m.__dict__.update(quiver=q, gens=ranks, actions=actions,
                      relations=tuple(_matrix(r, 0, ((),) * r) for r in ranks))
    return m


def zero_rep(q: Quiver) -> ZRep:
    return make_lattice(q, (0,) * q.n, tuple(IntMatrix.zero(0, 0) for _ in q.arrows))


def simple(q: Quiver, i: int) -> ZRep:
    ranks = tuple(1 if v == i else 0 for v in q.vertices)
    actions = tuple(IntMatrix.zero(ranks[t - 1], ranks[s - 1]) for s, t in q.arrows)
    return make_lattice(q, ranks, actions)


def torsion_simple(q: Quiver, i: int, order: int) -> ZRep:
    """The cyclic torsion module Z/order concentrated at vertex i."""
    gens = tuple(1 if v == i else 0 for v in q.vertices)
    relations = tuple(IntMatrix.from_rows([[order]]) if v == i else IntMatrix.zero(gens[v - 1], 0)
                      for v in q.vertices)
    actions = tuple(IntMatrix.zero(gens[t - 1], gens[s - 1]) for s, t in q.arrows)
    return ZRep(q, gens, relations, actions)


@memo
def projective(q: Quiver, i: int) -> ZRep:
    """P_i, free on the paths starting at i, arrows acting by concatenation."""
    bases = paths_from(q, i)
    ranks = tuple(len(bases[v]) for v in q.vertices)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        src, dst = bases[s], bases[t]
        index = {p: k for k, p in enumerate(dst)}
        rows = [[0] * len(src) for _ in dst]
        for c, p in enumerate(src):
            rows[index[p + (a,)]][c] = 1
        actions.append(IntMatrix.from_rows(rows, cols=len(src)))
    return make_lattice(q, ranks, actions)


@memo
def injective_lattice(q: Quiver, i: int) -> ZRep:
    """I_i, free on the paths ending at i, arrows acting by front cancellation."""
    bases = {j: paths_from(q, j)[i] for j in q.vertices}
    ranks = tuple(len(bases[v]) for v in q.vertices)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        src, dst = bases[s], bases[t]
        index = {p: k for k, p in enumerate(dst)}
        rows = [[0] * len(src) for _ in dst]
        for c, p in enumerate(src):
            if p[:1] == (a,):
                rows[index[p[1:]]][c] = 1
        actions.append(IntMatrix.from_rows(rows, cols=len(src)))
    return make_lattice(q, ranks, actions)


def dim_vector(m: ZRep) -> tuple:
    """Free rank per vertex; equals the generator counts for lattices."""
    if m.is_lattice:
        return m.gens
    return tuple(g - rank(r) for g, r in zip(m.gens, m.relations))


def direct_sum(m: ZRep, n: ZRep) -> ZRep:
    return direct_sum_many((m, n))


def direct_sum_many(parts) -> ZRep:
    parts = tuple(parts)
    if not parts:
        raise DimensionMismatch("empty direct sum needs an explicit quiver")
    q = parts[0].quiver
    if any(p.quiver != q for p in parts):
        raise DimensionMismatch("direct sum over different quivers")
    gens = tuple(sum(p.gens[v] for p in parts) for v in range(q.n))
    relations = tuple(block_diag([p.relations[v] for p in parts]) for v in range(q.n))
    actions = tuple(block_diag([p.actions[a] for p in parts]) for a in range(len(q.arrows)))
    return ZRep(q, gens, relations, actions)


def dualize(m: ZRep) -> ZRep:
    """The Z-dual lattice over the opposite quiver (lattices only)."""
    if not m.is_lattice:
        raise PreconditionViolated("dualize is only defined for lattices")
    return _lattice(m.quiver.opposite(), m.gens, tuple(a.transpose() for a in m.actions))


# ---------------------------------------------------------------------------
# Hom and Ext^1

@dataclass(frozen=True, eq=False)
class Hom:
    """Hom group together with explicit homomorphisms.

    `basis` is a tuple of per-vertex IntMatrix tuples, computed by
    `make_basis` on first read and kept: the lifts (`_lift`) of the
    kernel_basis columns of the degree-0 cycles of Hom(P., n).  For
    lattices it is a genuine Z-basis; in the presence of torsion it is a
    generating set of representative maps.  Values compare by identity.
    """

    group: FinAbGroup
    make_basis: Callable[[], tuple] = field(repr=False)

    @property
    @once
    def basis(self) -> tuple:
        return self.make_basis()

    @property
    def free_rank(self) -> int:
        return self.group.free_rank


def _lattice_presentation(m: ZRep) -> tuple:
    """The `ZRep._presentation` of the lattice m: its standard
    presentation with every unit trivial-path entry split off.

    The standard presentation is Ringel's resolution
    0 -> sum_a P_{t(a)} (x) M_{s(a)} -> sum_v P_v (x) M_v -> m -> 0: row
    (a, c), for each arrow a and c < rank M_{s(a)}, holds the path -a at
    column (s(a), c) and M_a[k][c] times the trivial path at column
    (t(a), k), and column (v, k) maps to generator k of M_v.  An entry
    is a {path: coefficient} dict of paths from its column's vertex to
    its row's vertex.  While some entry is u e_v with u = +-1, it is a
    pivot: every other row i holding its column j0 gets
    D_ij -= u (D_{i0 j} followed by D_{i j0}), and its row and column
    drop, as its relation writes generator j0 in the others.  Under
    Hom(-, n) the pivot is the unit block u I on n_v, so the kernel and
    the cokernel are those of the standard system for every n.  No
    entry left is a unit times a trivial path; on every exceptional
    lattice tried the rows and columns then sit at the vertices of
    `projective_resolution(m).p1` and `.p0`.

    Rows come back as tuples of (column, ((path, coefficient), ...))
    pairs, the columns left renumbered in order, and tops as the kept
    generator index of each column.
    """
    q = m.quiver
    start, col_vertex, col_index = {}, [], []
    for v in q.vertices:
        start[v] = len(col_vertex)
        col_vertex += [v] * m.gens[v - 1]
        col_index += range(m.gens[v - 1])
    row_vertex, rows = [], {}
    for a, (s, t) in enumerate(q.arrows):
        ma = m.actions[a].entries
        for c in range(m.gens[s - 1]):
            row = {start[s] + c: {(a,): -1}}
            for k, action_row in enumerate(ma):
                if action_row[c]:
                    row[start[t] + k] = {(): action_row[c]}
            rows[len(row_vertex)] = row
            row_vertex.append(t)
    # the rows to search for a pivot: each row once, then each row a pivot changed
    unseen = list(reversed(rows))
    dropped = set()
    while unseen:
        i0 = unseen.pop()
        top = rows.get(i0, {})
        # on an acyclic quiver an entry with a trivial path has no other path
        j0 = next((j for j, e in top.items() if abs(e.get((), 0)) == 1), None)
        if j0 is None:
            continue
        del rows[i0]
        u = top.pop(j0)[()]
        for i, row in rows.items():
            below = row.pop(j0, None)
            if below is None:
                continue
            unseen.append(i)
            for j, e in top.items():
                acc = row.setdefault(j, {})
                for p, x in e.items():
                    for r, y in below.items():
                        z = acc.get(p + r, 0) - u * x * y
                        if z:
                            acc[p + r] = z
                        else:
                            del acc[p + r]
                if not acc:
                    del row[j]
        dropped.add(j0)
    kept = [j for j in range(len(col_vertex)) if j not in dropped]
    renumber = {j: i for i, j in enumerate(kept)}
    return (tuple(col_vertex[j] for j in kept), tuple(row_vertex[i] for i in rows), (),
            tuple(tuple(sorted((renumber[j], tuple(sorted(e.items()))) for j, e in row.items()))
                  for row in rows.values()),
            (), tuple(col_index[j] for j in kept))


def _resolution_complex(res: "ProjResolution") -> tuple:
    """The `ZRep._presentation` tuple of a projective resolution: each
    map's (row, column) entries read as rows over its domain's slots."""
    def rows(d, count):
        return tuple(tuple((r, row[c]) for r, row in enumerate(d) if row[c])
                     for c in range(count))
    return (res.p0, res.p1, res.p2, rows(res.d1, len(res.p1)), rows(res.d2, len(res.p2)),
            res.augmentation)


def _path_action(n: ZRep, path: tuple) -> tuple:
    """The action of a nonempty path on n as sparse rows, tuples of
    (column, entry) pairs without zeros.  Built from its prefix,
    n(p a) = n_a n(p), and kept on n."""
    actions = n._path_actions
    try:
        return actions[path]
    except KeyError:
        pass
    last = n.actions[path[-1]].entries
    if len(path) == 1:
        out = tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in last)
    else:
        prefix = _path_action(n, path[:-1])
        out = []
        for row in last:
            acc = {}
            for l, x in enumerate(row):
                if x:
                    for k, y in prefix[l]:
                        acc[k] = acc.get(k, 0) + x * y
            out.append(tuple((k, z) for k, z in acc.items() if z))
        out = tuple(out)
    actions[path] = out
    return out


def _act(n: ZRep, path: tuple, vec) -> tuple:
    """The path's action on n applied to the generator vector vec."""
    if not path:
        return tuple(vec)
    return tuple(sum(x * vec[k] for k, x in row) for row in _path_action(n, path))


def _hom_rows(row_slots, col_slots, entries, n: ZRep) -> tuple:
    """The sparse rows of Hom(d, n): Hom(P(col_slots), n) ->
    Hom(P(row_slots), n), for d with the rows of path sums `entries`
    (as in `ZRep._presentation`), and their width.

    Block (i, j) is the sum of c n(p) over the terms (p, c) of d's entry
    (i, j): rows of n at row i's vertex, columns of n at column j's
    vertex.  Blocks of different columns are disjoint, so only an entry
    of several terms can cancel to zero.
    """
    gens, actions = n.gens, n._path_actions
    at, width = [], 0
    for v in col_slots:
        at.append(width)
        width += gens[v - 1]
    rows = []
    for v, entry in zip(row_slots, entries):
        block = [{} for _ in range(gens[v - 1])]
        if not block:
            continue
        summed = False
        for j, terms in entry:
            base = at[j]
            summed = summed or len(terms) > 1
            for p, x in terms:
                if not p:
                    for r, out in enumerate(block):
                        out[base + r] = out.get(base + r, 0) + x
                    continue
                action = actions.get(p)
                if action is None:
                    action = _path_action(n, p)
                for out, action_row in zip(block, action):
                    for k, y in action_row:
                        out[base + k] = out.get(base + k, 0) + x * y
        if summed:
            block = [{c: x for c, x in out.items() if x} for out in block]
        rows += block
    return rows, width


def _presented_rows(m: ZRep, n: ZRep) -> tuple:
    """The sparse rows of Hom(presentation of m, n), and their width."""
    p0, p1, _, d1, _, _ = m._presentation
    return _hom_rows(p1, p0, d1, n)


def _dense(rows: list, width: int) -> IntMatrix:
    return _matrix(len(rows), width,
                   tuple(tuple(row.get(c, 0) for c in range(width)) for row in rows))


def _relations(slots, n: ZRep) -> IntMatrix:
    """n's relations in Hom(P(slots), n), the sum of n at the slots."""
    return block_diag([n.relations[v - 1] for v in slots])


def _cycles(cx: tuple, n: ZRep, k: int) -> IntMatrix:
    """Columns spanning the degree-k cycles of Hom(P., n), for P. the
    complex cx of `ZRep._presentation`: the x in Hom(P_k, n) whose image
    in Hom(P_{k+1}, n) lies in n's relations, from one kernel_basis with
    those relations as extra columns."""
    rows, width = _hom_rows(cx[k + 1], cx[k], cx[k + 3], n)
    kb = kernel_basis(_dense(rows, width).hstack(_relations(cx[k + 1], n).neg()))
    return kb.submatrix(range(width), range(kb.cols))


def _cohomology(cx: tuple, n: ZRep, k: int) -> tuple:
    """(H^k of Hom(P., n), its cycles) for k = 0 or 1: the cycles modulo
    n's relations in Hom(P_k, n) and, for k = 1, the image of
    Hom(P_0, n)."""
    cycles = _cycles(cx, n, k)
    boundaries = _relations(cx[k], n)
    if k:
        boundaries = _dense(*_hom_rows(cx[1], cx[0], cx[3], n)).hstack(boundaries)
    return subquotient_structure(cycles, boundaries), cycles


def _lift(m: ZRep, n: ZRep, cycles: IntMatrix) -> tuple:
    """The vertexwise maps m -> n of the columns x of cycles, elements of
    Hom(P_0, n), the sum of n at p0's slots: f_v = X_v Y_v, where X_v
    holds n(p) x_j at the basis (j, p) of (P_0)_v and Y_v is the row
    block of `ZRep._sections` at v."""
    q = m.quiver
    p0 = m._presentation[0]
    at = [0]
    for w in p0:
        at.append(at[-1] + n.gens[w - 1])
    # per vertex, the basis elements whose row of Y_v is nonzero
    terms = [[(j, p, y) for (j, p), y in zip(_ambient(q, p0, v), m._sections[v - 1]) if any(y)]
             for v in q.vertices]
    basis = []
    for x in zip(*cycles.entries):
        maps = []
        for v in q.vertices:
            f = [[0] * m.gens[v - 1] for _ in range(n.gens[v - 1])]
            for j, p, y in terms[v - 1]:
                for row, a in zip(f, _act(n, p, x[at[j]:at[j + 1]])):
                    if a:
                        for c, b in enumerate(y):
                            row[c] += a * b
            maps.append(_matrix(len(f), m.gens[v - 1], tuple(map(tuple, f))))
        basis.append(tuple(maps))
    return tuple(basis)


@memo
def _lattice_hom_ext(m: ZRep, n: ZRep) -> tuple:
    """(Hom, Ext^1) between lattices from one untracked reduction.

    Hom is free of rank the nullity, and Ext^1 is the cokernel, of
    Hom(presentation of m, n), read off its sparse rows; on an
    exceptional lattice the system is that of the minimal resolution.
    The Hom basis is the kernel of the same system, rebuilt from (m, n)
    when read, so no matrix is kept alive; a Hom of rank 0 has the empty
    basis and is never reduced again.
    """
    nullity, ext = kernel_rank_cokernel(*_presented_rows(m, n))
    make_basis = (lambda: _lift(m, n, _cycles(m._presentation, n, 0))) if nullity else tuple
    return Hom(free_group(nullity), make_basis), ext


@memo
def hom_group(m: ZRep, n: ZRep) -> Hom:
    """All homomorphisms of representations m -> n over the path algebra.

    H^0 of Hom(P., n) for P. -> m the complex `ZRep._presentation`.
    Between lattices the rank is read with Ext^1 from one reduction per
    ordered pair (`_lattice_hom_ext`); otherwise the cycles come from one
    kernel_basis with n's relations as extra columns and the group is
    taken modulo those relations.  The basis lifts the cycles to
    vertexwise maps on first read.
    """
    if n.quiver is not m.quiver and n.quiver != m.quiver:
        raise DimensionMismatch("representations live over different quivers")
    if m.is_lattice and n.is_lattice:
        return _lattice_hom_ext(m, n)[0]
    group, cycles = _cohomology(m._presentation, n, 0)
    return Hom(group, partial(_lift, m, n, cycles))


@memo
def ext1_group(m: ZRep, n: ZRep) -> FinAbGroup:
    """Ext^1 over the integral path algebra.

    H^1 of Hom(P., n) for P. -> m the complex `ZRep._presentation`, a
    resolution.  Between lattices it is read with the Hom rank from one
    reduction per ordered pair, the cokernel of Hom out of m's
    presentation with its unit entries split off; in general it is the
    degree-one homology with n's relations as extra columns.  The test
    suite cross-checks the lattice route against the minimal resolution.
    """
    if n.quiver is not m.quiver and n.quiver != m.quiver:
        raise DimensionMismatch("representations live over different quivers")
    if m.is_lattice and n.is_lattice:
        return _lattice_hom_ext(m, n)[1]
    return _cohomology(m._presentation, n, 1)[0]


# ---------------------------------------------------------------------------
# projective resolutions

@dataclass(frozen=True)
class ProjResolution:
    """0 -> P(p2) -> P(p1) -> P(p0) -> M -> 0 with path-coefficient maps.

    Slots are vertex indices; a formal sum P(slots) is the direct sum of
    the corresponding indecomposable projectives.  The (row, col) entry
    of d1/d2 is a Z-linear combination of paths from the row slot's
    vertex to the column slot's vertex, stored as a sorted tuple of
    (arrow tuple, coefficient) pairs.  The augmentation records, per p0
    slot, the generator-lift vector of its image in the module.
    """

    module: ZRep
    p0: tuple
    p1: tuple
    p2: tuple
    d1: tuple
    d2: tuple
    augmentation: tuple


def projective_resolution(m: ZRep) -> ProjResolution:
    """The minimal projective resolution, length <= 1 for lattices, <= 2 in general.

    Each stage is a projective cover, minimal as built.  The arrow ideal
    J of ZQ is nilpotent on an acyclic Q, so by the graded Nakayama
    lemma lifts of any generating set of top(N) = N / JN generate N; a
    projective ZQ-module is a sum of P(v)s and has free top.  P0 lifts a
    minimal generating set of top(M), P1 one of top(K) for the lattice
    K = ker(P0 -> M), and P2 a basis of top(L) for L = ker(P1 -> P0),
    which is projective because lattices have projective dimension <= 1
    over ZQ; so P2 -> L is an isomorphism.

    A kernel element's trivial-path coefficients at v are the
    coefficients of a relation among the chosen generators of the top at
    v, so each lies in d Z for d the least invariant factor other than 1
    there, which divides the others.  Hence no same-vertex trivial-path
    block of d1 or d2 has a unit invariant factor: nothing splits off.
    """
    q = m.quiver
    p0, aug = _cover(m)
    k, k_basis = _kernel(m, p0, aug)
    p1, k_lifts = _cover(k)
    l, l_basis = _kernel(k, p1, k_lifts)
    p2, l_lifts = _cover(l, free_top=True)
    return ProjResolution(
        module=m,
        p0=p0,
        p1=p1,
        p2=p2,
        d1=_path_entries(q, p0, p1, [k_basis[v - 1].mul_vec(u) for v, u in zip(p1, k_lifts)]),
        d2=_path_entries(q, p1, p2, [l_basis[v - 1].mul_vec(u) for v, u in zip(p2, l_lifts)]),
        augmentation=aug,
    )


def _cover(n: ZRep, free_top: bool = False) -> tuple:
    """(slots, lifts) of a minimal generating set of top(n), vertex by vertex.

    top(n)_v is Z^{g_v} modulo the relations and the images of the
    arrows into v.  With that span = U S V, the columns of U at the
    invariant factors other than 1 lift generators of its cyclic
    factors.  free_top asserts there is no torsion factor, as for a
    projective n.
    """
    slots, lifts = [], []
    for v in n.quiver.vertices:
        span = n.relations[v - 1]
        for a in n.quiver.arrows_into(v):
            span = span.hstack(n.actions[a])
        dec = snf(span)
        factors = dec.diagonal + (0,) * (n.gens[v - 1] - len(dec.diagonal))
        for i, d in enumerate(factors):
            if d != 1:
                assert not (free_top and d), "the top of a projective has torsion"
                slots.append(v)
                lifts.append(dec.U.col(i))
    return tuple(slots), tuple(lifts)


def _ambient(q: Quiver, slots, j: int) -> list:
    """The basis of P(slots) at vertex j: (slot, path) pairs in slot order."""
    return [(k, p) for k, v in enumerate(slots) for p in paths_from(q, v)[j]]


def _kernel(n: ZRep, slots, lifts) -> tuple:
    """The kernel of P(slots) -> n sending slot k's trivial path to lifts[k].

    Returns the kernel as a lattice and, per vertex, its basis as
    columns in the (slot, path) basis of P(slots).
    """
    q = n.quiver
    basis = []
    for j in q.vertices:
        amb = _ambient(q, slots, j)
        cols = [_act(n, p, lifts[k]) for k, p in amb]
        g = n.gens[j - 1]
        eps = IntMatrix(g, len(cols), tuple(tuple(c[r] for c in cols) for r in range(g)))
        kb = kernel_basis(eps.hstack(n.relations[j - 1].neg()))
        basis.append(column_span_basis(kb.submatrix(range(len(amb)), range(kb.cols))))
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        src = basis[s - 1]
        index = {key: i for i, key in enumerate(_ambient(q, slots, t))}
        image = [(0,) * src.cols] * len(index)
        # the arrow sends the basis path (k, p) to (k, p + a)
        for r, (k, p) in enumerate(_ambient(q, slots, s)):
            image[index[(k, p + (a,))]] = src.entries[r]
        actions.append(solve_matrix(basis[t - 1], IntMatrix(len(image), src.cols, tuple(image))))
    return make_lattice(q, tuple(b.cols for b in basis), actions), tuple(basis)


def _path_entries(q: Quiver, row_slots, col_slots, columns) -> tuple:
    """Entries of the map P(col_slots) -> P(row_slots) sending column c's
    trivial path to columns[c], given in the (slot, path) basis of
    P(row_slots) at that column's vertex.  That basis lists each slot's
    paths sorted, so every entry comes out as a sorted path sum."""
    out = [[[] for _ in col_slots] for _ in row_slots]
    for c, (v, vec) in enumerate(zip(col_slots, columns)):
        for x, (r, p) in zip(vec, _ambient(q, row_slots, v)):
            if x:
                out[r][c].append((p, x))
    return tuple(tuple(tuple(e) for e in row) for row in out)


# ---------------------------------------------------------------------------
# kernels, cokernels, isomorphism

def kernel_subrep(m: ZRep, n: ZRep, maps) -> ZRep:
    """Kernel of a morphism of lattices m -> n, on the kernel_basis of
    each vertex map.  The kernel of an integer matrix is saturated, so
    it is a lattice."""
    q = m.quiver
    incl = [kernel_basis(maps[v]) for v in range(q.n)]
    actions = [solve_matrix(incl[t - 1], m.actions[a].mul(incl[s - 1]))
               for a, (s, t) in enumerate(q.arrows)]
    return make_lattice(q, tuple(b.cols for b in incl), actions)


def cokernel_rep(m: ZRep, n: ZRep, maps) -> ZRep:
    """Saturated cokernel of a morphism of lattices m -> n: the torsion of
    each vertex group is discarded, so the result is a lattice."""
    q = m.quiver
    projections, sections = zip(*(free_cokernel(maps[v]) for v in range(q.n)))
    new_gens = tuple(p.rows for p in projections)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        actions.append(projections[t - 1].mul(n.actions[a]).mul(sections[s - 1]))
    return make_lattice(q, new_gens, tuple(actions))


def are_isomorphic_exceptional(m: ZRep, n: ZRep) -> bool:
    """Isomorphism test valid for exceptional representations.

    Exceptional objects have endomorphism ring Z, so any isomorphism is
    visible on a Hom basis element as a family of vertexwise unimodular
    matrices.
    """
    if not is_exceptional(m) or not is_exceptional(n):
        raise PreconditionViolated("isomorphism test requires exceptional inputs")
    if dim_vector(m) != dim_vector(n) or m.gens != n.gens:
        return False
    for f in hom_group(m, n).basis:
        if all(_is_unimodular(mat) for mat in f):
            return True
    return False


def _is_unimodular(mat: IntMatrix) -> bool:
    return mat.rows == mat.cols and is_split_injective(mat)


# ---------------------------------------------------------------------------
# rigidity

def is_rigid(m: ZRep) -> bool:
    return ext1_group(m, m).is_trivial


@memo
def is_exceptional(m: ZRep) -> bool:
    """Rigid with endomorphism group free of rank one."""
    if not is_rigid(m):
        return False
    return hom_group(m, m).group == free_group(1)


# ---------------------------------------------------------------------------
# base change

@dataclass(frozen=True)
class FieldRep:
    """A representation over F_p (p prime) or Q (p == 0), with the
    lattice it is the reduction of."""

    quiver: Quiver
    p: int
    dims: tuple
    actions: tuple  # per arrow, tuple of row tuples (ints mod p; integers for p == 0)
    lattice: ZRep = field(compare=False, repr=False)


def base_change(m: ZRep, p: int) -> FieldRep:
    """Vertexwise tensor with the prime field F_p, or with Q when p == 0.

    A lattice has no relations, so its reduction keeps its generators
    and takes its action entries mod p, or as they are over Q.  Over Q
    the torsion dies, so the saturated cokernel of the relations is an
    integral form of m tensor Q and its action matrices serve as is.
    The result keeps the lattice it reduces: m itself for a lattice,
    else that integral form over Q and the lattice of the reduced
    matrices over F_p.
    """
    q = m.quiver
    if m.is_lattice:
        actions = tuple(tuple(tuple(x % p for x in row) for row in a.entries) if p else a.entries
                        for a in m.actions)
        return FieldRep(q, p, m.gens, actions, m)
    if p == 0:
        free = cokernel_rep(m, m, m.relations)
        return FieldRep(q, 0, free.gens, tuple(a.entries for a in free.actions), free)
    bases = []   # per vertex: (pivot coords, reduced relation rows, free coords)
    for v in range(q.n):
        reduced, pivots = rref_mod_p(m.relations[v].transpose().entries, p)
        free = [c for c in range(m.gens[v]) if c not in pivots]
        bases.append((pivots, reduced, free))
    dims = tuple(len(b[2]) for b in bases)
    actions = []
    for a, (s, t) in enumerate(q.arrows):
        su, tv = s - 1, t - 1
        mat = m.actions[a]
        cols = []
        for c in bases[su][2]:
            vec = [mat.entries[r][c] % p for r in range(m.gens[tv])]
            vec = _reduce_mod_basis(vec, bases[tv][0], bases[tv][1], p)
            cols.append([vec[r] for r in bases[tv][2]])
        actions.append(tuple(tuple(cols[c][r] for c in range(dims[su]))
                             for r in range(dims[tv])))
    lattice = _lattice(q, dims, tuple(
        _matrix(dims[t - 1], dims[s - 1], a) for a, (s, t) in zip(actions, q.arrows)))
    return FieldRep(q, p, dims, tuple(actions), lattice)


def _reduce_mod_basis(vec, pivots, reduced, p):
    out = list(vec)
    for c, r in pivots.items():
        f = out[c] % p
        if f:
            out = [(x - f * y) % p for x, y in zip(out, reduced[r])]
    return out


def field_hom_ext_dims(m: FieldRep, n: FieldRep) -> tuple:
    """(dim Hom, dim Ext^1) over the field, from the presented system of
    the lattices the two reduce.

    A lattice is free over Z, so its presentation 0 -> P_1 -> P_0 -> L
    -> 0 stays exact over F_p and over Q, and Hom and Ext^1 of the
    reductions are the kernel and the cokernel of `_presented_rows` of
    the two lattices over the field.
    """
    if m.quiver != n.quiver or m.p != n.p:
        raise DimensionMismatch("field representations are not comparable")
    rows, width = _presented_rows(m.lattice, n.lattice)
    rk = smith_invariants(rows, n.p)[0]
    return width - rk, len(rows) - rk
