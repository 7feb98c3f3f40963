"""The integral cluster category on its fundamental objects.

Objects are exceptional lattices at shift zero together with the
suspended indecomposable projectives; those are exactly the candidates
for summands of cluster-tilting objects, so nothing else enters the
data model.  On this fundamental domain the orbit sum of derived Homs
has at most two nonzero terms (Buan-Marsh-Reineke-Reiten-Todorov,
Tilting theory and cluster combinatorics, 2006, section 1), so ext1_c
and the suspension are closed forms in Hom, Ext^1, tau and tau_inv of
lattices, and hom_c is ext1_c against the desuspension; no orbit is
walked.  The rigid pool walks each translate orbit once on dimension
vectors, from the injective lattices and the projectives, and holds
every translate within its dimension bound at its orbit coordinate; a
lattice there is built only when its module is read, so exchange
graphs on pool objects build none.

ext1_c keeps the Hom(M, tau N) term instead of the duality shortcut
D Ext^1(N, M), which is only rank-faithful; the duality statement is
kept as a test invariant.

Orbit coordinates.  Each lattice a pool walk produces carries where the
walk met it: ("P", i, a) for tau^-a P_i, ("I", j, b) for tau^b I_j.
Its key, its class and its suspension are read off the coordinate.
Between two such lattices ext1_c reads its rank off dimension vectors,
which the Coxeter matrix moves along the orbit, and reduces no matrix:

- tau is the Coxeter functor C+ and tau^- is C-, composites of BGP
  reflections.  A sink reflection takes a kernel, which is saturated; a
  source reflection takes a cokernel and saturates it, and saturation
  does not change Hom into a lattice, since a map into a lattice kills
  torsion.  So C- is left adjoint to C+ on lattices, as over a field.
- Hence rank Hom(tau^-a P_i, Y) = rank Hom(P_i, tau^a Y) = (dim tau^a Y)_i
  by Yoneda, which is 0 when Y = tau^-c P_j with c < a, because C+ kills
  P_j.  Dually rank Hom(X, tau^c I_j) = (dim tau^-c X)_j, which is 0 when
  X = tau^b I_i with b < c.  Preinjective into preprojective is 0: on a
  connected non-Dynkin quiver tau^b I_i = C-^(c+1) tau^(b+c+1) I_i, and
  C+^(c+1) tau^-c P_j = 0.  Hom between lattices is free.
- rank Hom(M, N) - rank Ext^1(M, N) = <dim M, dim N> between lattices,
  from the intertwining matrix whose kernel is Hom and cokernel Ext^1.
- Ext^1(M, N) is free.  From 0 -> N -> N -> N/p -> 0 its p-torsion has
  F_p-dimension dim Hom(M/p, N/p) - rank Hom(M, N), and the argument
  above runs unchanged over F_p, where M/p and N/p are the same orbit
  modules (the rigid indecomposables do not depend on the ground ring),
  so Hom dimensions do not depend on the field and the difference is 0.

Presented modules, lattices read from files and mutation-cone partners
carry no coordinate, nor does an orbit the bound cuts on a Dynkin or
disconnected quiver; their pairs are computed by elimination.

Exchange matrices and partners.  Each cluster a mutation meets carries
its extended exchange matrix [B_T; C_T], kept in the pool: the
projective cluster's is read off the arrows of the quiver over the
identity, mutate carries the Fomin-Zelevinsky mutation of a cluster's
matrix to the cluster it reaches, and a cluster that arrives alone gets
its class matrix from one integer solve.  The columns of C_T, the
c-vectors, are sign-coherent (Derksen-Weyman-Zelevinsky, Quivers with
potentials and their representations II, 2010), and the sign of the
leaving summand's names the middle term E of the exchange triangle that
lifts to the fundamental domain; the partner's class is dim E minus the
leaving class (the g-vector recursion of Fomin-Zelevinsky, Cluster
algebras IV, 2007).  So mutate looks the partner up by its class,
refuses a class past the bound before it builds anything, and builds an
approximation cone only for a class the pool lacks; exchange_triangles
makes the same prediction from a lone seed's class matrix.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, deque
from dataclasses import dataclass, field
from math import inf

from .errors import (
    BalanceUnsolvable,
    ConstructionFailed,
    DimensionMismatch,
    NoSolution,
    NotASummand,
    NotFoundWithinBound,
    PreconditionViolated,
)
from .memo import hash_once, memo, once
from .quiver import (
    Quiver,
    coxeter_apply,
    coxeter_inverse,
    coxeter_matrix,
    euler_form,
    is_connected,
    is_dynkin,
    validate,
)
from .zlinalg import (
    FinAbGroup,
    IntMatrix,
    cokernel_structure,
    free_group,
    is_split_injective,
    solve_matrix,
)
from . import rep, serre
from .rep import ZRep


# ---------------------------------------------------------------------------
# objects

@hash_once
@dataclass(frozen=True)
class ClusterObject:
    """A module-variant or shifted-projective object of the cluster category.

    An exceptional lattice is identified by its dimension vector (dims),
    any other exceptional module by itself (presented), and a suspended
    projective by its vertex.  A lattice can sit at an orbit coordinate
    (coord): then its key and class are read off the coordinate, and its
    module is built on first read, by the orbit walk that reached it.
    """

    quiver: Quiver
    dims: tuple | None = None
    presented: ZRep | None = None
    shifted_projective: int | None = None
    # Not fields, so ==, hash and repr ignore them.  coord is the orbit
    # coordinate of a lattice a pool walk produces: ("P", i, a) is
    # tau^-a P_i and ("I", j, b) is tau^b I_j.  source is the lattice, or
    # the walk that builds it on first read, in the same notation; it
    # differs from coord on an orbit walked backward to its projective.
    coord = None
    source = None

    def __post_init__(self):
        if sum(v is not None for v in (self.dims, self.presented, self.shifted_projective)) != 1:
            raise PreconditionViolated("exactly one variant must be set")
        if self.presented is not None:
            if self.presented.quiver != self.quiver:
                raise DimensionMismatch("module lives over a different quiver")
            if not rep.is_exceptional(self.presented):
                raise PreconditionViolated("module objects must be exceptional")

    @staticmethod
    def from_module(m: ZRep) -> "ClusterObject":
        """The object of the exceptional module m, with no orbit coordinate."""
        if not m.is_lattice:
            return ClusterObject(m.quiver, presented=m)
        if not rep.is_exceptional(m):
            raise PreconditionViolated("module objects must be exceptional")
        return ClusterObject._lattice(m.quiver, m.gens, None, m)

    @staticmethod
    def at(q: Quiver, coord: tuple, walk: tuple | None = None) -> "ClusterObject":
        """The lattice at an orbit coordinate, built on first read by walk,
        by default the walk along coord."""
        return ClusterObject._lattice(q, _orbit_dim(q, coord), coord, walk or coord)

    @staticmethod
    def _lattice(q: Quiver, dims: tuple, coord, source) -> "ClusterObject":
        obj = ClusterObject(q, dims=dims)
        object.__setattr__(obj, "coord", coord)
        object.__setattr__(obj, "source", source)
        return obj

    @staticmethod
    def sigma_projective(q: Quiver, i: int) -> "ClusterObject":
        if not 1 <= i <= q.n:
            raise DimensionMismatch(f"vertex {i} out of range")
        return ClusterObject(q, shifted_projective=i)

    @property
    def is_module(self) -> bool:
        return self.shifted_projective is None

    @property
    @once
    def module(self) -> ZRep | None:
        """The module, None for a suspended projective.  A lattice at a
        coordinate is built on first read and must be exceptional, with
        the dimension vector of its coordinate."""
        if self.dims is None:
            return self.presented
        if isinstance(self.source, ZRep):
            return self.source
        if self.source is None:
            raise PreconditionViolated(f"no lattice is known for {self.describe()}")
        m = _walk_module(self.quiver, self.source)
        if not m.is_lattice or m.gens != self.dims or not rep.is_exceptional(m):
            raise PreconditionViolated(f"{self.source} is not a walk to {self.coord}")
        return m

    @once
    def key(self) -> tuple:
        """Canonical key; exceptional modules are determined by dimension vector."""
        if self.is_module:
            return ("M", self.dim_c())
        return ("S", (self.shifted_projective,))

    @once
    def suspended(self) -> "ClusterObject":
        """The suspension of this object, built once and kept on it."""
        return suspension(self)

    @once
    def dim_c(self) -> tuple:
        """Class in the dimension bookkeeping, with dim(sigma P_i) = -dim P_i."""
        if self.dims is not None:
            return self.dims
        if self.presented is not None:
            return rep.dim_vector(self.presented)
        p = rep.projective(self.quiver, self.shifted_projective)
        return tuple(-d for d in rep.dim_vector(p))

    def describe(self) -> str:
        if self.is_module:
            return "M" + str(list(self.dim_c()))
        return f"SP{self.shifted_projective}"


# ---------------------------------------------------------------------------
# orbit coordinates

@memo
def _orbit_dim(q: Quiver, coord: tuple) -> tuple:
    """The dimension vector at an orbit coordinate, by the Coxeter transform."""
    side, v, power = coord
    if side == "P":
        return coxeter_apply(q, rep.projective(q, v).gens, -power)
    return coxeter_apply(q, rep.injective_lattice(q, v).gens, power)


def _walk_module(q: Quiver, walk: tuple) -> ZRep:
    """tau^b I_j for the walk ("I", j, b), tau^-a P_i for ("P", i, a)."""
    side, v, steps = walk
    if side == "P":
        m, step = rep.projective(q, v), serre.tau_inv
    else:
        m, step = rep.injective_lattice(q, v), serre.tau
    for _ in range(steps):
        m = step(m)
    return m


def _backward_walk(q: Quiver, j: int, bound) -> tuple:
    """(dims, i): the dimension vectors of tau^b I_j for b = 0, 1, ...,
    up to the projective P_i, or up to the last before a translate past
    the bound, with i None then."""
    phi = coxeter_matrix(q)
    dims = [rep.injective_lattice(q, j).gens]
    while (i := serre.index_by_dims(q, dims[-1], rep.projective)) is None:
        step = phi.mul_vec(dims[-1])
        if max(step) > bound:
            return dims, None
        dims.append(step)
    return dims, i


def _is_projective_coord(coord: tuple) -> bool:
    return coord[0] == "P" and coord[2] == 0


def _translate_coord(coord: tuple, k: int) -> tuple:
    """The coordinate (or walk) of tau^k of the lattice at coord."""
    side, v, power = coord
    return (side, v, power - k if side == "P" else power + k)


def _translate(x: ClusterObject, k: int) -> ClusterObject:
    """tau^k of the coordinate object x, for k = 1 or -1, built on read
    by x's walk one step further (P_i by rep.projective)."""
    coord = _translate_coord(x.coord, k)
    if _is_projective_coord(coord):
        return ClusterObject.at(x.quiver, coord)
    return ClusterObject.at(x.quiver, coord, _translate_coord(x.source, k))


def _injective_object(q: Quiver, j: int) -> ClusterObject:
    """I_j at the coordinate a pool whose bound cuts no orbit gives it:
    ("P", i, b) on a Dynkin quiver, where the backward walk closes at P_i,
    and ("I", j, 0) on a connected non-Dynkin one; on a disconnected
    quiver I_j carries no coordinate."""
    if is_dynkin(q):
        dims, i = _backward_walk(q, j, inf)
        return ClusterObject.at(q, ("P", i, len(dims) - 1), ("I", j, 0))
    if is_connected(q):
        return ClusterObject.at(q, ("I", j, 0))
    return ClusterObject.from_module(rep.injective_lattice(q, j))


def _hom_rank(q: Quiver, cx: tuple, cy: tuple) -> int:
    """rank Hom(X, Y) between the lattices at orbit coordinates cx and cy."""
    (sx, i, a), (sy, j, c) = cx, cy
    if sx == "P":
        # Hom(tau^-a P_i, Y) = Hom(P_i, tau^a Y) = (tau^a Y)_i, and
        # tau^a Y = 0 once the walk down Y's orbit passes P_j
        if sy == "P":
            return _orbit_dim(q, ("P", j, c - a))[i - 1] if c >= a else 0
        return _orbit_dim(q, ("I", j, c + a))[i - 1]
    if sy == "I":
        # Hom(X, tau^c I_j) = Hom(tau^-c X, I_j) = (tau^-c X)_j
        return _orbit_dim(q, ("I", i, a - c))[j - 1] if a >= c else 0
    return 0  # preinjective into preprojective


def _ext1_rank(x: ClusterObject, y: ClusterObject) -> int:
    """rank Ext^1_C between two lattices with orbit coordinates.

    The Ext^1(M, N) term is rank Hom(M, N) - <dim M, dim N>, from the
    exact sequence 0 -> Hom -> (+)_v Hom(M_v, N_v) -> (+)_a
    Hom(M_s(a), N_t(a)) -> Ext^1 -> 0 of lattices, and the second term
    is rank Hom(M, tau N); AR duality is not used.
    """
    q, cx, cy = x.quiver, x.coord, y.coord
    r = 0
    if not _is_projective_coord(cx):
        r += _hom_rank(q, cx, cy) - euler_form(q, x.dim_c(), y.dim_c())
    if not _is_projective_coord(cy):
        r += _hom_rank(q, cx, _translate_coord(cy, 1))
    return r


# ---------------------------------------------------------------------------
# morphisms on the fundamental domain

def hom_c(x: ClusterObject, y: ClusterObject) -> FinAbGroup:
    """Morphism group in the cluster category: Ext^1_C against the
    desuspension of the target.

    Between modules this is Hom(M, N) + Ext^1(M, tau^- N), the second
    term only for M not projective and N not injective.
    """
    return ext1_c(x, _desuspension(y))


@memo
def ext1_c(x: ClusterObject, y: ClusterObject) -> FinAbGroup:
    """Ext^1 in the cluster category.

    Ext^1(M, N) + Hom(M, tau N) between modules, the first term only for
    M not projective and the second only for N not projective;
    Hom(P_i, N) out of sigma P_i, Hom(M, I_j) into sigma P_j, and 0
    between two suspended projectives.  Between two lattices with orbit
    coordinates the group is free of the rank _ext1_rank reads off
    dimension vectors; against sigma P_i a lattice L gives free of rank
    (dim L)_i (Yoneda, and Hom(L, I_i) = Hom_Z(L_i, Z)).  Every other
    pair is computed by elimination, with a translate that is P_i read
    as rep.projective(q, i) (serre.tau_canonical).
    """
    if x.quiver is not y.quiver and x.quiver != y.quiver:
        raise DimensionMismatch("objects live over different quivers")
    q = x.quiver
    if not x.is_module:
        if not y.is_module:
            return free_group(0)
        i = x.shifted_projective
        if y.dims is not None:
            return free_group(y.dims[i - 1])
        return rep.hom_group(rep.projective(q, i), y.module).group
    if not y.is_module:
        i = y.shifted_projective
        if x.dims is not None:
            return free_group(x.dims[i - 1])
        return rep.hom_group(x.module, rep.injective_lattice(q, i)).group
    if x.coord is not None and y.coord is not None:
        return free_group(_ext1_rank(x, y))
    m, n = x.module, y.module
    total = free_group(0) if serre.projective_index_of(m) is not None else rep.ext1_group(m, n)
    if serre.projective_index_of(n) is None:
        total = total.direct_sum(rep.hom_group(m, serre.tau_canonical(n)).group)
    return total


def suspension(x: ClusterObject) -> ClusterObject:
    """The suspension on the fundamental domain.

    P_i goes to sigma P_i, any other module M to tau M, and sigma P_i
    to the injective lattice I_i.  An object at an orbit coordinate
    moves one step down its orbit and I_i takes its coordinate
    (_injective_object), so neither reads a module; a module without a
    coordinate is translated.  The exchange triangles read
    x.suspended(), which calls this once per object.
    """
    q = x.quiver
    if not x.is_module:
        return _injective_object(q, x.shifted_projective)
    if x.coord is not None:
        if _is_projective_coord(x.coord):
            return ClusterObject.sigma_projective(q, x.coord[1])
        return _translate(x, 1)
    i = serre.projective_index_of(x.module)
    if i is not None:
        return ClusterObject.sigma_projective(q, i)
    return ClusterObject.from_module(serre.tau(x.module))


def _desuspension(x: ClusterObject) -> ClusterObject:
    """The inverse of the suspension: I_i goes to sigma P_i, any other
    module N to tau^- N, and sigma P_i to the pool's P_i, an object at an
    orbit coordinate to the coordinate one step up its orbit."""
    q = x.quiver
    if not x.is_module:
        return ClusterObject.at(q, ("P", x.shifted_projective, 0))
    if x.coord is not None:
        i = serre.index_by_dims(q, x.dim_c(), rep.injective_lattice)
        return ClusterObject.sigma_projective(q, i) if i is not None else _translate(x, -1)
    i = serre.injective_index_of(x.module)
    if i is not None:
        return ClusterObject.sigma_projective(q, i)
    return ClusterObject.from_module(serre.tau_inv(x.module))


def g_functor(x: ClusterObject) -> ZRep:
    """Module part: the identity on module objects, zero on suspended projectives."""
    if x.is_module:
        return x.module
    return rep.zero_rep(x.quiver)


# ---------------------------------------------------------------------------
# the rigid object pool

@dataclass
class RigidPool:
    """All known rigid indecomposable objects within a dimension bound.

    complete is True exactly for Dynkin quivers, where the translate
    orbits of the projectives exhaust the exceptional modules.  objects
    stays sorted by key, find looks a key up by bisection, and the pool
    grows only through add.

    Exchange matrices.  The pool also keeps the extended exchange matrix
    [B_T; C_T] of each canonical cluster a mutation met
    (exchange_matrix): n columns in summand order over 2n rows, the n of
    B_T in summand order and the n of C_T in vertex order.  mutate
    carries it to the cluster it reaches, so the matrices of an exchange
    graph come from the one of its projective cluster.
    """

    quiver: Quiver
    dim_bound: int
    objects: tuple = ()
    provenance: dict = field(default_factory=dict)
    complete: bool = False
    # canonical cluster -> its extended exchange matrix
    _exchange: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __contains__(self, obj: ClusterObject) -> bool:
        """Whether an object of the pool has the key of obj."""
        return self.find(obj.key()) is not None

    def find(self, key: tuple) -> ClusterObject | None:
        """The object with the given key, or None."""
        i = bisect(self.objects, key, key=ClusterObject.key)
        if i and self.objects[i - 1].key() == key:
            return self.objects[i - 1]
        return None

    def by_key(self) -> dict:
        return {obj.key(): obj for obj in self.objects}

    def modules(self) -> tuple:
        return tuple(obj for obj in self.objects if obj.is_module)

    def add(self, obj: ClusterObject, tag: str) -> bool:
        """Make obj an object unless one has its key."""
        if obj in self:
            return False
        key = obj.key()
        self.provenance[key] = tag
        i = bisect(self.objects, key, key=ClusterObject.key)
        self.objects = self.objects[:i] + (obj,) + self.objects[i:]
        return True

    def exchange_matrix(self, seed: tuple) -> tuple:
        """[B_T; C_T] of the canonical cluster seed: the matrix carried to
        it, else its class matrix, kept from then on."""
        b = self._exchange.get(seed)
        if b is None:
            b = self._exchange[seed] = _class_matrix(seed)
        return b

    def carry(self, seed: tuple, make) -> None:
        """Keep make() as [B_T; C_T] of the canonical cluster seed unless
        a matrix is kept for it already."""
        if seed not in self._exchange:
            self._exchange[seed] = make()


def build_pool(q: Quiver, dim_bound: int) -> RigidPool:
    """Shifted projectives plus the translate closure of the projective
    and injective lattices within the bound.

    Each orbit is walked once, on dimension vectors: backward from every
    injective lattice first, and forward from a projective only when no
    backward walk reached it.  A walk ends at a projective or before its
    first translate past the bound, which the Coxeter transform of the
    last dimension vector predicts, so the pool is closed under tau
    within the bound; tau is the composite of the sink reflections, so
    transporting pool modules through them adds nothing.  For Dynkin
    quivers the result is the complete list of rigid indecomposables;
    otherwise the completeness flag stays off and the pool can still
    grow through mutation cones.

    Every lattice gets the orbit coordinate its walk reached it at: from
    P_i on a forward walk or on a backward walk that closed at P_i, and
    from I_j on a backward walk that stayed open.  Its module is built
    only when read (ClusterObject.module), by the walk that reached it:
    tau^b I_j backward from the injective, or tau^-a P_i forward.  An
    open orbit is infinite only on a connected non-Dynkin quiver, where
    preinjectives never meet preprojectives; elsewhere (a Dynkin orbit
    cut by the bound, a disconnected quiver) its backward walk leaves no
    coordinate and builds its modules as it goes.  A partner past the
    bound needs no pool member: mutate refuses it by its predicted class.
    """
    validate(q)
    if dim_bound < 1:
        raise PreconditionViolated("dim_bound must be at least 1")
    pool = RigidPool(q, dim_bound, complete=is_dynkin(q))
    open_is_infinite = not pool.complete and is_connected(q)
    for i in q.vertices:
        pool.add(ClusterObject.sigma_projective(q, i), "projective")
    for i in q.vertices:
        if max(rep.projective(q, i).gens) <= dim_bound:
            pool.add(ClusterObject.at(q, ("P", i, 0)), "projective")
    # translate backward from injectives; reaching a projective closes the orbit
    closed = set()
    for j in q.vertices:
        dims, i = _backward_walk(q, j, dim_bound)
        if i is not None:
            closed.add(i)
            orbit = [ClusterObject.at(q, ("P", i, len(dims) - 1 - b), ("I", j, b))
                     for b in range(len(dims))]
        elif open_is_infinite:
            orbit = [ClusterObject.at(q, ("I", j, b)) for b in range(len(dims))]
        else:
            m = rep.injective_lattice(q, j)
            orbit = [ClusterObject.from_module(m)]
            for _ in dims[1:]:
                m = serre.tau(m)
                orbit.append(ClusterObject.from_module(m))
        for b, obj in enumerate(orbit):
            if b or max(dims[0]) <= dim_bound:
                pool.add(obj, "tau-orbit")
    # translate forward from the projectives of the open orbits
    phi_inv = coxeter_inverse(q)
    for i in q.vertices:
        if i in closed:
            continue
        dims, a = rep.projective(q, i).gens, 0
        while serre.index_by_dims(q, dims, rep.injective_lattice) is None:
            dims, a = phi_inv.mul_vec(dims), a + 1
            if max(dims) > dim_bound:
                break
            pool.add(ClusterObject.at(q, ("P", i, a)), "tau-orbit")
    return pool


# ---------------------------------------------------------------------------
# cluster-tilting objects

def is_cluster_tilting(summands) -> tuple:
    """Whether the summand list is cluster-tilting, with a certificate.

    Returns (flag, failures); each failure is a human-readable string
    naming the offending pair or count, in the order of the summands.
    Being cluster-tilting depends on the summands alone (Buan-Marsh-
    Reineke-Reiten-Todorov 2006), so the certificate is memoized on the
    summand tuple as given: a cluster that an exchange graph reaches
    along several edges is certified once, and a list or a generator
    asked again returns the identical result.
    """
    return _tilting_certificate(tuple(summands))


@memo
def _tilting_certificate(summands: tuple) -> tuple:
    failures = []
    if not summands:
        return False, ("empty summand list",)
    n = summands[0].quiver.n
    if len(summands) != n:
        failures.append(f"expected {n} summands, got {len(summands)}")
    keys = [s.key() for s in summands]
    if len(set(keys)) != len(keys):
        failures.append("summands are not pairwise non-isomorphic")
    for a in summands:
        for b in summands:
            g = ext1_c(a, b)
            if not g.is_trivial:
                failures.append(f"Ext1({a.describe()}, {b.describe()}) = {g}")
    return (not failures), tuple(failures)


def canonical_cluster(summands) -> tuple:
    return tuple(sorted(summands, key=ClusterObject.key))


# ---------------------------------------------------------------------------
# exchange matrices

def _arrow_matrix(q: Quiver, order) -> tuple:
    """[B_T; C_T] of the projective cluster, its summands P_v in the
    vertex order given: each arrow s -> t of q gives an arrow P_t -> P_s
    of End(T), so b(P_t, P_s) counts it and b(P_s, P_t) is its negative,
    and the c-vector of P_v is the unit vector at v."""
    n, at = q.n, {v: i for i, v in enumerate(order)}
    b = [[0] * n for _ in range(2 * n)]
    for s, t in q.arrows:
        b[at[t]][at[s]] += 1
        b[at[s]][at[t]] -= 1
    for v in q.vertices:
        b[n + v - 1][at[v]] = 1
    return tuple(map(tuple, b))


def _class_matrix(seed) -> tuple:
    """[B_T; C_T] of the seed, columns and the rows of B_T in its order,
    from its classes.

    With D_T the columns dim_c T_i and C the columns dim P_j, the index
    of T_i over the projective cluster is the column i of G = C^-1 D_T,
    and the indices of a cluster form a Z-basis, so D_T is unimodular.
    C_T = G^-T and B_T = G^-1 B_Q G^-T with G^-1 = D_T^-1 C and B_Q the
    matrix of the projective cluster (the g- and c-vector duality of
    Nakanishi-Zelevinsky, 2012), one integer solve.  PreconditionViolated
    when the seed has not n summands or its classes are no basis.
    """
    q = seed[0].quiver
    if len(seed) != q.n:
        raise PreconditionViolated(f"a seed has {q.n} summands, not {len(seed)}")
    classes = IntMatrix(q.n, q.n, tuple(zip(*(s.dim_c() for s in seed))))
    cartan = IntMatrix(q.n, q.n, tuple(zip(*(rep.projective(q, i).gens for i in q.vertices))))
    try:
        g = solve_matrix(classes, cartan)
    except NoSolution:
        raise PreconditionViolated("the summand classes are no basis: not a seed") from None
    b_q = IntMatrix(q.n, q.n, _arrow_matrix(q, q.vertices)[:q.n])
    c_t = g.transpose()
    return g.mul(b_q).mul(c_t).entries + c_t.entries


@dataclass(frozen=True)
class ExchangeTriangleData:
    """The two exchange triangles of a mutation pair.

    e is the middle multiset of y -> E -> x -> sigma y, e_prime that of
    x -> E' -> y -> sigma x.  Multisets are sorted tuples of cluster
    objects drawn from the complement.  The witnesses, strings that
    record how each middle term was certified, are not fields: each is
    computed on its first read and kept on the value (see _witness), so
    a mutation nobody asks about certifies nothing.
    """

    x: ClusterObject
    y: ClusterObject
    e: tuple
    e_prime: tuple

    @property
    @once
    def e_witness(self) -> str:
        return _witness(self.y, self.x, self.e)

    @property
    @once
    def e_prime_witness(self) -> str:
        return _witness(self.x, self.y, self.e_prime)


RANK_ONE = FinAbGroup(1)


def exchange_triangles(x: ClusterObject, y: ClusterObject, complement) -> ExchangeTriangleData:
    """Middle terms of both exchange triangles for the pair (x, y).

    complement + (x,) must be a seed: its [B_T; C_T] is read off its
    class matrix (_class_matrix, which raises PreconditionViolated on no
    seed), and the middle term E and the partner's class are predicted
    from the column of x as in mutate (_predicted_partner).
    BalanceUnsolvable is raised unless y has that class.  Both triangles
    have the middle term E unless a connecting isomorphism empties them
    (_triangle_data).  A middle term's witness, for all-module triangles
    a short exact sequence whose first map is the one Hom-basis
    approximation of the tail (_ses_certified), is computed and memoized
    when first read.
    """
    if ext1_c(x, y) != RANK_ONE:
        raise PreconditionViolated("exchange triangles need Ext1 free of rank one")
    seed = canonical_cluster(tuple(complement) + (x,))
    middle, cls = _predicted_partner(seed, _class_matrix(seed), seed.index(x))
    if y.dim_c() != cls:
        raise BalanceUnsolvable(
            f"{y.describe()} is not of the class {cls} predicted for the partner of "
            f"{x.describe()}")
    return _triangle_data(x, y, middle)


def _triangle_data(x: ClusterObject, y: ClusterObject, middle: tuple) -> ExchangeTriangleData:
    """The triangles of (x, y) with the middle term middle, a multiset of
    summands in key order, or none where the suspension of one end is
    the other."""
    return ExchangeTriangleData(x=x, y=y, e=() if y.suspended().key() == x.key() else middle,
                                e_prime=() if x.suspended().key() == y.key() else middle)


def _witness(tail: ClusterObject, head: ClusterObject, middle: tuple) -> str:
    """How the middle term of tail -> E -> head -> sigma tail is certified.

    "connecting-iso" when E is empty because the suspension of tail is
    head, "ses" when the cokernel of the Hom-basis approximation
    tail -> E is head, making a short exact sequence, and "balance"
    otherwise.
    """
    if not middle and tail.suspended().key() == head.key():
        return "connecting-iso"
    if (tail.is_module and head.is_module and all(c.is_module for c in middle)
            and _ses_certified(tail, head, middle)):
        return "ses"
    return "balance"


@memo
def _ses_certified(tail: ClusterObject, head: ClusterObject, middle: tuple) -> bool:
    """Whether 0 -> tail -> E -> head -> 0 is exact, E the direct sum of middle.

    In such a sequence tail -> E is the left add(middle)-approximation
    of tail (Buan-Marsh-Reineke-Reiten-Todorov 2006), so one map is
    tested: each distinct summand c must occur rank Hom(tail, c) times,
    and the map stacking the Hom bases must embed with a saturated image
    whose cokernel is isomorphic to head.  An exceptional lattice is
    identified by its dimension vector everywhere (ClusterObject.key), so
    an exceptional cokernel with the dimension vector of head is head and
    no isomorphism is searched for.
    """
    counts = Counter(middle)
    if any(rep.hom_group(tail.module, c.module).group != FinAbGroup(m)
           for c, m in counts.items()):
        return False
    coker = _left_approximation_cokernel(tail.module, canonical_cluster(counts))
    if coker is None or rep.dim_vector(coker) != rep.dim_vector(head.module):
        return False
    return rep.is_exceptional(coker)


# ---------------------------------------------------------------------------
# mutation

def mutate(summands, k: int, pool: RigidPool) -> tuple:
    """Replace the k-th summand by its unique exchange partner.

    summands must be cluster-tilting: its memoized certificate is read
    first, and PreconditionViolated raised before anything is built.
    The partner y of the leaving summand x is predicted from the
    cluster's [B_T; C_T], the one the pool carried to it or else its
    class matrix: the middle term E of the triangle that lifts to the
    fundamental domain and the class dim_c E - dim_c x
    (_predicted_partner).  The pool object of that class is y.  When the
    pool lacks it, a cluster with a suspended projective is refused, and
    so is a class past the bound, with nothing built; otherwise y is
    constructed by approximation, must have the predicted class, and
    joins the pool.  y is certified by Ext^1_C(x, y) free of rank one,
    and the new cluster by is_cluster_tilting, which reads the stored
    certificate when the cluster was certified before.  Both exchange
    triangles have the middle term E unless a connecting isomorphism
    empties them, and the pool carries the mutated matrix to the new
    cluster.  Raises NotFoundWithinBound rather than returning anything
    unverified or past the bound.
    """
    summands = tuple(summands)
    if not 0 <= k < len(summands):
        raise PreconditionViolated(f"position {k} out of range")
    ok, cert = is_cluster_tilting(summands)
    if not ok:
        raise PreconditionViolated(f"mutation needs a cluster-tilting object: {cert}")
    x = summands[k]
    seed = canonical_cluster(summands)
    i = seed.index(x)
    b = pool.exchange_matrix(seed)
    middle, cls = _predicted_partner(seed, b, i)
    # a negative class is that of sigma P_j when it is -dim P_j
    j = min(cls) < 0 and serre.index_by_dims(x.quiver, tuple(-d for d in cls), rep.projective)
    y = pool.find(("S", (j,)) if j else ("M", cls))
    if y is None:
        if not all(s.is_module for s in summands):
            raise NotFoundWithinBound(
                f"no exchange partner for {x.describe()} in the pool "
                f"(bound {pool.dim_bound}); constructive fallback needs all-module clusters")
        if max(cls) > pool.dim_bound:
            raise NotFoundWithinBound(
                f"exchange partner M{list(cls)} of {x.describe()} lies past "
                f"the bound {pool.dim_bound}")
        y = mutate_construct(summands, k)
        if y.dim_c() != cls:
            raise ConstructionFailed(
                f"constructed partner {y.describe()} of {x.describe()} is not of the "
                f"predicted class {cls}")
        pool.add(y, "mutation-cone")
    if ext1_c(x, y) != RANK_ONE:
        raise ConstructionFailed(
            f"predicted partner {y.describe()} of {x.describe()} has "
            f"Ext1({x.describe()}, {y.describe()}) = {ext1_c(x, y)}")
    new_summands = canonical_cluster(summands[:k] + summands[k + 1:] + (y,))
    ok, cert = is_cluster_tilting(new_summands)
    if not ok:
        raise ConstructionFailed(f"candidate fails the cluster-tilting check: {cert}")
    pool.carry(new_summands, lambda: _carried(b, i, new_summands.index(y)))
    return new_summands, _triangle_data(x, y, middle)


def _predicted_partner(seed: tuple, b: tuple, i: int) -> tuple:
    """(E, dim_c y): the middle term, in key order, and the class of the
    partner y of the i-th summand x of the canonical cluster seed, whose
    [B_T; C_T] is b.

    The c-vector of x, column i of C_T, is sign-coherent; with eps = 1
    when it is nonpositive and -1 when it is nonnegative, E takes each
    summand c of the complement [eps b_cx]+ times, and dim_c y =
    dim_c E - dim_c x (the g-vector recursion; the classes are the
    g-vectors times the Cartan matrix).  ConstructionFailed when the
    c-vector has mixed signs.
    """
    n = len(seed)
    c_x = [row[i] for row in b[n:]]
    if max(c_x) <= 0:
        eps = 1
    elif min(c_x) >= 0:
        eps = -1
    else:
        raise ConstructionFailed(
            f"the c-vector {tuple(c_x)} of {seed[i].describe()} is not sign-coherent")
    middle = []
    cls = [-d for d in seed[i].dim_c()]
    for c, row in zip(seed, b):
        times = eps * row[i]  # 0 for x itself, as b_xx = 0
        if times > 0:
            middle += [c] * times
            cls = [a + times * d for a, d in zip(cls, c.dim_c())]
    return tuple(middle), tuple(cls)


def _carried(b: tuple, i: int, j: int) -> tuple:
    """The Fomin-Zelevinsky mutation mu_i of [B_T; C_T] (Cluster algebras
    IV, 2007) with column i and row i of B_T moved to j: the matrix of
    the cluster where the partner of the i-th summand lands at position
    j, the rows of C_T staying in vertex order.  Row i and column i
    change sign, and every other b_rc gains (|b_ri| b_ic + b_ri |b_ic|) / 2."""
    n = len(b[0])
    order = [r for r in range(n) if r != i]
    order.insert(j, i)
    b_i = b[i]

    def entry(r, c):
        if r == i or c == i:
            return -b[r][c]
        return b[r][c] + (abs(b[r][i]) * b_i[c] + b[r][i] * abs(b_i[c])) // 2

    return tuple(tuple(entry(r, c) for c in order) for r in order + list(range(n, len(b))))


def mutate_construct(summands, k: int) -> ClusterObject:
    """Approximation construction of the exchange partner, module case.

    Builds the universal map into (or from) the additive hull of the
    complement from deterministic Hom bases, takes the cokernel when the
    universal map embeds with saturated image and the kernel of the dual
    map otherwise, strips complement summands, and only returns a result
    that passes the rank-one test.
    """
    summands = tuple(summands)
    x = summands[k]
    others = summands[:k] + summands[k + 1:]
    if not all(s.is_module for s in summands):
        raise PreconditionViolated("constructive mutation needs module summands")
    xm = x.module
    q = xm.quiver

    result = _left_approximation_cokernel(xm, others)
    if result is None:
        result = _right_approximation_kernel(xm, others)
    if result is None:
        raise ConstructionFailed(
            f"neither approximation route produced a complement for {x.describe()}")
    for obj in others:
        while True:
            try:
                result = rep.strip_summand(result, obj.module)
            except NotASummand:
                break
    if result.is_zero() or not rep.is_exceptional(result):
        raise ConstructionFailed("stripped approximation cone is not exceptional")
    y = ClusterObject.from_module(result)
    if ext1_c(x, y) != RANK_ONE:
        raise ConstructionFailed("constructed cone fails the rank-one certificate")
    return y


def _left_approximation_cokernel(xm: ZRep, others) -> ZRep | None:
    q = xm.quiver
    pieces = []
    maps_rows = [[] for _ in range(q.n)]
    for obj in others:
        for f in rep.hom_group(xm, obj.module).basis:
            pieces.append(obj.module)
            for v in range(q.n):
                maps_rows[v].append(f[v])
    if not pieces:
        return None
    middle = rep.direct_sum_many(pieces)
    maps = []
    for v in range(q.n):
        stack = IntMatrix.zero(0, xm.gens[v])
        for block in maps_rows[v]:
            stack = stack.vstack(block)
        maps.append(stack)
    if not all(is_split_injective(maps[v]) for v in range(q.n)):
        return None
    return rep.cokernel_rep(xm, middle, tuple(maps), saturate=True)


def _right_approximation_kernel(xm: ZRep, others) -> ZRep | None:
    q = xm.quiver
    pieces = []
    maps_cols = [[] for _ in range(q.n)]
    for obj in others:
        for f in rep.hom_group(obj.module, xm).basis:
            pieces.append(obj.module)
            for v in range(q.n):
                maps_cols[v].append(f[v])
    if not pieces:
        return None
    middle = rep.direct_sum_many(pieces)
    maps = []
    for v in range(q.n):
        stack = IntMatrix.zero(xm.gens[v], 0)
        for block in maps_cols[v]:
            stack = stack.hstack(block)
        maps.append(stack)
    if any(not cokernel_structure(maps[v]).is_trivial for v in range(q.n)):
        return None
    kernel, _ = rep.kernel_subrep(middle, xm, tuple(maps))
    return kernel


# ---------------------------------------------------------------------------
# exchange graph

@dataclass
class ExchangeGraph:
    """Mutation graph explored breadth-first from the projective cluster."""

    quiver: Quiver
    nodes: tuple = ()      # tuple of canonical clusters
    edges: tuple = ()      # (node index, position, node index, triangles)
    truncated: bool = False
    truncation_reason: str = ""
    truncations: tuple = ()  # sorted (cause, count): node-limit, not-found-within-bound
    exchange_matrices: tuple = ()  # [B_T; C_T] of each node, columns in its order

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if e[0] == i)


def exchange_graph(q: Quiver, dim_bound: int = 12, max_nodes: int = 10000) -> ExchangeGraph:
    """Breadth-first mutation closure of the initial projective cluster,
    holding at most max_nodes clusters.  The projective cluster's
    extended exchange matrix is read off the arrows of q, and mutate
    carries it along every edge, so no class matrix is computed."""
    if max_nodes < 1:
        raise PreconditionViolated("max_nodes must be at least 1")
    pool = build_pool(q, dim_bound)
    # the pool's own P_i where it holds them, so each object of a node
    # is one value, whose suspension is built once
    projectives = (ClusterObject.at(q, ("P", i, 0)) for i in q.vertices)
    held = pool.by_key()
    initial = canonical_cluster(held.get(p.key(), p) for p in projectives)
    ok, cert = is_cluster_tilting(initial)
    if not ok:
        raise ConstructionFailed(f"initial projective cluster is not tilting: {cert}")
    pool.carry(initial, lambda: _arrow_matrix(q, [s.coord[1] for s in initial]))
    nodes = [initial]
    index = {tuple(s.key() for s in initial): 0}
    edges = []
    causes = Counter()
    reason = ""
    frontier = deque([0])
    while frontier:
        current = frontier.popleft()
        for k in range(q.n):
            try:
                neighbor, triangles = mutate(nodes[current], k, pool)
            except NotFoundWithinBound as exc:
                causes["not-found-within-bound"] += 1
                reason = str(exc)
                continue
            nkey = tuple(s.key() for s in neighbor)
            if nkey not in index:
                if len(nodes) >= max_nodes:
                    causes["node-limit"] += 1
                    reason = reason or f"node limit {max_nodes} reached"
                    continue
                index[nkey] = len(nodes)
                nodes.append(neighbor)
                frontier.append(index[nkey])
            edges.append((current, k, index[nkey], triangles))
    return ExchangeGraph(q, tuple(nodes), tuple(edges), bool(causes), reason,
                         tuple(sorted(causes.items())),
                         tuple(pool.exchange_matrix(node) for node in nodes))


# ---------------------------------------------------------------------------
# base-change bijection report

@dataclass(frozen=True)
class BijectionReport:
    prime: int
    entries: tuple   # (key, end_dim, ext_dim, ok)
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_bijection_mod_p(pool: RigidPool, p: int) -> BijectionReport:
    """Check that reduction mod p sends the pool injectively to rigid
    indecomposables with matching invariants."""
    entries = []
    violations = []
    seen = {}
    for obj in pool.objects:
        if obj.is_module:
            m = obj.module
        else:
            m = rep.projective(pool.quiver, obj.shifted_projective)
        f = rep.base_change(m, p)
        end_dim, ext_dim = rep.field_hom_ext_dims(f, f)
        ok = end_dim == 1 and ext_dim == 0
        if f.dims != rep.dim_vector(m):
            ok = False
            violations.append(f"{obj.describe()}: dimension vector changed under reduction")
        marker = ("S" if not obj.is_module else "M", f.dims)
        if marker in seen:
            ok = False
            violations.append(
                f"{obj.describe()} and {seen[marker]} collide mod {p}")
        seen[marker] = obj.describe()
        if end_dim != 1 or ext_dim != 0:
            violations.append(
                f"{obj.describe()}: reduction mod {p} has End dim {end_dim}, Ext dim {ext_dim}")
        entries.append((obj.key(), end_dim, ext_dim, ok))
    return BijectionReport(p, tuple(entries), tuple(violations))
