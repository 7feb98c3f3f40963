"""The integral cluster category on its fundamental objects.

Objects are exceptional lattices at shift zero together with the
suspended indecomposable projectives; those are exactly the candidates
for summands of cluster-tilting objects, so nothing else enters the
data model.  On this fundamental domain the orbit sum of derived Homs
has at most two nonzero terms (Buan-Marsh-Reineke-Reiten-Todorov,
Tilting theory and cluster combinatorics, 2006, section 1), so ext1_c
and the suspension are closed forms in Hom, Ext^1, tau and tau_inv of
lattices, and hom_c is ext1_c against the desuspension; no orbit is
walked.  The rigid pool walks each translate orbit once, from the
injective lattices and the projectives, and holds every translate
within its dimension bound.

ext1_c keeps the Hom(M, tau N) term instead of the duality shortcut
D Ext^1(N, M), which is only rank-faithful; the duality statement is
kept as a test invariant.

Orbit coordinates.  Each lattice a pool walk produces carries where the
walk met it: ("P", i, a) for tau^-a P_i, ("I", j, b) for tau^b I_j.
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
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter, deque
from dataclasses import dataclass, field

from .errors import (
    BalanceUnsolvable,
    ConstructionFailed,
    DimensionMismatch,
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
    is_split_injective,
    solve_with_rank,
)
from . import rep, serre
from .rep import ZRep


# ---------------------------------------------------------------------------
# objects

@hash_once
@dataclass(frozen=True)
class ClusterObject:
    """A module-variant or shifted-projective object of the cluster category."""

    quiver: Quiver
    module: ZRep | None = None
    shifted_projective: int | None = None
    # Orbit coordinate of a lattice a pool walk produced: ("P", i, a) is
    # tau^-a P_i and ("I", j, b) is tau^b I_j.  Not a field, so ==, hash
    # and repr ignore it; from_module sets it on the instance.
    coord = None

    def __post_init__(self):
        if (self.module is None) == (self.shifted_projective is None):
            raise PreconditionViolated("exactly one variant must be set")
        if self.module is not None:
            if self.module.quiver != self.quiver:
                raise DimensionMismatch("module lives over a different quiver")
            if not rep.is_exceptional(self.module):
                raise PreconditionViolated("module objects must be exceptional")

    @staticmethod
    def from_module(m: ZRep, coord: tuple | None = None) -> "ClusterObject":
        """The object of m, carrying coord when given; coord must name a
        translate with the dimension vector of the lattice m."""
        obj = ClusterObject(m.quiver, module=m)
        if coord is not None:
            if not m.is_lattice or _orbit_dim(m.quiver, coord) != m.gens:
                raise PreconditionViolated(f"{coord} is not the orbit coordinate of {m.gens}")
            object.__setattr__(obj, "coord", coord)
        return obj

    @staticmethod
    def sigma_projective(q: Quiver, i: int) -> "ClusterObject":
        if not 1 <= i <= q.n:
            raise DimensionMismatch(f"vertex {i} out of range")
        return ClusterObject(q, shifted_projective=i)

    @property
    def is_module(self) -> bool:
        return self.module is not None

    @once
    def key(self) -> tuple:
        """Canonical key; exceptional modules are determined by dimension vector."""
        if self.is_module:
            return ("M", rep.dim_vector(self.module))
        return ("S", (self.shifted_projective,))

    def dim_c(self) -> tuple:
        """Class in the dimension bookkeeping, with dim(sigma P_i) = -dim P_i."""
        if self.is_module:
            return rep.dim_vector(self.module)
        p = rep.projective(self.quiver, self.shifted_projective)
        return tuple(-d for d in rep.dim_vector(p))

    def describe(self) -> str:
        if self.is_module:
            return "M" + str(list(rep.dim_vector(self.module)))
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


def _is_projective_coord(coord: tuple) -> bool:
    return coord[0] == "P" and coord[2] == 0


def _translate_coord(coord: tuple | None, k: int) -> tuple | None:
    """The coordinate of tau^k of the lattice at coord, None staying None."""
    if coord is None:
        return None
    side, v, power = coord
    return (side, v, power - k if side == "P" else power + k)


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
        r += _hom_rank(q, cx, cy) - euler_form(q, x.module.gens, y.module.gens)
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
    pair is computed by elimination.
    """
    if x.quiver != y.quiver:
        raise DimensionMismatch("objects live over different quivers")
    q = x.quiver
    if not x.is_module:
        if not y.is_module:
            return FinAbGroup(0)
        i, n = x.shifted_projective, y.module
        if n.is_lattice:
            return FinAbGroup(n.gens[i - 1])
        return rep.hom_group(rep.projective(q, i), n).group
    m = x.module
    if not y.is_module:
        i = y.shifted_projective
        if m.is_lattice:
            return FinAbGroup(m.gens[i - 1])
        return rep.hom_group(m, rep.injective_lattice(q, i)).group
    if x.coord is not None and y.coord is not None:
        return FinAbGroup(_ext1_rank(x, y))
    n = y.module
    total = FinAbGroup(0) if serre.projective_index_of(m) is not None else rep.ext1_group(m, n)
    if serre.projective_index_of(n) is None:
        total = total.direct_sum(rep.hom_group(m, serre.tau(n)).group)
    return total


def suspension(x: ClusterObject) -> ClusterObject:
    """The suspension on the fundamental domain.

    P_i goes to sigma P_i, any other module M to tau M, and sigma P_i
    to the injective lattice I_i.  A coordinate moves one step down its
    orbit; I_i is built without one.
    """
    q = x.quiver
    if not x.is_module:
        return ClusterObject.from_module(rep.injective_lattice(q, x.shifted_projective))
    i = serre.projective_index_of(x.module)
    if i is not None:
        return ClusterObject.sigma_projective(q, i)
    return ClusterObject.from_module(serre.tau(x.module), _translate_coord(x.coord, 1))


def _desuspension(x: ClusterObject) -> ClusterObject:
    """The inverse of the suspension: I_i goes to sigma P_i, any other
    module N to tau^- N, and sigma P_i to P_i, each with its coordinate."""
    q = x.quiver
    if not x.is_module:
        i = x.shifted_projective
        return ClusterObject.from_module(rep.projective(q, i), ("P", i, 0))
    i = serre.injective_index_of(x.module)
    if i is not None:
        return ClusterObject.sigma_projective(q, i)
    return ClusterObject.from_module(serre.tau_inv(x.module), _translate_coord(x.coord, -1))


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
    stays sorted by key and grows only through add.

    Partner rows.  Each member also holds a bit, in insertion order, that
    stays when the pool grows.  For an object key the pool keeps two bit
    rows over the members, filled lazily: the rank-one row of x, the
    members y other than x with Ext^1_C(x, y) free of rank one, and the
    compatible row of t, the members y with Ext^1_C(y, t) and
    Ext^1_C(t, y) both trivial.  Each row remembers which members it has
    tested, so a pair is tested at most once per row and a member added
    later is tested when a row is first asked about it (see partners).
    """

    quiver: Quiver
    dim_bound: int
    objects: tuple = ()
    provenance: dict = field(default_factory=dict)
    complete: bool = False
    _members: list = field(default_factory=list, init=False, repr=False, compare=False)
    _bits: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # object key -> [bits that pass, bits tested]
    _rank_one_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _compatible_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for obj in self.objects:
            self._enlist(obj)

    def by_key(self) -> dict:
        return {obj.key(): obj for obj in self.objects}

    def modules(self) -> tuple:
        return tuple(obj for obj in self.objects if obj.is_module)

    def add(self, obj: ClusterObject, tag: str) -> bool:
        if not self._enlist(obj):
            return False
        key = obj.key()
        self.provenance[key] = tag
        i = bisect(self.objects, key, key=ClusterObject.key)
        self.objects = self.objects[:i] + (obj,) + self.objects[i:]
        return True

    def _enlist(self, obj: ClusterObject) -> bool:
        """Give obj the next bit unless a member has its key."""
        if obj.key() in self._bits:
            return False
        self._bits[obj.key()] = len(self._members)
        self._members.append(obj)
        return True

    def partners(self, x: ClusterObject, others) -> tuple:
        """The members y other than x with Ext^1_C(x, y) free of rank one
        and no Ext^1_C either way against any object of others.

        The rank-one row of x meets the compatible row of each t in
        others in turn, and a row tests only the candidates still left
        that it has not tested, so the pairs tested are those of a scan
        of every member that stops at the first failing test.  The
        members come in insertion order.
        """
        everyone = (1 << len(self._members)) - 1
        own = self._bits.get(x.key())
        if own is not None:
            everyone ^= 1 << own
        left = self._row(self._rank_one_rows, x, everyone, _rank_one)
        for t in others:
            if not left:
                break
            left = self._row(self._compatible_rows, t, left, _compatible)
        found = []
        while left:
            low = left & -left
            found.append(self._members[low.bit_length() - 1])
            left ^= low
        return tuple(found)

    def _row(self, rows: dict, obj: ClusterObject, among: int, test) -> int:
        """The bits among `among` of the members y with test(obj, y), testing
        only those the row of obj has not tested yet."""
        row = rows.get(obj.key())
        if row is None:
            row = rows[obj.key()] = [0, 0]
        untested = among & ~row[1]
        row[1] |= untested
        while untested:
            low = untested & -untested
            if test(obj, self._members[low.bit_length() - 1]):
                row[0] |= low
            untested ^= low
        return row[0] & among


def _rank_one(x: ClusterObject, y: ClusterObject) -> bool:
    return ext1_c(x, y) == RANK_ONE


def _compatible(t: ClusterObject, y: ClusterObject) -> bool:
    return ext1_c(y, t).is_trivial and ext1_c(t, y).is_trivial


def _within_bound(m: ZRep, bound: int) -> bool:
    return max(rep.dim_vector(m), default=0) <= bound


def build_pool(q: Quiver, dim_bound: int) -> RigidPool:
    """Shifted projectives plus the translate closure of the projective
    and injective lattices within the bound.

    Each orbit is walked once: backward from every injective lattice
    first, and forward from a projective only when no backward walk
    reached it.  A walk ends at a projective or before its first
    translate past the bound, which the Coxeter transform of the last
    dimension vector predicts, so no translate past the bound is built
    and the pool is closed under tau within the bound;
    tau is the composite of the sink reflections, so transporting pool
    modules through them adds nothing.  For Dynkin quivers the result is
    the complete list of rigid indecomposables; otherwise the
    completeness flag stays off and the pool can still grow through
    mutation cones.

    Every lattice gets the orbit coordinate its walk reached it at: from
    P_i on a forward walk or on a backward walk that closed at P_i, and
    from I_j on a backward walk that stayed open.  An open orbit is
    infinite only on a connected non-Dynkin quiver, where preinjectives
    never meet preprojectives; elsewhere (a Dynkin orbit cut by the
    bound, a disconnected quiver) its backward walk leaves no coordinate.
    """
    validate(q)
    if dim_bound < 1:
        raise PreconditionViolated("dim_bound must be at least 1")
    pool = RigidPool(q, dim_bound, complete=is_dynkin(q))
    open_is_infinite = not pool.complete and is_connected(q)
    for i in q.vertices:
        pool.add(ClusterObject.sigma_projective(q, i), "projective")
    for i in q.vertices:
        m = rep.projective(q, i)
        if _within_bound(m, dim_bound):
            pool.add(ClusterObject.from_module(m, ("P", i, 0)), "projective")
    phi, phi_inv = coxeter_matrix(q), coxeter_inverse(q)
    # translate backward from injectives; reaching a projective closes the orbit
    closed = set()
    for j in q.vertices:
        walk = [rep.injective_lattice(q, j)]
        while (i := serre.projective_index_of(walk[-1])) is None:
            if max(phi.mul_vec(walk[-1].gens)) > dim_bound:
                break
            walk.append(serre.tau(walk[-1]))
        else:
            closed.add(i)
        for b, m in enumerate(walk):
            if i is not None:
                coord = ("P", i, len(walk) - 1 - b)
            else:
                coord = ("I", j, b) if open_is_infinite else None
            if b or _within_bound(m, dim_bound):
                pool.add(ClusterObject.from_module(m, coord), "tau-orbit")
    # translate forward from the projectives of the open orbits
    for i in q.vertices:
        if i in closed:
            continue
        m = rep.projective(q, i)
        a = 0
        while serre.injective_index_of(m) is None:
            if max(phi_inv.mul_vec(m.gens)) > dim_bound:
                break
            m = serre.tau_inv(m)
            a += 1
            pool.add(ClusterObject.from_module(m, ("P", i, a)), "tau-orbit")
    return pool


# ---------------------------------------------------------------------------
# cluster-tilting objects

def is_cluster_tilting(summands) -> tuple:
    """Whether the summand list is cluster-tilting, with a certificate.

    Returns (flag, failures); each failure is a human-readable string
    naming the offending pair or count.
    """
    summands = tuple(summands)
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
    return tuple(sorted(summands, key=lambda o: o.key()))


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

    The triangle collapses to a zero middle term exactly when the
    suspension of one end is isomorphic to the other.  Otherwise the
    multiset is the unique non-negative solution of the dimension
    balance over the complement (the complement's classes are linearly
    independent); both triangles balance dim x + dim y, so one solution
    serves the pair, memoized with the pair in key order so that the
    reverse mutation reads it swapped (see _middle_terms).  How each
    middle term is certified, for all-module triangles by a short exact
    sequence whose first map is the one Hom-basis approximation of the
    tail (see _ses_certified), is computed and memoized when its witness
    is first read.
    """
    if ext1_c(x, y) != RANK_ONE:
        raise PreconditionViolated("exchange triangles need Ext1 free of rank one")
    complement = tuple(complement)
    if x.key() <= y.key():
        e, e_prime = _middle_terms(x, y, complement)
    else:
        e_prime, e = _middle_terms(y, x, complement)
    return ExchangeTriangleData(x=x, y=y, e=e, e_prime=e_prime)


@memo
def _middle_terms(x: ClusterObject, y: ClusterObject, complement: tuple) -> tuple:
    """(E, E'), the middle multisets of y -> E -> x -> sigma y and
    x -> E' -> y -> sigma x.

    A middle term is empty when the suspension of its tail is its head,
    and otherwise read off the unique solution of dim E = dim x + dim y
    over the complement, the same balance for both triangles, so it is
    solved at most once; the multisets alone are returned, their
    witnesses are left to _witness.  Memoized because exchange_graph
    meets every undirected edge from both ends, over the same canonical
    complement; exchange_triangles passes the pair in key order.
    """
    e_empty = suspension(y).key() == x.key()
    e_prime_empty = suspension(x).key() == y.key()
    if e_empty and e_prime_empty:
        return (), ()
    target = tuple(a + b for a, b in zip(x.dim_c(), y.dim_c()))
    sol = _balance_solution(target, complement)
    if sol is None:
        raise BalanceUnsolvable(
            f"no middle term over the complement balances {target}")
    middle = (obj for obj, m in zip(complement, sol) for _ in range(m))
    middle = tuple(sorted(middle, key=lambda o: o.key()))
    return (() if e_empty else middle), (() if e_prime_empty else middle)


def _witness(tail: ClusterObject, head: ClusterObject, middle: tuple) -> str:
    """How the middle term of tail -> E -> head -> sigma tail is certified.

    "connecting-iso" when E is empty because the suspension of tail is
    head, "ses" when the cokernel of the Hom-basis approximation
    tail -> E is head, making a short exact sequence, and "balance"
    otherwise.
    """
    if not middle and suspension(tail).key() == head.key():
        return "connecting-iso"
    if (tail.is_module and head.is_module and all(c.is_module for c in middle)
            and _ses_certified(tail, head, middle)):
        return "ses"
    return "balance"


def _balance_solution(target, complement) -> tuple | None:
    """The multiplicities m >= 0 with sum of m_c dim_c(c) equal to target.

    The classes of a cluster-tilting complement are linearly
    independent, so the integer system has at most one solution;
    None when it has none or the solution has a negative entry.
    """
    n = len(target)
    dims = [c.dim_c() for c in complement]
    matrix = IntMatrix(n, len(dims), tuple(tuple(d[i] for d in dims) for i in range(n)))
    r, sol = solve_with_rank(matrix, target)
    if r < matrix.cols:
        raise PreconditionViolated("complement classes are linearly dependent")
    if sol is None or any(m < 0 for m in sol):
        return None
    return sol


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

    Pool search first: the partner is the unique pool object with Ext^1
    against the leaving summand free of rank one and no extensions
    against the rest, read off the pool's partner rows
    (RigidPool.partners), which test each pair once over all mutations.
    If the search fails on an all-module cluster the partner is
    constructed by approximation and, when it lies within the pool's
    dimension bound, inserted into the pool.  Raises
    NotFoundWithinBound rather than returning anything unverified or
    past the bound.
    """
    summands = tuple(summands)
    if not 0 <= k < len(summands):
        raise PreconditionViolated(f"position {k} out of range")
    x = summands[k]
    others = summands[:k] + summands[k + 1:]
    candidates = pool.partners(x, others)
    if len(candidates) > 1:
        raise ConstructionFailed(
            f"pool offers {len(candidates)} exchange partners for {x.describe()}; "
            "the pool is inconsistent")
    if candidates:
        y = candidates[0]
    else:
        if not all(s.is_module for s in summands):
            raise NotFoundWithinBound(
                f"no exchange partner for {x.describe()} in the pool "
                f"(bound {pool.dim_bound}); constructive fallback needs all-module clusters")
        y = mutate_construct(summands, k)
        if not _within_bound(y.module, pool.dim_bound):
            raise NotFoundWithinBound(
                f"exchange partner {y.describe()} of {x.describe()} lies past "
                f"the bound {pool.dim_bound}")
        pool.add(y, "mutation-cone")
    new_summands = canonical_cluster(others + (y,))
    ok, cert = is_cluster_tilting(new_summands)
    if not ok:
        raise ConstructionFailed(f"candidate fails the cluster-tilting check: {cert}")
    triangles = exchange_triangles(x, y, others)
    return new_summands, triangles


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

    def degree(self, i: int) -> int:
        return sum(1 for e in self.edges if e[0] == i)


def exchange_graph(q: Quiver, dim_bound: int = 12, max_nodes: int = 10000) -> ExchangeGraph:
    """Breadth-first mutation closure of the initial projective cluster."""
    pool = build_pool(q, dim_bound)
    initial = canonical_cluster(
        ClusterObject.from_module(rep.projective(q, i), ("P", i, 0)) for i in q.vertices)
    ok, cert = is_cluster_tilting(initial)
    if not ok:
        raise ConstructionFailed(f"initial projective cluster is not tilting: {cert}")
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
                         tuple(sorted(causes.items())))


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
