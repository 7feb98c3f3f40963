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
from .quiver import Quiver, is_dynkin, validate
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

    def __post_init__(self):
        if (self.module is None) == (self.shifted_projective is None):
            raise PreconditionViolated("exactly one variant must be set")
        if self.module is not None:
            if self.module.quiver != self.quiver:
                raise DimensionMismatch("module lives over a different quiver")
            if not rep.is_exceptional(self.module):
                raise PreconditionViolated("module objects must be exceptional")

    @staticmethod
    def from_module(m: ZRep) -> "ClusterObject":
        return ClusterObject(m.quiver, module=m)

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
    between two suspended projectives.
    """
    if x.quiver != y.quiver:
        raise DimensionMismatch("objects live over different quivers")
    q = x.quiver
    if not x.is_module:
        if not y.is_module:
            return FinAbGroup(0)
        return rep.hom_group(rep.projective(q, x.shifted_projective), y.module).group
    m = x.module
    if not y.is_module:
        return rep.hom_group(m, rep.injective_lattice(q, y.shifted_projective)).group
    n = y.module
    total = FinAbGroup(0) if serre.projective_index_of(m) is not None else rep.ext1_group(m, n)
    if serre.projective_index_of(n) is None:
        total = total.direct_sum(rep.hom_group(m, serre.tau(n)).group)
    return total


def suspension(x: ClusterObject) -> ClusterObject:
    """The suspension on the fundamental domain.

    P_i goes to sigma P_i, any other module M to tau M, and sigma P_i
    to the injective lattice I_i.
    """
    q = x.quiver
    if not x.is_module:
        return ClusterObject.from_module(rep.injective_lattice(q, x.shifted_projective))
    i = serre.projective_index_of(x.module)
    if i is not None:
        return ClusterObject.sigma_projective(q, i)
    return ClusterObject.from_module(serre.tau(x.module))


def _desuspension(x: ClusterObject) -> ClusterObject:
    """The inverse of the suspension: I_i goes to sigma P_i, any other
    module N to tau^- N, and sigma P_i to P_i."""
    q = x.quiver
    if not x.is_module:
        return ClusterObject.from_module(rep.projective(q, x.shifted_projective))
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
    orbits of the projectives exhaust the exceptional modules.
    """

    quiver: Quiver
    dim_bound: int
    objects: tuple = ()
    provenance: dict = field(default_factory=dict)
    complete: bool = False

    def by_key(self) -> dict:
        return {obj.key(): obj for obj in self.objects}

    def modules(self) -> tuple:
        return tuple(obj for obj in self.objects if obj.is_module)

    def add(self, obj: ClusterObject, tag: str) -> bool:
        key = obj.key()
        if key in self.provenance:
            return False
        self.provenance[key] = tag
        i = bisect(self.objects, key, key=ClusterObject.key)
        self.objects = self.objects[:i] + (obj,) + self.objects[i:]
        return True


def _within_bound(m: ZRep, bound: int) -> bool:
    return max(rep.dim_vector(m), default=0) <= bound


def build_pool(q: Quiver, dim_bound: int) -> RigidPool:
    """Shifted projectives plus the translate closure of the projective
    and injective lattices within the bound.

    Each orbit is walked once: backward from every injective lattice
    first, and forward from a projective only when no backward walk
    reached it.  A walk ends at a projective or at its first translate
    past the bound, so the pool is closed under tau within the bound;
    tau is the composite of the sink reflections, so transporting pool
    modules through them adds nothing.  For Dynkin quivers the result is
    the complete list of rigid indecomposables; otherwise the
    completeness flag stays off and the pool can still grow through
    mutation cones.
    """
    validate(q)
    if dim_bound < 1:
        raise PreconditionViolated("dim_bound must be at least 1")
    pool = RigidPool(q, dim_bound, complete=is_dynkin(q))
    for i in q.vertices:
        pool.add(ClusterObject.sigma_projective(q, i), "projective")
    for i in q.vertices:
        m = rep.projective(q, i)
        if _within_bound(m, dim_bound):
            pool.add(ClusterObject.from_module(m), "projective")
    for i in q.vertices:
        m = rep.injective_lattice(q, i)
        if _within_bound(m, dim_bound):
            pool.add(ClusterObject.from_module(m), "tau-orbit")
    # translate backward from injectives; reaching a projective closes the orbit
    closed = set()
    for seed in [rep.injective_lattice(q, i) for i in q.vertices]:
        m = seed
        while (i := serre.projective_index_of(m)) is None:
            m = serre.tau(m)
            if not _within_bound(m, dim_bound):
                break
            pool.add(ClusterObject.from_module(m), "tau-orbit")
        else:
            closed.add(i)
    # translate forward from the projectives of the open orbits
    for i in q.vertices:
        if i in closed:
            continue
        m = rep.projective(q, i)
        while serre.injective_index_of(m) is None:
            m = serre.tau_inv(m)
            if not _within_bound(m, dim_bound):
                break
            pool.add(ClusterObject.from_module(m), "tau-orbit")
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
    objects drawn from the complement; the witness strings record how
    each middle term was certified.
    """

    x: ClusterObject
    y: ClusterObject
    e: tuple
    e_prime: tuple
    e_witness: str
    e_prime_witness: str


RANK_ONE = FinAbGroup(1)


def exchange_triangles(x: ClusterObject, y: ClusterObject, complement) -> ExchangeTriangleData:
    """Middle terms of both exchange triangles for the pair (x, y).

    The triangle collapses to a zero middle term exactly when the
    suspension of one end is isomorphic to the other.  Otherwise the
    multiset is the unique non-negative solution of the dimension
    balance over the complement (the complement's classes are linearly
    independent) and, for all-module triangles, is certified by a short
    exact sequence whose first map is the one Hom-basis approximation of
    the tail (see _ses_certified).
    """
    if ext1_c(x, y) != RANK_ONE:
        raise PreconditionViolated("exchange triangles need Ext1 free of rank one")
    complement = tuple(complement)
    e, ew = _middle_term(y, x, complement)
    ep, epw = _middle_term(x, y, complement)
    return ExchangeTriangleData(x=x, y=y, e=e, e_prime=ep,
                                e_witness=ew, e_prime_witness=epw)


@memo
def _middle_term(tail: ClusterObject, head: ClusterObject, complement: tuple) -> tuple:
    """Middle multiset of the triangle tail -> E -> head -> sigma tail.

    E is read off the unique solution of dim E = dim head + dim tail
    over the complement; the witness is "ses" when the cokernel of the
    Hom-basis approximation tail -> E is head, making a short exact
    sequence, and "balance" otherwise.  Memoized
    because exchange_graph meets every undirected edge from both ends:
    the reverse mutation asks for the same two triangles with tail and
    head swapped over the same canonical complement.
    """
    if suspension(tail).key() == head.key():
        return (), "connecting-iso"
    target = tuple(a + b for a, b in zip(head.dim_c(), tail.dim_c()))
    sol = _balance_solution(target, complement)
    if sol is None:
        raise BalanceUnsolvable(
            f"no middle term over the complement balances {target}")
    middle = tuple(obj for obj, m in zip(complement, sol) for _ in range(m))
    multiset = tuple(sorted(middle, key=lambda o: o.key()))
    if (tail.is_module and head.is_module and all(c.is_module for c in middle)
            and _ses_certified(tail, head, middle)):
        return multiset, "ses"
    return multiset, "balance"


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
    whose cokernel is isomorphic to head.
    """
    counts = Counter(middle)
    if any(rep.hom_group(tail.module, c.module).group != FinAbGroup(m)
           for c, m in counts.items()):
        return False
    coker = _left_approximation_cokernel(tail.module, canonical_cluster(counts))
    if coker is None or rep.dim_vector(coker) != rep.dim_vector(head.module):
        return False
    return rep.is_exceptional(coker) and rep.are_isomorphic_exceptional(coker, head.module)


# ---------------------------------------------------------------------------
# mutation

def mutate(summands, k: int, pool: RigidPool) -> tuple:
    """Replace the k-th summand by its unique exchange partner.

    Pool search first: the partner is the unique pool object with Ext^1
    against the leaving summand free of rank one and no extensions
    against the rest.  If the search fails on an all-module cluster the
    partner is constructed by approximation and, when it lies within the
    pool's dimension bound, inserted into the pool.  Raises
    NotFoundWithinBound rather than returning anything unverified or
    past the bound.
    """
    summands = tuple(summands)
    if not 0 <= k < len(summands):
        raise PreconditionViolated(f"position {k} out of range")
    x = summands[k]
    others = summands[:k] + summands[k + 1:]
    candidates = []
    for y in pool.objects:
        if y.key() == x.key():
            continue
        if ext1_c(x, y) != RANK_ONE:
            continue
        if all(ext1_c(y, t).is_trivial and ext1_c(t, y).is_trivial for t in others):
            candidates.append(y)
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
        ClusterObject.from_module(rep.projective(q, i)) for i in q.vertices)
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
