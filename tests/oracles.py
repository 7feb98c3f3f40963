"""Independent brute-force oracles for the acceptance suite.

Nothing here touches the mutation engine or the exchange-graph search:
positive roots come from reflection closure on the underlying graph,
and cluster counts from exhaustive enumeration of maximal pairwise
compatible subsets of a pool, or from the closed-form finite-type
counts of Fomin-Zelevinsky (Cluster algebras II, 2003) and the
generalized Catalan numbers over the exponents, and exchange
partners from a scan of every pool object, with the rank-one test and
no Ext^1 against the complement.  Extended exchange matrices [B; C]
mutate by the Fomin-Zelevinsky rule written out on lists, and
c-vectors come from a walk over seeds that starts at the arrows of the
quiver and a Cartan matrix of path counts, with no module and no
library mutation.  Exchange-triangle middle terms come from the balance
dim E = dim x + dim y over the complement, solved over the rationals.
Morphisms in the cluster category come from the orbit formula itself,
summed over the f_apply translates of the target, and projectives and
injective lattices are recognized by an explicit isomorphism.  Hom and Ext^1 of
two lattices over Z, F_p and Q are the kernel and the cokernel of the
standard intertwining rows, built from the action matrices alone.
"""

from fractions import Fraction
from itertools import combinations

from clusterforge.cluster import ClusterObject, ext1_c
from clusterforge.errors import PreconditionViolated
from clusterforge.rep import (
    are_isomorphic_exceptional,
    ext1_group,
    hom_group,
    projective,
)
from clusterforge.serre import ShiftedModule, f_apply
from clusterforge.zlinalg import FinAbGroup


def positive_roots(quiver):
    """All positive roots of the underlying simply-laced diagram.

    Starts from the simple roots and closes under the simple
    reflections s_i(v)_i = -v_i + sum of v over neighbours of i,
    keeping the nonnegative vectors.  Terminates exactly for Dynkin
    diagrams, which is the only place the acceptance suite uses it.
    """
    n = quiver.n
    adjacency = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        adjacency[s - 1][t - 1] += 1
        adjacency[t - 1][s - 1] += 1

    def reflect(v, i):
        out = list(v)
        out[i] = -v[i] + sum(adjacency[i][j] * v[j] for j in range(n))
        return tuple(out)

    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for v in frontier:
            for i in range(n):
                w = reflect(v, i)
                if all(x >= 0 for x in w) and any(x > 0 for x in w) and w not in roots:
                    new.add(w)
        roots |= new
        frontier = new
    return roots


def compatible_pairs(pool):
    """Symmetric compatibility relation: Ext^1 vanishes both ways."""
    objs = pool.objects
    table = {}
    for a in objs:
        for b in objs:
            table[(a.key(), b.key())] = ext1_c(a, b).is_trivial
    return objs, table


def maximal_compatible_sets(pool):
    """All n-element subsets of the pool with pairwise vanishing Ext^1.

    This is the brute-force cluster enumeration: no mutation involved.
    """
    objs, table = compatible_pairs(pool)
    n = pool.quiver.n
    found = []
    for combo in combinations(objs, n):
        ok = True
        for a, b in combinations(combo, 2):
            if not (table[(a.key(), b.key())] and table[(b.key(), a.key())]):
                ok = False
                break
        if ok:
            found.append(tuple(sorted(combo, key=lambda o: o.key())))
    return found


def _binomial(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def cluster_count_a(n):
    """Clusters of type A_n: the Catalan number C(2n+2, n+1) / (n+2)."""
    return _binomial(2 * n + 2, n + 1) // (n + 2)


def cluster_count_d(n):
    """Clusters of type D_n, n >= 4: (3n-2)/n * C(2n-2, n-1)."""
    return (3 * n - 2) * _binomial(2 * n - 2, n - 1) // n


# Exponents of the exceptional root systems (Bourbaki, Lie groups and Lie
# algebras, chapters 4-6, plates V-VII).
EXCEPTIONAL_EXPONENTS = {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17),
                         8: (1, 7, 11, 13, 17, 19, 23, 29)}


def exponents(letter, n):
    """The exponents of the simply-laced root system of type letter_n."""
    if letter == "A":
        return tuple(range(1, n + 1))
    if letter == "D":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    return EXCEPTIONAL_EXPONENTS[n]


def cluster_count(letter, n):
    """Clusters of a finite type: the generalized Catalan number
    prod (h + e_i + 1) / (e_i + 1) over the exponents e_i, with the
    Coxeter number h one more than the largest exponent."""
    es = exponents(letter, n)
    h = max(es) + 1
    numerator = denominator = 1
    for e in es:
        numerator *= h + e + 1
        denominator *= e + 1
    assert numerator % denominator == 0
    return numerator // denominator


def partner_scan(objects, x, others):
    """The exchange partners of x next to others among objects, testing
    every object: Ext^1_C(x, y) free of rank one and no Ext^1_C either
    way against any of others."""
    return [y for y in objects if y.key() != x.key() and ext1_c(x, y) == FinAbGroup(1)
            and all(ext1_c(y, t).is_trivial and ext1_c(t, y).is_trivial for t in others)]


def fz_mutate(b, k):
    """Fomin-Zelevinsky matrix mutation mu_k (Cluster algebras I, 2002)
    of a matrix whose n columns are those of its top n rows, the
    exchange matrix, and whose other rows extend it (Cluster algebras
    IV, 2007): b'_ij = -b_ij if i or j is k, and otherwise b_ij + b_ik b_kj
    when b_ik and b_kj are both positive, b_ij - b_ik b_kj when both are
    negative, and b_ij unchanged when their signs differ."""
    n = len(b[0])
    out = [[0] * n for _ in b]
    for i in range(len(b)):
        for j in range(n):
            if k in (i, j):
                out[i][j] = -b[i][j]
            elif b[i][k] > 0 and b[k][j] > 0:
                out[i][j] = b[i][j] + b[i][k] * b[k][j]
            elif b[i][k] < 0 and b[k][j] < 0:
                out[i][j] = b[i][j] - b[i][k] * b[k][j]
            else:
                out[i][j] = b[i][j]
    return out


def cartan_by_paths(quiver):
    """Row i is dim P_i: its entry j counts the paths from i to j."""
    n = quiver.n
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    # each round extends the paths by one arrow; an acyclic quiver has no path of length n
    for _ in range(n):
        rows = [[int(i == j) + sum(rows[t - 1][j] for s, t in quiver.arrows if s - 1 == i)
                 for j in range(n)] for i in range(n)]
    return [tuple(row) for row in rows]


def c_vectors(quiver, bound):
    """The c-vectors of every seed a walk from the projective cluster
    reaches, mutating no summand whose partner's class has an entry past
    the bound.

    A seed is the classes of its summands with [B; C], B from the arrows
    (an arrow s -> t gives b(P_t, P_s) = 1) over C = I at the start.
    Mutating at k sets eps = 1 when column k of C is nonpositive and -1
    when it is nonnegative, and the new class is the sum of [eps b_ik]+
    class_i over i minus class_k (the g-vector recursion).
    """
    n = quiver.n
    start = [[0] * n for _ in range(2 * n)]
    for s, t in quiver.arrows:
        start[t - 1][s - 1] += 1
        start[s - 1][t - 1] -= 1
    for v in range(n):
        start[n + v][v] = 1
    seeds = [(cartan_by_paths(quiver), start)]
    seen = {tuple(sorted(seeds[0][0]))}
    found = set()
    while seeds:
        classes, b = seeds.pop()
        for k in range(n):
            c = tuple(b[n + v][k] for v in range(n))
            found.add(c)
            eps = 1 if max(c) <= 0 else -1
            assert eps == 1 or min(c) >= 0, f"c-vector {c} is not sign-coherent"
            new = tuple(sum(max(eps * b[i][k], 0) * classes[i][v] for i in range(n))
                        - classes[k][v] for v in range(n))
            if max(new) > bound:
                continue
            mutated = classes[:k] + [new] + classes[k + 1:]
            if tuple(sorted(mutated)) not in seen:
                seen.add(tuple(sorted(mutated)))
                seeds.append((mutated, fz_mutate(b, k)))
    return found


def balance_solution(target, complement):
    """The multiplicities m >= 0 with sum of m_c dim_c(c) equal to target.

    Gaussian elimination over Q; PreconditionViolated when the classes
    of the complement are linearly dependent, and None when the unique
    rational solution is missing, fractional or has a negative entry.
    """
    n, cols = len(target), len(complement)
    rows = [[Fraction(c.dim_c()[v]) for c in complement] + [Fraction(target[v])]
            for v in range(n)]
    pivots = []
    r = 0
    for col in range(cols):
        pivot = next((i for i in range(r, n) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [a / rows[r][col] for a in rows[r]]
        for i in range(n):
            if i != r and rows[i][col]:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if r < cols:
        raise PreconditionViolated("complement classes are linearly dependent")
    if any(row[-1] for row in rows[r:]):
        return None
    sol = tuple(rows[i][-1] for i in range(cols))
    if any(m < 0 or m.denominator != 1 for m in sol):
        return None
    return tuple(int(m) for m in sol)


def balanced_middle(x, y, complement):
    """The middle multiset, in key order, that balances dim x + dim y."""
    target = tuple(a + b for a, b in zip(x.dim_c(), y.dim_c()))
    sol = balance_solution(target, complement)
    if sol is None:
        return None
    return tuple(sorted((c for c, m in zip(complement, sol) for _ in range(m)),
                        key=ClusterObject.key))


def index_by_isomorphism(m, lattice_at):
    """The i with m isomorphic to lattice_at(quiver, i), found through a
    unimodular Hom basis element, or None."""
    q = m.quiver
    for i in q.vertices:
        other = lattice_at(q, i)
        if m.gens == other.gens and are_isomorphic_exceptional(m, other):
            return i
    return None


def shifted(obj):
    """A fundamental object as a lattice in one degree: M at 0, sigma P_i as P_i at 1."""
    if obj.is_module:
        return ShiftedModule(obj.module, 0)
    return ShiftedModule(projective(obj.quiver, obj.shifted_projective), 1)


def _derived_hom(a, b):
    offset = b.shift - a.shift
    if offset == 0:
        return hom_group(a.module, b.module).group
    if offset == 1:
        return ext1_group(a.module, b.module)
    return FinAbGroup(0)


def orbit_hom(x, y):
    """The orbit sum of Hom_D(x, F^l y) over all l.

    Between lattices only the offsets 0 (Hom) and 1 (Ext^1) can be
    nonzero, and every f_apply step moves the shift the same way, by at
    least one, so each direction of the walk stops before a step that
    must leave [x.shift, x.shift + 1]; every term inside is summed,
    Ext^1 out of a projective included.
    """
    total = _derived_hom(x, y)
    cur = y
    while cur.shift > x.shift:
        cur = f_apply(cur, 1)
        total = total.direct_sum(_derived_hom(x, cur))
    cur = y
    while cur.shift <= x.shift:
        cur = f_apply(cur, -1)
        total = total.direct_sum(_derived_hom(x, cur))
    return total


def orbit_hom_c(x, y):
    return orbit_hom(shifted(x), shifted(y))


def orbit_ext1_c(x, y):
    sy = shifted(y)
    return orbit_hom(shifted(x), ShiftedModule(sy.module, sy.shift + 1))


def normalize(x):
    """The fundamental object in the orbit of the shifted lattice x.

    Applies f_apply until the representative sits at shift zero, or is
    a projective at shift one.
    """
    while True:
        if x.shift == 0:
            return ClusterObject.from_module(x.module)
        if x.shift == 1:
            i = index_by_isomorphism(x.module, projective)
            if i is not None:
                return ClusterObject.sigma_projective(x.module.quiver, i)
            x = f_apply(x, 1)
        elif x.shift > 1:
            x = f_apply(x, 1)
        else:
            x = f_apply(x, -1)


def orbit_suspension(obj):
    s = shifted(obj)
    return normalize(ShiftedModule(s.module, s.shift + 1))


def intertwining_rows(q, m_gens, n_gens, m_actions, n_actions) -> tuple:
    """Rows of the map (f_v)_v -> (f_{t(a)} M_a - N_a f_{s(a)})_a, and its width.

    Actions are per-arrow row tuples; the variables are the vertexwise
    blocks f_v, n_v x m_v and row-major, in vertex order.  There is one
    row per entry (r, c) of each arrow component, in arrow, row, column
    order, as a {variable: coefficient} dict without zeros.  The two
    terms sit in the blocks of t(a) and s(a), which differ on an acyclic
    quiver.
    """
    offsets, nvars = [], 0
    for g_m, g_n in zip(m_gens, n_gens):
        offsets.append(nvars)
        nvars += g_n * g_m
    rows = []
    for a, (s, t) in enumerate(q.arrows):
        su, tv = s - 1, t - 1
        ma, na = m_actions[a], n_actions[a]
        g_ms, g_mt, g_ns = m_gens[su], m_gens[tv], n_gens[su]
        for r in range(n_gens[tv]):
            at_t = offsets[tv] + r * g_mt
            na_r = na[r]
            for c in range(g_ms):
                row = {at_t + k: ma[k][c] for k in range(g_mt) if ma[k][c]}
                at_s = offsets[su] + c
                for k in range(g_ns):
                    if na_r[k]:
                        row[at_s + k * g_ms] = -na_r[k]
                rows.append(row)
    return rows, nvars


def standard_rows(m, n) -> tuple:
    """The sparse intertwining rows of two lattices, and their width: Hom
    is the kernel and Ext^1 the cokernel, over Z, F_p or Q."""
    return intertwining_rows(m.quiver, m.gens, n.gens, [x.entries for x in m.actions],
                             [x.entries for x in n.actions])
