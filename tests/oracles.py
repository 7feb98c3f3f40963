"""Independent brute-force oracles for the acceptance suite.

Nothing here touches the mutation engine or the exchange-graph search:
positive roots come from reflection closure on the underlying graph,
and cluster counts from exhaustive enumeration of maximal pairwise
compatible subsets of a pool, or from the closed-form finite-type
counts of Fomin-Zelevinsky (Cluster algebras II, 2003), and exchange
partners from a scan of every pool object.  Morphisms in
the cluster category come from the orbit formula itself, summed over
the f_apply translates of the target, and projectives and injective
lattices are recognized by an explicit isomorphism.
"""

from itertools import combinations

from clusterforge.cluster import ClusterObject, ext1_c
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


def partner_scan(objects, x, others):
    """The exchange partners of x next to others among objects, testing
    every object: Ext^1_C(x, y) free of rank one and no Ext^1_C either
    way against any of others."""
    return [y for y in objects if y.key() != x.key() and ext1_c(x, y) == FinAbGroup(1)
            and all(ext1_c(y, t).is_trivial and ext1_c(t, y).is_trivial for t in others)]


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
