"""Independent brute-force oracles for the acceptance suite.

Nothing here touches the mutation engine or the exchange-graph search:
positive roots come from reflection closure on the underlying graph,
and cluster counts from exhaustive enumeration of maximal pairwise
compatible subsets of a pool, or from the closed-form finite-type
counts of Fomin-Zelevinsky (Cluster algebras II, 2003).
"""

from itertools import combinations

from clusterforge.cluster import ext1_c


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
