"""Closed-form counts the benchmark checks the program against.

Nothing here imports clusterforge: every number comes from a formula of
Lie theory or cluster combinatorics, so a wrong answer from the library
cannot also move its own reference.

Cluster counts of finite type are the generalized Catalan numbers
prod_i (h + e_i + 1) / (e_i + 1) over the exponents e_i of the root
system, h its Coxeter number (Fomin-Zelevinsky, Cluster algebras II,
2003).  A_n and D_n also have the classical closed forms used below.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

# Exponents of the exceptional root systems; h is the largest exponent + 1.
EXCEPTIONAL_EXPONENTS = {
    "E6": (1, 4, 5, 7, 8, 11),
    "E7": (1, 5, 7, 9, 11, 13, 17),
    "E8": (1, 7, 11, 13, 17, 19, 23, 29),
}

# Literal cluster counts of E6, E7 and E8, kept for workloads that are too
# slow to run today.
EXCEPTIONAL_CLUSTERS = {"E6": 833, "E7": 4160, "E8": 25080}


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def clusters_a(n: int) -> int:
    """Clusters of type A_n: Catalan(n+1)."""
    return catalan(n + 1)


def clusters_d(n: int) -> int:
    """Clusters of type D_n: (3n-2)/n * C(2n-2, n-1)."""
    total = Fraction(3 * n - 2, n) * comb(2 * n - 2, n - 1)
    if total.denominator != 1:
        raise ValueError(f"D_{n} count {total} is not an integer")
    return int(total)


def exponents(kind: str) -> tuple:
    family, n = kind[0], int(kind[1:])
    if family == "A":
        return tuple(range(1, n + 1))
    if family == "D":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    return EXCEPTIONAL_EXPONENTS[kind]


def coxeter_number(kind: str) -> int:
    return max(exponents(kind)) + 1


def clusters(kind: str) -> int:
    """Generalized Catalan number of a simply-laced Dynkin type."""
    h = coxeter_number(kind)
    total = Fraction(1)
    for e in exponents(kind):
        total *= Fraction(h + e + 1, e + 1)
    return int(total)


def positive_roots(kind: str) -> int:
    """Number of positive roots, n * h / 2."""
    return len(exponents(kind)) * coxeter_number(kind) // 2


def rigid_objects(kind: str) -> int:
    """Indecomposable rigid objects of the cluster category: the
    exceptional modules (one per positive root) plus the n shifted
    projectives."""
    return positive_roots(kind) + len(exponents(kind))


def is_kronecker_real_root(dims) -> bool:
    """Dimension vectors of exceptional Kronecker modules: (k, k+1) or (k+1, k)."""
    a, b = dims
    return min(a, b) >= 0 and abs(a - b) == 1
