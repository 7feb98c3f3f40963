"""Invariant suite over a quiver's rigid object pool.

Each check is an independent cross-validation of two code paths (for
example combinatorial Euler forms against homological ranks, or
integral Ext groups against their reductions mod p).  The CLI `verify`
command prints one line per check and fails loudly on any violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quiver import Quiver, coxeter_apply, euler_form, validate
from . import cluster, rep, serre


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def run_suite(q: Quiver, dim_bound: int = 12, primes=(2, 3, 5), extra_reps=()) -> Report:
    checks = []
    validate(q)
    pool = cluster.build_pool(q, dim_bound)
    modules = [obj.module for obj in pool.modules()]

    checks.append(_euler_pairing(q, pool.modules()))
    checks.append(_ext_torsion_free(pool))
    checks.append(_two_cy_symmetry(pool))
    checks.append(_ext_decomposition(pool))
    for p in primes:
        report = cluster.verify_bijection_mod_p(pool, p)
        detail = "; ".join(report.violations[:3])
        checks.append(CheckResult(f"bijection-mod-{p}", report.ok, detail))
    checks.append(_tau_coxeter(q, modules))
    checks.append(_ar_duality(q, modules))
    for label, m in extra_reps:
        checks.extend(_rep_checks(q, label, m))
    return Report(tuple(checks))


def _euler_pairing(q, objects) -> CheckResult:
    # rank Hom - rank Ext^1 = <dim M, dim N>.  Where both objects carry
    # orbit coordinates, rank Hom is transported along them by the
    # Coxeter matrix and rank Ext^1 is eliminated, so the sides share no
    # reduction.  Elsewhere both ranks come from one system, Hom of the
    # lattice's presentation into the other, whose columns minus rows is
    # still the Euler form, so there the check is tautological.
    bad = []
    read = [(x.coord, x.module, rep.dim_vector(x.module)) for x in objects]
    for cx, m, dm in read:
        for cy, n, dn in read:
            if cx is not None and cy is not None:
                hom = cluster._hom_rank(q, cx, cy)
            else:
                hom = rep.hom_group(m, n).free_rank
            lhs = hom - rep.ext1_group(m, n).free_rank
            rhs = euler_form(q, dm, dn)
            if lhs != rhs:
                bad.append(f"{dm} vs {dn}: {lhs} != {rhs}")
    return CheckResult("euler-pairing", not bad, "; ".join(bad[:3]))


def _ext_torsion_free(pool) -> CheckResult:
    # ext1_c is free by construction between lattices with orbit
    # coordinates, so module pairs read the torsion off the Smith form of
    # their module Ext^1; pairs with a suspended projective read ext1_c
    bad = []
    read = [(x, x.module) for x in pool.objects]
    for x, m in read:
        for y, n in read:
            if m is not None and n is not None:
                g = rep.ext1_group(m, n)
            else:
                g = cluster.ext1_c(x, y)
            if g.torsion:
                bad.append(f"Ext1({x.describe()}, {y.describe()}) = {g}")
    return CheckResult("ext-freeness", not bad, "; ".join(bad[:3]))


def _two_cy_symmetry(pool) -> CheckResult:
    bad = []
    for x in pool.objects:
        for y in pool.objects:
            a = cluster.ext1_c(x, y).free_rank
            b = cluster.ext1_c(y, x).free_rank
            if a != b:
                bad.append(f"{x.describe()}/{y.describe()}: {a} != {b}")
    return CheckResult("2cy-symmetry", not bad, "; ".join(bad[:3]))


def _ext_decomposition(pool) -> CheckResult:
    bad = []
    read = [(x, x.module) for x in pool.modules()]
    for x, m in read:
        for y, n in read:
            lhs = cluster.ext1_c(x, y).free_rank
            rhs = rep.ext1_group(m, n).free_rank + rep.ext1_group(n, m).free_rank
            if lhs != rhs:
                bad.append(f"{x.describe()}/{y.describe()}: {lhs} != {rhs}")
    return CheckResult("ext-decomposition", not bad, "; ".join(bad[:3]))


def _tau_coxeter(q, modules) -> CheckResult:
    bad = []
    for m in modules:
        if serre.projective_index_of(m) is not None:
            continue
        got = rep.dim_vector(serre.tau(m))
        want = coxeter_apply(q, rep.dim_vector(m), 1)
        if got != want:
            bad.append(f"dim tau{rep.dim_vector(m)} = {got}, Coxeter gives {want}")
    return CheckResult("tau-coxeter", not bad, "; ".join(bad[:3]))


def _ar_duality(q, modules) -> CheckResult:
    bad = []
    translates = [(n, serre.tau_canonical(n)) for n in modules
                  if serre.projective_index_of(n) is None]
    for m in modules:
        for n, tau_n in translates:
            lhs = rep.hom_group(m, tau_n).free_rank
            rhs = rep.ext1_group(n, m).free_rank
            if lhs != rhs:
                bad.append(f"Hom({rep.dim_vector(m)}, tau{rep.dim_vector(n)}) "
                           f"rank {lhs} != Ext rank {rhs}")
    return CheckResult("ar-duality", not bad, "; ".join(bad[:3]))


def _rep_checks(q, label, m) -> list:
    out = []
    if m.quiver != q:
        out.append(CheckResult(f"rep-wellformed({label})", False,
                               "representation references a different quiver"))
        return out
    out.append(CheckResult(f"rep-wellformed({label})", True))
    if m.is_lattice:
        rigid = rep.is_rigid(m)
        out.append(CheckResult(
            f"rep-euler({label})",
            rep.hom_group(m, m).free_rank - rep.ext1_group(m, m).free_rank
            == euler_form(q, rep.dim_vector(m), rep.dim_vector(m)),
            ""))
        out.append(CheckResult(f"rep-rigid({label})", True,
                               "rigid" if rigid else "not rigid (informational)"))
    return out
