from clusterforge import clear_caches, cluster, rep, verify
from clusterforge.cluster import build_pool
from clusterforge.quiver import Quiver
from clusterforge.rep import projective

import oracles

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
# the orientation of the e7-verify benchmark workload
E7 = Quiver(7, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)))


def test_euler_pairing_passes_on_orbit_pools():
    for q in (A3, D4, KRONECKER):
        objects = build_pool(q, 6).modules()
        assert all(obj.coord is not None for obj in objects)
        assert verify._euler_pairing(q, objects).passed


def test_euler_pairing_fails_on_a_perturbed_hom_rank(monkeypatch):
    # rank Hom comes from the orbit coordinates and rank Ext^1 from the
    # elimination, so a wrong transported rank must show; the perturbed
    # ranks reach the memo tables, which are emptied on both sides
    clear_caches()
    exact = cluster._hom_rank
    monkeypatch.setattr(cluster, "_hom_rank",
                        lambda q, cx, cy: exact(q, cx, cy) + (cx == cy))
    try:
        report = verify.run_suite(D4, 6, primes=())
    finally:
        clear_caches()
    check = next(c for c in report.checks if c.name == "euler-pairing")
    assert not check.passed
    assert check.detail.count(" != ") == 3


def test_rep_checks_reject_another_quiver():
    report = verify.run_suite(A3, 4, primes=(2,), extra_reps=[("p1", projective(A2, 1))])
    by_name = {c.name: c for c in report.checks}
    assert not by_name["rep-wellformed(p1)"].passed
    assert "different quiver" in by_name["rep-wellformed(p1)"].detail
    assert "rep-euler(p1)" not in by_name
    assert not report.ok


def test_e7_verify_reduces_each_pair_on_the_presentations(monkeypatch, count_calls):
    # each lattice is presented once, and the field checks read the
    # systems of the lattices they reduce, the pool's own, so they
    # present no lattice outside the pool; the minimal resolution fixes
    # the presented system sizes, so the totals do not depend on the
    # pivot order
    clear_caches()
    over_fields = []
    field = rep.field_hom_ext_dims

    def read_over_field(m, n):
        before = len(presented)
        dims = field(m, n)
        over_fields.append(presented[before:])
        return dims

    presented = count_calls(rep, "_lattice_presentation")
    monkeypatch.setattr(rep, "field_hom_ext_dims", read_over_field)
    assert verify.run_suite(E7, 12).ok
    modules = [obj.module for obj in build_pool(E7, 12).modules()]
    assert len(modules) == 63
    assert len(over_fields) == 70 * 3
    assert {m for new in over_fields for m, in new} <= set(modules)
    assert len(set(presented)) == len(presented)
    assert set(modules) <= {m for m, in presented}

    def totals(system) -> tuple:
        sizes = [system(m, n) for m in modules for n in modules]
        return sum(len(r) for r, _ in sizes), sum(c for _, c in sizes)

    assert totals(rep._presented_rows) == (6412, 6811)
    assert totals(oracles.standard_rows) == (25788, 26187)


def test_e7_verify_reads_projective_translates_as_the_pool_projectives(count_calls):
    # AR duality pairs every pool lattice with the translates of the
    # others; a translate that is P_i is read as the pool's P_i, so Hom
    # into it is the pool pair already reduced, and only the 4 self-pairs
    # that recognize those translates as exceptional are reduced besides
    # the 63 x 63 pool pairs (the parent reduced 4,225); the field checks
    # read one self-pair system per pool object and prime, 70 x 3, all on
    # pool lattices
    clear_caches()
    reduced = count_calls(rep, "_presented_rows")
    assert verify.run_suite(E7, 12).ok
    modules = set(obj.module for obj in build_pool(E7, 12).modules())
    outside = [(m, n) for m, n in reduced if not {m, n} <= modules]
    assert len(reduced) == 63 * 63 + 4 + 70 * 3 == 4183
    assert len(outside) == 4 and all(m is n for m, n in outside)


def test_coordinate_free_ext1_reads_projective_translates_as_the_pool_projectives(count_calls):
    # objects without orbit coordinates take the elimination branch of
    # ext1_c, whose Hom(M, tau N) term then reads the pool's P_i; the
    # pool walks translate no orbit past a projective, so the 4
    # translates that are P_i under another value are recognized here,
    # each by the self-pair of is_exceptional
    clear_caches()
    lattices = [obj.module for obj in build_pool(E7, 12).modules()]
    homs = count_calls(rep, "hom_group")
    plain = [cluster.ClusterObject.from_module(m) for m in lattices]
    assert all(obj.coord is None for obj in plain)
    x = plain[0]
    for y in plain:
        cluster.ext1_c(x, y)
    outside = [(m, n) for m, n in homs if n not in set(lattices)]
    assert len(homs) == 56 + 4
    assert len(outside) == 4 and all(m is n for m, n in outside)
