from clusterforge import clear_caches, cluster, rep, verify
from clusterforge.cluster import build_pool
from clusterforge.quiver import Quiver
from clusterforge.rep import projective

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


def test_e7_verify_reduces_each_pair_on_the_presentations(monkeypatch):
    # each lattice is presented once and no standard intertwining row is
    # built; the minimal resolution fixes the presented system sizes, so
    # the totals do not depend on the pivot order
    clear_caches()
    presented, standard = [], []
    present, rows = rep._lattice_presentation, rep._lattice_rows
    monkeypatch.setattr(rep, "_lattice_presentation", lambda m: presented.append(m) or present(m))
    monkeypatch.setattr(rep, "_lattice_rows", lambda m, n: standard.append((m, n)) or rows(m, n))
    assert verify.run_suite(E7, 12).ok
    assert standard == []
    modules = [obj.module for obj in build_pool(E7, 12).modules()]
    assert len(modules) == 63
    assert len(set(presented)) == len(presented)
    assert set(modules) <= set(presented)

    def totals(system) -> tuple:
        sizes = [system(m, n) for m in modules for n in modules]
        return sum(len(r) for r, _ in sizes), sum(c for _, c in sizes)

    assert totals(rep._presented_rows) == (6412, 6811)
    assert totals(rows) == (25788, 26187)
