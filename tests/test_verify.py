from clusterforge import clear_caches, cluster, verify
from clusterforge.cluster import build_pool
from clusterforge.quiver import Quiver
from clusterforge.rep import projective

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))


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
