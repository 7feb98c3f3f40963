"""Acceptance suite.

Each test covers one acceptance criterion at its stated tolerance (all
exact) and prints one PASS line; run with `pytest tests/test_acceptance.py -v -s`
to see them.  Brute-force oracles live in oracles.py and share no code
with the mutation engine.
"""

import random
import time

import pytest

from clusterforge import clear_caches, rep, serre
from clusterforge.cluster import (
    build_pool,
    canonical_cluster,
    exchange_graph,
    ext1_c,
    is_cluster_tilting,
    mutate,
    verify_bijection_mod_p,
)
from clusterforge.quiver import Quiver, coxeter_apply, euler_form
from clusterforge.rep import (
    base_change,
    dim_vector,
    ext1_group,
    field_hom_ext_dims,
    hom_group,
    projective_resolution,
    torsion_simple,
)
from clusterforge.zlinalg import FinAbGroup

import oracles

A2 = Quiver(2, ((1, 2),))
A3 = Quiver(3, ((1, 2), (2, 3)))
A4 = Quiver(4, ((1, 2), (2, 3), (3, 4)))
D4 = Quiver(4, ((1, 4), (2, 4), (3, 4)))
KRONECKER = Quiver(2, ((1, 2), (1, 2)))
A_TILDE_2_1 = Quiver(3, ((1, 2), (2, 3), (1, 3)))
WILD = Quiver(3, ((1, 2), (1, 2), (2, 3)))

RANK_ONE = FinAbGroup(1)


@pytest.fixture(scope="module")
def dynkin_data():
    """Pools, graphs, and oracle enumerations for the Dynkin cases.

    Built cold (caches cleared) so the recorded wall time is honest.
    """
    clear_caches()
    start = time.perf_counter()
    data = {}
    for name, q, roots, clusters in (
            ("A3", A3, 6, 14), ("A4", A4, 10, 42), ("D4", D4, 12, 50)):
        pool = build_pool(q, 6)
        graph = exchange_graph(q, 6, 10000)
        oracle_clusters = oracles.maximal_compatible_sets(pool)
        data[name] = dict(quiver=q, pool=pool, graph=graph,
                          oracle=oracle_clusters, roots=roots, clusters=clusters)
    data["elapsed"] = time.perf_counter() - start
    return data


def test_criterion_1_paper_example_reproduction():
    clear_caches()
    start = time.perf_counter()
    m = torsion_simple(A2, 1, 2)
    group = ext1_group(m, m)
    assert group == FinAbGroup(0, (2,)), f"self-extensions came out as {group}"
    res = projective_resolution(m)
    assert len(res.p0) == 1 and len(res.p1) == 2 and len(res.p2) == 1
    entries = [e for row in res.d1 for e in row] + [e for row in res.d2 for e in row]
    scalar_coeffs = {abs(c) for entry in entries for p, c in entry if p == ()}
    arrow_paths = {p for entry in entries for p, c in entry if p}
    assert 2 in scalar_coeffs, "no multiplication-by-2 entry in the resolution"
    assert (0,) in arrow_paths, "no arrow entry in the resolution"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"\nPASS criterion 1: torsion module has Ext^1 = Z/2 and the "
          f"three-term resolution shape ({elapsed:.2f}s)")


def test_criterion_2_a2_pentagon():
    clear_caches()
    start = time.perf_counter()
    pool = build_pool(A2, 5)
    assert len(pool.objects) == 5
    assert sum(1 for o in pool.objects if o.is_module) == 3
    assert sum(1 for o in pool.objects if not o.is_module) == 2
    graph = exchange_graph(A2, 5, 100)
    assert len(graph.nodes) == 5 and not graph.truncated
    undirected = {(min(i, j), max(i, j)) for i, _, j, _ in graph.edges}
    assert len(undirected) == 5
    assert all(graph.degree(i) == 2 for i in range(5))
    # a connected 2-regular graph on 5 vertices is the 5-cycle
    oracle_nodes = {tuple(s.key() for s in c)
                    for c in oracles.maximal_compatible_sets(pool)}
    engine_nodes = {tuple(s.key() for s in node) for node in graph.nodes}
    assert engine_nodes == oracle_nodes
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    print(f"PASS criterion 2: A2 pool of 5 and pentagon exchange graph "
          f"match brute force ({elapsed:.2f}s)")


def test_criterion_3_dynkin_counts(dynkin_data):
    for name in ("A3", "A4", "D4"):
        d = dynkin_data[name]
        pool, graph = d["pool"], d["graph"]
        n = d["quiver"].n
        assert pool.complete
        assert len(pool.objects) == d["roots"] + n, name
        root_set = oracles.positive_roots(d["quiver"])
        module_dims = {dim_vector(o.module) for o in pool.modules()}
        assert module_dims == root_set, name
        assert len(graph.nodes) == d["clusters"], name
        assert len(d["oracle"]) == d["clusters"], name
    assert dynkin_data["elapsed"] < 30.0, f"took {dynkin_data['elapsed']:.1f}s"
    print(f"PASS criterion 3: A3 9/14, A4 14/42, D4 16/50 against the "
          f"root and clique oracles ({dynkin_data['elapsed']:.1f}s)")


def test_criterion_4_mutation_transitivity(dynkin_data):
    for name in ("A3", "A4", "D4"):
        d = dynkin_data[name]
        graph, pool = d["graph"], d["pool"]
        n = d["quiver"].n
        oracle_nodes = {tuple(s.key() for s in c) for c in d["oracle"]}
        engine_nodes = {tuple(s.key() for s in node) for node in graph.nodes}
        assert engine_nodes == oracle_nodes, name
        assert all(graph.degree(i) == n for i in range(len(graph.nodes))), name
        for i, k, j, tri in graph.edges:
            back_pos = next(p for p, s in enumerate(graph.nodes[j])
                            if s.key() == tri.y.key())
            back, _ = mutate(graph.nodes[j], back_pos, pool)
            assert back == graph.nodes[i], name
    print("PASS criterion 4: BFS reaches every brute-force cluster, degrees "
          "are n, and every mutation is an involution")


def test_criterion_5_rank_one_criterion(dynkin_data):
    for name in ("A3", "A4", "D4"):
        for _, _, _, tri in dynkin_data[name]["graph"].edges:
            assert ext1_c(tri.x, tri.y) == RANK_ONE
            assert ext1_c(tri.y, tri.x) == RANK_ONE
    rng = random.Random(20260808)
    cases = []
    for name in ("A3", "A4", "D4"):
        d = dynkin_data[name]
        cases.extend((d["graph"], d["pool"], node) for node in d["graph"].nodes)
    checked = 0
    while checked < 200:
        graph, pool, node = cases[rng.randrange(len(cases))]
        k = rng.randrange(len(node))
        x = node[k]
        y = pool.objects[rng.randrange(len(pool.objects))]
        if y.key() == x.key():
            continue
        completion = canonical_cluster(node[:k] + node[k + 1:] + (y,))
        predicted = ext1_c(x, y) == RANK_ONE \
            and all(ext1_c(y, t).is_trivial and ext1_c(t, y).is_trivial
                    for t in node[:k] + node[k + 1:])
        actual = is_cluster_tilting(completion)[0]
        assert predicted == actual, (x.describe(), y.describe())
        checked += 1
    print("PASS criterion 5: every exchange edge is certified rank one and "
          "200 sampled completions match the criterion")


def test_criterion_6_ext_freeness_symmetry_decomposition():
    pools = [build_pool(A2, 5), build_pool(A3, 6), build_pool(D4, 6),
             build_pool(KRONECKER, 6)]
    for pool in pools:
        for x in pool.objects:
            for y in pool.objects:
                g = ext1_c(x, y)
                assert not g.torsion, (x.describe(), y.describe(), str(g))
                assert g.free_rank == ext1_c(y, x).free_rank
        for x in pool.modules():
            for y in pool.modules():
                assert ext1_c(x, y).free_rank == \
                    ext1_group(x.module, y.module).free_rank \
                    + ext1_group(y.module, x.module).free_rank
    print("PASS criterion 6: cluster Ext groups are torsion-free, "
          "rank-symmetric, and decompose over module pairs")


def test_criterion_7_bijection_mod_p(dynkin_data):
    start = time.perf_counter()
    pools = [build_pool(A2, 5), dynkin_data["A3"]["pool"], dynkin_data["D4"]["pool"],
             build_pool(KRONECKER, 6)]
    for pool in pools:
        for p in (2, 3, 5, 7):
            report = verify_bijection_mod_p(pool, p)
            assert report.ok, report.violations
    # pairwise dimension matching under reduction, spot-checked broadly
    for pool in (build_pool(A2, 5), dynkin_data["A3"]["pool"]):
        mods = [o.module for o in pool.modules()]
        for m in mods:
            for n in mods:
                want = (hom_group(m, n).free_rank, ext1_group(m, n).free_rank)
                for p in (2, 3, 5, 7):
                    got = field_hom_ext_dims(base_change(m, p), base_change(n, p))
                    assert got == want, (dim_vector(m), dim_vector(n), p)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    print(f"PASS criterion 7: reduction mod 2,3,5,7 is a dimension-true "
          f"bijection on every pool ({elapsed:.1f}s)")


def test_criterion_8_serre_tau_consistency(dynkin_data):
    pools = [build_pool(A2, 5), dynkin_data["A3"]["pool"], dynkin_data["A4"]["pool"],
             dynkin_data["D4"]["pool"], build_pool(KRONECKER, 6),
             build_pool(A_TILDE_2_1, 6), build_pool(WILD, 6)]
    for pool in pools:
        q = pool.quiver
        mods = [o.module for o in pool.modules()]
        for m in mods:
            if serre.projective_index_of(m) is not None:
                continue
            t = serre.tau(m)
            assert dim_vector(t) == coxeter_apply(q, dim_vector(m), 1)
            assert rep.are_isomorphic_exceptional(serre.tau_inv(t), m)
        for m in mods:
            for n in mods:
                if serre.projective_index_of(n) is not None:
                    continue
                assert hom_group(m, serre.tau(n)).free_rank \
                    == ext1_group(n, m).free_rank, (dim_vector(m), dim_vector(n))
    print("PASS criterion 8: dim tau = Coxeter, tau_inv tau = id, and the "
          "translate pairing matches Ext ranks on every pool")


def test_criterion_9_euler_form_oracle(dynkin_data):
    pools = [build_pool(A2, 5), dynkin_data["A3"]["pool"], dynkin_data["A4"]["pool"],
             dynkin_data["D4"]["pool"]]
    for pool in pools:
        q = pool.quiver
        mods = [o.module for o in pool.modules()]
        for m in mods:
            for n in mods:
                lhs = hom_group(m, n).free_rank - ext1_group(m, n).free_rank
                assert lhs == euler_form(q, dim_vector(m), dim_vector(n)), \
                    (dim_vector(m), dim_vector(n))
    print("PASS criterion 9: Hom minus Ext ranks equal the Euler form on "
          "all Dynkin pool pairs")
