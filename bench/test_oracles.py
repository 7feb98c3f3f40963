"""Tests of the benchmark's own oracles, input generator and output checks.

    python3 -m pytest bench
"""

import itertools
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

# Underlying Dynkin graphs for the brute-force root count.
DYNKIN_EDGES = {
    "A4": ((1, 2), (2, 3), (3, 4)),
    "D4": ((1, 4), (2, 4), (3, 4)),
    "D5": ((1, 2), (2, 3), (3, 4), (3, 5)),
    "E6": ((1, 2), (2, 3), (3, 4), (4, 5), (3, 6)),
    "E7": ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)),
}

KRONECKER_PATH = """\
nodes 8
node 0 M[0,1] M[1,2]
node 1 M[1,2] M[2,3]
node 2 M[0,1] SP1
node 3 M[2,3] M[3,4]
node 4 SP1 SP2
node 5 M[3,4] M[4,5]
node 6 M[1,0] SP2
node 7 M[4,5] M[5,6]
edge 0 0 1 e - eprime M[1,2],M[1,2]
edge 0 1 2 e - eprime -
edge 1 0 3 e - eprime M[2,3],M[2,3]
edge 1 1 0 e M[1,2],M[1,2] eprime -
edge 2 0 4 e - eprime -
edge 2 1 0 e - eprime -
edge 3 0 5 e - eprime M[3,4],M[3,4]
edge 3 1 1 e M[2,3],M[2,3] eprime -
edge 4 0 6 e SP2,SP2 eprime -
edge 4 1 2 e - eprime -
edge 5 0 7 e - eprime M[4,5],M[4,5]
edge 5 1 3 e M[3,4],M[3,4] eprime -
edge 6 0 4 e - eprime SP2,SP2
edge 7 1 5 e M[4,5],M[4,5] eprime -
truncated true
reason node limit 8 reached
"""


def brute_force_positive_roots(n, edges, top=4):
    """Positive roots as the vectors d >= 0, d != 0, with Tits form 1."""
    count = 0
    for d in itertools.product(range(top + 1), repeat=n):
        if any(d):
            q = sum(x * x for x in d) - sum(d[u - 1] * d[v - 1] for u, v in edges)
            count += q == 1
    return count


def test_type_a_is_catalan():
    assert [oracles.catalan(n) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    for n in range(1, 9):
        assert oracles.clusters(f"A{n}") == oracles.clusters_a(n)
    assert oracles.clusters_a(4) == 42


def test_type_d_closed_form():
    for n in range(4, 10):
        assert oracles.clusters(f"D{n}") == oracles.clusters_d(n)
    assert (oracles.clusters_d(4), oracles.clusters_d(5)) == (50, 182)


def test_exceptional_counts():
    for kind, count in oracles.EXCEPTIONAL_CLUSTERS.items():
        assert oracles.clusters(kind) == count
    assert oracles.EXCEPTIONAL_CLUSTERS == {"E6": 833, "E7": 4160, "E8": 25080}


def test_positive_roots_match_brute_force():
    for kind, edges in DYNKIN_EDGES.items():
        n = max(max(e) for e in edges)
        assert oracles.positive_roots(kind) == brute_force_positive_roots(n, edges), kind
    assert oracles.rigid_objects("E7") == 70
    assert oracles.positive_roots("E8") == 120


def test_kronecker_real_roots():
    assert all(oracles.is_kronecker_real_root(d) for d in [(0, 1), (1, 0), (4, 5), (6, 5)])
    assert not any(oracles.is_kronecker_real_root(d) for d in [(1, 1), (2, 4), (0, 0)])


def _underlying(arrows):
    return sorted(tuple(sorted(a)) for a in arrows)


def _degrees(arrows):
    degree = {}
    for s, t in arrows:
        degree[s] = degree.get(s, 0) + 1
        degree[t] = degree.get(t, 0) + 1
    return list(degree.values())


def _is_acyclic(n, arrows):
    remaining, arrows = set(range(1, n + 1)), list(arrows)
    while remaining:
        sources = [v for v in remaining if not any(t == v and s in remaining for s, t in arrows)]
        if not sources:
            return False
        remaining -= set(sources)
    return True


def test_seed_zero_is_the_listed_orientation():
    for kind, (n, edges) in run.QUIVERS.items():
        listed = [(u, v) for u, v, mult in edges for _ in range(mult)]
        assert run.make_quiver(kind, 0) == (n, listed)


def test_every_seed_relabels_the_same_quiver():
    for kind, (n, _) in run.QUIVERS.items():
        base = run.make_quiver(kind, 0)[1]
        seen = set()
        for seed in range(1, 40):
            m, arrows = run.make_quiver(kind, seed)
            assert run.make_quiver(kind, seed) == (m, arrows)
            assert m == n and _is_acyclic(n, arrows)
            assert len(arrows) == len(base)
            assert sorted(_degrees(arrows)) == sorted(_degrees(base))
            if n <= 4:  # some relabelling maps the generated graph onto the listed one
                assert any(_underlying([(p[s - 1], p[t - 1]) for s, t in arrows])
                           == _underlying(base)
                           for p in itertools.permutations(range(1, n + 1)))
            seen.add(tuple(arrows))
        assert len(seen) > 1


def test_fingerprint_ignores_truncation_lines():
    honest = KRONECKER_PATH.replace("reason node limit 8 reached", "reason dim bound 6")
    assert run.fingerprint(honest) == run.fingerprint(KRONECKER_PATH)
    assert run.fingerprint(KRONECKER_PATH.replace("M[5,6]", "M[6,5]")) != \
        run.fingerprint(KRONECKER_PATH)
    assert run.fingerprint(KRONECKER_PATH) == json.loads(
        (BENCH / "reference.json").read_text())["K2"]


def test_kronecker_check():
    assert run.check_kronecker_graph(KRONECKER_PATH) == []
    assert run.check_kronecker_graph(KRONECKER_PATH.replace("M[4,5] M[5,6]", "M[4,5] M[5,7]"))
    cut = "\n".join(l for l in KRONECKER_PATH.splitlines() if not l.startswith("edge 7"))
    assert run.check_kronecker_graph(cut)


def test_dynkin_check_rejects_a_wrong_count():
    text = "node 0 M[1] SP1\nedge 0 0 0 e - eprime -\n"
    problems = run.check_dynkin_graph("A4", text)
    assert any("closed form gives 42" in p for p in problems)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
