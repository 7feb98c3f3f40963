"""The library names the benchmark patches.

bench/tracer.py wraps every (module, name) in its TARGETS, and
bench/child.py wraps cluster.mutate and cluster.build_pool; a name
deleted or renamed here would otherwise show only as an AttributeError
under `bench/run.py --trace 1`.  bench/child.py also counts the calls of
cluster.mutate as the operations of a workload, so exchange_graph must
reach every edge through the module-level mutate.  The tracer module is
loaded without writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from clusterforge import cluster
from clusterforge.quiver import Quiver

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_patches_resolves(monkeypatch):
    tracer = _tracer(monkeypatch)
    patched = [(module, name) for module, names in tracer.TARGETS for name in names]
    patched += [("cluster", "mutate"), ("cluster", "build_pool")]
    missing = [f"{module}.{name}" for module, name in patched
               if not callable(getattr(importlib.import_module(f"clusterforge.{module}"),
                                       name, None))]
    assert missing == []


def test_exchange_graph_calls_mutate_once_per_node_and_position(monkeypatch):
    # the operation counts of the dynkin-graph and kronecker-graph
    # workloads: mutate rebound as bench/child.py rebinds it sees every
    # (node, position) of A4 and D4 at bound 12 and of the Kronecker
    # quiver at bound 6 cut at 8 nodes
    tracer = _tracer(monkeypatch)
    mutate, calls = cluster.mutate, []

    def counted(*args):
        calls.append(args)
        return mutate(*args)

    tracer.patch_everywhere(mutate, counted)
    try:
        counts = [len(cluster.exchange_graph(q, bound, max_nodes).nodes) * q.n
                  for q, bound, max_nodes in ((Quiver(4, ((1, 2), (2, 3), (3, 4))), 12, 10000),
                                              (Quiver(4, ((1, 4), (2, 4), (3, 4))), 12, 10000),
                                              (Quiver(2, ((1, 2), (1, 2))), 6, 8))]
    finally:
        tracer.patch_everywhere(counted, mutate)
    assert counts == [168, 200, 16]
    assert len(calls) == 168 + 200 + 16
    assert cluster.mutate is mutate
