"""The library names the benchmark patches.

bench/tracer.py wraps every (module, name) in its TARGETS, and
bench/child.py wraps cluster.mutate and cluster.build_pool; a name
deleted or renamed here would otherwise show only as an AttributeError
under `bench/run.py --trace 1`.  The tracer module is loaded without
writing bytecode next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_name_the_benchmark_patches_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    patched = [(module, name) for module, names in tracer.TARGETS for name in names]
    patched += [("cluster", "mutate"), ("cluster", "build_pool")]
    missing = [f"{module}.{name}" for module, name in patched
               if not callable(getattr(importlib.import_module(f"clusterforge.{module}"),
                                       name, None))]
    assert missing == []
