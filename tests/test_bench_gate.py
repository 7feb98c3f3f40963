"""The benchmark's correctness gate, run once per workload.

bench/run.py checks every iteration of a workload against closed-form
oracles (bench/oracles.py) and, at seed 0, against the node and edge
fingerprints in bench/reference.json.  Here one child per workload runs
at seed 0 and its output must pass that check with no failed
operation, so a change that alters the benchmark's answers fails here
first.  bench/run.py imports its oracles as `oracles`, which is also
the name of tests/oracles.py: it is loaded with bench/oracles.py under
that name, and sys.modules and sys.path are restored afterwards.  No
bytecode is written next to either file.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run():
    saved_path = sys.path[:]
    saved = {name: sys.modules.get(name) for name in ("oracles", "tracer")}
    saved_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        sys.modules["oracles"] = _load("oracles", BENCH / "oracles.py")
        return _load("bench_run", BENCH / "run.py")
    finally:
        sys.dont_write_bytecode = saved_bytecode
        sys.path[:] = saved_path
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.parametrize("workload", ["dynkin-graph", "e7-verify", "kronecker-graph"])
def test_workload_passes_the_benchmark_check(run, workload, tmp_path):
    assert workload in run.WORKLOADS
    quivers, commands = [], []
    for kind, extra in run.WORKLOADS[workload]:
        path = tmp_path / f"{kind}.quiver"
        path.write_text(run.quiver_text(*run.make_quiver(kind, 0)))
        quivers.append(str(path))
        commands.append(["verify" if workload == "e7-verify" else "graph", str(path), *extra])
    result = run.run_child(quivers, commands, False)
    reference = json.loads((BENCH / "reference.json").read_text())
    problems, attempted, failed, ops, _ = run.check_iteration(workload, 0, result, reference)
    assert problems == []
    assert failed == 0 and ops > 0
