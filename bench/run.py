"""clusterforge benchmark: cold CLI runs of exchange graphs and the verify suite.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from src/.  NAME is
one of the workloads below, or `all` to run each in turn.  The seed picks
the orientation and vertex labels of every quiver (seed 0 is the
orientation in README.md); the benchmark writes the quiver files itself
and the program sees only those.

One closed loop, one caller: each iteration is a fresh interpreter
(bench/child.py) that imports clusterforge, loads the quivers and calls
clusterforge.cli.main for the workload's commands, so every iteration
pays the cold caches a command-line user pays.  Iterations run one after
the other until S seconds have passed.  Every output is checked against
closed-form oracles (bench/oracles.py) and, at seed 0, against stored
node/edge fingerprints (bench/reference.json).

Times are scaled to a reference speed by calibration loops the children
run around and during each command (see child.py and scaled_wall), since
the host's speed changes from second to second.

--trace 0 reports the end-to-end metrics (medians over iterations).
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics of bench/tracer.py, the tracing overhead, and whether
the traced call counts repeat exactly.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

# Underlying graph of each quiver: (vertices, ((u, v, arrow multiplicity), ...)).
QUIVERS = {
    "A4": (4, ((1, 2, 1), (2, 3, 1), (3, 4, 1))),
    "D4": (4, ((1, 4, 1), (2, 4, 1), (3, 4, 1))),
    "E7": (7, ((1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 7, 1))),
    "K2": (2, ((1, 2, 2),)),
}
PRIMES = (2, 3, 5)
VERIFY_CHECKS = ("euler-pairing", "ext-freeness", "2cy-symmetry", "ext-decomposition",
                 *(f"bijection-mod-{p}" for p in PRIMES), "tau-coxeter", "ar-duality")
KRONECKER_NODES = 8

# workload -> ((quiver, command arguments after the quiver file), ...)
WORKLOADS = {
    "dynkin-graph": (
        ("A4", ("--dim-bound", "12", "--format", "structured")),
        ("D4", ("--dim-bound", "12", "--format", "structured")),
    ),
    "e7-verify": (
        ("E7", tuple(a for p in PRIMES for a in ("--prime", str(p)))),
    ),
    "kronecker-graph": (
        ("K2", ("--dim-bound", "6", "--max-nodes", str(KRONECKER_NODES),
                "--format", "structured")),
    ),
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
MIN_ITERATIONS = 3
MIN_TRACED_PAIRS = 2
SETUP_PER_ROUND = 2  # extra set-up-only interpreters per iteration, for a steady setup_s median
# Time of child.calibrate() at the fast speed of the reference machine
# (2-vCPU Firecracker VM, Python 3.11.7).  Reported times are scaled to it.
CALIBRATION_REF_S = 0.016
CHILD_TIMEOUT_S = 150


# ---------------------------------------------------------------------------
# inputs

def make_quiver(kind: str, seed: int) -> tuple:
    """Vertex count and arrows of `kind` under the seed's relabelling and
    orientation; parallel arrows keep a common direction."""
    n, edges = QUIVERS[kind]
    labels = list(range(1, n + 1))
    arrows = []
    rng = random.Random(f"{kind}:{seed}")
    if seed:
        rng.shuffle(labels)
    for u, v, mult in edges:
        if seed and rng.random() < 0.5:
            u, v = v, u
        arrows += [(labels[u - 1], labels[v - 1])] * mult
    if seed:
        rng.shuffle(arrows)
    return n, arrows


def quiver_text(n: int, arrows) -> str:
    listed = ", ".join(f"[{s}, {t}]" for s, t in arrows)
    return f"clusterforge/1 quiver\nvertices {n}\narrows [{listed}]\n"


# ---------------------------------------------------------------------------
# output checks

def fingerprint(structured: str) -> str:
    """sha256 of the node and edge lines of `graph --format structured`.
    Header, truncation and reason lines are left out."""
    lines = [l for l in structured.splitlines() if l.startswith(("node ", "edge "))]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def parse_graph(structured: str) -> tuple:
    nodes, edges = {}, []
    for line in structured.splitlines():
        parts = line.split()
        if parts and parts[0] == "node":
            nodes[int(parts[1])] = parts[2:]
        elif parts and parts[0] == "edge":
            edges.append((int(parts[1]), int(parts[2]), int(parts[3])))
    return nodes, edges


def _degree_problems(nodes, edges, n) -> tuple:
    problems = []
    out_positions = {i: [] for i in nodes}
    for i, k, j in edges:
        if i not in nodes or j not in nodes:
            problems.append(f"edge {i}->{j} leaves the node set")
            continue
        out_positions[i].append(k)
    directed = {(i, j) for i, _, j in edges}
    if any((j, i) not in directed for i, j in directed):
        problems.append("some mutation has no reverse edge")
    for i, summands in nodes.items():
        if len(set(summands)) != n:
            problems.append(f"node {i} has {len(set(summands))} distinct summands, not {n}")
            break
    return problems, out_positions


def check_dynkin_graph(kind: str, structured: str) -> list:
    n = QUIVERS[kind][0]
    want = oracles.clusters(kind)
    nodes, edges = parse_graph(structured)
    problems = []
    if len(nodes) != want:
        problems.append(f"{kind}: {len(nodes)} clusters, closed form gives {want}")
    more, out_positions = _degree_problems(nodes, edges, n)
    problems += [f"{kind}: {p}" for p in more]
    bad = [i for i, ks in out_positions.items() if sorted(ks) != list(range(n))]
    if bad:
        problems.append(f"{kind}: {len(bad)} nodes lack degree {n}, e.g. node {bad[0]}")
    return problems


def check_kronecker_graph(structured: str) -> list:
    nodes, edges = parse_graph(structured)
    problems = []
    if len(nodes) != KRONECKER_NODES or len(edges) != 2 * (KRONECKER_NODES - 1):
        problems.append(f"K2: {len(nodes)} nodes and {len(edges)} edges, "
                        f"want {KRONECKER_NODES} and {2 * (KRONECKER_NODES - 1)}")
    more, _ = _degree_problems(nodes, edges, 2)
    problems += [f"K2: {p}" for p in more]
    neighbours = {i: set() for i in nodes}
    for i, _, j in edges:
        if i in neighbours and j in neighbours:
            neighbours[i].add(j)
            neighbours[j].add(i)
    degrees = sorted(len(v) for v in neighbours.values())
    if degrees != [1, 1] + [2] * (len(nodes) - 2):
        problems.append(f"K2: exchange graph is not a path (degrees {degrees})")
    for summands in nodes.values():
        for s in summands:
            m = re.fullmatch(r"M\[(\d+),(\d+)\]", s)
            if m and not oracles.is_kronecker_real_root((int(m[1]), int(m[2]))):
                problems.append(f"K2: summand {s} is not a real root")
            elif not m and not re.fullmatch(r"SP[12]", s):
                problems.append(f"K2: unexpected summand {s}")
    return problems


def check_verify(kind: str, stdout: str, pool_sizes) -> list:
    problems = []
    names = [line.split()[1] for line in stdout.splitlines() if line.startswith("PASS ")]
    failing = [line for line in stdout.splitlines() if not line.startswith("PASS ")]
    if failing:
        problems.append(f"{kind}: {failing[0]}")
    missing = set(VERIFY_CHECKS) - set(names)
    if missing:
        problems.append(f"{kind}: checks missing from verify: {sorted(missing)}")
    want = oracles.rigid_objects(kind)
    if pool_sizes != [want]:
        problems.append(f"{kind}: pool sizes {pool_sizes}, closed form gives {want}")
    return problems


def check_iteration(workload: str, seed: int, result: dict, reference: dict) -> tuple:
    """(problems, attempted, failed, ops, fingerprints) of one child result."""
    problems, fingerprints = [], {}
    attempted = failed = 0
    for (kind, _), out in zip(WORKLOADS[workload], result["outputs"]):
        if out["rc"] != 0:
            problems.append(f"{kind}: exit {out['rc']} {out['error'] or ''}".rstrip())
        if workload == "e7-verify":
            lines = out["stdout"].splitlines()
            attempted += max(len(lines), 1)
            failed += sum(not l.startswith("PASS ") for l in lines) or int(out["rc"] != 0)
            problems += check_verify(kind, out["stdout"], result["pool_sizes"])
            continue
        fingerprints[kind] = fingerprint(out["stdout"])
        if seed == 0 and fingerprints[kind] != reference[kind]:
            problems.append(f"{kind}: node/edge fingerprint differs from the seed-0 reference")
        if kind == "K2":
            problems += check_kronecker_graph(out["stdout"])
        else:
            problems += check_dynkin_graph(kind, out["stdout"])
    if workload == "e7-verify":
        ops = sum(p * p for p in result["pool_sizes"])
    else:
        ops = len(result["mutate_ms"])
        attempted += ops
        failed += result["mutate_failures"] or sum(out["rc"] != 0 for out in result["outputs"])
    return problems, max(attempted, 1), failed, ops, fingerprints


# ---------------------------------------------------------------------------
# running

def run_child(quivers, commands, trace: bool) -> dict:
    spec = {"src": str(ROOT / "src"), "quivers": quivers, "commands": commands,
            "trace": int(trace), "t_spawn": time.monotonic()}
    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def scaled_setup(result: dict) -> float:
    """Set-up time at the reference speed, scaled by the calibrations run
    right after set-up."""
    return result["setup_s"] * CALIBRATION_REF_S / statistics.fmean(result["setup_calibration_s"])


def scaled_wall(result: dict) -> float:
    """Wall time at the reference speed: each command's time scaled by the
    mean of the calibrations run before, during and after it.  The host
    switches between a fast and a slow speed within a second, so only
    calibrations taken while the command ran tell which it paid."""
    return sum(out["wall_s"] * CALIBRATION_REF_S / statistics.fmean(out["calibration_s"])
               for out in result["outputs"])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    reference = json.loads((BENCH / "reference.json").read_text())
    quivers, commands = [], []
    for kind, extra in WORKLOADS[workload]:
        path = work / f"{workload}-{kind}-{seed}.quiver"
        path.write_text(quiver_text(*make_quiver(kind, seed)))
        quivers.append(str(path))
        commands.append(["verify" if workload == "e7-verify" else "graph", str(path), *extra])

    start = time.perf_counter()
    setups, plain, traced, rounds = [], [], [], []
    while True:
        round_start = time.perf_counter()
        setups += [run_child(quivers, [], False) for _ in range(SETUP_PER_ROUND)]
        plain.append(run_child(quivers, commands, False))
        if trace:
            traced.append(run_child(quivers, commands, True))
        rounds.append(time.perf_counter() - round_start)
        enough = len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_ITERATIONS
        # stop before a round that would likely end past the measuring time
        if enough and time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    problems, attempted, failed, ops, prints = [], 0, 0, [], set()
    for result in plain + traced:
        p, a, f, o, fp = check_iteration(workload, seed, result, reference)
        problems += p
        attempted += a
        failed += f
        ops.append(o)
        prints.add(json.dumps(fp, sort_keys=True))
    if len(prints) > 1:
        problems.append("graph fingerprints differ between iterations")
    mutate_ms = [ms * scaled_wall(r) / r["wall_s"] for r in plain for ms in r["mutate_ms"]]
    summary = {
        "workload": workload, "seed": seed, "iterations": len(plain),
        "problems": list(dict.fromkeys(problems)), "attempted": attempted, "failed": failed,
        "fingerprints": json.loads(prints.pop()) if prints else {},
        "mutate_ms_p50": statistics.median(mutate_ms) if mutate_ms else None,
        "mutate_ms_p90": percentile(mutate_ms, 0.9) if len(mutate_ms) >= 100 else None,
    }
    per_iter = {
        "setup_s": [scaled_setup(r) for r in setups + plain],
        "wall_s": [scaled_wall(r) for r in plain],
        "ops_per_s": [o / scaled_wall(r) for o, r in zip(ops, plain)],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in plain],
    }
    summary["raw_wall_s"] = statistics.median(r["wall_s"] for r in plain)
    summary["slowdown"] = statistics.median(r["wall_s"] / scaled_wall(r) for r in plain)
    summary["end_to_end"] = {name: statistics.median(per_iter[name]) for name, _ in END_TO_END}
    summary["quartiles"] = {name: statistics.quantiles(v, n=4) for name, v in per_iter.items()}
    if trace:
        summary["layers"] = layer_metrics(traced, summary)
        counts = [{k: v for k, v in r["layers"].items() if not k.endswith(("_s", "_share"))}
                  for r in traced]
        summary["deterministic"] = all(c == counts[0] for c in counts)
        if not summary["deterministic"]:
            summary["problems"].append("traced call counts differ between traced iterations")
    return summary


def layer_metrics(traced, summary) -> dict:
    values = {}
    for name, unit, _better in LAYER_METRICS:
        if name in traced[0]["layers"]:
            if unit == "s":
                # the sampler's handler time falls inside the spans
                values[name] = statistics.median(
                    r["layers"][name] * scaled_wall(r) / (r["wall_s"] + r["sampling_s"])
                    for r in traced)
            else:
                values[name] = traced[0]["layers"][name]
    traced_wall = statistics.median(scaled_wall(r) for r in traced)
    plain_wall = summary["end_to_end"]["wall_s"]
    values["cluster.mutate.ms_p50"] = summary["mutate_ms_p50"] or 0.0
    values["cluster.mutate.ms_p90"] = summary["mutate_ms_p90"] or 0.0
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return values


# ---------------------------------------------------------------------------
# reporting

def print_report(s: dict, trace: bool) -> None:
    e2e = s["end_to_end"]
    ok = not s["problems"]
    print(f"== {s['workload']} seed {s['seed']}: {s['iterations']} cold iterations "
          f"(median, q1-q3); times are scaled to the reference speed, "
          f"median host slowdown {s['slowdown']:.3f}")
    print(f"  {'unscaled wall_s':<22} {s['raw_wall_s']:>12.4f} s")
    for name, unit in END_TO_END:
        q1, _, q3 = s["quartiles"][name]
        print(f"  {name:<22} {e2e[name]:>12.4f} {unit:<5} ({q1:.4f}-{q3:.4f})")
    work = "pairs_per_s" if s["workload"] == "e7-verify" else "mutations_per_s"
    print(f"  {work:<22} {e2e['ops_per_s']:>12.4f} 1/s")
    for name in ("mutate_ms_p50", "mutate_ms_p90"):
        value = s[name]
        shown = f"{value:>12.4f} ms" if value is not None else f"{'n/a':>12} (fewer than 100 calls)"
        print(f"  {name:<22} {shown}")
    print(f"  {'ops_failed_frac':<22} {s['failed'] / s['attempted']:>12.4f} "
          f"({s['failed']} of {s['attempted']})")
    print(f"  {'outputs_ok':<22} {int(ok):>12}")
    for kind, fp in sorted(s["fingerprints"].items()):
        print(f"  fingerprint {kind} {fp}")
    for p in s["problems"]:
        print(f"  PROBLEM {p}")
    if trace:
        layers = s["layers"]
        wall = layers["trace.wall_s"]
        print(f"  per-layer, traced (deterministic counts: {s['deterministic']}); "
              f"tracing overhead {layers['trace.overhead_s']:.3f} s "
              f"= {100 * layers['trace.overhead_frac']:.1f}% of untraced wall")
        largest = max((n for n, _, _ in LAYER_METRICS if n.endswith(".self_s")), key=layers.get)
        print(f"  largest self time: {largest}")
        for name, unit, _ in LAYER_METRICS:
            share = f"  {100 * layers[name] / wall:5.1f}% of traced wall" \
                if unit == "s" and name.endswith("self_s") else ""
            print(f"    {name:<44} {layers[name]:>14.6g} {unit}{share}")


def result_line(summaries, trace: bool) -> dict:
    metrics = {}
    units = {name: unit for name, unit, _ in LAYER_METRICS} if trace else dict(END_TO_END)
    for s in summaries:
        values = s["layers"] if trace else s["end_to_end"]
        prefix = f"{s['workload']}." if len(summaries) > 1 else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
    return {
        "correct": all(not s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "clusterforge"
    if not (package / "__init__.py").is_file():
        print(f"no clusterforge package at {package}", file=sys.stderr)
        return 2
    if not compileall.compile_dir(str(package), quiet=1):
        print("clusterforge sources do not compile", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        summaries = []
        for name in names:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace), work)
            print_report(summary, bool(args.trace))
            summaries.append(summary)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result_line(summaries, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
