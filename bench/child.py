"""One cold iteration of a workload, in a fresh interpreter.

    python3 bench/child.py SPEC

SPEC is a JSON object with the keys
  src       directory holding the clusterforge package under test
  quivers   quiver files to load during set-up
  commands  argument lists passed, one after the other, to clusterforge.cli.main
  trace     1 to install the per-layer tracer
  t_spawn   time.monotonic() of the parent just before it started this process

Prints one JSON line: set-up time, peak RSS, each command's exit code,
stdout, wall time and calibration times, the latency of every
cluster.mutate call, the pool sizes build_pool returned and, when
tracing, the per-layer values.

The calibration loop is fixed pure-Python work that does not touch
clusterforge.  It runs after set-up, before and after each command, and
every SAMPLE_PERIOD_S of wall time during a command, from a SIGALRM
handler.  Its times sample how fast the host ran Python while the
command ran, and run.py scales the command's time by them.  A command's
wall time leaves out the time spent in the handler.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

CALIBRATION_STEPS = 40_000
SETUP_CALIBRATIONS = 3
SAMPLE_PERIOD_S = 0.2


def calibrate() -> float:
    """Seconds taken by a fixed mix of integer arithmetic, tuple-keyed dict
    updates and small list comprehensions, the operations clusterforge
    spends its time in."""
    start = time.perf_counter()
    counts, x = {}, 1
    for i in range(CALIBRATION_STEPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x % 1009, i & 7)
        counts[key] = counts.get(key, 0) + 1
    rows = [[(i * j + x) % 97 for j in range(12)] for i in range(12)]
    for _ in range(CALIBRATION_STEPS // 1500):
        rows = [[(a * 3 + b) % 1009 for a, b in zip(row, rows[0])] for row in rows]
    return time.perf_counter() - start


class SpeedSampler:
    """Calibrates every SAMPLE_PERIOD_S of wall time while active, and keeps
    the total time its handler took, so callers can leave it out."""

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent_s += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import clusterforge
    from clusterforge import cli, cluster, formats
    from clusterforge.errors import NotFoundWithinBound

    if not os.path.abspath(clusterforge.__file__).startswith(src + os.sep):
        print(f"clusterforge imported from {clusterforge.__file__}, not {src}", file=sys.stderr)
        return 2
    for path in spec["quivers"]:
        formats.load_quiver(path)
    setup_s = time.monotonic() - spec["t_spawn"]

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracer as tracing

    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracer.install()

    mutate_ms, pool_sizes = [], []
    failures = 0
    mutate, build_pool = cluster.mutate, cluster.build_pool

    sampler = SpeedSampler()

    def timed_mutate(*args, **kwargs):
        nonlocal failures
        start = time.perf_counter() - sampler.spent_s
        try:
            return mutate(*args, **kwargs)
        except NotFoundWithinBound:
            raise
        except Exception:
            failures += 1
            raise
        finally:
            mutate_ms.append((time.perf_counter() - sampler.spent_s - start) * 1e3)

    def sized_build_pool(*args, **kwargs):
        pool = build_pool(*args, **kwargs)
        pool_sizes.append(len(pool.objects))
        return pool

    tracing.patch_everywhere(mutate, timed_mutate)
    tracing.patch_everywhere(build_pool, sized_build_pool)

    setup_calibration_s = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
    outputs = []
    for argv in spec["commands"]:
        buf = io.StringIO()
        error = None
        before = calibrate()
        sampled = len(sampler.samples)
        start = time.perf_counter() - sampler.spent_s
        try:
            with contextlib.redirect_stdout(buf), sampler:
                rc = cli.main(argv)
        except Exception as exc:  # a crash of the program is a failed operation, not ours
            rc, error = None, f"{type(exc).__name__}: {exc}"
        wall_s = time.perf_counter() - sampler.spent_s - start
        outputs.append({"rc": rc, "stdout": buf.getvalue(), "error": error, "wall_s": wall_s,
                        "calibration_s": [before, *sampler.samples[sampled:], calibrate()]})

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": sum(out["wall_s"] for out in outputs),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outputs": outputs,
        "mutate_ms": mutate_ms,
        "mutate_failures": failures,
        "pool_sizes": pool_sizes,
        "setup_calibration_s": setup_calibration_s,
        "sampling_s": sampler.spent_s,
        "layers": tracer.metrics() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
