"""Per-layer tracing from outside the library.

Tracer.install() replaces each public function in TARGETS by a wrapper
that records a span (name, start, end, parent span).  The wrapper is
patched into every clusterforge module that holds the function, so a
call through `from .zlinalg import snf` in rep, serre or cluster is
seen as well as one through the defining module.  Self time of a span
is its duration minus the duration of the wrapped spans it directly
caused.

Besides spans the tracer counts IntMatrix.from_rows calls and the
__hash__ calls of the identity-bearing dataclasses Quiver, ZRep and
IntMatrix; hash time is taken on the outermost hash only, since a
ZRep hash hashes its matrices and quiver.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

TARGETS = (
    ("zlinalg", ("snf", "kernel_basis")),
    ("rep", ("hom_group", "ext1_group", "projective_resolution", "is_exceptional",
             "cokernel_rep", "base_change")),
    ("serre", ("tau", "tau_inv", "f_apply", "reflect")),
    ("cluster", ("ext1_c", "hom_c", "mutate", "mutate_construct", "exchange_triangles",
                 "is_cluster_tilting", "build_pool", "exchange_graph")),
    ("verify", ("run_suite",)),
    ("formats", ("graph_to_structured",)),
)

# Functions whose lru_cache statistics are reported while the cache exists.
CACHED = ("rep.hom_group", "rep.ext1_group", "rep.projective_resolution",
          "rep.is_exceptional", "serre.tau", "cluster.ext1_c", "cluster.hom_c")


def _layer_metrics():
    out = []
    for module, names in TARGETS:
        for name in names:
            full = f"{module}.{name}"
            out.append((f"{full}.calls", "count", "lower"))
            out.append((f"{full}.self_s", "s", "lower"))
            if full in CACHED:
                out.append((f"{full}.hit_ratio", "ratio", "higher"))
    out += [
        ("zlinalg.snf.entries_in", "count", "lower"),
        ("zlinalg.snf.max_bits", "bits", "lower"),
        ("zlinalg.IntMatrix.from_rows.calls", "count", "lower"),
        ("cluster.mutate.scan_ext1_calls", "count", "lower"),
        ("cluster.mutate.ms_p50", "ms", "lower"),
        ("cluster.mutate.ms_p90", "ms", "lower"),
        ("cluster.exchange_triangles.child_s", "s", "lower"),
        ("cluster.exchange_triangles.ses_share", "ratio", "lower"),
        ("cluster.build_pool.objects", "count", "higher"),
        ("cluster.exchange_graph.nodes", "count", "higher"),
        ("cluster.exchange_graph.edges", "count", "higher"),
        ("cluster.exchange_graph.truncations", "count", "lower"),
        ("identity.hash_calls", "count", "lower"),
        ("identity.hash_s", "s", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return tuple(out)


# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = _layer_metrics()


def patch_everywhere(original, replacement) -> None:
    """Rebind every clusterforge module attribute that is `original`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "clusterforge" or mod_name.startswith("clusterforge.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self._originals = {}
        self.snf_inputs = []
        self.snf_transforms = []
        self.from_rows_calls = 0
        self.hash_calls = 0
        self.hash_s = 0.0
        self._hashing = False
        self.pool_objects = 0
        self.graph_nodes = 0
        self.graph_edges = 0
        self.graph_truncations = 0

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, on_call=None, on_return=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if on_call is not None:
                on_call(args)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _on_graph(self, g) -> None:
        self.graph_nodes += len(g.nodes)
        self.graph_edges += len(g.edges)
        self.graph_truncations += int(bool(g.truncated))

    def _on_pool(self, pool) -> None:
        self.pool_objects += len(pool.objects)

    def _count_hash(self, cls) -> None:
        original = cls.__hash__

        def counted_hash(obj):
            self.hash_calls += 1
            if self._hashing:
                return original(obj)
            self._hashing = True
            start = perf_counter()
            try:
                return original(obj)
            finally:
                self.hash_s += perf_counter() - start
                self._hashing = False

        cls.__hash__ = counted_hash

    def install(self) -> None:
        hooks = {
            "zlinalg.snf": (lambda args: self.snf_inputs.append(args[0]),
                            lambda d: self.snf_transforms.extend((d.U, d.V, d.u_inv, d.v_inv))),
            "cluster.build_pool": (None, self._on_pool),
            "cluster.exchange_graph": (None, self._on_graph),
        }
        for module, names in TARGETS:
            mod = importlib.import_module(f"clusterforge.{module}")
            for name in names:
                full = f"{module}.{name}"
                original = getattr(mod, name)
                self._originals[full] = original
                on_call, on_return = hooks.get(full, (None, None))
                patch_everywhere(original, self._span(full, original, on_call, on_return))

        from clusterforge.quiver import Quiver
        from clusterforge.rep import ZRep
        from clusterforge.zlinalg import IntMatrix

        from_rows = IntMatrix.from_rows

        def counted_from_rows(*args, **kwargs):
            self.from_rows_calls += 1
            return from_rows(*args, **kwargs)

        IntMatrix.from_rows = staticmethod(counted_from_rows)
        for cls in (Quiver, ZRep, IntMatrix):
            self._count_hash(cls)

    # -- summary --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer values of this process; cross-process ones (mutate
        latency, tracing overhead) are filled in by the caller."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, total, self_s = {}, {}, {}
        scan_ext1 = 0
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered[i])
            if name == "cluster.ext1_c" and parent >= 0 and spans[parent][0] == "cluster.mutate":
                scan_ext1 += 1

        out = {}
        for module, names in TARGETS:
            for name in names:
                full = f"{module}.{name}"
                out[f"{full}.calls"] = calls.get(full, 0)
                out[f"{full}.self_s"] = self_s.get(full, 0.0)
                if full in CACHED:
                    info = getattr(self._originals[full], "cache_info", None)
                    ratio = 0.0
                    if info is not None:
                        ci = info()
                        if ci.hits + ci.misses:
                            ratio = ci.hits / (ci.hits + ci.misses)
                    out[f"{full}.hit_ratio"] = ratio
        et_total = total.get("cluster.exchange_triangles", 0.0)
        et_child = et_total - self_s.get("cluster.exchange_triangles", 0.0)
        out.update({
            "zlinalg.snf.entries_in": sum(m.rows * m.cols for m in self.snf_inputs),
            "zlinalg.snf.max_bits": max((abs(x).bit_length()
                                         for m in self.snf_inputs + self.snf_transforms
                                         for row in m.entries for x in row), default=0),
            "zlinalg.IntMatrix.from_rows.calls": self.from_rows_calls,
            "cluster.mutate.scan_ext1_calls": scan_ext1,
            "cluster.exchange_triangles.child_s": et_child,
            "cluster.exchange_triangles.ses_share": et_child / et_total if et_total else 0.0,
            "cluster.build_pool.objects": self.pool_objects,
            "cluster.exchange_graph.nodes": self.graph_nodes,
            "cluster.exchange_graph.edges": self.graph_edges,
            "cluster.exchange_graph.truncations": self.graph_truncations,
            "identity.hash_calls": self.hash_calls,
            "identity.hash_s": self.hash_s,
        })
        return out
