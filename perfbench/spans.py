"""Span tracer that wraps the public functions of each ``rgc`` layer.

``Tracer.install()`` replaces every binding of a traced function inside
the loaded ``rgc`` modules (``rgc._kernel.mat_rank`` is also bound as
``construction._krank``, ``codec`` imports ``erasure_system``, the
package re-exports most names), so calls made through any alias are
recorded.  ``uninstall()`` puts the original objects back, so code run
between the two calls is exactly the untraced program.

Each call records one span: name, start, end, parent span id and the
counters its hook reads from the arguments or the result.  Spans stay in
memory until ``layer_metrics()`` folds them into per-layer numbers.  A
span's self time is its duration minus the time its direct children
cover; the calls are nested and single-threaded, so that is the sum of
the children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter
from math import comb

# Hooks read counters into the span after the call; result is None when
# the call raised.  Kernel hooks get (span, args, kwargs, result) and read
# positional arguments, as both kernel backends take them; the others
# get (span, bound arguments by name, result).


def _kernel_rank(span, args, kwargs, result):
    _, rows, cols = args[:3]
    span["cells"] = rows * cols
    span["shape"] = ("mat_rank", rows, cols, 0)


def _kernel_solve(span, args, kwargs, result):
    _, rows, cols, _, bcols = args[:5]
    span["cells"] = rows * (cols + bcols)
    span["shape"] = ("mat_solve", rows, cols, bcols)


def _kernel_mul(span, args, kwargs, result):
    _, ar, ac, _, _, bc = args[:6]
    span["shape"] = ("mat_mul", ar, ac, bc)


def _compute_T(span, bound, result):
    span["sets"] = comb(bound["design"].n, bound["design"].n - bound["k"])


def _verify_S(span, bound, result):
    if result is not None:
        span["sets_checked"] = result.checked
        span["failing_sets"] = len(result.failures)


def _synthesize_S(span, bound, result):
    # a raise means every candidate of the budget was tried and failed
    span["attempts"] = bound["budget"] if result is None else result.attempts
    span["successes"] = 0 if result is None else 1


def _encode(span, bound, result):
    spec = bound["spec"]
    width = max(1, ((spec.field.q - 1).bit_length() + 7) // 8)
    span["user_bytes"] = spec.params.M * width


def _repair(span, bound, result):
    if result is not None:
        span["symbols_moved"] = result[1].total_symbols
        span["helpers"] = result[1].helper_count


def _share_to_bytes(span, bound, result):
    if result is not None:
        span["share_bytes"] = len(result)


def _soak(span, bound, result):
    span["cycles"] = bound["steps"]


# (module, attribute path, span name, positional hook, bound-argument hook)
TARGETS = (
    ("rgc._kernel", "mat_rank", "kernel.mat_rank", _kernel_rank, None),
    ("rgc._kernel", "mat_solve", "kernel.mat_solve", _kernel_solve, None),
    ("rgc._kernel", "mat_mul", "kernel.mat_mul", _kernel_mul, None),
    ("rgc.construction", "compute_T", "construction.compute_T", None,
     _compute_T),
    ("rgc.construction", "verify_S", "construction.verify_S", None,
     _verify_S),
    ("rgc.construction", "synthesize_S", "construction.synthesize_S", None,
     _synthesize_S),
    ("rgc.construction", "erasure_system", "construction.erasure_system",
     None, None),
    ("rgc.codec", "encode", "codec.encode", None, _encode),
    ("rgc.codec", "repair", "codec.repair", None, _repair),
    ("rgc.codec", "reconstruct", "codec.reconstruct", None, None),
    ("rgc.codec", "share_to_bytes", "codec.share_io", None, _share_to_bytes),
    ("rgc.codec", "share_from_bytes", "codec.share_io", None, None),
    ("rgc.codec", "write_share", "codec.share_io", None, None),
    ("rgc.codec", "read_share", "codec.share_io", None, None),
    ("rgc.storesim", "random_failure_soak", "storesim.random_failure_soak",
     None, _soak),
    ("rgc.storesim", "Cluster.intact", "storesim.intact", None, None),
    ("rgc.analysis", "sweep_tradeoff", "analysis.sweep_tradeoff", None,
     None),
    ("rgc.analysis", "exponent_point", "analysis.exponent_point", None,
     None),
    ("rgc.analysis", "compare_designs", "analysis.compare_designs", None,
     None),
    ("rgc.designs", "gen_steiner_triple", "designs.gen", None, None),
    ("rgc.designs", "gen_complete_design", "designs.gen", None, None),
    ("rgc.designs", "verify_design", "designs.verify_design", None, None),
)

CLI_COMMANDS = ("design-gen-steiner", "design-verify", "code-build",
                "code-inspect", "encode", "repair", "reconstruct",
                "analyze-tradeoff", "analyze-exponents",
                "design-gen-complete", "analyze-compare", "sim-soak")

# Every per-layer metric with its unit.  Counts and times are per traced
# workload operation; ratios are over the whole traced window.
LAYER_METRICS = (
    ("kernel.mat_rank.calls", "count"), ("kernel.mat_rank.self_s", "s"),
    ("kernel.mat_rank.cells", "count"),
    ("kernel.mat_solve.calls", "count"), ("kernel.mat_solve.self_s", "s"),
    ("kernel.mat_solve.cells", "count"),
    ("kernel.mat_mul.calls", "count"), ("kernel.mat_mul.self_s", "s"),
    ("construction.compute_T.self_s", "s"),
    ("construction.compute_T.sets", "count"),
    ("construction.verify_S.self_s", "s"),
    ("construction.verify_S.sets_checked", "count"),
    ("construction.verify_S.failing_sets", "count"),
    ("construction.synthesize_S.attempts", "count"),
    ("construction.synthesize_S.success_ratio", "ratio"),
    ("construction.erasure_system.calls", "count"),
    ("construction.erasure_system.self_s", "s"),
    ("codec.encode.self_s", "s"),
    ("codec.repair.self_s", "s"), ("codec.repair.symbols_moved", "count"),
    ("codec.repair.helpers", "count"),
    ("codec.reconstruct.self_s", "s"),
    ("codec.decode_cache.miss_ratio", "ratio"),
    ("codec.share_io.self_s", "s"),
    ("codec.share_io.bytes_per_user_byte", "ratio"),
    ("storesim.random_failure_soak.self_s", "s"),
    ("storesim.soak.cycles_per_s", "1/s"),
    ("storesim.intact.self_s", "s"),
    ("analysis.sweep_tradeoff.self_s", "s"),
    ("analysis.exponent_point.self_s", "s"),
    ("analysis.compare_designs.self_s", "s"),
    ("designs.gen.self_s", "s"), ("designs.verify_design.self_s", "s"),
    ("cli.import_s", "s"),
) + tuple((f"cli.{c}.wall_s", "s") for c in CLI_COMMANDS) + (
    ("trace.spans", "count"), ("trace.ops", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _resolve(modname, path):
    owner, obj = None, sys.modules[modname]
    for part in path.split("."):
        owner, obj = obj, getattr(obj, part)
    return owner, obj


class Tracer:
    """Records spans for calls into the traced ``rgc`` functions."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers: dict[int, tuple[object, object]] = {}
        for modname, path, name, pos_hook, bound_hook in TARGETS:
            owner, fn = _resolve(modname, path)
            wrapper = self._wrap(fn, name, pos_hook, bound_hook)
            wrappers[id(fn)] = (fn, wrapper)
            if "." in path:  # a method: patch the class attribute
                self._patches.append((owner, path.rsplit(".", 1)[1], fn,
                                      wrapper))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "rgc"
                                   or modname.startswith("rgc.")):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((mod, attr, value, entry[1]))

    def _wrap(self, fn, name, pos_hook, bound_hook):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if bound_hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            result = None
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if pos_hook is not None:
                    pos_hook(span, args, kwargs, result)
                if bound_hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    bound_hook(span, bound.arguments, result)
        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the caller, e.g. around one CLI command."""
        span = {"name": name,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def census(self) -> Counter:
        """Kernel calls by (op, rows, cols, right-hand cols)."""
        return Counter(s["shape"] for s in self.spans if "shape" in s)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics over the spans of ``ops`` traced operations.

        Counts and times are divided by ``ops``; ratios are not.
        """
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        sums: Counter = Counter()
        decode_misses = 0
        for span, st in zip(self.spans, self.self_times()):
            name = span["name"]
            calls[name] += 1
            self_s[name] += st
            total_s[name] += span["end"] - span["start"]
            for key, value in span.items():
                if key not in ("name", "parent", "start", "end", "shape"):
                    sums[f"{name}.{key}"] += value
            if name == "construction.erasure_system":
                parent = span["parent"]
                while parent is not None:
                    if self.spans[parent]["name"] == "codec.reconstruct":
                        decode_misses += 1
                        break
                    parent = self.spans[parent]["parent"]

        def ratio(num, den):
            return num / den if den else 0.0

        per_op = {
            "construction.synthesize_S.success_ratio": ratio(
                sums["construction.synthesize_S.successes"],
                sums["construction.synthesize_S.attempts"]),
            "codec.repair.helpers": ratio(sums["codec.repair.helpers"],
                                          calls["codec.repair"]),
            "codec.decode_cache.miss_ratio": ratio(
                decode_misses, calls["codec.reconstruct"]),
            "codec.share_io.bytes_per_user_byte": ratio(
                sums["codec.share_io.share_bytes"],
                sums["codec.encode.user_bytes"]),
            "storesim.soak.cycles_per_s": ratio(
                sums["storesim.random_failure_soak.cycles"],
                total_s["storesim.random_failure_soak"]),
        }
        out: dict[str, float] = {}
        for metric, _ in LAYER_METRICS:
            if metric in per_op or metric.startswith("trace."):
                continue
            base, _, field = metric.rpartition(".")
            if field == "calls":
                total = calls[base]
            elif field == "self_s":
                total = self_s[base]
            elif field == "wall_s":
                total = total_s[base]
            else:
                total = sums[metric]
            out[metric] = total / ops if ops else 0.0
        out.update(per_op)
        out["trace.spans"] = len(self.spans) / ops if ops else 0.0
        out["trace.ops"] = ops
        return out
