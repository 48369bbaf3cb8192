"""Spans around the calls into each gridthresh module, recorded from outside.

The package has no tracing of its own, so the traced run replaces the
module attributes its callers look up (``gridthresh.cli.sieve``,
``gridthresh.counting.v_fast``, ``gridthresh.oracle.is_separable``, ...)
with recording wrappers for the duration of one request, and puts the
originals back afterwards; untraced requests run the unmodified package.

A span is ``[name, start_ns, end_ns, parent, request, error, info]``.
Its name is the defining module and function, so the first dotted part
is the layer.  ``info`` is one number taken from the call: the sieve
limit, the kernel terms min(ceil t, ceil k), the distinct masks of a
scan, the functions of a census, or whether a hull test separated.
Self time is the span's duration minus that of its children.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from typing import Any, Callable

LAYERS = ("cli", "counting", "numtheory", "geometry", "oracle", "teaching")

NAME, START, END, PARENT, REQUEST, ERROR, INFO = range(7)


def _terms(args: tuple, result: Any) -> int:
    # kernel arguments are ints or HalfInt (which has .ceil); 0 for empty sums
    t, k = (getattr(x, "ceil", x) for x in args[:2])
    return max(0, min(t, k))


_INFO: dict[str, Callable[[tuple, Any], Any]] = {
    "numtheory.sieve": lambda args, result: args[0],
    "numtheory.u_mobius": _terms,
    "numtheory.v_fast": _terms,
    "geometry.scan_candidates": lambda args, result: len(result.masks),
    "oracle.is_separable": lambda args, result: bool(result),
    "teaching.census": lambda args, result: len(result.reports),
}

# (module whose attribute is replaced, attribute, span name)
BINDINGS = (
    ("gridthresh.cli", "main", "cli.main"),
    ("gridthresh.cli", "sieve", "numtheory.sieve"),
    ("gridthresh.cli", "u_mobius", "numtheory.u_mobius"),
    ("gridthresh.cli", "count_p", "counting.count_p"),
    ("gridthresh.cli", "count_total", "counting.count_total"),
    ("gridthresh.cli", "breakdown", "counting.breakdown"),
    ("gridthresh.cli", "cross_validate", "oracle.cross_validate"),
    ("gridthresh.cli", "enumerate_by_subsets", "oracle.enumerate_by_subsets"),
    ("gridthresh.cli", "enumerate_by_lines", "oracle.enumerate_by_lines"),
    ("gridthresh.cli", "census", "teaching.census"),
    ("gridthresh.counting", "count_total", "counting.count_total"),
    ("gridthresh.counting", "count_stable", "counting.count_stable"),
    ("gridthresh.counting", "count_unstable", "counting.count_unstable"),
    ("gridthresh.counting", "v_fast", "numtheory.v_fast"),
    ("gridthresh.counting", "u_mobius", "numtheory.u_mobius"),
    ("gridthresh.oracle", "breakdown", "counting.breakdown"),
    ("gridthresh.oracle", "enumerate_by_subsets", "oracle.enumerate_by_subsets"),
    ("gridthresh.oracle", "enumerate_by_lines", "oracle.enumerate_by_lines"),
    ("gridthresh.oracle", "is_separable", "oracle.is_separable"),
    ("gridthresh.oracle", "scan_candidates", "geometry.scan_candidates"),
    ("gridthresh.teaching", "enumerate_by_lines", "oracle.enumerate_by_lines"),
    ("gridthresh.teaching", "scan_candidates", "geometry.scan_candidates"),
    ("gridthresh.teaching", "classify", "geometry.classify"),
)


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, now = self.spans, self._stack, time.perf_counter_ns
        info = _INFO.get(name)

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.request, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = now()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = now()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def install(self, request: int) -> None:
        """Route the next calls through recording wrappers, tagged ``request``."""
        self.request = request
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _span_metrics() -> dict[str, str]:
    names = {f"{layer}.{kind}": unit for layer in LAYERS
             for kind, unit in (("self_ms", "ms"), ("share", "ratio"), ("errors", "count"))}
    names.update({
        "counting.calls": "count",
        "numtheory.sieve.self_ms": "ms",
        "numtheory.sieve.limit": "count",
        "numtheory.v_fast.calls": "count",
        "numtheory.v_fast.terms": "count",
        "numtheory.v_fast.self_ms": "ms",
        "numtheory.u_mobius.calls": "count",
        "numtheory.u_mobius.terms": "count",
        "numtheory.u_mobius.self_ms": "ms",
        "geometry.scan_candidates.calls": "count",
        "geometry.scan_candidates.masks": "count",
        "geometry.scan_candidates.self_ms": "ms",
        "oracle.enumerate_by_subsets.self_ms": "ms",
        "oracle.is_separable.calls": "count",
        "oracle.is_separable.self_ms": "ms",
        "oracle.is_separable.kept_ratio": "ratio",
        "oracle.enumerate_by_lines.calls": "count",
        "oracle.cross_validate.calls": "count",
        "teaching.census.functions": "count",
        "teaching.census.self_ms": "ms",
        "teaching.classify.calls": "count",
        "trace.spans": "count",
        "trace.latency_p50_ms": "ms",
        "trace.untraced_latency_p50_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.coverage_ratio": "ratio",
    })
    return names


# name -> unit of every per-layer metric; per-request means unless a ratio,
# an error count (whole run) or a p50
PER_LAYER = _span_metrics()


def per_layer(spans: list[list], requests: int, traced_s: list[float],
              untraced_s: list[float]) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    ``traced_s[i]`` and ``untraced_s[i]`` are the latencies, in seconds, of
    the traced and the untraced execution of the same request.
    """
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    info: dict[str, float] = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    root_ns = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        layer = name.split(".", 1)[0]
        own = span[END] - span[START] - child[i]
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        layer_ns[layer] += own
        if span[INFO] is not None:
            info[name] = info.get(name, 0) + span[INFO]
        if span[PARENT] < 0:
            root_ns += span[END] - span[START]
        if span[ERROR] and (span[PARENT] < 0
                            or spans[span[PARENT]][NAME].split(".", 1)[0] != layer):
            errors[layer] += 1

    def per_req(value: float) -> float:
        return value / requests

    def ms(name: str) -> float:
        return per_req(self_ns.get(name, 0) / 1e6)

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_req(layer_ns[layer] / 1e6)
        out[f"{layer}.share"] = layer_ns[layer] / root_ns if root_ns else 0.0
        out[f"{layer}.errors"] = errors[layer]
    out["counting.calls"] = per_req(sum(c for n, c in calls.items() if n.startswith("counting.")))
    out["numtheory.sieve.self_ms"] = ms("numtheory.sieve")
    out["numtheory.sieve.limit"] = per_req(info.get("numtheory.sieve", 0))
    for kernel in ("v_fast", "u_mobius"):
        name = f"numtheory.{kernel}"
        out[f"{name}.calls"] = per_req(calls.get(name, 0))
        out[f"{name}.terms"] = per_req(info.get(name, 0))
        out[f"{name}.self_ms"] = ms(name)
    out["geometry.scan_candidates.calls"] = per_req(calls.get("geometry.scan_candidates", 0))
    out["geometry.scan_candidates.masks"] = per_req(info.get("geometry.scan_candidates", 0))
    out["geometry.scan_candidates.self_ms"] = ms("geometry.scan_candidates")
    out["oracle.enumerate_by_subsets.self_ms"] = ms("oracle.enumerate_by_subsets")
    tests = calls.get("oracle.is_separable", 0)
    out["oracle.is_separable.calls"] = per_req(tests)
    out["oracle.is_separable.self_ms"] = ms("oracle.is_separable")
    out["oracle.is_separable.kept_ratio"] = info.get("oracle.is_separable", 0) / tests if tests else 0.0
    out["oracle.enumerate_by_lines.calls"] = per_req(calls.get("oracle.enumerate_by_lines", 0))
    out["oracle.cross_validate.calls"] = per_req(calls.get("oracle.cross_validate", 0))
    out["teaching.census.functions"] = per_req(info.get("teaching.census", 0))
    out["teaching.census.self_ms"] = ms("teaching.census")
    out["teaching.classify.calls"] = per_req(calls.get("geometry.classify", 0))
    traced_p50 = statistics.median(traced_s) * 1e3
    untraced_p50 = statistics.median(untraced_s) * 1e3
    out["trace.spans"] = per_req(len(spans))
    out["trace.latency_p50_ms"] = traced_p50
    out["trace.untraced_latency_p50_ms"] = untraced_p50
    out["trace.overhead_ratio"] = statistics.median(
        t / u for t, u in zip(traced_s, untraced_s)) - 1
    out["trace.coverage_ratio"] = root_ns / 1e9 / sum(traced_s)
    return out

