"""Span tracing from outside the program.

`Tracer.install()` replaces every module attribute of the loaded `disclab`
modules that is bound to one of the traced public functions (the defining
module and every `from .x import f` binding) by a wrapper that records a
span: name, layer, start, end, parent span, thread id and a work count
computed from the call arguments. Spans stay in memory; the worker writes
them out when it exits.

Parents: on the calling thread the parent is the innermost open span. A span
opened on a thread with no open span (the Monte Carlo pool threads) gets as
parent the innermost main-thread span whose interval encloses its start.
Self time is a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from dataclasses import dataclass


def _n_points(pts) -> int:
    return int(pts.coords.shape[0])


def _pair_terms(args, kwargs) -> int:
    return _n_points(args[0]) ** 2


def _array_size(args, kwargs) -> int:
    values = args[0] if args else kwargs["values"]
    return int(values.size) if hasattr(values, "size") else len(values)


def _scan_points(args, kwargs) -> int:
    v = args[0] if args else kwargs["values"]
    return _n_points(v) if hasattr(v, "coords") else int(v.size)


def _prefix_terms(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["n"])


def _mc_box_tests(args, kwargs) -> int:
    pts, cfg = args[0], args[1]
    n, d = pts.coords.shape
    return int(cfg.samples) * n * d


def _draws(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _bytes_read(args, kwargs) -> int:
    src = args[0] if args else kwargs["source"]
    return os.path.getsize(src) if isinstance(src, str) else 0


def _no_work(args, kwargs) -> int:
    return 0


# (defining module, function, layer, work count from the call arguments)
TRACED = [
    *[("disclab.exact_l2", f, "exact_l2", _pair_terms)
      for f in ("star_l2", "extreme_l2", "periodic_l2", "diaphony", "diaphony_truncated")],
    ("disclab.summation", "comp_sum", "summation", _array_size),
    ("disclab.prefix_scan", "prefix_discrepancies", "prefix_scan", _scan_points),
    ("disclab.sequences", "prefix", "sequences", _prefix_terms),
    ("disclab.lp_oracle", "mc_lp", "lp_oracle.mc", _mc_box_tests),
    ("disclab.lp_oracle", "exact_lp_1d", "lp_oracle.exact_lp_1d", _no_work),
    *[("disclab.lp_oracle", f, "lp_oracle.linf", _no_work)
      for f in ("linf_star_1d", "linf_extreme_1d", "linf_exact_small")],
    ("disclab.rng", "uniform01", "rng", _draws),
    ("disclab.pointsets", "read_points", "pointsets.read", _bytes_read),
    ("disclab.pointsets", "write_points", "pointsets.write", _no_work),
    *[("disclab.experiments", f, "experiments", _no_work)
      for f in ("inequality_suite", "prefix_transference_verify", "growth_scan",
                "diaphony_scan", "fit_log_exponent", "vdc_star_constant",
                "vdc_exponent_report")],
]


def _union(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (empty ones ignored)."""
    total, lo, hi = 0.0, None, None
    for a, b in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if hi is None or a > hi:
            total += 0.0 if hi is None else hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    return total + (0.0 if hi is None else hi - lo)


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    work: int


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, layer: str, fn, args=(), kwargs=None, work: int = 0):
        """Run fn(*args, **kwargs) inside a span."""
        kwargs = kwargs or {}
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, name, layer, start, end, parent, threading.get_ident(), work)
            )

    def _wrap(self, name: str, layer: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs, count(args, kwargs))

        return traced

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items()) if k == "disclab" or k.startswith("disclab.")]
        for mod_name, fn_name, layer, count in TRACED:
            orig = getattr(sys.modules[mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name[8:]}.{fn_name}", layer, orig, count)
            for mod in mods:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapper)

    def resolve_parents(self) -> None:
        """Give spans opened on threads without an open span the innermost
        enclosing main-thread span as parent."""
        main = [s for s in self.spans if s.thread == self._main]
        for s in self.spans:
            if s.parent is None and s.thread != self._main:
                enclosing = [m for m in main if m.start <= s.start <= m.end]
                if enclosing:
                    s.parent = max(enclosing, key=lambda m: m.start).id

    @staticmethod
    def self_times(spans: list[Span]) -> dict[int, float]:
        children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        return {
            s.id: (s.end - s.start)
            - _union([(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())])
            for s in spans
        }

    def pass_self_s(self, since: float) -> float:
        """Self time summed over the spans opened at or after `since`, counted
        once per wall-clock interval: main-thread spans by their self time,
        pool-thread spans (leaves) as the union of their intervals under each
        parent. This is what the traced pass time should split into."""
        own = self.self_times(self.spans)
        spans = [s for s in self.spans if s.start >= since]
        pool: dict[int | None, list[tuple[float, float]]] = {}
        for s in spans:
            if s.thread != self._main:
                pool.setdefault(s.parent, []).append((s.start, s.end))
        return sum(own[s.id] for s in spans if s.thread == self._main) + sum(
            _union(v) for v in pool.values()
        )

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


# layer -> (self-time metric, call-count metric, work-count metric)
LAYER_METRICS = {
    "exact_l2": ("exact_l2.self_s", "exact_l2.calls", "exact_l2.pair_terms"),
    "summation": ("summation.comp_sum_s", "summation.calls", "summation.terms"),
    "prefix_scan": ("prefix_scan.s", None, "prefix_scan.points"),
    "sequences": ("sequences.prefix_s", None, "sequences.terms"),
    "lp_oracle.mc": ("lp_oracle.mc_self_s", None, "lp_oracle.mc_box_tests"),
    "lp_oracle.exact_lp_1d": ("lp_oracle.exact_lp_1d_s", None, None),
    "lp_oracle.linf": ("lp_oracle.linf_s", "lp_oracle.linf_calls", None),
    "rng": ("rng.uniform01_s", None, "rng.draws"),
    "pointsets.read": ("pointsets.read_points_s", None, "pointsets.bytes_read"),
    "pointsets.write": ("pointsets.write_points_s", None, None),
    "experiments": ("experiments.self_s", None, None),
    "cli": ("cli.self_s", None, None),
}


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over every span the tracer holds (self times,
    call counts, work counts) and the exact_l2 call-duration percentiles."""
    tracer.resolve_parents()
    own = tracer.self_times(tracer.spans)
    out: dict[str, float] = {}
    for names in LAYER_METRICS.values():
        for name in filter(None, names):
            out[name] = 0.0 if name.endswith(("_s", ".s")) else 0
    for s in tracer.spans:
        t_name, c_name, w_name = LAYER_METRICS[s.layer]
        out[t_name] += own[s.id]
        if c_name:
            out[c_name] += 1
        if w_name:
            out[w_name] += s.work
    l2 = [s.end - s.start for s in tracer.spans if s.layer == "exact_l2"]
    out["exact_l2.call_p50_s"] = _nearest_rank(l2, 0.5)
    out["exact_l2.call_p90_s"] = _nearest_rank(l2, 0.9)
    return out
