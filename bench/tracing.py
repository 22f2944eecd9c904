"""Timing and counting wrappers for the traced benchmark run.

The wrappers are installed from outside the package and removed again: they
replace module attributes that maxstable looks up at call time (so calls
between its modules pass through them) and methods of the family classes.
Each wrapped call records a span with a name, a start, an end and a parent.
A span's self time is its duration minus the part of that interval covered
by its child spans.  Sampler chunks run on worker threads; a span opened on
a thread with an empty stack takes the span open on the main thread as its
parent, which is the check that dispatched the chunk.

Family methods are traced only at their outermost call per kind (a tilted
family's quantile calls its base's quantile; that is one call).  Integrand
evaluations and log-cdf calls are counted without spans, since there are
millions of them.  Totals accumulate for every span; the span records
themselves are kept up to ``MAX_SPANS`` and written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

SAMPLER_SPANS = ("samplers.minstable", "samplers.pickands", "samplers.passage")
MAX_SPANS = 200_000


class _Frame:
    __slots__ = ("sid", "name", "parent", "start", "children", "quad")

    def __init__(self, sid, name, parent):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.children = []
        self.quad = False


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    """Span and counter store; ``active`` gates recording while installed."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.dropped = 0
        self.duration = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main_thread = threading.main_thread()
        self._main_stack = None
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.depth = Counter()
            if threading.current_thread() is self._main_thread:
                self._main_stack = local.stack
        return local

    def begin(self, name: str) -> _Frame:
        stack = self._state().stack
        if stack:
            parent = stack[-1]
        elif self._main_stack and threading.current_thread() is not self._main_thread:
            parent = self._main_stack[-1]
        else:
            parent = None
        frame = _Frame(next(self._ids), name, parent)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def end(self, frame: _Frame) -> None:
        end = time.perf_counter()
        self._local.stack.pop()
        duration = end - frame.start
        covered = _covered(frame.children, frame.start, end) if frame.children else 0.0
        with self._lock:
            if frame.parent is not None:
                frame.parent.children.append((frame.start, end))
            self.duration[frame.name] += duration
            self.self_time[frame.name] += duration - covered
            self.counts[frame.name + ".calls"] += 1
            if frame.quad:
                self.duration[frame.name + ".quad"] += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame.sid, frame.parent.sid if frame.parent else 0,
                                   frame.name, frame.start, end,
                                   threading.get_ident()))
            else:
                self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    def count(self, key: str, n) -> None:
        with self._lock:
            self.counts[key] += n

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, modules, attr, name, after=None):
        """Trace ``attr`` in each module that binds it (same original object)."""
        orig = getattr(modules[0], attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            frame = self.begin(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        for module in modules:
            self._patch(module, attr, wrapper)

    def wrap_method(self, cls, meth, name, counter=None, span=True):
        """Trace the outermost call per ``name`` of ``cls.meth`` on this thread."""
        orig = cls.__dict__[meth]

        def wrapper(obj, *args, **kwargs):
            if not self.active:
                return orig(obj, *args, **kwargs)
            depth = self._state().depth
            if depth[name]:
                return orig(obj, *args, **kwargs)
            depth[name] += 1
            frame = self.begin(name) if span else None
            try:
                return orig(obj, *args, **kwargs)
            finally:
                if frame is not None:
                    self.end(frame)
                depth[name] -= 1
                if counter is not None:
                    self.count(*counter(args, kwargs))

        self._patch(cls, meth, wrapper)

    def install(self):
        import maxstable
        from maxstable import cli, families, modelspec, samplers, stdf, verify

        self._state()

        def cli_bytes(args, kwargs, result):
            out = kwargs.get("out", args[1] if len(args) > 1 else None)
            self.count("cli.bytes_out", len(out.getvalue().encode("utf-8")))

        def rows(args, kwargs, result):
            self.count("samplers.rows", int(kwargs.get("n", args[2])))

        def pickands_rows(args, kwargs, result):
            rows(args, kwargs, result)
            self.count("samplers.pickands_resamples", int(result[1]))

        def passage_rows(args, kwargs, result):
            rows(args, kwargs, result)
            self.count("samplers.passage_rows", int(kwargs.get("n", args[2])))

        self.wrap_function([cli], "run", "cli.run", after=cli_bytes)
        self.wrap_function([cli], "parse_model", "modelspec.parse")
        for check in ("mc_survival_check", "mc_pickands_check", "mc_margin_check"):
            self.wrap_function([cli], check, "verify.check")
        self.wrap_function([cli, verify, samplers, maxstable], "sample_minstable_batch",
                           "samplers.minstable", after=rows)
        self.wrap_function([cli, verify, samplers, maxstable], "sample_pickands_batch",
                           "samplers.pickands", after=pickands_rows)
        self.wrap_function([samplers, maxstable], "sample_conditional_iid_batch",
                           "samplers.passage", after=passage_rows)
        self.wrap_function([stdf, maxstable], "stdf_extremal", "stdf.extremal")
        self._wrap_transforms([stdf, modelspec])
        self._wrap_quad([stdf, families])

        def elements(args, kwargs):
            return "families.quantile_values", int(np.size(args[0]))

        def draws(args, kwargs):
            size = kwargs.get("size", args[1] if len(args) > 1 else None)
            return "families.size_biased_draws", 1 if size is None else int(np.prod(size))

        for cls in vars(families).values():
            if not (isinstance(cls, type) and issubclass(cls, families.Cdf)):
                continue
            own = cls.__dict__
            if "quantile" in own:
                self.wrap_method(cls, "quantile", "families.quantile", elements)
            for meth in ("tail_integral", "power_tail_integral"):
                if meth in own:
                    self.wrap_method(cls, meth, "families.tail_integral")
            if "sample_size_biased" in own:
                self.wrap_method(cls, "sample_size_biased", "families.size_biased", draws)
            if "log_cdf" in own:
                self.wrap_method(cls, "log_cdf", "families.log_cdf",
                                 lambda a, k: ("families.log_cdf_calls", 1), span=False)

    def _wrap_transforms(self, modules):
        """Evaluator factories return closures; trace each closure's calls."""
        for attr in ("stable_evaluator", "inclusion_exclusion_evaluator"):
            orig = getattr(modules[0], attr)

            def factory(*args, _orig=orig, **kwargs):
                ev = _orig(*args, **kwargs)

                def traced(t):
                    if not self.active:
                        return ev(t)
                    frame = self.begin("stdf.transform")
                    try:
                        return ev(t)
                    finally:
                        self.end(frame)

                return traced

            for module in modules:
                self._patch(module, attr, factory)

    def _wrap_quad(self, modules):
        orig = modules[0].tail_quad

        def tail_quad(g, *args, **kwargs):
            if not self.active:
                return orig(g, *args, **kwargs)
            frame = self.begin("quad")
            for open_frame in reversed(self._local.stack):
                if open_frame.name == "stdf.extremal":
                    open_frame.quad = True
                    break
            evals = [0]

            def counted(x):
                evals[0] += 1
                return g(x)

            try:
                return orig(counted, *args, **kwargs)
            finally:
                self.end(frame)
                self.count("quad.integrand_evals", evals[0])

        for module in modules:
            self._patch(module, "tail_quad", tail_quad)

    def uninstall(self):
        self.active = False
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-operation layer figures as {name: (value, unit)}."""
        d, s, c = self.duration, self.self_time, self.counts

        def per_op(x):
            return x / n_ops

        rows = c["samplers.rows"]
        sampler_time = sum(d[name] for name in SAMPLER_SPANS)
        return {
            "modelspec.parse_s": (per_op(d["modelspec.parse"]), "s/op"),
            "cli.self_s": (per_op(s["cli.run"]), "s/op"),
            "cli.bytes_out": (per_op(c["cli.bytes_out"]), "bytes/op"),
            "verify.self_s": (per_op(s["verify.check"]), "s/op"),
            "samplers.minstable_s": (per_op(d["samplers.minstable"]), "s/op"),
            "samplers.minstable_calls": (per_op(c["samplers.minstable.calls"]), "count/op"),
            "samplers.busy_ratio": (sampler_time / d["op"] if d["op"] else 0.0, "ratio"),
            "samplers.pickands_s": (per_op(d["samplers.pickands"]), "s/op"),
            "samplers.pickands_resamples": (per_op(c["samplers.pickands_resamples"]),
                                            "count/op"),
            "samplers.passage_s": (per_op(d["samplers.passage"]), "s/op"),
            "samplers.passage_rows": (per_op(c["samplers.passage_rows"]), "count/op"),
            "families.quantile_values_per_row": (
                c["families.quantile_values"] / rows if rows else 0.0, "count"),
            "families.quantile_s": (per_op(d["families.quantile"]), "s/op"),
            "families.tail_integral_calls": (per_op(c["families.tail_integral.calls"]),
                                             "count/op"),
            "families.tail_integral_s": (per_op(d["families.tail_integral"]), "s/op"),
            "families.size_biased_draws": (per_op(c["families.size_biased_draws"]),
                                           "count/op"),
            "families.size_biased_s": (per_op(d["families.size_biased"]), "s/op"),
            "families.log_cdf_calls": (per_op(c["families.log_cdf_calls"]), "count/op"),
            "stdf.extremal_calls": (per_op(c["stdf.extremal.calls"]), "count/op"),
            "stdf.closed_form_s": (
                per_op(d["stdf.extremal"] - d["stdf.extremal.quad"]), "s/op"),
            "stdf.quadrature_s": (per_op(d["stdf.extremal.quad"]), "s/op"),
            "stdf.transform_s": (per_op(s["stdf.transform"]), "s/op"),
            "quad.calls": (per_op(c["quad.calls"]), "count/op"),
            "quad.integrand_evals": (per_op(c["quad.integrand_evals"]), "count/op"),
            "quad.s": (per_op(d["quad"]), "s/op"),
        }

    def write(self, path) -> None:
        """Write the kept spans as JSON lines (one header line first)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "name", "start", "end",
                                            "thread"],
                                 "kept": len(self.spans), "dropped": self.dropped}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
