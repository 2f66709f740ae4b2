"""Timing hooks for the traced run, and the per-layer metrics computed from them.

Hooks wrap the names the pipeline calls through, from outside the package:
module attributes are replaced while a traced pass runs and put back after
it, so nothing inside ``ubss_codec`` changes. Every call becomes a span
(name, start, end, parent, pass id); spans stay in memory until ``write``.
A hook whose target no longer exists, or that was never called, yields
absent metrics with a note, never a zero time. The one exception is
``tv.solve_tv.zero.ms_p50`` on a workload that solves no all-zero composite
(``pan``): ``probe_zero`` then times the hooked ``solve_tv`` on an all-zero
measurement vector of the workload's own stream, outside every pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute path) of the name the pipeline looks up.
HOOKS = {
    "mixing.gen_mixing_matrix": ("ubss_codec.codec", "gen_mixing_matrix"),
    "mixing.compute_residual": ("ubss_codec.codec", "compute_residual"),
    "mixing.disassemble_composite": ("ubss_codec.codec", "disassemble_composite"),
    "mixing.StreamAccumulator.push": ("ubss_codec.mixing", "StreamAccumulator.push"),
    "mixing.StreamAccumulator.finish": ("ubss_codec.mixing", "StreamAccumulator.finish"),
    "tv.solve_tv": ("ubss_codec.tv", "solve_tv"),
    "codec.Bitstream.to_bytes": ("ubss_codec.codec", "Bitstream.to_bytes"),
    "codec.Bitstream.from_bytes": ("ubss_codec.codec", "Bitstream.from_bytes"),
    "codec.Bitstream.gop_measurements": ("ubss_codec.codec", "Bitstream.gop_measurements"),
}
# Spans the benchmark records around its own calls into the pipeline.
ENCODE = "codec.encode_sequence"
DECODE = "codec.decode_sequence"

_NAME, _START, _END, _PARENT, _PASS, _INFO = range(6)
ZERO_PROBE = "zero-probe"  # pass id of the probe_zero spans, which no pass total counts
ZERO_PROBES = 9


def _resolve(module: str, path: str):
    """(owner, attribute, original static attribute), or None if the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        return owner, attr, inspect.getattr_static(owner, attr)
    except AttributeError:
        return None


def _p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _default_max_outer():
    try:
        return importlib.import_module("ubss_codec.tv").SolverParams().max_outer
    except (ImportError, AttributeError, TypeError):
        return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.passes = []
        self.missing = {}
        self._stack = []
        self._pass = None
        self._max_outer = _default_max_outer()

    # -- recording -----------------------------------------------------------

    def _open(self, name):
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None,
                self._pass, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a call the benchmark itself makes."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn):
        info = self._solve_info if name == "tv.solve_tv" else None

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span[_INFO] = info(args, kwargs, result)
            return result
        return hooked

    def _solve_info(self, args, kwargs, result):
        """(all-zero input?, outer iterations, stopped on the cap?) of one solve_tv call."""
        b = args[1] if len(args) > 1 else kwargs.get("b")
        params = args[3] if len(args) > 3 else kwargs.get("params")
        cap = getattr(params, "max_outer", None) if params is not None else self._max_outer
        iters = getattr(result, "outer_iterations", None)
        capped = None if iters is None or cap is None else iters >= cap
        return (not np.any(b.values), iters, capped)

    @contextmanager
    def traced_pass(self, pass_id):
        """Install every hook for one pass and restore the originals afterwards."""
        installed = []
        try:
            for name, (module, path) in HOOKS.items():
                target = _resolve(module, path)
                if target is None:
                    self.missing[name] = f"hook target {module}.{path} does not exist"
                    continue
                owner, attr, orig = target
                if isinstance(orig, (classmethod, staticmethod)):
                    hooked = type(orig)(self._wrap(name, orig.__func__))
                else:
                    hooked = self._wrap(name, orig)
                installed.append((owner, attr, orig, attr in vars(owner)))
                setattr(owner, attr, hooked)
            self._pass = pass_id
            self.passes.append(pass_id)
            yield
        finally:
            self._pass = None
            for owner, attr, orig, own in reversed(installed):
                if own:
                    setattr(owner, attr, orig)
                else:
                    delattr(owner, attr)

    def solved_zero(self):
        """Whether a traced pass solved an all-zero composite."""
        return any(s[_NAME] == "tv.solve_tv" and s[_PASS] in self.passes
                   and s[_INFO] is not None and s[_INFO][0] for s in self.spans)

    def probe_zero(self, data: bytes):
        """Time the hooked solve_tv on an all-zero composite of the stream `data`.

        Its spans carry the pass id ZERO_PROBE; they give tv.solve_tv.zero.ms_p50
        only when no pass solved an all-zero composite, and count in no pass total.
        """
        target = _resolve("ubss_codec.tv", "solve_tv")
        if target is None:
            return
        from ubss_codec import Bitstream, MeasurementVector, gen_mixing_matrix

        stream = Bitstream.from_bytes(data)
        matrix = gen_mixing_matrix(stream.seed, stream.m_per_block, stream.k)
        b = MeasurementVector(grid_position=(0, 0), values=np.zeros(stream.m_per_block))
        solve = self._wrap("tv.solve_tv", target[2])
        self._pass = ZERO_PROBE
        try:
            for _ in range(ZERO_PROBES):
                solve(matrix, b, stream.composite_side)
        finally:
            self._pass = None

    # -- per-layer metrics -----------------------------------------------------

    def _pass_totals_ms(self, name, self_time=False):
        """Total ms of the spans called `name` in each traced pass.

        With self_time, each span's direct children are subtracted.
        """
        children = {}
        if self_time:
            for s in self.spans:
                if s[_PARENT] is not None:
                    children[s[_PARENT]] = children.get(s[_PARENT], 0.0) + s[_END] - s[_START]
        totals = dict.fromkeys(self.passes, 0.0)
        for i, s in enumerate(self.spans):
            if s[_NAME] == name and s[_PASS] in totals:
                totals[s[_PASS]] += 1e3 * (s[_END] - s[_START] - children.get(i, 0.0))
        return list(totals.values())

    def _absent_reason(self, name):
        if name in self.missing:
            return self.missing[name]
        if not any(s[_NAME] == name for s in self.spans):
            return f"{name} was never called on this workload"
        return None

    def metrics(self):
        """Per-layer metrics: name -> (value or None, unit, note or None).

        ``.ms`` and ``.calls`` are totals over one pass (one encode plus one
        decode), as the median over traced passes; ``.ms_p50``/``.ms_p90`` are
        per call, pooled over all traced passes.
        """
        out = {}

        def put(metric, unit, value, note=None):
            out[metric] = (value, unit, note if value is None else None)

        def per_pass(name, metric, self_time=False):
            reason = self._absent_reason(name)
            put(metric, "ms", None if reason else
                statistics.median(self._pass_totals_ms(name, self_time)), reason)

        for name in HOOKS:
            if name != "tv.solve_tv":
                per_pass(name, f"{name}.ms")
        for name in (ENCODE, DECODE):
            per_pass(name, f"{name}.self_ms", self_time=True)
        push = "mixing.StreamAccumulator.push"
        calls = [sum(1 for s in self.spans if s[_NAME] == push and s[_PASS] == p)
                 for p in self.passes]
        put(f"{push}.calls", "count", None if push in self.missing else statistics.median(calls),
            self.missing.get(push))

        self._solve_metrics(put)

        reason = self._absent_reason("tv.solve_tv") or self._absent_reason(DECODE)
        put("tv.solve_tv.share_of_decode", "fraction", None if reason else
            sum(self._pass_totals_ms("tv.solve_tv")) / sum(self._pass_totals_ms(DECODE)), reason)
        return out

    def _solve_metrics(self, put):
        # A call that raised has no info; its pass already counts as failed.
        calls = [s for s in self.spans if s[_NAME] == "tv.solve_tv" and s[_PASS] in self.passes
                 and s[_INFO] is not None]
        missing = self.missing.get("tv.solve_tv")
        for bucket, zero in (("active", False), ("zero", True)):
            prefix = f"tv.solve_tv.{bucket}"
            mine = [s for s in calls if s[_INFO][0] == zero]
            ms = [1e3 * (s[_END] - s[_START]) for s in mine]
            if missing:
                put(f"{prefix}.calls", "count", None, missing)
            else:
                put(f"{prefix}.calls", "count", len(mine) / len(self.passes))
            if zero and not mine:
                mine = [s for s in self.spans if s[_NAME] == "tv.solve_tv"
                        and s[_PASS] == ZERO_PROBE]
                ms = [1e3 * (s[_END] - s[_START]) for s in mine]
            note = missing or (None if mine else
                               f"no {'all-zero' if zero else 'nonzero'} composite was solved")
            put(f"{prefix}.ms_p50", "ms", None if note else statistics.median(ms), note)
            if zero:
                continue
            put(f"{prefix}.ms_p90", "ms", None if note else _p90(ms), note)
            iters = [s[_INFO][1] for s in mine]
            capped = [s[_INFO][2] for s in mine]
            iter_note = note or ("SolverResult has no outer_iterations"
                                 if None in iters else None)
            put(f"{prefix}.outer_iters_mean", "count",
                None if iter_note else sum(iters) / len(iters), iter_note)
            put(f"{prefix}.ms_per_outer_iter", "ms",
                None if iter_note else sum(ms) / sum(iters), iter_note)
            cap_note = iter_note or ("the iteration cap is unknown" if None in capped else None)
            put(f"{prefix}.capped_frac", "fraction",
                None if cap_note else sum(capped) / len(capped), cap_note)

    def write(self, path):
        """Write every span as JSON, times in ms from the first span."""
        t0 = self.spans[0][_START] if self.spans else 0.0
        rows = [{"id": i, "name": s[_NAME], "start_ms": 1e3 * (s[_START] - t0),
                 "end_ms": 1e3 * (s[_END] - t0), "parent": s[_PARENT], "pass": s[_PASS],
                 "info": s[_INFO]} for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "missing_hooks": self.missing}, fh)
