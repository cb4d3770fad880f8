"""Spans around the public entry points of the irsmimo layers.

The traced run rebinds module attributes from outside the package: every
caller that looks a name up through the patched module enters the wrapper,
which records a span (name, start, end, parent span). Nothing under `src/`
changes. Spans stay in memory and are written as JSON lines when the run
ends; self times and per-layer figures are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name). The numerics mu search is reached through
# the names bound in `wmmse` and `irs_opt`, the online solver through the name
# bound in `metrics`.
TARGETS = (
    ("irsmimo.scenario", "draw_sample", "scenario.draw_sample"),
    ("irsmimo.channel", "build_channel_set", "channel.build_channel_set"),
    ("irsmimo.channel", "composite_channel", "channel.composite_channel"),
    ("irsmimo.wmmse", "power_constrained_solve", "numerics.power_constrained_solve"),
    ("irsmimo.irs_opt", "power_constrained_solve", "numerics.power_constrained_solve"),
    ("irsmimo.metrics", "online_wmmse", "wmmse.online_wmmse"),
    ("irsmimo.irs_opt", "offline_optimize", "irs_opt.offline_optimize"),
    ("irsmimo.irs_opt", "offline_optimize_channels", "irs_opt.offline_optimize_channels"),
    ("irsmimo.irs_opt", "update_b", "irs_opt.update_b"),
    ("irsmimo.irs_opt", "frozen_sum_rate", "irs_opt.frozen_sum_rate"),
    ("irsmimo.metrics", "evaluate_average_sum_rate", "metrics.evaluate_average_sum_rate"),
    ("irsmimo.metrics", "effective_rank", "metrics.effective_rank"),
)

ROOT_SPAN = "cli.main"


def _link_attrs(link) -> dict:
    return {"iterations": int(link.iterations), "converged": bool(link.converged)}


RESULT_ATTRS = {"wmmse.online_wmmse": _link_attrs}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index, attrs or None].
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = RESULT_ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                rec[4] = on_result(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every target for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "parent": parent,
                       "start_s": start - t0, "end_s": end - t0}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


@contextmanager
def wmmse_iteration_counter(sink: list):
    """Append the iteration count of every online WMMSE solve to `sink`.

    The untraced run uses this to count its work: it reads one field of the
    solver's result and takes no time stamps.
    """
    metrics = importlib.import_module("irsmimo.metrics")
    original = metrics.online_wmmse

    @functools.wraps(original)
    def counted(*args, **kwargs):
        link = original(*args, **kwargs)
        sink.append(int(link.iterations))
        return link

    metrics.online_wmmse = counted
    try:
        yield sink
    finally:
        metrics.online_wmmse = original


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


def mean_sum_rate(summaries: list[dict]) -> float:
    """Mean sum-rate over the realizations of several summary.json files."""
    n_ok = sum(s["n_ok"] for s in summaries)
    return sum(s["mean_sum_rate"] * s["n_ok"] for s in summaries) / n_ok if n_ok else 0.0


def layer_metrics(tracer: Tracer, reports: list[dict], untraced_reports: list[dict],
                  summaries: list[dict], untraced_s: float, traced_s: float) -> dict:
    """Per-layer figures of one traced round.

    `reports` and `summaries` are the traced round's report.json and
    summary.json documents; `untraced_reports` supply the program's own
    per-iteration timings, which tracing would inflate.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for idx, rec in enumerate(spans):
        by_name.setdefault(rec[0], []).append(idx)

    def durations(name):
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

    def self_total(name):
        return float(sum(self_s[i] for i in by_name.get(name, [])))

    pcs = durations("numerics.power_constrained_solve")
    wm = durations("wmmse.online_wmmse")
    wm_attrs = [spans[i][4] for i in by_name.get("wmmse.online_wmmse", [])]
    wm_iters = [a["iterations"] for a in wm_attrs]
    precoder_mu_s = sum(
        spans[i][2] - spans[i][1]
        for i in by_name.get("numerics.power_constrained_solve", [])
        if spans[i][3] >= 0 and spans[spans[i][3]][0] == "irs_opt.offline_optimize_channels"
    )
    objectives = [r["objective_history"] for r in reports]
    rates = [r["sum_rate_history"] for r in reports]
    spi = [x for r in untraced_reports for x in r["seconds_per_iteration"]]
    return {
        "numerics.power_constrained_solve.calls": len(pcs),
        "numerics.power_constrained_solve.us": _median(pcs) * 1e6,
        "numerics.power_constrained_solve.self_s": self_total("numerics.power_constrained_solve"),
        "wmmse.online_wmmse.calls": len(wm),
        "wmmse.online_wmmse.ms_p50": _median(wm) * 1e3,
        "wmmse.online_wmmse.ms_p95": percentile(wm, 95) * 1e3,
        "wmmse.iterations_p50": _median(wm_iters),
        "wmmse.iterations_p95": percentile(wm_iters, 95),
        "wmmse.iterations_max": max(wm_iters, default=0),
        "wmmse.capped": sum(1 for a in wm_attrs if not a["converged"]),
        "wmmse.ms_per_iteration": (sum(wm) / sum(wm_iters) * 1e3) if wm_iters else 0.0,
        "irs_opt.iterations": sum(r["iterations"] for r in reports),
        "irs_opt.converged": sum(1 for r in reports if r["converged"]),
        "irs_opt.s_per_iteration": _median(spi),
        "irs_opt.update_b.calls": len(by_name.get("irs_opt.update_b", [])),
        "irs_opt.update_b.self_s": self_total("irs_opt.update_b"),
        "irs_opt.precoder_mu_s": float(precoder_mu_s),
        "irs_opt.frozen_sum_rate.self_s": self_total("irs_opt.frozen_sum_rate"),
        "irs_opt.other_s": self_total("irs_opt.offline_optimize_channels"),
        "irs_opt.objective_increases": sum(
            sum(1 for a, b in zip(obj, obj[1:]) if b > a) for obj in objectives
        ),
        "irs_opt.rate_gap_bps_hz": float(sum(max(r) - r[-1] for r in rates if r)),
        "irs_opt.train_rate_bps_hz": float(sum(r[-1] for r in rates if r) / max(len(rates), 1)),
        "scenario.draw_sample.calls": len(by_name.get("scenario.draw_sample", [])),
        "scenario.draw_sample.ms": _median(durations("scenario.draw_sample")) * 1e3,
        "channel.build_channel_set.calls": len(by_name.get("channel.build_channel_set", [])),
        "channel.build_channel_set.ms": _median(durations("channel.build_channel_set")) * 1e3,
        "channel.composite_channel.ms": _median(durations("channel.composite_channel")) * 1e3,
        "metrics.effective_rank.calls": len(by_name.get("metrics.effective_rank", [])),
        "metrics.effective_rank.us": _median(durations("metrics.effective_rank")) * 1e6,
        "metrics.excluded": sum(int(s["n_excluded"]) for s in summaries),
        "metrics.mean_sum_rate_bps_hz": mean_sum_rate(summaries),
        "cli.artifact_s": self_total(ROOT_SPAN),
        "cli.command_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
    }

