"""Spans and counts recorded from outside the telekf package.

`Tracer.installed()` replaces the public functions at each layer boundary,
in the module namespace where their callers look them up, with wrappers
that record a span (trace id, span id, parent id, name, start, end) and
update exact work counters.  Nothing under ``src/`` is changed; the
original functions are put back when the context exits.  `layer_metrics`
turns the spans and counts of one traced call into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    error: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_bytes(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _count_parse(counts, args, kwargs, result):
    source = args[0] if args else kwargs["source"]
    counts["dataio.bytes_parsed"] += (
        len(source) if isinstance(source, bytes) else _file_bytes(source)
    )


def _count_write(counts, args, kwargs, result):
    counts["dataio.bytes_written"] += _file_bytes(args[1] if len(args) > 1 else kwargs["path"])


def _count_channel(counts, args, kwargs, result):
    stats = result[3]
    counts["channel.packets"] += stats.packets_total
    counts["channel.packets_lost"] += stats.packets_lost


def _count_filter(counts, args, kwargs, result):
    counts["filtering.steps"] += result.x_post.shape[0]


def _finite_fit(report) -> bool:
    """Whether the candidate's aggregate fit (the mean over its non-NaN
    channels) is a finite number; read from the report's channel fits so
    the wrapped ``fit_aggregate`` records no span here."""
    if report is None:
        return False
    fits = [v for v in report.fit_percent.tolist() if not math.isnan(v)]
    return bool(fits) and math.isfinite(sum(fits) / len(fits))


def _count_order_sweep(counts, args, kwargs, result):
    for rec in result:
        finite = _finite_fit(rec["report"])
        counts["sysid.candidates"] += 1
        counts["sysid.candidates_fitted"] += rec["model"] is not None
        counts["sysid.candidates_nonfinite"] += not finite
        counts["sysid.candidates_useful"] += finite and rec["filterable"]


# (span name, module, attribute, counter).  The module is the one whose
# namespace the caller resolves the name in: `cli` calls `dataio.parse_kinematics`
# through the module, while `simrunner` imported `apply_channel` by name.
BOUNDARIES = [
    ("cli.main", "cli", "main", None),
    ("dataio.parse_kinematics", "dataio", "parse_kinematics", _count_parse),
    ("dataio.gen_synthetic", "dataio", "gen_synthetic", None),
    ("dataio.write_kinematics", "dataio", "write_kinematics", _count_write),
    ("sysid.simulate_arx", "dataio", "simulate_arx", None),
    ("sysid.order_sweep", "sysid", "order_sweep", _count_order_sweep),
    ("sysid.arx_fit", "sysid", "arx_fit", None),
    ("sysid.cross_validate", "sysid", "cross_validate", None),
    ("sysid.simulate_arx", "sysid", "simulate_arx", None),
    ("sysid.residual_covariances", "sysid", "residual_covariances", None),
    ("sysid.load_model", "sysid", "load_model", None),
    ("sysid.save_model", "sysid", "save_model", None),
    ("metrics.mse", "sysid", "mse", None),
    ("metrics.fit_percent", "sysid", "fit_percent", None),
    ("metrics.fit_aggregate", "sysid", "fit_aggregate", None),
    ("simrunner.run_sweep", "simrunner", "run_sweep", None),
    ("simrunner.run_scenario", "simrunner", "run_scenario", None),
    ("simrunner.aggregate_sweep", "simrunner", "aggregate_sweep", None),
    ("simrunner.write_runs_csv", "simrunner", "write_runs_csv", None),
    ("simrunner.write_aggregate_csv", "simrunner", "write_aggregate_csv", None),
    ("simrunner.write_trace_csv", "simrunner", "write_trace_csv", None),
    ("channel.apply_channel", "simrunner", "apply_channel", _count_channel),
    ("filtering.initial_estimate", "simrunner", "initial_estimate", None),
    ("filtering.run_filter_trace", "simrunner", "run_filter_trace", _count_filter),
    ("metrics.mse", "simrunner", "mse", None),
    ("metrics.fit_percent", "simrunner", "fit_percent", None),
    ("metrics.fit_aggregate", "simrunner", "fit_aggregate", None),
]

#: per-layer metric -> (unit, the boundaries it is measured at)
LAYER_METRICS = {
    "dataio.parse_s": ("s", ["dataio.parse_kinematics"]),
    "dataio.parse_mb_per_s": ("MB/s", ["dataio.parse_kinematics"]),
    "dataio.bytes_parsed": ("bytes", ["dataio.parse_kinematics"]),
    "dataio.write_s": ("s", ["dataio.write_kinematics"]),
    "dataio.write_mb_per_s": ("MB/s", ["dataio.write_kinematics"]),
    "dataio.bytes_written": ("bytes", ["dataio.write_kinematics"]),
    "dataio.gen_synthetic_s": ("s", ["dataio.gen_synthetic"]),
    "sysid.order_sweep_s": ("s", ["sysid.order_sweep"]),
    "sysid.arx_fit_s": ("s", ["sysid.arx_fit"]),
    "sysid.cross_validate_s": ("s", ["sysid.cross_validate"]),
    "sysid.simulate_arx_s": ("s", ["sysid.simulate_arx"]),
    "sysid.candidates": ("count", ["sysid.order_sweep"]),
    "sysid.candidates_nonfinite": ("count", ["sysid.order_sweep"]),
    "sysid.useful_ratio": ("ratio", ["sysid.order_sweep"]),
    "filtering.run_filter_trace_s": ("s", ["filtering.run_filter_trace"]),
    "filtering.calls": ("count", ["filtering.run_filter_trace"]),
    "filtering.steps": ("count", ["filtering.run_filter_trace"]),
    "filtering.us_per_step": ("us", ["filtering.run_filter_trace"]),
    "channel.apply_s": ("s", ["channel.apply_channel"]),
    "channel.packets": ("count", ["channel.apply_channel"]),
    "channel.packets_lost": ("count", ["channel.apply_channel"]),
    "channel.us_per_packet": ("us", ["channel.apply_channel"]),
    "metrics.score_s": ("s", ["metrics.mse", "metrics.fit_percent", "metrics.fit_aggregate"]),
    "simrunner.run_scenario_self_s": ("s", ["simrunner.run_scenario"]),
    "simrunner.aggregate_s": ("s", ["simrunner.aggregate_sweep"]),
    "simrunner.write_reports_s": (
        "s", ["simrunner.write_runs_csv", "simrunner.write_aggregate_csv"]
    ),
    "simrunner.write_trace_s": ("s", ["simrunner.write_trace_csv"]),
    "simrunner.scenarios": ("count", ["simrunner.run_scenario"]),
    "simrunner.scenarios_failed": ("count", ["simrunner.run_scenario"]),
}

#: counters that must repeat exactly between traced runs of the same inputs
EXACT_COUNTS = [
    "dataio.bytes_parsed",
    "dataio.bytes_written",
    "sysid.candidates",
    "sysid.candidates_nonfinite",
    "filtering.calls",
    "filtering.steps",
    "channel.packets",
    "channel.packets_lost",
    "simrunner.scenarios",
    "simrunner.scenarios_failed",
]


class Tracer:
    """In-memory span and counter recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.trace_id = 0
        self._next_id = 1
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            self.counts[name + ".calls"] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".raised"] += 1
                self.spans.append(
                    Span(self.trace_id, span_id, parent, name, start, time.perf_counter(), True)
                )
                raise
            finally:
                self._stack.pop()
            self.spans.append(
                Span(self.trace_id, span_id, parent, name, start, time.perf_counter())
            )
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, package):
        """Wrap every boundary of ``package`` (the imported telekf) for one call."""
        self.trace_id += 1
        saved = []
        self.missing = []
        try:
            for name, module_name, attr, counter in BOUNDARIES:
                module = getattr(package, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def take(self) -> tuple[list[Span], Counter]:
        """Spans and counts recorded since the last call, then reset them."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover."""
    child_time: Counter = Counter()
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration
    return {span.span_id: span.duration - child_time[span.span_id] for span in spans}


def layer_metrics(spans: list[Span], counts: Counter) -> tuple[dict, list[str]]:
    """Per-layer metric values of one traced call, plus the absent metrics.

    A metric none of whose boundaries was entered is absent: it is listed
    in the second return value, and its value is 0.
    """
    total: Counter = Counter()
    self_total: Counter = Counter()
    selfs = self_times(spans)
    for span in spans:
        total[span.name] += span.duration
        self_total[span.name] += selfs[span.span_id]

    def secs(*names):
        return sum(total[n] for n in names)

    def per(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    parse_s = secs("dataio.parse_kinematics")
    write_s = secs("dataio.write_kinematics")
    filter_s = secs("filtering.run_filter_trace")
    channel_s = secs("channel.apply_channel")
    values = {
        "dataio.parse_s": parse_s,
        "dataio.parse_mb_per_s": per(counts["dataio.bytes_parsed"] / 1e6, parse_s),
        "dataio.bytes_parsed": counts["dataio.bytes_parsed"],
        "dataio.write_s": write_s,
        "dataio.write_mb_per_s": per(counts["dataio.bytes_written"] / 1e6, write_s),
        "dataio.bytes_written": counts["dataio.bytes_written"],
        "dataio.gen_synthetic_s": secs("dataio.gen_synthetic"),
        "sysid.order_sweep_s": secs("sysid.order_sweep"),
        "sysid.arx_fit_s": secs("sysid.arx_fit"),
        "sysid.cross_validate_s": secs("sysid.cross_validate"),
        "sysid.simulate_arx_s": secs("sysid.simulate_arx"),
        "sysid.candidates": counts["sysid.candidates"],
        "sysid.candidates_nonfinite": counts["sysid.candidates_nonfinite"],
        "sysid.useful_ratio": per(
            counts["sysid.candidates_useful"], counts["sysid.candidates_fitted"]
        ),
        "filtering.run_filter_trace_s": filter_s,
        "filtering.calls": counts["filtering.run_filter_trace.calls"],
        "filtering.steps": counts["filtering.steps"],
        "filtering.us_per_step": per(filter_s * 1e6, counts["filtering.steps"]),
        "channel.apply_s": channel_s,
        "channel.packets": counts["channel.packets"],
        "channel.packets_lost": counts["channel.packets_lost"],
        "channel.us_per_packet": per(channel_s * 1e6, counts["channel.packets"]),
        "metrics.score_s": secs("metrics.mse", "metrics.fit_percent", "metrics.fit_aggregate"),
        "simrunner.run_scenario_self_s": self_total["simrunner.run_scenario"],
        "simrunner.aggregate_s": secs("simrunner.aggregate_sweep"),
        "simrunner.write_reports_s": secs(
            "simrunner.write_runs_csv", "simrunner.write_aggregate_csv"
        ),
        "simrunner.write_trace_s": secs("simrunner.write_trace_csv"),
        "simrunner.scenarios": counts["simrunner.run_scenario.calls"],
        "simrunner.scenarios_failed": counts["simrunner.run_scenario.raised"],
    }
    entered = {span.name for span in spans}
    absent = [
        metric
        for metric, (_, boundaries) in LAYER_METRICS.items()
        if entered.isdisjoint(boundaries)
    ]
    return values, absent
