"""Closed-loop scenario engine: truth stream -> channel -> filter -> metrics.

A scenario pushes the true patient-side stream through the impairment
channel, runs the sequential Kalman filter on the delivered samples with
the master-side commands as control input, and scores the estimated output
against the true (unimpaired) stream.  Sweeps repeat this over a grid of
channel conditions and seeds, keep each run's scores only, and serialize
them to CSV with enough embedded metadata to reproduce the aggregated
report byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .channel import RNG_ALGORITHM, ChannelStats, NetworkConfig, apply_channel
from .dataio import TrajectorySet
from .errors import ContractViolationError
from .filtering import FilterTrace, SystemModel, initial_estimate, run_filter_trace
from .metrics import fit_aggregate, fit_percent, mse

__all__ = [
    "Scenario",
    "ScenarioResult",
    "run_scenario",
    "run_sweep",
    "aggregate_sweep",
    "write_runs_csv",
    "write_aggregate_csv",
    "write_trace_csv",
    "read_embedded_config",
    "config_hash",
]

REPORT_FORMAT = "telekf-report"
REPORT_VERSION = 2

#: rows of ``trace.csv`` formatted and written at a time
TRACE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Scenario:
    """One experiment: a model, a channel condition, and a trajectory."""

    model: SystemModel
    network: NetworkConfig
    data: TrajectorySet

    def __post_init__(self):
        if self.model.n_outputs != self.data.outputs.shape[1]:
            raise ContractViolationError(
                f"model has {self.model.n_outputs} outputs but data has "
                f"{self.data.outputs.shape[1]} output channels"
            )
        if self.model.n_inputs != self.data.inputs.shape[1]:
            raise ContractViolationError(
                f"model has {self.model.n_inputs} inputs but data has "
                f"{self.data.inputs.shape[1]} input channels"
            )


@dataclass
class ScenarioResult:
    """Accuracy metrics and channel statistics of one scenario; with
    ``return_trace``, also its estimated output, delivered stream and
    filter trace."""

    mse: np.ndarray
    est_percent: np.ndarray
    est_aggregate: float
    channel_stats: ChannelStats
    runtime_ms: float
    z_est: Optional[np.ndarray] = None
    delivered: Optional[np.ndarray] = None
    trace: Optional[FilterTrace] = None


def run_scenario(scenario: Scenario, return_trace: bool = False) -> ScenarioResult:
    """Execute the closed loop over the whole trajectory.

    Per step k >= 2: the channel delivers a (possibly delayed or held)
    patient-side sample, the filter predicts with the previous master
    command and refines with the delivered sample via sequential scalar
    updates.  Metrics compare the estimated output against the true stream,
    not the delivered one.  Only with ``return_trace`` does the result keep
    arrays of the trajectory's length: the estimated output, the delivered
    stream and the filter trace.
    """
    data = scenario.data
    if data.n_samples < 2:
        raise ContractViolationError("a scenario needs at least two samples")
    start = time.perf_counter()
    delivered, _, _, stats = apply_channel(data.outputs, scenario.network, data.dt)
    init = initial_estimate(scenario.model, first_obs=data.outputs[0])
    trace = run_filter_trace(
        scenario.model,
        init,
        inputs=data.inputs[:-1],
        observations=(delivered[1:], np.ones(data.n_samples - 1, dtype=bool)),
    )
    h = scenario.model.h
    z_est = np.vstack([(h @ init.x_hat)[None, :], trace.x_post @ h.T])
    per_mse = mse(data.outputs, z_est)
    per_fit = fit_percent(data.outputs, z_est)
    runtime_ms = (time.perf_counter() - start) * 1000.0
    return ScenarioResult(
        mse=per_mse,
        est_percent=per_fit,
        est_aggregate=fit_aggregate(per_fit),
        channel_stats=stats,
        runtime_ms=runtime_ms,
        z_est=z_est if return_trace else None,
        delivered=delivered if return_trace else None,
        trace=trace if return_trace else None,
    )


# ---------------------------------------------------------------------------
# sweeps and reports


def run_sweep(
    model: SystemModel,
    data: TrajectorySet,
    conditions,
    seeds,
) -> list[dict]:
    """Run every (n_d, n_j, n_p) condition under every seed.

    Returns one record per run: condition, seed, and either the
    ScenarioResult or the error message (failures do not abort the sweep).
    """
    conditions = [tuple(float(v) for v in cond) for cond in conditions]
    if not conditions:
        raise ContractViolationError("conditions list is empty")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ContractViolationError("seeds list is empty")
    runs = []
    for cond in conditions:
        n_d, n_j, n_p = cond
        for seed in seeds:
            record = {"condition": cond, "seed": seed, "result": None, "error": None}
            try:
                scenario = Scenario(
                    model=model,
                    network=NetworkConfig(n_d=n_d, n_j=n_j, n_p=n_p, seed=seed),
                    data=data,
                )
                record["result"] = run_scenario(scenario)
            except Exception as exc:  # recorded, sweep continues
                record["error"] = f"{type(exc).__name__}: {exc}"
            runs.append(record)
    return runs


def aggregate_sweep(runs: list[dict]) -> list[dict]:
    """Collapse per-seed runs into one record per condition (means, std)."""
    by_condition: dict[tuple, list[dict]] = {}
    for run in runs:
        by_condition.setdefault(run["condition"], []).append(run)
    aggregates = []
    for cond, members in by_condition.items():
        group = [r for r in members if r["result"] is not None]
        agg = {"condition": cond, "n_runs": len(members), "n_failed": len(members) - len(group)}
        if group:
            mse_stack = np.vstack([r["result"].mse for r in group])
            fit_stack = np.vstack([r["result"].est_percent for r in group])
            agg_values = np.array([r["result"].est_aggregate for r in group])
            hist: dict[int, int] = {}
            lost = 0
            total = 0
            for r in group:
                stats = r["result"].channel_stats
                lost += stats.packets_lost
                total += stats.packets_total
                for k, v in stats.delay_histogram.items():
                    hist[k] = hist.get(k, 0) + v
            agg.update(
                {
                    "mse_mean": mse_stack.mean(axis=0),
                    "est_mean": fit_stack.mean(axis=0),
                    "est_aggregate_mean": float(agg_values.mean()),
                    "est_aggregate_std": float(agg_values.std(ddof=1)) if len(group) > 1 else 0.0,
                    "loss_realized": (lost / total) if total else 0.0,
                    "delay_histogram": hist,
                }
            )
        aggregates.append(agg)
    return aggregates


def config_hash(config: dict) -> str:
    """Stable short hash of a canonicalized config mapping."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    """Shortest exact decimal for floats; plain str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted (RFC 4180) if it holds a comma or a quote."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _report_head(config: dict, version: str, columns: list[str]) -> str:
    """The ``#`` lines and the column header that open every report."""
    lines = [
        f"# {REPORT_FORMAT} v{REPORT_VERSION} telekf={version} rng={RNG_ALGORITHM}",
        f"# config_hash={config_hash(config)}",
        "# config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(columns),
    ]
    return "\n".join(lines) + "\n"


def report_header(channel_names) -> list[str]:
    cols = ["n_d", "n_j", "n_p", "seed"]
    cols += [f"mse_{name}" for name in channel_names]
    cols += [f"est_{name}" for name in channel_names]
    cols += ["est_aggregate", "est_aggregate_std", "loss_realized", "delay_hist", "runtime_ms"]
    return cols


def _report_row(condition, seed, n_channels: int, scores=None, error: str = "") -> str:
    """One data row of the sweep reports.

    ``scores`` is (mse, est, est_aggregate, est_aggregate_std, loss_realized,
    delay_histogram, runtime_ms text); without it the row is an error row,
    whose ``error`` text fills the est_aggregate column.
    """
    row = [_fmt(v) for v in condition] + [str(seed)]
    if scores is None:
        row += ["error"] * (2 * n_channels) + [_csv_field(error), "", "", "", ""]
    else:
        mse_values, est_values, aggregate, std, loss, hist, runtime = scores
        row += [_fmt(v) for v in (*mse_values, *est_values, aggregate, std, loss)]
        row += [";".join(f"{k}:{hist[k]}" for k in sorted(hist)), runtime]
    return ",".join(row) + "\n"


def write_runs_csv(path, runs: list[dict], channel_names, config: dict, version: str) -> None:
    """Per-(condition, seed) rows, including runtime; failures get an error row
    whose message fills the est_aggregate column."""
    rows = []
    for run in runs:
        result = run["result"]
        scores = None
        if result is not None:
            stats = result.channel_stats
            scores = (result.mse, result.est_percent, result.est_aggregate, "",
                      stats.loss_realized, stats.delay_histogram, f"{result.runtime_ms:.3f}")
        rows.append(_report_row(run["condition"], run["seed"], len(channel_names), scores, run["error"]))
    head = _report_head(config, version, report_header(channel_names))
    Path(path).write_text(head + "".join(rows), encoding="utf-8")


def write_aggregate_csv(path, aggregates: list[dict], channel_names, config: dict, version: str) -> None:
    """One AGG row per condition; deterministic bytes for a fixed config."""
    rows = []
    for agg in aggregates:
        scores = None
        if "est_mean" in agg:
            scores = (agg["mse_mean"], agg["est_mean"], agg["est_aggregate_mean"], agg["est_aggregate_std"],
                      agg["loss_realized"], agg["delay_histogram"], "")
        rows.append(_report_row(agg["condition"], "AGG", len(channel_names), scores))
    head = _report_head(config, version, report_header(channel_names))
    Path(path).write_text(head + "".join(rows), encoding="utf-8")


def write_trace_csv(path, data: TrajectorySet, delivered: np.ndarray, z_est: np.ndarray, config: dict, version: str) -> None:
    """Three-block trace: truth, delivered observation, and estimate per channel.

    The rows are formatted and written ``TRACE_BLOCK_ROWS`` at a time, so
    the text held at once stays the same size however long the trace is.
    """
    names = data.output_names
    header = ["t"]
    header += [f"truth_{n}" for n in names]
    header += [f"delivered_{n}" for n in names]
    header += [f"est_{n}" for n in names]
    with open(path, "w", encoding="utf-8") as out:
        out.write(_report_head(config, version, header))
        for start in range(0, data.n_samples, TRACE_BLOCK_ROWS):
            stop = min(start + TRACE_BLOCK_ROWS, data.n_samples)
            t = np.arange(start, stop) * data.dt
            block = [t, data.outputs[start:stop], delivered[start:stop], z_est[start:stop]]
            rows = np.column_stack(block).tolist()
            out.write("".join([",".join(map(repr, row)) + "\n" for row in rows]))


def read_embedded_config(path) -> dict:
    """Recover the config mapping embedded in a report's comment lines.

    Only the leading ``#`` lines are read and decoded, so the size and bytes
    of the data rows do not matter.
    """
    with open(path, "rb") as report:
        head = b"".join(itertools.takewhile(lambda line: line.startswith(b"#"), report))
    for line in head.decode("utf-8").splitlines():
        if line.startswith("# config="):
            return json.loads(line[len("# config=") :])
    raise ContractViolationError(f"no embedded config found in {path}")
