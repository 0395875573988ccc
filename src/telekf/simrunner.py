"""Closed-loop scenario engine: truth stream -> channel -> filter -> metrics.

A scenario pushes the true patient-side stream through the impairment
channel, runs the sequential Kalman filter on the delivered samples with
the master-side commands as control input, and scores the estimated output
against the true (unimpaired) stream.  Sweeps repeat this over a grid of
channel conditions and seeds, keep each run's scores only, one
:class:`SweepTable` row per run, and serialize them to CSV with enough
embedded metadata to reproduce the aggregated report byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import RNG_ALGORITHM, ChannelStats, NetworkConfig, apply_channel
from .dataio import WRITE_BLOCK_ROWS, TrajectorySet, _csv_field
from .errors import ContractViolationError, check_shape, to_int
from .filtering import FilterTrace, SystemModel, initial_estimate, run_filter_trace
from .metrics import fit_aggregate, fit_percent, mse

__all__ = [
    "Scenario",
    "ScenarioResult",
    "SweepTable",
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


@dataclass(frozen=True, eq=False)
class Scenario:
    """One experiment: a model, a channel condition, and a trajectory of at
    least two samples whose channels are the model's."""

    model: SystemModel
    network: NetworkConfig
    data: TrajectorySet

    def __post_init__(self):
        check_shape("inputs", self.data.inputs, (None, self.model.n_inputs))
        check_shape("outputs", self.data.outputs, (None, self.model.n_outputs))
        if self.data.n_samples < 2:
            raise ContractViolationError("a scenario needs at least two samples")


@dataclass(eq=False)
class ScenarioResult:
    """Accuracy metrics and channel statistics of one scenario, with its
    estimated output, delivered stream and filter trace."""

    mse: np.ndarray
    est_percent: np.ndarray
    est_aggregate: float
    channel_stats: ChannelStats
    runtime_ms: float
    z_est: np.ndarray
    delivered: np.ndarray
    trace: FilterTrace


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute the closed loop over the whole trajectory.

    Per step k >= 2: the channel delivers a (possibly delayed or held)
    patient-side sample, the filter predicts with the previous master
    command and refines with the delivered sample via sequential scalar
    updates.  Metrics compare the estimated output against the true stream,
    not the delivered one.  The trajectory's length and channels are the
    :class:`Scenario`'s to check.
    """
    data = scenario.data
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
        z_est=z_est,
        delivered=delivered,
        trace=trace,
    )


# ---------------------------------------------------------------------------
# sweeps and reports


@dataclass(eq=False)
class SweepTable:
    """A sweep's runs, one row per (condition, seed) in condition-major order.

    ``mse`` and ``est_percent`` are (S, p) arrays and ``est_aggregate`` and
    ``runtime_ms`` (S,) ones.  A failed run's row holds NaN scores, no
    channel statistics and its error message, empty for a run that succeeded.
    """

    condition: list[tuple[float, float, float]]
    seed: list[int]
    mse: np.ndarray
    est_percent: np.ndarray
    est_aggregate: np.ndarray
    channel_stats: list[ChannelStats | None]
    runtime_ms: np.ndarray
    error: list[str]


def run_sweep(
    model: SystemModel,
    data: TrajectorySet,
    conditions,
    seeds,
) -> SweepTable:
    """Run every (n_d, n_j, n_p) condition under every seed; a run that
    fails leaves its error message in the table and the sweep goes on."""
    conditions = [tuple(float(v) for v in cond) for cond in conditions]
    if not conditions:
        raise ContractViolationError("conditions list is empty")
    seeds = [to_int("seed", s, NetworkConfig.RANGES["seed"]) for s in seeds]
    if not seeds:
        raise ContractViolationError("seeds list is empty")
    rows = list(itertools.product(conditions, seeds))
    size, p = len(rows), data.outputs.shape[1]
    table = SweepTable(
        condition=[cond for cond, _ in rows],
        seed=[seed for _, seed in rows],
        mse=np.full((size, p), np.nan),
        est_percent=np.full((size, p), np.nan),
        est_aggregate=np.full(size, np.nan),
        channel_stats=[None] * size,
        runtime_ms=np.full(size, np.nan),
        error=[""] * size,
    )
    for i, ((n_d, n_j, n_p), seed) in enumerate(rows):
        try:
            network = NetworkConfig(n_d=n_d, n_j=n_j, n_p=n_p, seed=seed)
            result = run_scenario(Scenario(model=model, network=network, data=data))
        except Exception as exc:  # recorded, sweep continues
            table.error[i] = f"{type(exc).__name__}: {exc}"
            continue
        # the score columns are named as the result's fields
        for column in ("mse", "est_percent", "est_aggregate", "channel_stats", "runtime_ms"):
            getattr(table, column)[i] = getattr(result, column)
        del result  # its arrays of the trajectory's length go before the next run
    return table


def aggregate_sweep(table: SweepTable) -> list[dict]:
    """Collapse each condition's rows into one record (means over the runs
    that succeeded, std)."""
    by_condition: dict[tuple, list[int]] = {}
    for i, cond in enumerate(table.condition):
        by_condition.setdefault(cond, []).append(i)
    aggregates = []
    for cond, rows in by_condition.items():
        ok = [i for i in rows if not table.error[i]]
        agg = {"condition": cond, "n_runs": len(rows), "n_failed": len(rows) - len(ok)}
        if ok:
            values = table.est_aggregate[ok]
            stats = [table.channel_stats[i] for i in ok]
            lost = sum(s.packets_lost for s in stats)
            total = sum(s.packets_total for s in stats)
            hist = sum((Counter(s.delay_histogram) for s in stats), Counter())
            agg.update(
                {
                    "mse_mean": table.mse[ok].mean(axis=0),
                    "est_mean": table.est_percent[ok].mean(axis=0),
                    "est_aggregate_mean": float(values.mean()),
                    "est_aggregate_std": float(values.std(ddof=1)) if len(ok) > 1 else 0.0,
                    "loss_realized": (lost / total) if total else 0.0,
                    "delay_histogram": dict(hist),
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


def _report_head(config: dict, version: str, columns: list[str]) -> str:
    """The ``#`` lines and the column header that open every report."""
    lines = [
        f"# {REPORT_FORMAT} v{REPORT_VERSION} telekf={version} rng={RNG_ALGORITHM}",
        f"# config_hash={config_hash(config)}",
        "# config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
        ",".join(columns),
    ]
    return "\n".join(lines) + "\n"


def _write_report(path, rows, channel_names, config: dict, version: str) -> None:
    """Write a sweep report with one line per (condition, seed, scores, error) item of ``rows``.

    ``scores`` is (mse, est, est_aggregate, est_aggregate_std, loss_realized,
    delay_histogram, runtime_ms text); without it the line is an error row,
    whose ``error`` text fills the est_aggregate column.
    """
    columns = ["n_d", "n_j", "n_p", "seed"]
    columns += [f"mse_{name}" for name in channel_names]
    columns += [f"est_{name}" for name in channel_names]
    columns += ["est_aggregate", "est_aggregate_std", "loss_realized", "delay_hist", "runtime_ms"]
    lines = [_report_head(config, version, columns)]
    for condition, seed, scores, error in rows:
        row = [_fmt(v) for v in condition] + [str(seed)]
        if scores is None:
            row += ["error"] * (2 * len(channel_names)) + [_csv_field(error), "", "", "", ""]
        else:
            mse_values, est_values, aggregate, std, loss, hist, runtime = scores
            row += [_fmt(v) for v in (*mse_values, *est_values, aggregate, std, loss)]
            row += [";".join(f"{k}:{hist[k]}" for k in sorted(hist)), runtime]
        lines.append(",".join(row) + "\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def write_runs_csv(path, table: SweepTable, channel_names, config: dict, version: str) -> None:
    """Per-(condition, seed) rows, including runtime; failures get an error row
    whose message fills the est_aggregate column."""
    rows = []
    for i, (stats, error) in enumerate(zip(table.channel_stats, table.error)):
        scores = None
        if not error:
            scores = (table.mse[i], table.est_percent[i], table.est_aggregate[i], "",
                      stats.loss_realized, stats.delay_histogram, f"{table.runtime_ms[i]:.3f}")
        rows.append((table.condition[i], table.seed[i], scores, error))
    _write_report(path, rows, channel_names, config, version)


def write_aggregate_csv(path, aggregates: list[dict], channel_names, config: dict, version: str) -> None:
    """One AGG row per condition; deterministic bytes for a fixed config."""
    rows = []
    for agg in aggregates:
        scores = None
        if "est_mean" in agg:
            scores = (agg["mse_mean"], agg["est_mean"], agg["est_aggregate_mean"], agg["est_aggregate_std"],
                      agg["loss_realized"], agg["delay_histogram"], "")
        rows.append((agg["condition"], "AGG", scores, ""))
    _write_report(path, rows, channel_names, config, version)


def write_trace_csv(path, data: TrajectorySet, delivered: np.ndarray, z_est: np.ndarray, config: dict, version: str) -> None:
    """Three-block trace: truth, delivered observation, and estimate per channel.

    The rows are formatted and written ``WRITE_BLOCK_ROWS`` at a time, so
    the text held at once stays the same size however long the trace is.
    """
    names = data.output_names
    header = ["t"]
    header += [f"truth_{n}" for n in names]
    header += [f"delivered_{n}" for n in names]
    header += [f"est_{n}" for n in names]
    with open(path, "w", encoding="utf-8") as out:
        out.write(_report_head(config, version, header))
        for start in range(0, data.n_samples, WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, data.n_samples)
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
