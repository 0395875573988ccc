"""Closed-loop scenario engine: truth stream -> channel -> filter -> metrics.

A scenario pushes the true patient-side stream through the impairment
channel, runs the sequential Kalman filter on the delivered samples with
the master-side commands as control input, and scores the estimated output
against the true (unimpaired) stream.  Sweeps repeat this over a grid of
channel conditions and seeds and serialize the results to CSV with enough
embedded metadata to reproduce the aggregated report byte for byte.
"""

from __future__ import annotations

import hashlib
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
    "simulate_truth",
    "run_sweep",
    "aggregate_sweep",
    "write_runs_csv",
    "write_aggregate_csv",
    "write_trace_csv",
    "read_embedded_config",
    "config_hash",
]

REPORT_FORMAT = "telekf-report"
REPORT_VERSION = 1


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
    """Estimated output trace plus accuracy metrics and channel statistics."""

    z_est: np.ndarray
    mse: np.ndarray
    est_percent: np.ndarray
    est_aggregate: float
    channel_stats: ChannelStats
    runtime_ms: float
    delivered: Optional[np.ndarray] = None
    trace: Optional[FilterTrace] = None


def run_scenario(scenario: Scenario, return_trace: bool = False) -> ScenarioResult:
    """Execute the closed loop over the whole trajectory.

    Per step k >= 2: the channel delivers a (possibly delayed or held)
    patient-side sample, the filter predicts with the previous master
    command and refines with the delivered sample via sequential scalar
    updates.  Metrics compare the estimated output against the true stream,
    not the delivered one.
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
        z_est=z_est,
        mse=per_mse,
        est_percent=per_fit,
        est_aggregate=fit_aggregate(per_fit),
        channel_stats=stats,
        runtime_ms=runtime_ms,
        delivered=delivered if return_trace else None,
        trace=trace if return_trace else None,
    )


def simulate_truth(
    model: SystemModel,
    inputs,
    x0=None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the generative model: states with process noise, measurements
    with measurement noise.

    Returns (x, z) with one row per input row; x[0] is the initial state
    (default zero) and z[t] = h x[t] + v[t] for every t.
    """
    u = np.atleast_2d(np.asarray(inputs, dtype=float))
    if u.shape[1] != model.n_inputs:
        raise ContractViolationError(
            f"inputs must have {model.n_inputs} channels, got {u.shape[1]}"
        )
    steps = u.shape[0]
    n, p = model.n_states, model.n_outputs
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)

    w_seq, v_seq = np.random.SeedSequence(seed).spawn(2)
    w_rng = np.random.Generator(np.random.PCG64(w_seq))
    v_rng = np.random.Generator(np.random.PCG64(v_seq))

    def _sqrt_psd(mat):
        w, v = np.linalg.eigh(mat)
        return v * np.sqrt(np.clip(w, 0.0, None))

    lq = _sqrt_psd(model.q)
    lr = _sqrt_psd(model.r)
    w = w_rng.standard_normal((steps, n)) @ lq.T
    v = v_rng.standard_normal((steps, p)) @ lr.T

    x = np.empty((steps, n))
    x[0] = x0
    for t in range(1, steps):
        x[t] = model.a @ x[t - 1] + model.b @ u[t - 1] + w[t]
    z = x @ model.h.T + v
    return x, z


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
    order = []
    for run in runs:
        key = run["condition"]
        if key not in by_condition:
            by_condition[key] = []
            order.append(key)
        by_condition[key].append(run)
    aggregates = []
    for cond in order:
        group = [r for r in by_condition[cond] if r["result"] is not None]
        agg = {
            "condition": cond,
            "n_runs": len(by_condition[cond]),
            "n_failed": len(by_condition[cond]) - len(group),
        }
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


def _meta_lines(config: dict, version: str) -> list[str]:
    return [
        f"# {REPORT_FORMAT} v{REPORT_VERSION} telekf={version} rng={RNG_ALGORITHM}",
        f"# config_hash={config_hash(config)}",
        "# config=" + json.dumps(config, sort_keys=True, separators=(",", ":")),
    ]


def _hist_text(hist: dict[int, int]) -> str:
    return ";".join(f"{k}:{hist[k]}" for k in sorted(hist))


def report_header(channel_names) -> list[str]:
    cols = ["n_d", "n_j", "n_p", "seed"]
    cols += [f"mse_{name}" for name in channel_names]
    cols += [f"est_{name}" for name in channel_names]
    cols += ["est_aggregate", "est_aggregate_std", "loss_realized", "delay_hist", "runtime_ms"]
    return cols


def write_runs_csv(path, runs: list[dict], channel_names, config: dict, version: str) -> None:
    """Per-(condition, seed) rows, including runtime; failures get an error row
    whose message fills the est_aggregate column."""
    lines = _meta_lines(config, version)
    lines.append(",".join(report_header(channel_names)))
    for run in runs:
        n_d, n_j, n_p = run["condition"]
        prefix = [_fmt(n_d), _fmt(n_j), _fmt(n_p), str(run["seed"])]
        result = run["result"]
        if result is None:
            row = prefix + ["error"] * (2 * len(channel_names)) + [_csv_field(run["error"]), "", "", "", ""]
        else:
            row = (
                prefix
                + [_fmt(v) for v in result.mse]
                + [_fmt(v) for v in result.est_percent]
                + [
                    _fmt(result.est_aggregate),
                    "",
                    _fmt(result.channel_stats.loss_realized),
                    _hist_text(result.channel_stats.delay_histogram),
                    f"{result.runtime_ms:.3f}",
                ]
            )
        lines.append(",".join(row))
    _write_lines(path, lines)


def write_aggregate_csv(path, aggregates: list[dict], channel_names, config: dict, version: str) -> None:
    """One AGG row per condition; deterministic bytes for a fixed config."""
    lines = _meta_lines(config, version)
    lines.append(",".join(report_header(channel_names)))
    for agg in aggregates:
        n_d, n_j, n_p = agg["condition"]
        prefix = [_fmt(n_d), _fmt(n_j), _fmt(n_p), "AGG"]
        if "est_mean" not in agg:
            row = prefix + ["error"] * (2 * len(channel_names)) + ["", "", "", "", ""]
        else:
            row = (
                prefix
                + [_fmt(v) for v in agg["mse_mean"]]
                + [_fmt(v) for v in agg["est_mean"]]
                + [
                    _fmt(agg["est_aggregate_mean"]),
                    _fmt(agg["est_aggregate_std"]),
                    _fmt(agg["loss_realized"]),
                    _hist_text(agg["delay_histogram"]),
                    "",
                ]
            )
        lines.append(",".join(row))
    _write_lines(path, lines)


def write_trace_csv(path, data: TrajectorySet, delivered: np.ndarray, z_est: np.ndarray, config: dict, version: str) -> None:
    """Three-block trace: truth, delivered observation, and estimate per channel."""
    names = data.output_names
    lines = _meta_lines(config, version)
    header = ["t"]
    header += [f"truth_{n}" for n in names]
    header += [f"delivered_{n}" for n in names]
    header += [f"est_{n}" for n in names]
    lines.append(",".join(header))
    t = np.arange(data.n_samples) * data.dt
    rows = np.column_stack([t, data.outputs, delivered, z_est]).tolist()
    lines += [",".join(map(repr, row)) for row in rows]
    _write_lines(path, lines)


def _write_lines(path, lines: list[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_embedded_config(path) -> dict:
    """Recover the config mapping embedded in a report's comment lines."""
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("# config="):
            return json.loads(line[len("# config=") :])
        if not line.startswith("#"):
            break
    raise ContractViolationError(f"no embedded config found in {path}")
