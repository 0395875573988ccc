import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import exact_lti, identified_system, reference_dataset
from telekf import _kernels, dataio, filtering, simrunner
from telekf.channel import NetworkConfig
from telekf.errors import ContractViolationError, SingularInnovationError
from telekf.filtering import SystemModel
from telekf.simrunner import (
    Scenario,
    aggregate_sweep,
    config_hash,
    read_embedded_config,
    run_scenario,
    run_sweep,
    write_aggregate_csv,
    write_runs_csv,
    write_trace_csv,
)

DATA = reference_dataset(n_samples=800, seed=2)
SYSTEM = identified_system(DATA)


def scenario(n_d=0.0, n_j=0.0, n_p=0.0, seed=0):
    return Scenario(
        model=SYSTEM,
        network=NetworkConfig(n_d=n_d, n_j=n_j, n_p=n_p, seed=seed),
        data=DATA,
    )


def test_clean_channel_tracks_tightly():
    result = run_scenario(scenario())
    assert result.est_aggregate >= 99.0
    assert result.z_est.shape == (DATA.n_samples, 3)
    assert result.channel_stats.loss_realized == 0.0


def test_total_loss_is_strictly_worse_than_clean():
    clean = run_scenario(scenario(seed=5))
    frozen = run_scenario(scenario(n_p=1.0, seed=5))
    assert frozen.est_aggregate < clean.est_aggregate


def test_scenario_determinism():
    a = run_scenario(scenario(n_d=5, n_j=7, n_p=0.2, seed=9))
    b = run_scenario(scenario(n_d=5, n_j=7, n_p=0.2, seed=9))
    np.testing.assert_array_equal(a.z_est, b.z_est)
    np.testing.assert_array_equal(a.mse, b.mse)
    assert a.channel_stats.delay_histogram == b.channel_stats.delay_histogram


def test_scenario_metric_consistency_on_perfect_estimate():
    result = run_scenario(scenario())
    # est% = 100 iff mse = 0, per channel, on the same pair
    perfect = (result.mse == 0.0) == (result.est_percent == 100.0)
    assert perfect.all()


def test_scenario_dimension_mismatch_rejected():
    bad = exact_lti(seed=1, n=4, m=2, p=2)
    with pytest.raises(ContractViolationError, match="output"):
        Scenario(model=bad, network=NetworkConfig(0, 0, 0, 0), data=DATA)


def test_scenario_needs_two_samples():
    from telekf.dataio import TrajectorySet

    tiny = TrajectorySet(
        dt=DATA.dt,
        inputs=DATA.inputs[:1],
        outputs=DATA.outputs[:1],
        input_names=DATA.input_names,
        output_names=DATA.output_names,
    )
    with pytest.raises(ContractViolationError, match="^a scenario needs at least two samples$"):
        Scenario(model=SYSTEM, network=NetworkConfig(0, 0, 0, 0), data=tiny)


def test_mean_accuracy_non_increasing_in_loss():
    # delay and jitter fixed; accuracy averaged over 30 seeds must not rise
    # as the loss probability climbs, and the clean channel stays on top
    seeds = list(range(30))
    conditions = [(5.0, 2.0, 0.0), (5.0, 2.0, 0.1), (5.0, 2.0, 0.2)]
    aggs = aggregate_sweep(run_sweep(SYSTEM, DATA, conditions, seeds))
    means = [a["est_aggregate_mean"] for a in aggs]
    assert means[0] >= means[1] >= means[2]
    clean = aggregate_sweep(run_sweep(SYSTEM, DATA, [(0.0, 0.0, 0.0)], seeds))[0]
    assert clean["est_aggregate_mean"] >= max(means)


def test_run_sweep_records_failures_and_continues():
    table = run_sweep(SYSTEM, DATA, [(0, 0, 0), (0, 0, -0.5)], seeds=[0, 1])
    assert table.condition == [(0.0, 0.0, 0.0)] * 2 + [(0.0, 0.0, -0.5)] * 2
    assert table.seed == [0, 1, 0, 1]
    assert table.error[:2] == ["", ""] and all("n_p" in error for error in table.error[2:])
    # a failed run's row holds NaN scores and no channel statistics
    assert np.isfinite(table.mse[:2]).all() and np.isfinite(table.est_aggregate[:2]).all()
    assert np.isnan(table.mse[2:]).all() and np.isnan(table.est_percent[2:]).all()
    assert np.isnan(table.est_aggregate[2:]).all() and np.isnan(table.runtime_ms[2:]).all()
    assert table.channel_stats[2:] == [None, None]


PAPER_CONDITIONS = [
    (0.0, 0.0, 0.0),
    (5.0, 2.0, 0.1),
    (7.0, 5.0, 0.2),
    (3.0, 6.0, 0.18),
    (8.0, 4.0, 0.13),
    (5.0, 4.0, 0.2),
    (5.0, 6.0, 0.15),
]


def test_sweep_runs_the_covariance_pass_once(monkeypatch):
    calls = {"covariance_loop": 0, "_fold_rows": 0}
    for name in calls:
        wrapped = getattr(_kernels, name)

        def counted(*args, _name=name, _wrapped=wrapped):
            calls[_name] += 1
            return _wrapped(*args)

        monkeypatch.setattr(_kernels, name, counted)
    monkeypatch.setattr(filtering, "_memo", None)
    table = run_sweep(SYSTEM, DATA, PAPER_CONDITIONS, seeds=[0, 1])
    assert table.error == [""] * 14
    # the row updates are folded once, inside the shared pass
    assert calls == {"covariance_loop": 1, "_fold_rows": 1}


def test_scenario_after_a_sweep_matches_a_cold_run(monkeypatch):
    run_sweep(SYSTEM, DATA, PAPER_CONDITIONS[:3], seeds=[0, 1])
    warm = run_scenario(scenario(n_d=7, n_j=5, n_p=0.25, seed=3))
    assert warm.trace.cov_post is filtering._memo[1][1]
    assert warm.trace.step is filtering._memo[1][3]
    monkeypatch.setattr(filtering, "_memo", None)
    cold = run_scenario(scenario(n_d=7, n_j=5, n_p=0.25, seed=3))
    assert cold.trace.cov_post is not warm.trace.cov_post
    np.testing.assert_array_equal(warm.z_est, cold.z_est)
    for name in ("x_prior", "x_post", "has_obs", "cov_prior", "cov_post", "step"):
        np.testing.assert_array_equal(getattr(warm.trace, name), getattr(cold.trace, name))


def test_sweep_of_a_breaking_model_records_the_scenario_error(monkeypatch):
    # a zero output row with zero noise has a zero innovation variance
    h = SYSTEM.h.copy()
    h[1] = 0.0
    r_diag = SYSTEM.r_diag.copy()
    r_diag[1] = 0.0
    broken = SystemModel(a=SYSTEM.a, b=SYSTEM.b, h=h, q_diag=SYSTEM.q_diag, r_diag=r_diag)
    monkeypatch.setattr(filtering, "_memo", None)
    table = run_sweep(broken, DATA, PAPER_CONDITIONS[:2], seeds=[0, 1, 2])
    assert filtering._memo is None  # only a pass that completes is kept
    with pytest.raises(SingularInnovationError) as info:
        run_scenario(Scenario(model=broken, network=NetworkConfig(0, 0, 0, 0), data=DATA))
    expected = f"{type(info.value).__name__}: {info.value}"
    assert "step 0, measurement row 1" in expected
    assert table.error == [expected] * 6


def test_aggregate_sweep_means_and_std():
    table = run_sweep(SYSTEM, DATA, [(0, 0, 0.3)], seeds=[0, 1, 2])
    aggs = aggregate_sweep(table)
    assert len(aggs) == 1
    values = table.est_aggregate
    assert aggs[0]["est_aggregate_mean"] == pytest.approx(np.mean(values))
    assert aggs[0]["est_aggregate_std"] == pytest.approx(np.std(values, ddof=1))
    assert aggs[0]["n_runs"] == 3 and aggs[0]["n_failed"] == 0


def test_aggregate_sweep_merges_a_condition_given_twice():
    table = run_sweep(SYSTEM, DATA, [(0, 0, 0.3), (0, 0, 0.1), (0, 0, 0.3)], seeds=[0, 1])
    aggs = aggregate_sweep(table)
    assert [agg["condition"] for agg in aggs] == [(0.0, 0.0, 0.3), (0.0, 0.0, 0.1)]
    assert aggs[0]["n_runs"] == 4
    assert aggs[0]["est_aggregate_mean"] == np.mean(table.est_aggregate[[0, 1, 4, 5]])


def test_csv_writers_schema_and_embedded_config(tmp_path):
    table = run_sweep(SYSTEM, DATA, [(0, 0, 0.1), (0, 0, -0.5)], seeds=[0, 1, 2])
    aggs = aggregate_sweep(table)
    # error messages as a failing scenario could word them: one with a quote,
    # one with neither a quote nor a comma
    table.error[4:] = ['SingularInnovationError: row "y1"', "ValueError: bad"]
    config = {"command": "sweep", "rows": [[0, 0, 0.1], [0, 0, -0.5]], "seeds": 2, "seed0": 0}
    runs_path = tmp_path / "runs.csv"
    agg_path = tmp_path / "agg.csv"
    write_runs_csv(runs_path, table, DATA.output_names, config, "0.1.0")
    write_aggregate_csv(agg_path, aggs, DATA.output_names, config, "0.1.0")

    header = [l for l in runs_path.read_text().splitlines() if not l.startswith("#")][0]
    cols = header.split(",")
    assert cols[:4] == ["n_d", "n_j", "n_p", "seed"]
    for name in DATA.output_names:
        assert f"mse_{name}" in cols and f"est_{name}" in cols
    assert cols[-5:] == [
        "est_aggregate",
        "est_aggregate_std",
        "loss_realized",
        "delay_hist",
        "runtime_ms",
    ]
    assert read_embedded_config(agg_path) == config

    def data_rows(path):
        rows = list(csv.reader(l for l in path.read_text().splitlines() if not l.startswith("#")))
        assert rows[0] == cols
        assert all(len(row) == len(cols) for row in rows[1:])
        return [dict(zip(cols, row)) for row in rows[1:]]

    errors = [row["est_aggregate"] for row in data_rows(runs_path) if row[cols[4]] == "error"]
    assert errors == table.error[3:]
    assert errors[0] == "ContractViolationError: n_p must be in [0, 1], got -0.5"
    # only a message with a comma or a quote is quoted
    assert ",ValueError: bad," in runs_path.read_text()

    agg_rows = data_rows(agg_path)
    assert [row["seed"] for row in agg_rows] == ["AGG", "AGG"]
    assert agg_rows[1][cols[4]] == "error"
    # aggregated rows carry no runtime so the file is reproducible
    assert [row["runtime_ms"] for row in agg_rows] == ["", ""]


def reference_trace_csv(path, data, delivered, z_est, config, version):
    """The trace writer as it stood before the row join: one repr per value."""

    def _fmt(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    names = data.output_names
    header = ["t"]
    header += [f"truth_{n}" for n in names]
    header += [f"delivered_{n}" for n in names]
    header += [f"est_{n}" for n in names]
    lines = simrunner._report_head(config, version, header).splitlines()
    for t in range(data.n_samples):
        row = [_fmt(t * data.dt)]
        row += [_fmt(v) for v in data.outputs[t]]
        row += [_fmt(v) for v in delivered[t]]
        row += [_fmt(v) for v in z_est[t]]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("dt", [0.002, 1.0 / 30.0])
def test_write_trace_csv_matches_per_value_formatting(tmp_path, dt):
    # longer than two row blocks, ending inside the third
    data = replace(reference_dataset(n_samples=2 * dataio.WRITE_BLOCK_ROWS + 452, seed=2), dt=dt)
    result = run_scenario(
        Scenario(model=SYSTEM, network=NetworkConfig(n_d=0.1, n_j=0.05, n_p=0.2, seed=4), data=data)
    )
    delivered = result.delivered.copy()
    delivered[:6, 0] = [-0.0, 5e-324, 1.7e308, -1.7e308, 1e22, 0.1]
    config = {"command": "run", "dt": dt}
    write_trace_csv(tmp_path / "new.csv", data, delivered, result.z_est, config, "0.1.0")
    reference_trace_csv(tmp_path / "ref.csv", data, delivered, result.z_est, config, "0.1.0")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_trace_csv_peak_stays_below_the_file_size(tmp_path):
    data = reference_dataset(n_samples=20000, seed=3)
    rng = np.random.default_rng(5)
    delivered = data.outputs + rng.standard_normal(data.outputs.shape)
    z_est = data.outputs + rng.standard_normal(data.outputs.shape)
    path = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        write_trace_csv(path, data, delivered, z_est, {"command": "run"}, "0.1.0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_config_hash_is_stable_and_order_free():
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2 and len(h1) == 12


def test_read_embedded_config_reads_only_the_comment_lines(tmp_path):
    path = tmp_path / "report.csv"
    path.write_bytes(b'# telekf-report v2\n# config={"seeds": 1}\nn_d,n_j\n0,\xff\n')
    assert read_embedded_config(path) == {"seeds": 1}


def test_read_embedded_config_missing(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("n_d,n_j\n0,0\n")
    with pytest.raises(ContractViolationError, match="no embedded config"):
        read_embedded_config(path)
