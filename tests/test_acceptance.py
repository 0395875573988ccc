"""Acceptance gate: one test per numbered criterion.

Each test prints a single ``[criterion NN] PASS/FAIL`` line (run pytest with
``-s`` to see them live).  Covariance hygiene (criterion 5) is asserted over
every filter step executed by criteria 1-4, accumulated as those tests run;
when criterion 5 runs in isolation it rebuilds a compact version of the same
workload first.
"""

import time
from unittest import mock

import numpy as np
import pytest
import scipy.stats

from conftest import (
    exact_lti,
    hygiene_of_covs,
    identified_system,
    innovation_health,
    joint_gain_update,
    max_rel_diff,
    random_spd,
    reference_dataset,
    sample_outputs,
)
from telekf import simrunner
from telekf.channel import NetworkConfig, apply_channel
from telekf.cli import main as cli_main
from telekf.dataio import SyntheticSpec, gen_synthetic, random_stable_arx
from telekf.filtering import (
    StateEstimate,
    SystemModel,
    initial_estimate,
    run_filter_trace,
)
from telekf.metrics import fit_percent
from telekf.simrunner import Scenario, aggregate_sweep, run_scenario, run_sweep
from telekf.sysid import arx_fit, arx_to_ss, simulate_arx

DT = 1.0 / 30.0

# paper-style rows as (jitter_ms, delay_ms, loss_prob)
TABLE_ROWS = [
    (0, 0, 0.00),
    (2, 5, 0.10),
    (5, 7, 0.20),
    (6, 3, 0.18),
    (4, 8, 0.13),
    (4, 5, 0.20),
    (6, 5, 0.15),
]
SEEDS = list(range(30))

#: (label, max_asymmetry, min_eigenvalue, steps) accumulated by criteria 1-4
HYGIENE: list[tuple[str, float, float, int]] = []

_cache: dict = {}


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _record_hygiene(label, trace):
    """Hygiene of a trace's distinct prior and posterior covariances, which
    are every step's; each stack counts one covariance per step."""
    for stack in (trace.cov_prior, trace.cov_post):
        asym, eig_min = hygiene_of_covs(stack)
        HYGIENE.append((label, asym, eig_min, len(trace.step)))


def _reference():
    if "system" not in _cache:
        data = reference_dataset(n_samples=1500, seed=1)
        _cache["data"] = data
        _cache["system"] = identified_system(data)
    return _cache["system"], _cache["data"]


def _run_conditions(label, conditions, seeds):
    """Sweep of a scenario grid with per-run hygiene capture; returns
    (table, seconds), the seconds summed over the runs."""
    system, data = _reference()

    def run_and_record(scenario):
        result = run_scenario(scenario)
        _record_hygiene(label, result.trace)
        return result

    with mock.patch.object(simrunner, "run_scenario", run_and_record):
        table = run_sweep(system, data, conditions, seeds)
    # run_sweep keeps a run's exception as its row's error: any failed run or
    # hygiene capture fails the criterion
    failed = [error for error in table.error if error]
    assert not failed, f"{len(failed)} run(s) failed, the first with {failed[0]}"
    return table, float(table.runtime_ms.sum()) / 1000.0


def _criterion3_instances(count):
    """One observed step with identity dynamics and no noise, so the step's
    update is the filter's sequential one alone, against the joint-gain
    reference."""
    rng = np.random.default_rng(313)
    worst_x = 0.0
    worst_p = 0.0
    for _ in range(count):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        model = SystemModel(
            a=np.eye(n),
            b=np.zeros((n, 1)),
            h=rng.standard_normal((p, n)),
            q_diag=np.zeros(n),
            r_diag=rng.uniform(0.05, 2.0, p),
        )
        est = StateEstimate(rng.standard_normal(n), random_spd(rng, n))
        z = rng.standard_normal(p)
        trace = run_filter_trace(model, est, np.zeros((1, 1)), (z[None], np.ones(1, dtype=bool)))
        x, cov = joint_gain_update(est.x_hat, est.p, model.h, np.diag(model.r_diag), z)
        worst_x = max(worst_x, max_rel_diff(trace.x_post[0], x))
        worst_p = max(worst_p, max_rel_diff(trace.cov_post[trace.step[0]], cov))
        _record_hygiene("c3", trace)
    return worst_x, worst_p


def _criterion4_pairs(count, steps=1000):
    """Full-mask scalar random-walk runs; returns the worst distances of the
    last posterior and prior from the Riccati roots, and how many runs
    reached a fixed point or cycle (fewer distinct covariances than steps)."""
    rng = np.random.default_rng(414)
    worst_post = 0.0
    worst_prior = 0.0
    settled = 0
    for _ in range(count):
        q = float(rng.uniform(0.0, 1.0)) or 1e-6
        r = float(rng.uniform(0.0, 1.0)) or 1e-6
        model = SystemModel(a=[[1.0]], b=[[0.0]], h=[[1.0]], q_diag=[q], r_diag=[r])
        trace = run_filter_trace(
            model, StateEstimate([0.0], [[1.0]]), np.zeros((steps, 1)), (np.zeros((steps, 1)), np.ones(steps, dtype=bool))
        )
        root_post = (-q + np.sqrt(q * q + 4 * q * r)) / 2.0
        last = trace.step[-1]
        worst_post = max(worst_post, abs(trace.cov_post[last, 0, 0] - root_post))
        worst_prior = max(worst_prior, abs(trace.cov_prior[last, 0, 0] - (root_post + q)))
        settled += len(trace.cov_post) < steps
        _record_hygiene("c4", trace)
    return worst_post, worst_prior, settled


def test_criterion_01_unimpaired_ceiling():
    system, data = _reference()
    # warm the kernels outside the timed section
    run_scenario(Scenario(model=system, network=NetworkConfig(0, 0, 0, 0), data=data))
    table, seconds = _run_conditions("c1", [(0.0, 0.0, 0.0)], SEEDS)
    agg = aggregate_sweep(table)[0]
    mean_est = agg["est_aggregate_mean"]
    ok = mean_est >= 99.0 and seconds < 5.0
    _report(
        1,
        "unimpaired ceiling",
        ok,
        f"mean est%={mean_est:.4f} (>= 99.0) over {len(SEEDS)} seeds, runtime={seconds:.2f}s (< 5 s)",
    )


def test_criterion_02_degradation_trend():
    conditions = [(nd, nj, np_) for (nj, nd, np_) in TABLE_ROWS]
    table, seconds = _run_conditions("c2", conditions, SEEDS)
    aggs = aggregate_sweep(table)
    means = np.array([a["est_aggregate_mean"] for a in aggs])
    severity = np.array([np_ * 1000.0 + nj for (nj, nd, np_) in TABLE_ROWS])
    rho = scipy.stats.spearmanr(severity, means).statistic
    bottom_two = {aggs[i]["condition"] for i in np.argsort(means)[:2]}
    worst_row_cond = (7.0, 5.0, 0.20)  # jitter 5, delay 7, loss 0.20
    ok = rho < 0.0 and worst_row_cond in bottom_two and seconds < 60.0
    lines = ", ".join(
        f"(nj={nj},nd={nd},np={np_:.2f})->{m:.2f}" for (nj, nd, np_), m in zip(TABLE_ROWS, means)
    )
    _report(
        2,
        "degradation trend",
        ok,
        f"spearman={rho:.3f} (< 0), worst row in bottom two={worst_row_cond in bottom_two}, "
        f"runtime={seconds:.1f}s (< 60 s) [{lines}]",
    )


def test_criterion_03_sequential_equals_joint():
    worst_x, worst_p = _criterion3_instances(1000)
    ok = worst_x <= 1e-8 and worst_p <= 1e-8
    _report(
        3,
        "sequential == joint",
        ok,
        f"1000 instances, max rel state diff={worst_x:.2e}, cov diff={worst_p:.2e} (<= 1e-8)",
    )


def test_criterion_04_scalar_riccati_fixed_point():
    worst_post, worst_prior, settled = _criterion4_pairs(20)
    ok = worst_post <= 1e-9 and worst_prior <= 1e-9 and settled == 20
    _report(
        4,
        "scalar Riccati fixed point",
        ok,
        f"20 (q,r) pairs: |P - root(P^2+qP-qr)|={worst_post:.2e}, "
        f"|P_prior - (root+q)|={worst_prior:.2e} (<= 1e-9), "
        f"{settled}/20 reached a fixed point or cycle within 1000 steps",
    )


def test_criterion_05_covariance_hygiene():
    if not HYGIENE:
        _run_conditions("c1-compact", [(0.0, 0.0, 0.0)], SEEDS[:3])
        _run_conditions("c2-compact", [(nd, nj, np_) for (nj, nd, np_) in TABLE_ROWS], SEEDS[:2])
        _criterion3_instances(200)
        _criterion4_pairs(5)
    worst_asym = max(h[1] for h in HYGIENE)
    worst_eig = min(h[2] for h in HYGIENE)
    steps = sum(h[3] for h in HYGIENE)
    ok = worst_asym <= 1e-9 and worst_eig >= -1e-9 and steps > 0
    _report(
        5,
        "covariance hygiene",
        ok,
        f"{steps} covariances from criteria 1-4: max asymmetry={worst_asym:.2e} (<= 1e-9), "
        f"min eigenvalue={worst_eig:.2e} (>= -1e-9)",
    )


def test_criterion_06_arx_recovery():
    from telekf.sysid import ArxModel

    true_111 = ArxModel(na=1, nb=1, nk=1, a_coeffs=[[0.5]], b_coeffs=[[[1.0]]],
                        n_outputs=1, n_inputs=1, dt=DT)
    true_221 = ArxModel(na=2, nb=2, nk=1, a_coeffs=[[0.9, -0.18]], b_coeffs=[[[1.2, 0.4]]],
                        n_outputs=1, n_inputs=1, dt=DT)
    worst_clean = 0.0
    for truth, n in ((true_111, 500), (true_221, 800)):
        data = gen_synthetic(SyntheticSpec(generator=truth, n_samples=n, seed=61))
        fit = arx_fit(data, (truth.na, truth.nb, truth.nk))
        worst_clean = max(
            worst_clean,
            np.abs(fit.a_coeffs - truth.a_coeffs).max(),
            np.abs(fit.b_coeffs - truth.b_coeffs).max(),
        )

    hits = 0
    for seed in range(20):
        data = gen_synthetic(
            SyntheticSpec(generator=true_111, n_samples=5000, seed=seed, measurement_noise=0.01)
        )
        fit = arx_fit(data, (1, 1, 1))
        err = max(
            np.abs(fit.a_coeffs - true_111.a_coeffs).max(),
            np.abs(fit.b_coeffs - true_111.b_coeffs).max(),
        )
        hits += err < 0.01
    ok = worst_clean <= 1e-6 and hits >= 19
    _report(
        6,
        "ARX recovery",
        ok,
        f"noise-free max coeff err={worst_clean:.2e} (<= 1e-6); "
        f"noisy within 0.01 in {hits}/20 seeds (>= 19)",
    )


def test_criterion_07_realization_equivalence():
    rng = np.random.default_rng(700)
    worst = 0.0
    for i in range(100):
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        nk = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        model = random_stable_arx(na, nb, nk, n_outputs=p, n_inputs=m, seed=7000 + i)
        u = rng.standard_normal((200, m))
        y_arx = simulate_arx(model, u)
        sm = arx_to_ss(model, q=0.0, r=np.ones(p))
        x = np.zeros(sm.n_states)
        y_ss = np.empty((200, p))
        for t in range(200):
            y_ss[t] = sm.h @ x
            x = sm.a @ x + sm.b @ u[t]
        worst = max(worst, float(np.abs(y_ss - y_arx).max()))
    ok = worst <= 1e-10
    _report(
        7,
        "realization equivalence",
        ok,
        f"100 random stable models, 200 steps: max |ss - difference-eq| = {worst:.2e} (<= 1e-10)",
    )


def test_criterion_08_channel_statistics():
    rng = np.random.default_rng(800)
    truth = rng.standard_normal((10001, 2))
    worst_excess = -np.inf
    details = []
    for n_p in (0.1, 0.2):
        _, _, _, stats = apply_channel(truth, NetworkConfig(0, 0, n_p, seed=81), DT)
        bound = 3.0 * np.sqrt(n_p * (1.0 - n_p) / stats.packets_total)
        excess = abs(stats.loss_realized - n_p) - bound
        worst_excess = max(worst_excess, excess)
        details.append(f"np={n_p}: realized={stats.loss_realized:.4f} (3-sigma bound {bound:.4f})")
    delivered, _, lost, _ = apply_channel(truth, NetworkConfig(0, 0, 0, seed=82), DT)
    identity = np.array_equal(delivered, truth) and not lost.any()
    ok = worst_excess <= 0.0 and identity
    _report(
        8,
        "channel statistics",
        ok,
        "; ".join(details) + f"; zero channel identity={identity}",
    )


def test_criterion_09_fit_percent_anchors():
    truth = np.array([0.0, 1.0, 2.0, 3.0])
    exact = fit_percent(truth, truth.copy())[0]
    mean_fit = fit_percent(truth, np.full(4, truth.mean()))[0]
    hand = fit_percent(truth, np.array([0.0, 1.0, 2.0, 5.0]))[0]
    hand_expected = 100.0 * (1.0 - 2.0 / np.sqrt(5.0))
    ok = exact == 100.0 and mean_fit == 0.0 and abs(hand - hand_expected) <= 1e-9
    _report(
        9,
        "fit_percent anchors",
        ok,
        f"exact={exact} (== 100.0), mean={mean_fit} (== 0.0), "
        f"hand case err={abs(hand - hand_expected):.1e} (<= 1e-9)",
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_10_sweep_reproducibility(tmp_path):
    data_path = tmp_path / "data.txt"
    model_path = tmp_path / "model.json"
    assert cli_main([
        "synth", "--out", str(data_path), "--n", "600", "--seed", "4",
        "--na", "1", "--nb", "1", "--nk", "1", "--n-inputs", "1", "--n-outputs", "1",
        "--measurement-noise", "0.002", "--process-noise", "0.002",
    ]) == 0
    assert cli_main([
        "identify", "--train", str(data_path), "--holdout", str(data_path),
        "--na", "1", "--nb", "1", "--nk", "1",
        "--out", str(model_path), "--out-dir", str(tmp_path),
    ]) == 0
    out_a = tmp_path / "first"
    assert cli_main([
        "sweep", "--model", str(model_path), "--data", str(data_path),
        "--rows", "0,0,0;2,5,0.1;5,7,0.2", "--seeds", "3",
        "--out-dir", str(out_a),
    ]) == 0
    agg_a = out_a / "sweep_aggregated.csv"
    out_b = tmp_path / "replayed"
    assert cli_main(["sweep", "--replay", str(agg_a), "--out-dir", str(out_b)]) == 0
    identical = (out_b / "sweep_aggregated.csv").read_bytes() == agg_a.read_bytes()
    _report(
        10,
        "sweep reproducibility",
        identical,
        f"replay from embedded config byte-identical={identical}",
    )


def test_criterion_11_innovation_consistency():
    model = exact_lti(seed=1100, n=4, m=2, p=2)
    rng = np.random.default_rng(1101)
    steps = 10100
    burn = 100
    u = rng.standard_normal((steps, model.n_inputs))
    z = sample_outputs(model, u, seed=1102)
    # filter step t predicts sample t+1 with u[t] and corrects with z[t+1]
    trace = run_filter_trace(
        model,
        initial_estimate(model, first_obs=z[0]),
        u[:-1],
        (z[1:], np.ones(steps - 1, dtype=bool)),
    )
    nu, s = trace.innovations(model, z[1:])
    nu, s = nu[burn:], s[burn:]
    nis, lag1 = innovation_health(nu, s)
    mean_nis = float(nis.mean())
    p = model.n_outputs
    ok = 0.9 * p <= mean_nis <= 1.1 * p and lag1 <= 0.05
    _report(
        11,
        "innovation consistency",
        ok,
        f"mean NIS={mean_nis:.3f} over {nis.size} steps (in [{0.9 * p:.1f}, {1.1 * p:.1f}]), "
        f"max lag-1 autocorr={lag1:.4f} (<= 0.05)",
    )
