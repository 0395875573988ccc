import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import telekf.sysid
from conftest import reference_dataset
from telekf.dataio import SyntheticSpec, TrajectorySet, gen_synthetic, random_stable_arx
from telekf.errors import (
    ContractViolationError,
    IllConditionedDataError,
    UnsupportedStructureError,
)
from telekf.metrics import fit_percent, mse
from telekf.sysid import (
    ArxModel,
    _simulate,
    arx_fit,
    arx_to_ss,
    load_model,
    order_sweep,
    predict_one_step,
    residual_covariances,
    save_model,
    simulate_arx,
)

DT = 1.0 / 30.0

#: the (na, nb, nk) values of ``telekf identify``'s default grid, 1:4, 1:4 and 0:2
GRID = ((1, 2, 3, 4), (1, 2, 3, 4), (0, 1, 2))


def known_111():
    return ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[0.5]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )


def known_221():
    # poles at 0.6 and 0.3: y[t] = 0.9 y[t-1] - 0.18 y[t-2] + 1.2 u[t-1] + 0.4 u[t-2]
    return ArxModel(
        na=2, nb=2, nk=1, a_coeffs=[[0.9, -0.18]], b_coeffs=[[[1.2, 0.4]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )


def synth(model, n, seed, meas_noise=0.0):
    return gen_synthetic(
        SyntheticSpec(
            generator=model, n_samples=n, seed=seed,
            excitation="white", measurement_noise=meas_noise,
        )
    )


# ---------------------------------------------------------------------------
# arx_fit


def test_fit_recovers_known_first_order_exactly():
    data = synth(known_111(), 500, seed=4)
    fit = arx_fit(data, (1, 1, 1))
    np.testing.assert_allclose(fit.a_coeffs, [[0.5]], atol=1e-6)
    np.testing.assert_allclose(fit.b_coeffs, [[[1.0]]], atol=1e-6)


def test_fit_recovers_known_second_order_exactly():
    truth = known_221()
    data = synth(truth, 800, seed=5)
    fit = arx_fit(data, (2, 2, 1))
    np.testing.assert_allclose(fit.a_coeffs, truth.a_coeffs, atol=1e-6)
    np.testing.assert_allclose(fit.b_coeffs, truth.b_coeffs, atol=1e-6)


def test_fit_zero_output_gives_zero_coefficients():
    rng = np.random.default_rng(6)
    data = TrajectorySet(
        dt=DT,
        inputs=rng.standard_normal((300, 1)),
        outputs=np.zeros((300, 1)),
        input_names=("u1",),
        output_names=("y1",),
    )
    fit = arx_fit(data, (2, 2, 1))
    np.testing.assert_array_equal(fit.a_coeffs, np.zeros((1, 2)))
    np.testing.assert_array_equal(fit.b_coeffs, np.zeros((1, 1, 2)))


def test_fit_with_noise_stays_close():
    truth = known_111()
    close = 0
    for seed in range(5):
        data = synth(truth, 5000, seed=seed, meas_noise=0.01)
        fit = arx_fit(data, (1, 1, 1))
        if (
            abs(fit.a_coeffs[0, 0] - 0.5) < 0.01
            and abs(fit.b_coeffs[0, 0, 0] - 1.0) < 0.01
        ):
            close += 1
    assert close >= 4


def test_fit_rejects_short_data():
    data = synth(known_111(), 500, seed=7)
    short = TrajectorySet(
        dt=DT, inputs=data.inputs[:13], outputs=data.outputs[:13],
        input_names=data.input_names, output_names=data.output_names,
    )
    with pytest.raises(ContractViolationError, match="samples"):
        arx_fit(short, (1, 1, 1))


def test_regressor_matches_the_per_row_lag_layout():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(40)
    u = rng.standard_normal((40, 2))
    for na, nb, nk in ((0, 1, 0), (1, 1, 0), (3, 2, 1), (2, 4, 2), (4, 1, 3)):
        phi, target, t0 = telekf.sysid._regressor(y, u, na, nb, nk)
        want = [
            [y[t - 1 - i] for i in range(na)] + [u[t - nk - lag, j] for j in range(2) for lag in range(nb)]
            for t in range(t0, 40)
        ]
        assert t0 == max(na, nb + nk - 1)
        np.testing.assert_array_equal(phi, np.array(want).reshape(40 - t0, na + 2 * nb))
        np.testing.assert_array_equal(target, y[t0:])


def test_fit_rejects_negative_orders():
    data = synth(known_111(), 200, seed=7)
    for orders, message in (((1, 1, -1), "nk must be in [0, inf), got -1"),
                            ((-1, 1, 1), "na must be in [0, inf), got -1"),
                            ((1, 0, 1), "nb must be in [1, inf), got 0")):
        with pytest.raises(ContractViolationError, match=re.escape(message)):
            arx_fit(data, orders)


@pytest.mark.parametrize("name", ["n_outputs", "n_inputs"])
def test_model_needs_a_channel_of_each_kind(name):
    channels = {"n_outputs": 1, "n_inputs": 1, name: 0}
    with pytest.raises(ContractViolationError, match=re.escape(f"{name} must be in [1, inf), got 0")):
        random_stable_arx(2, 2, 1, seed=1, **channels)


def test_fit_rank_deficient_noisy_data_raises_with_condition():
    rng = np.random.default_rng(8)
    n = 400
    data = TrajectorySet(
        dt=DT,
        inputs=np.ones((n, 1)),  # constant input: collinear lag columns
        outputs=rng.standard_normal((n, 1)),
        input_names=("u1",),
        output_names=("y1",),
    )
    with pytest.raises(IllConditionedDataError) as info:
        arx_fit(data, (1, 2, 1))
    condition = float(re.search(r"condition (\S+)\)", str(info.value)).group(1))
    assert condition > 1e6


def test_fit_local_optimality_of_coefficients():
    truth = known_221()
    data = synth(truth, 600, seed=9, meas_noise=0.05)
    fit = arx_fit(data, (2, 2, 1))
    _, base_pred = predict_one_step(fit, data)
    t0 = max(fit.na, fit.nb + fit.nk - 1)
    target = data.outputs[t0:]
    base_sse = float(np.sum((target - base_pred) ** 2))
    for idx in range(2):
        for delta in (-1e-3, 1e-3):
            a_mod = fit.a_coeffs.copy()
            a_mod[0, idx] += delta
            bumped = ArxModel(
                na=2, nb=2, nk=1, a_coeffs=a_mod, b_coeffs=fit.b_coeffs,
                n_outputs=1, n_inputs=1, dt=DT,
            )
            _, pred = predict_one_step(bumped, data)
            assert np.sum((target - pred) ** 2) >= base_sse - 1e-12


def _lstsq_fit(phi, target):
    """A candidate's own least-squares solve: its coefficients, its training
    residual norm, and whether the per-candidate fit rejects it."""
    theta, _, rank, _ = np.linalg.lstsq(phi, target, rcond=None)
    resid = np.linalg.norm(phi @ theta - target)
    rejected = rank < phi.shape[1] and resid > 1e-8 * max(np.linalg.norm(target), 1.0)
    return theta, resid, rejected


def _theta(model, c):
    return np.concatenate([model.a_coeffs[c], model.b_coeffs[c].reshape(-1)])


@pytest.fixture(scope="module")
def grid_fits(grid_train):
    holdout = reference_dataset(n_samples=600, seed=36)
    return {rec["orders"]: rec["model"] for rec in order_sweep(grid_train, holdout, *GRID)}


def test_grid_fit_matches_lstsq_on_each_candidate_regressor(grid_train, grid_fits):
    y, u = grid_train.outputs, grid_train.inputs
    assert len(grid_fits) == 48 and None not in grid_fits.values()
    for (na, nb, nk), model in grid_fits.items():
        for c in range(3):
            phi, target, _ = telekf.sysid._regressor(y[:, c], u, na, nb, nk)
            want, want_resid, _ = _lstsq_fit(phi, target)
            got = _theta(model, c)
            assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want), model.label
            assert np.linalg.norm(phi @ got - target) <= want_resid * (1 + 1e-12), model.label


def test_fit_of_one_candidate_matches_its_grid_fit(grid_train, grid_fits):
    for orders, model in grid_fits.items():
        alone = arx_fit(grid_train, orders)
        for c in range(3):
            want = _theta(model, c)
            assert np.linalg.norm(_theta(alone, c) - want) <= 1e-9 * np.linalg.norm(want), model.label


def test_grid_fit_rejects_the_candidates_a_per_candidate_fit_rejects():
    rng = np.random.default_rng(37)
    n = 400
    data = TrajectorySet(
        dt=DT,
        inputs=np.column_stack([np.ones(n), rng.standard_normal(n)]),  # u1's lags are collinear
        # channel 0 fits exactly, so channel 1 is the first a rank-deficient candidate fails on
        outputs=np.column_stack([np.zeros(n), rng.standard_normal((n, 2))]),
        input_names=("u1", "u2"),
        output_names=("y1", "y2", "y3"),
    )
    grid = [(na, nb, nk) for na in (0, 1, 2) for nb in (1, 2, 3) for nk in (0, 1, 2)]
    fits = telekf.sysid._fit_grid(data, grid)
    rejected = []
    for orders, fit in zip(grid, fits):
        want = []  # per channel: does the candidate's own lstsq reject it?
        for c in range(3):
            phi, target, _ = telekf.sysid._regressor(data.outputs[:, c], data.inputs, *orders)
            want.append(_lstsq_fit(phi, target)[2])
        assert not want[0] and want[1] == want[2]
        if want[1]:
            assert isinstance(fit, IllConditionedDataError), orders
            assert str(fit).startswith("regressor for output channel 1 is rank deficient")
            assert float(re.search(r"condition (\S+)\)", str(fit)).group(1)) > 1e6
            rejected.append(orders)
        else:
            assert isinstance(fit, ArxModel), orders
    assert rejected and len(rejected) < len(grid)


# ---------------------------------------------------------------------------
# simulate_arx


def test_simulate_pure_delay():
    model = ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[0.0]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    u = np.arange(1.0, 7.0).reshape(-1, 1)
    y = simulate_arx(model, u)
    np.testing.assert_array_equal(y.ravel(), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])


def test_simulate_ar_decay_with_zero_input_gain():
    # an input impulse sets y[1] = 8; the input is zero after it, and the
    # output decays by a
    model = ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[0.5]], b_coeffs=[[[8.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    u = np.zeros((7, 1))
    u[0] = 1.0
    y = simulate_arx(model, u)
    np.testing.assert_allclose(y.ravel(), [0.0, 8.0, 4.0, 2.0, 1.0, 0.5, 0.25])


def test_simulate_matches_one_step_predictor_when_na_zero():
    model = ArxModel(
        na=0, nb=2, nk=1, a_coeffs=np.zeros((1, 0)), b_coeffs=[[[0.7, -0.2]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    rng = np.random.default_rng(10)
    u = rng.standard_normal((50, 1))
    y = simulate_arx(model, u)
    data = TrajectorySet(
        dt=DT, inputs=u, outputs=y, input_names=("u1",), output_names=("y1",)
    )
    t0, preds = predict_one_step(model, data)
    np.testing.assert_allclose(y[t0:], preds, atol=1e-12)


def _simulate_per_step(model, u, y_init, u_init, noise):
    """The difference equation, one step, one channel and one term at a time."""
    na, nb, nk = model.na, model.nb, model.nk
    steps, p = u.shape[0], model.n_outputs
    hu = nb + nk - 1
    u_all = np.vstack([u_init[u_init.shape[0] - hu:], u])
    y_all = np.vstack([y_init[y_init.shape[0] - na:], np.zeros((steps, p))])
    for t in range(steps):
        for c in range(p):
            acc = 0.0
            for j in range(model.n_inputs):
                for lag in range(nb):
                    acc += model.b_coeffs[c, j, lag] * u_all[hu + t - nk - lag, j]
            for i in range(na):
                acc += model.a_coeffs[c, i] * y_all[na + t - 1 - i, c]
            y_all[na + t, c] = acc + noise[t, c]
    return y_all[na:]


def test_simulate_matches_per_step_difference_equation():
    rng = np.random.default_rng(14)
    for na in range(5):
        for nb in range(1, 5):
            for nk in range(3):
                p, m = (int(v) for v in rng.integers(1, 4, size=2))
                model = random_stable_arx(
                    na, nb, nk, n_outputs=p, n_inputs=m, seed=int(rng.integers(1 << 30)),
                    pole_radius=0.95,
                )
                u = rng.standard_normal((150, m))
                y_init = rng.standard_normal((na + 2, p))
                u_init = rng.standard_normal((nb + nk + 2, m))
                y_hist, u_hist = y_init[2:], u_init[3:]  # the na and nb + nk - 1 rows it reads
                noise = 0.1 * rng.standard_normal((150, p))
                for eq_noise in (None, noise):
                    got = _simulate(model, u, y_hist, u_hist, eq_noise)
                    want = _simulate_per_step(
                        model, u, y_init, u_init, np.zeros((150, p)) if eq_noise is None else noise
                    )
                    assert got.shape == (150, p)
                    peak = np.abs(want).max(axis=0)
                    assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * peak), model.label
                assert _simulate(model, u[:0], y_hist, u_hist, None).shape == (0, p)


def test_simulate_diverging_model_turns_nonfinite_at_the_reference_step():
    # roots 3 and 0.5: the output overflows to inf, then inf - inf is NaN
    model = ArxModel(
        na=2, nb=1, nk=1, a_coeffs=[[3.5, -1.5]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    u = np.ones((800, 1))
    zeros = np.zeros((800, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _simulate_per_step(model, u, np.zeros((2, 1)), np.zeros((1, 1)), zeros)
    got = simulate_arx(model, u)
    first_bad = int(np.argmax(~np.isfinite(want[:, 0])))
    assert 0 < first_bad
    np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.abs(want[finite]))


# ---------------------------------------------------------------------------
# arx_to_ss


def test_realization_first_order_canonical_matrices():
    sm = arx_to_ss(known_111(), q=0.0, r=[1.0])
    np.testing.assert_array_equal(sm.a, [[0.5]])
    np.testing.assert_array_equal(sm.b, [[1.0]])
    np.testing.assert_array_equal(sm.h, [[1.0]])


def test_realization_impulse_response_matches_difference_equation():
    model = known_111()
    sm = arx_to_ss(model, q=0.0, r=[1.0])
    u = np.zeros((50, 1))
    u[0] = 1.0
    y_arx = simulate_arx(model, u)
    x = np.zeros(sm.n_states)
    y_ss = np.empty((50, 1))
    for t in range(50):
        y_ss[t] = sm.h @ x
        x = sm.a @ x + sm.b @ u[t]
    np.testing.assert_allclose(y_ss, y_arx, atol=1e-12)
    # geometric decay 1, 0.5, 0.25 ... starting one sample after the impulse
    np.testing.assert_allclose(y_arx[1:6, 0], [1.0, 0.5, 0.25, 0.125, 0.0625], atol=1e-12)


def test_realization_rejects_static_and_feedthrough_structures():
    static = ArxModel(
        na=0, nb=1, nk=1, a_coeffs=np.zeros((1, 0)), b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    with pytest.raises(UnsupportedStructureError, match="na=0"):
        arx_to_ss(static, q=0.0, r=[1.0])
    feedthrough = ArxModel(
        na=1, nb=1, nk=0, a_coeffs=[[0.5]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    with pytest.raises(UnsupportedStructureError, match="nk=0"):
        arx_to_ss(feedthrough, q=0.0, r=[1.0])


def test_realization_equivalence_on_random_stable_models():
    rng = np.random.default_rng(11)
    for i in range(30):
        na = int(rng.integers(1, 4))
        nb = int(rng.integers(1, 4))
        nk = int(rng.integers(1, 3))
        p = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        model = random_stable_arx(na, nb, nk, n_outputs=p, n_inputs=m, seed=1000 + i)
        u = rng.standard_normal((200, m))
        y_arx = simulate_arx(model, u)
        sm = arx_to_ss(model, q=0.0, r=np.ones(p))
        x = np.zeros(sm.n_states)
        y_ss = np.empty((200, p))
        for t in range(200):
            y_ss[t] = sm.h @ x
            x = sm.a @ x + sm.b @ u[t]
        assert np.abs(y_ss - y_arx).max() < 1e-10


def test_realization_block_dimensions_and_noise_shapes():
    model = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=12)
    sm = arx_to_ss(model, q=0.5, r=np.array([1.0, 2.0, 3.0]))
    assert sm.n_states == 6
    assert sm.h.shape == (3, 6)
    np.testing.assert_array_equal(sm.q_diag, np.full(6, 0.5))
    np.testing.assert_array_equal(sm.r_diag, [1.0, 2.0, 3.0])
    with pytest.raises(ContractViolationError, match=re.escape("q_diag must be in [0, inf), got -0.5")):
        arx_to_ss(model, q=-0.5, r=np.ones(3))


def test_realization_rejects_r_of_another_length():
    model = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=12)
    for r in (2.0, np.ones(4), np.eye(3)):
        with pytest.raises(ContractViolationError, match=re.escape(
            f"r_diag must hold 3 variances, got shape {np.shape(r)}"
        )):
            arx_to_ss(model, q=0.0, r=r)


def test_stability_flag():
    assert known_221().stable
    unstable = ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[1.1]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    assert not unstable.stable


# ---------------------------------------------------------------------------
# order sweep: holdout validation


def test_order_sweep_self_consistency_on_clean_data():
    truth = known_221()
    data = synth(truth, 1000, seed=13)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a holdout from the training trial draws no warning
        records = order_sweep(data, data, na_values=(2,), nb_values=(2,), nk_values=(1,))
    assert records[0]["report"].fit_percent[0] >= 99.99


def test_order_sweep_constant_channel_reports_nan_sentinel():
    generator = random_stable_arx(1, 1, 1, n_outputs=2, n_inputs=1, seed=14)
    train = synth(generator, 300, seed=14)
    rng = np.random.default_rng(15)
    holdout = TrajectorySet(
        dt=DT,
        inputs=rng.standard_normal((200, 1)),
        outputs=np.column_stack([rng.standard_normal(200), np.full(200, 2.5)]),
        input_names=("u1",),
        output_names=("y1", "y2"),
    )
    [rec] = order_sweep(train, holdout, na_values=(1,), nb_values=(1,), nk_values=(1,))
    assert np.isnan(rec["report"].fit_percent[1])
    assert np.isfinite(rec["report"].fit_percent[0])


def test_order_sweep_records_a_holdout_channel_mismatch():
    train = synth(known_111(), 300, seed=16)
    holdout = synth(random_stable_arx(1, 1, 1, n_outputs=2, n_inputs=1, seed=16), 300, seed=17)
    [rec] = order_sweep(train, holdout, na_values=(1,), nb_values=(1,), nk_values=(1,))
    assert rec["model"] is not None and rec["report"] is None
    assert rec["error"] == "holdout has 1 inputs / 2 outputs, model expects 1 / 1"


def test_order_sweep_prefers_true_orders():
    truth = known_221()
    train = synth(truth, 1200, seed=19, meas_noise=0.01)
    holdout = synth(truth, 1200, seed=20, meas_noise=0.01)
    records = order_sweep(
        train, holdout, na_values=(1, 2), nb_values=(1, 2), nk_values=(1,)
    )
    best = records[0]
    assert best["orders"] == (2, 2, 1)
    assert best["report"].aggregate >= 95.0
    low = next(r for r in records if r["orders"] == (1, 1, 1))
    assert best["report"].aggregate > low["report"].aggregate


def _assert_reports_match_one_at_a_time(records, holdout):
    """Every report equals the free run + fit_percent + mse of its candidate
    alone, seeded with the holdout before its max lag, bit for bit (NaN and
    inf with their signs)."""
    u, y = holdout.inputs, holdout.outputs
    scored = [rec for rec in records if rec["report"] is not None]
    for rec in scored:
        model = rec["model"]
        lag, hu = model.max_lag, model.nb + model.nk - 1
        with np.errstate(over="ignore", invalid="ignore"):
            y_sim = _simulate(model, u[lag:], y[lag - model.na : lag], u[lag - hu : lag], None)
            want_fit, want_mse = fit_percent(y[lag:], y_sim), mse(y[lag:], y_sim)
        assert rec["report"].fit_percent.tobytes() == want_fit.tobytes(), model.label
        assert rec["report"].mse.tobytes() == want_mse.tobytes(), model.label
        assert rec["report"].model_label == model.label
    return scored


@pytest.fixture(scope="module")
def grid_train():
    return reference_dataset(n_samples=1500, seed=31)


@pytest.mark.parametrize(
    "n_holdout, n_inputs, na_values, nk_values",
    [
        # 514 and 1026 leave a one-row tail after 512-step chunks from t = 1
        pytest.param(514, 2, GRID[0], (0, 1, 2), id="514"),
        pytest.param(1026, 2, GRID[0], (0, 1, 2), id="1026"),
        pytest.param(1537, 2, GRID[0], (0, 1, 2), id="1537"),
        # the input product's block interleaves zeros per input and delay
        pytest.param(600, 1, GRID[0], (0, 1, 2, 3), id="600-1-input-nk-to-3"),
        pytest.param(600, 3, GRID[0], (0, 1, 2, 3), id="600-3-inputs-nk-to-3"),
        # ragged lags: na = 0 columns sum no output term, and over 1026
        # steps a diverging na = 1 column's history reaches inf, which its
        # lags 2 and 3 must skip (0 * inf is NaN)
        pytest.param(514, 2, (0, 1, 3), (0, 1, 2), id="514-na-0-1-3"),
        pytest.param(1026, 2, (0, 1, 3), (0, 1, 2), id="1026-na-0-1-3"),
    ],
)
def test_order_sweep_reports_equal_one_candidate_at_a_time(n_holdout, n_inputs, na_values, nk_values):
    train = reference_dataset(n_samples=1500, seed=31, n_inputs=n_inputs)
    holdout = reference_dataset(n_samples=n_holdout, seed=32, n_inputs=n_inputs)
    records = order_sweep(train, holdout, na_values, GRID[1], nk_values)
    scored = _assert_reports_match_one_at_a_time(records, holdout)
    assert len(scored) == len(na_values) * len(GRID[1]) * len(nk_values)
    assert any(not np.isfinite(rec["report"].aggregate) for rec in scored)


@pytest.mark.parametrize("chunk", [2, 3, 7])
def test_order_sweep_reports_do_not_depend_on_the_chunk(grid_train, chunk, monkeypatch):
    holdout = reference_dataset(n_samples=600, seed=33)
    monkeypatch.setattr(telekf.sysid, "CHUNK", chunk)
    records = order_sweep(grid_train, holdout, *GRID)
    scored = _assert_reports_match_one_at_a_time(records, holdout)
    assert len(scored) == 48
    assert any(not np.isfinite(rec["report"].aggregate) for rec in scored)


def test_order_sweep_scores_a_holdout_too_short_for_some_orders(grid_train):
    full = reference_dataset(n_samples=50, seed=34)
    holdout = dataclasses.replace(full, inputs=full.inputs[:6], outputs=full.outputs[:6])
    records = order_sweep(grid_train, holdout, *GRID)
    short = [rec for rec in records if rec["report"] is None]
    assert sorted(rec["orders"] for rec in short) == [(na, 4, 2) for na in (1, 2, 3, 4)]
    assert {rec["error"] for rec in short} == {"holdout needs more than 6 samples, got 6"}
    assert all(rec["model"] is not None for rec in short)
    assert len(_assert_reports_match_one_at_a_time(records, holdout)) == 44


def test_order_sweep_diverging_candidate_emits_no_runtime_warning(grid_train):
    holdout = reference_dataset(n_samples=600, seed=35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = order_sweep(grid_train, holdout, *GRID)
    diverged = [rec for rec in records if not np.isfinite(rec["report"].aggregate)]
    assert [rec["orders"] for rec in diverged] == [(1, 1, 2)]


# ---------------------------------------------------------------------------
# residual noise and serialization


def test_residual_covariances_match_injected_noise():
    truth = known_111()
    data = synth(truth, 20000, seed=21, meas_noise=0.05)
    fit = arx_fit(data, (1, 1, 1))
    q, r_diag = residual_covariances(fit, data)
    # one-step residual variance of an output-noise ARX: roughly (1 + a^2) sigma^2
    expected = (1 + 0.25) * 0.05**2
    assert q == pytest.approx(expected, rel=0.15)
    assert r_diag[0] == pytest.approx(expected, rel=0.15)


def test_residual_covariances_return_one_variance_and_one_per_channel():
    data = reference_dataset(n_samples=400, seed=23)
    q, r_diag = residual_covariances(arx_fit(data, (2, 2, 1)), data)
    assert type(q) is float
    assert isinstance(r_diag, np.ndarray) and r_diag.shape == (3,)


def test_model_file_round_trip_is_lossless(tmp_path):
    data = reference_dataset(n_samples=800, seed=22)
    [rec] = order_sweep(data, data, na_values=(2,), nb_values=(2,), nk_values=(1,))
    model, report = rec["model"], rec["report"]
    q, r_diag = residual_covariances(model, data)
    path = tmp_path / "model.json"
    save_model(
        model,
        path,
        input_names=data.input_names,
        output_names=data.output_names,
        fit=report,
        noise=(q, r_diag),
    )
    loaded, meta = load_model(path)
    np.testing.assert_array_equal(loaded.a_coeffs, model.a_coeffs)
    np.testing.assert_array_equal(loaded.b_coeffs, model.b_coeffs)
    assert loaded.dt == model.dt
    assert (loaded.na, loaded.nb, loaded.nk) == (2, 2, 1)
    assert meta["input_names"] == list(data.input_names)
    assert meta["noise"]["q"] == q
    np.testing.assert_array_equal(meta["noise"]["r_diag"], r_diag)


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    good = json.loads((Path(__file__).parent / "data" / "golden" / "model.json").read_text())
    noise = {"q": 0.1, "r_diag": [0.1, 0.1, 0.1]}
    cases = [
        ({"format": "something-else"}, "format"),
        ([1], "must hold a JSON object"),
        ({"format": "telekf-arx", "version": 1, "na": 2}, "lacks nb, nk, a_coeffs"),
        # every key present, one of the wrong type or shape
        ({**good, "na": "x"}, 'na: expected a non-negative integer, got "x"'),
        ({**good, "na": 2.5}, "na: expected a non-negative integer, got 2.5"),
        ({**good, "nb": True}, "nb: expected a non-negative integer, got true"),
        # an integer out of the model's range, named with the file
        ({**good, "nb": 0}, "nb must be in [1, inf), got 0"),
        ({**good, "na": -1}, "na must be in [0, inf), got -1"),
        ({**good, "n_outputs": 0}, "n_outputs must be in [1, inf), got 0"),
        ({**good, "dt": 0}, "dt must be positive and finite, got 0.0"),
        ({**good, "dt": 10**400}, "dt must be positive and finite, got an integer too large for a float"),
        ({**good, "dt": "x"}, 'dt: expected a number, got "x"'),
        ({**good, "a_coeffs": "x"}, 'a_coeffs: expected 3 x 3 nested lists of numbers, got "x"'),
        ({**good, "a_coeffs": good["a_coeffs"][:2]}, "a_coeffs: expected 3 x 3 nested lists of numbers"),
        ({**good, "b_coeffs": [[[1.0]]]}, "b_coeffs: expected 3 x 2 x 2 nested lists of numbers"),
        # a coefficient that is not finite, or too large for a float
        ({**good, "a_coeffs": [[*good["a_coeffs"][0][:2], float("inf")], *good["a_coeffs"][1:]]},
         "a_coeffs must be finite, got inf"),
        ({**good, "b_coeffs": [*good["b_coeffs"][:2], [[float("nan"), 0.0], [0.0, 0.0]]]},
         "b_coeffs must be finite, got nan"),
        ({**good, "a_coeffs": [*good["a_coeffs"][:2], [0.0, 10**400, 0.0]]},
         "a_coeffs must be finite, got an integer too large for a float"),
        # the noise is required
        ({key: value for key, value in good.items() if key != "noise"}, "model file lacks noise"),
        ({**good, "noise": None}, "noise: expected an object, got null"),
        ({**good, "noise": {"r_diag": noise["r_diag"]}}, "noise: q: expected a number, got null"),
        ({**good, "noise": [1]}, "noise: expected an object, got [1]"),
        ({**good, "noise": {**noise, "q": "x"}}, 'noise: q: expected a number, got "x"'),
        ({**good, "noise": {**noise, "r_diag": [0.1]}}, "noise: r_diag: expected a list of 3 numbers, got [0.1]"),
        # a variance out of its range, or too large for a float
        ({**good, "noise": {**noise, "q": -1}}, "noise: q must be in [0, inf), got -1"),
        ({**good, "noise": {**noise, "q": 10**400}}, "noise: q must be in [0, inf), got an integer too large"),
        ({**good, "noise": {**noise, "r_diag": [0.1, float("nan"), 0.1]}}, "noise: r_diag must be in [0, inf), got nan"),
    ]
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolationError, match=re.escape(message)) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
    # the golden file itself, and with other noise, loads
    for doc in (good, {**good, "noise": noise}):
        path.write_text(json.dumps(doc))
        load_model(path)
