import dataclasses
import json
import warnings

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
    arx_fit,
    arx_to_ss,
    cross_validate,
    load_model,
    order_sweep,
    predict_one_step,
    residual_covariances,
    save_model,
    simulate_arx,
)

DT = 1.0 / 30.0


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
    assert info.value.condition > 1e6


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
    model = ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[0.5]], b_coeffs=[[[0.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    y = simulate_arx(model, np.ones((5, 1)), y_init=[[8.0]])
    np.testing.assert_allclose(y.ravel(), [4.0, 2.0, 1.0, 0.5, 0.25])


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


def test_simulate_requires_enough_history():
    with pytest.raises(ContractViolationError, match="y_init"):
        simulate_arx(known_221(), np.ones((5, 1)), y_init=np.ones((1, 1)))
    with pytest.raises(ContractViolationError, match="u_init must have 1 channels"):
        simulate_arx(known_221(), np.ones((5, 1)), u_init=np.ones((3, 2)))


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
                noise = 0.1 * rng.standard_normal((150, p))
                for eq_noise in (None, noise):
                    got = simulate_arx(model, u, y_init=y_init, u_init=u_init, noise=eq_noise)
                    want = _simulate_per_step(
                        model, u, y_init, u_init, np.zeros((150, p)) if eq_noise is None else noise
                    )
                    assert got.shape == (150, p)
                    peak = np.abs(want).max(axis=0)
                    assert np.all(np.abs(got - want).max(axis=0) <= 1e-12 * peak), model.label
                assert simulate_arx(model, u[:0], y_init=y_init, u_init=u_init).shape == (0, p)


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
    sm = arx_to_ss(known_111())
    np.testing.assert_array_equal(sm.a, [[0.5]])
    np.testing.assert_array_equal(sm.b, [[1.0]])
    np.testing.assert_array_equal(sm.h, [[1.0]])


def test_realization_impulse_response_matches_difference_equation():
    model = known_111()
    sm = arx_to_ss(model)
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
        arx_to_ss(static)
    feedthrough = ArxModel(
        na=1, nb=1, nk=0, a_coeffs=[[0.5]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    with pytest.raises(UnsupportedStructureError, match="nk=0"):
        arx_to_ss(feedthrough)


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
        sm = arx_to_ss(model)
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
    np.testing.assert_array_equal(sm.q, 0.5 * np.eye(6))
    np.testing.assert_array_equal(sm.r, np.diag([1.0, 2.0, 3.0]))


def test_stability_flag():
    assert known_221().stable
    unstable = ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[1.1]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    assert not unstable.stable


# ---------------------------------------------------------------------------
# cross-validation and order sweep


def test_cross_validate_self_consistency_on_clean_data():
    truth = known_221()
    data = synth(truth, 1000, seed=13)
    fit = arx_fit(data, (2, 2, 1))
    with pytest.warns(UserWarning):
        report = cross_validate(fit, data)
    assert report.fit_percent[0] >= 99.99


def test_cross_validate_constant_channel_reports_nan_sentinel():
    model = random_stable_arx(1, 1, 1, n_outputs=2, n_inputs=1, seed=14)
    rng = np.random.default_rng(15)
    holdout = TrajectorySet(
        dt=DT,
        inputs=rng.standard_normal((200, 1)),
        outputs=np.column_stack([rng.standard_normal(200), np.full(200, 2.5)]),
        input_names=("u1",),
        output_names=("y1", "y2"),
    )
    report = cross_validate(model, holdout)
    assert np.isnan(report.fit_percent[1])
    assert np.isfinite(report.fit_percent[0])


def test_cross_validate_channel_mismatch():
    model = known_111()
    data = synth(random_stable_arx(1, 1, 1, n_outputs=2, n_inputs=1, seed=16), 300, seed=17)
    with pytest.raises(ContractViolationError, match="outputs"):
        cross_validate(model, data)


def test_cross_validate_warns_on_same_trial():
    truth = known_111()
    data = synth(truth, 400, seed=18)
    fit = arx_fit(data, (1, 1, 1))
    with pytest.warns(UserWarning, match="matches the training trial"):
        cross_validate(fit, data)


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
    """Every report equals simulate_arx + fit_percent + mse of its candidate
    alone, bit for bit (NaN and inf with their signs)."""
    u, y = holdout.inputs, holdout.outputs
    scored = [rec for rec in records if rec["report"] is not None]
    for rec in scored:
        model = rec["model"]
        lag = model.max_lag
        with np.errstate(over="ignore", invalid="ignore"):
            y_sim = simulate_arx(model, u[lag:], y_init=y[:lag], u_init=u[:lag])
            want_fit, want_mse = fit_percent(y[lag:], y_sim), mse(y[lag:], y_sim)
        assert rec["report"].fit_percent.tobytes() == want_fit.tobytes(), model.label
        assert rec["report"].mse.tobytes() == want_mse.tobytes(), model.label
        assert rec["report"].model_label == model.label
    return scored


@pytest.fixture(scope="module")
def grid_train():
    return reference_dataset(n_samples=1500, seed=31)


@pytest.mark.parametrize("n_holdout", [514, 1026, 1537])
def test_order_sweep_reports_equal_one_candidate_at_a_time(grid_train, n_holdout):
    # 514 and 1026 leave a one-row tail after 512-step chunks from t = 1
    holdout = reference_dataset(n_samples=n_holdout, seed=32)
    records = order_sweep(grid_train, holdout)
    scored = _assert_reports_match_one_at_a_time(records, holdout)
    assert len(scored) == 48
    assert any(not np.isfinite(rec["report"].aggregate) for rec in scored)


@pytest.mark.parametrize("chunk", [2, 3, 7])
def test_order_sweep_reports_do_not_depend_on_the_chunk(grid_train, chunk, monkeypatch):
    holdout = reference_dataset(n_samples=600, seed=33)
    monkeypatch.setattr(telekf.sysid, "CHUNK", chunk)
    records = order_sweep(grid_train, holdout)
    scored = _assert_reports_match_one_at_a_time(records, holdout)
    assert len(scored) == 48
    assert any(not np.isfinite(rec["report"].aggregate) for rec in scored)


def test_order_sweep_scores_a_holdout_too_short_for_some_orders(grid_train):
    full = reference_dataset(n_samples=50, seed=34)
    holdout = dataclasses.replace(full, inputs=full.inputs[:6], outputs=full.outputs[:6])
    records = order_sweep(grid_train, holdout)
    short = [rec for rec in records if rec["report"] is None]
    assert sorted(rec["orders"] for rec in short) == [(na, 4, 2) for na in (1, 2, 3, 4)]
    assert {rec["error"] for rec in short} == {"holdout needs more than 6 samples, got 6"}
    assert all(rec["model"] is not None for rec in short)
    assert len(_assert_reports_match_one_at_a_time(records, holdout)) == 44


def test_order_sweep_diverging_candidate_emits_no_runtime_warning(grid_train):
    holdout = reference_dataset(n_samples=600, seed=35)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = order_sweep(grid_train, holdout)
    diverged = [rec for rec in records if not np.isfinite(rec["report"].aggregate)]
    assert [rec["orders"] for rec in diverged] == [(1, 1, 2)]


def test_cross_validate_is_the_sweep_of_one_model(grid_train):
    holdout = reference_dataset(n_samples=400, seed=37)
    records = order_sweep(grid_train, holdout, na_values=(2, 3), nb_values=(2,), nk_values=(1,))
    for rec in records:
        alone = cross_validate(rec["model"], holdout)
        assert alone.fit_percent.tobytes() == rec["report"].fit_percent.tobytes()
        assert alone.mse.tobytes() == rec["report"].mse.tobytes()


# ---------------------------------------------------------------------------
# residual noise and serialization


def test_residual_covariances_match_injected_noise():
    truth = known_111()
    data = synth(truth, 20000, seed=21, meas_noise=0.05)
    fit = arx_fit(data, (1, 1, 1))
    q_mat, r_mat = residual_covariances(fit, data)
    # one-step residual variance of an output-noise ARX: roughly (1 + a^2) sigma^2
    expected = (1 + 0.25) * 0.05**2
    assert q_mat[0, 0] == pytest.approx(expected, rel=0.15)
    assert r_mat[0, 0] == pytest.approx(expected, rel=0.15)


def test_model_file_round_trip_is_lossless(tmp_path):
    data = reference_dataset(n_samples=800, seed=22)
    model = arx_fit(data, (2, 2, 1))
    q_mat, r_mat = residual_covariances(model, data)
    with pytest.warns(UserWarning):
        report = cross_validate(model, data)
    path = tmp_path / "model.json"
    save_model(
        model,
        path,
        input_names=data.input_names,
        output_names=data.output_names,
        fit=report,
        noise=(float(q_mat[0, 0]), np.diag(r_mat)),
    )
    loaded, meta = load_model(path)
    np.testing.assert_array_equal(loaded.a_coeffs, model.a_coeffs)
    np.testing.assert_array_equal(loaded.b_coeffs, model.b_coeffs)
    assert loaded.dt == model.dt
    assert (loaded.na, loaded.nb, loaded.nk) == (2, 2, 1)
    assert meta["input_names"] == list(data.input_names)
    assert meta["noise"]["q"] == float(q_mat[0, 0])
    np.testing.assert_array_equal(meta["noise"]["r_diag"], np.diag(r_mat))


def test_load_model_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    cases = [
        ({"format": "something-else"}, "format"),
        ([1], "must hold a JSON object"),
        ({"format": "telekf-arx", "version": 1, "na": 2}, "lacks nb, nk, a_coeffs"),
    ]
    for doc, message in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ContractViolationError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")
