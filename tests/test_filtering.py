import numpy as np
import pytest

from conftest import (
    exact_lti,
    hygiene_of_covs,
    identified_system,
    max_rel_diff,
    random_spd,
    reference_dataset,
)
from telekf import filtering
from telekf.errors import ContractViolationError, SingularInnovationError
from telekf.filtering import (
    StateEstimate,
    SystemModel,
    initial_estimate,
    predict,
    run_filter_trace,
    update_joint,
    update_sequential,
)

DT = 1.0 / 30.0


def scalar_model(a=1.0, b=0.0, h=1.0, q=0.0, r=1.0):
    return SystemModel(a=[[a]], b=[[b]], h=[[h]], q=[[q]], r=[[r]], dt=DT)


# ---------------------------------------------------------------------------
# predict


def test_predict_identity_dynamics():
    model = SystemModel(
        a=np.eye(2), b=np.zeros((2, 1)), h=np.eye(2), q=np.zeros((2, 2)), r=np.eye(2), dt=DT
    )
    est = StateEstimate([1.0, 2.0], np.eye(2))
    out = predict(est, model, [0.0])
    np.testing.assert_array_equal(out.x_hat, [1.0, 2.0])
    np.testing.assert_array_equal(out.p, np.eye(2))


def test_predict_constant_velocity_exact():
    dt = 0.1
    model = SystemModel(
        a=[[1.0, dt], [0.0, 1.0]],
        b=np.zeros((2, 1)),
        h=np.eye(2),
        q=np.zeros((2, 2)),
        r=np.eye(2),
        dt=dt,
    )
    est = StateEstimate([0.0, 1.0], np.zeros((2, 2)))
    out = predict(est, model, [0.0])
    np.testing.assert_allclose(out.x_hat, [0.1, 1.0], rtol=0, atol=0)
    np.testing.assert_array_equal(out.p, np.zeros((2, 2)))


def test_predict_scalar_hand_arithmetic():
    # independent scalar oracle: x = 0.9*2 + 0.5*1 = 2.3, p = 0.81 + 0.04 = 0.85
    model = scalar_model(a=0.9, b=0.5, q=0.04)
    out = predict(StateEstimate([2.0], [[1.0]]), model, [1.0])
    np.testing.assert_allclose(out.x_hat, [2.3], atol=1e-15)
    np.testing.assert_allclose(out.p, [[0.85]], atol=1e-15)


def test_predict_dimension_errors_name_offender():
    model = scalar_model()
    with pytest.raises(ContractViolationError, match="control vector has length 2"):
        predict(StateEstimate([0.0], [[1.0]]), model, [0.0, 1.0])
    with pytest.raises(ContractViolationError, match="2 states"):
        predict(StateEstimate([0.0, 0.0], np.eye(2)), model, [0.0])


# ---------------------------------------------------------------------------
# update_joint


def test_update_joint_perfect_sensor_limit():
    rng = np.random.default_rng(0)
    model = SystemModel(
        a=np.eye(3),
        b=np.zeros((3, 1)),
        h=np.eye(3),
        q=np.zeros((3, 3)),
        r=1e-12 * np.eye(3),
        dt=DT,
    )
    est = StateEstimate(rng.standard_normal(3), np.eye(3))
    z = rng.standard_normal(3)
    out = update_joint(est, model, z)
    np.testing.assert_allclose(out.x_hat, z, atol=1e-6)


def test_update_joint_equal_weight_fusion():
    model = scalar_model(q=0.0, r=1.0)
    out = update_joint(StateEstimate([0.0], [[1.0]]), model, [2.0])
    np.testing.assert_allclose(out.x_hat, [1.0], atol=1e-15)
    np.testing.assert_allclose(out.p, [[0.5]], atol=1e-15)


def singular_cases():
    """(estimate, model) pairs of finite values whose innovation variance is
    zero, infinite (h p h' overflows) and NaN (an overflow times zero)."""
    nan_model = SystemModel(
        a=np.eye(2), b=np.zeros((2, 1)), h=[[1e10, 0.0]], q=np.zeros((2, 2)), r=[[1.0]], dt=DT
    )
    return [
        (StateEstimate([0.0], [[0.0]]), scalar_model(r=0.0)),
        (StateEstimate([0.0], [[1e300]]), scalar_model(h=1e10)),
        (StateEstimate([0.0, 0.0], [[1e300, -1e300], [-1e300, 1e300]]), nan_model),
    ]


def test_update_joint_singular_innovation():
    for est, model in singular_cases():
        with pytest.raises(SingularInnovationError) as info, np.errstate(over="ignore", invalid="ignore"):
            update_joint(est, model, [1.0])
        assert info.value.condition == pytest.approx(float("inf"), nan_ok=True) or info.value.condition > 1e12


def test_update_joint_measurement_length_error():
    model = scalar_model()
    with pytest.raises(ContractViolationError, match="measurement has length 2"):
        update_joint(StateEstimate([0.0], [[1.0]]), model, [1.0, 2.0])


def test_scalar_riccati_steady_state():
    # analytic prior fixed point: (q + sqrt(q^2 + 4 q r)) / 2 ~= 0.10512 for q=0.01, r=1
    q, r = 0.01, 1.0
    model = scalar_model(q=q, r=r)
    est = StateEstimate([0.0], [[1.0]])
    prior_p = None
    for _ in range(2000):
        pri = predict(est, model, [0.0])
        prior_p = pri.p[0, 0]
        est = update_joint(pri, model, [0.0])
    expected_prior = (q + np.sqrt(q * q + 4 * q * r)) / 2
    assert abs(prior_p - expected_prior) < 1e-12
    assert abs(prior_p - 0.105124921973) < 1e-9


# ---------------------------------------------------------------------------
# update_sequential


def test_sequential_single_row_equals_joint():
    model = scalar_model(q=0.02, r=0.5)
    est = StateEstimate([1.5], [[2.0]])
    joint = update_joint(est, model, [0.3])
    seq = update_sequential(est, model, [0.3])
    np.testing.assert_allclose(seq.x_hat, joint.x_hat, rtol=1e-12)
    np.testing.assert_allclose(seq.p, joint.p, rtol=1e-12)


def test_sequential_two_rows_hand_case():
    model = SystemModel(
        a=np.eye(2), b=np.zeros((2, 1)), h=np.eye(2), q=np.zeros((2, 2)), r=np.eye(2), dt=DT
    )
    est = StateEstimate([0.0, 0.0], np.eye(2))
    out = update_sequential(est, model, [2.0, 4.0])
    np.testing.assert_allclose(out.x_hat, [1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(out.p, 0.5 * np.eye(2), atol=1e-15)


def test_sequential_matches_joint_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        model = SystemModel(
            a=np.eye(n),
            b=np.zeros((n, 1)),
            h=rng.standard_normal((p, n)),
            q=np.zeros((n, n)),
            r=np.diag(rng.uniform(0.1, 2.0, p)),
            dt=DT,
        )
        est = StateEstimate(rng.standard_normal(n), random_spd(rng, n))
        z = rng.standard_normal(p)
        joint = update_joint(est, model, z)
        seq = update_sequential(est, model, z)
        assert max_rel_diff(seq.x_hat, joint.x_hat) <= 1e-8
        assert max_rel_diff(seq.p, joint.p) <= 1e-8


def test_sequential_rejects_nondiagonal_r():
    model = SystemModel(
        a=np.eye(2),
        b=np.zeros((2, 1)),
        h=np.eye(2),
        q=np.zeros((2, 2)),
        r=[[1.0, 0.1], [0.1, 1.0]],
        dt=DT,
    )
    with pytest.raises(ContractViolationError, match="diagonal"):
        update_sequential(StateEstimate([0.0, 0.0], np.eye(2)), model, [1.0, 1.0])


def test_sequential_zero_innovation_variance():
    for est, model in singular_cases():
        with pytest.raises(SingularInnovationError, match="row 0"), np.errstate(over="ignore", invalid="ignore"):
            update_sequential(est, model, [1.0])
        with pytest.raises(SingularInnovationError, match="step 0, measurement row 0"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            run_filter_trace(model, est, [[0.0]], ([[1.0]], [True]))


def test_update_never_increases_trace():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 5))
        model = SystemModel(
            a=np.eye(n),
            b=np.zeros((n, 1)),
            h=rng.standard_normal((p, n)),
            q=np.zeros((n, n)),
            r=np.diag(rng.uniform(0.05, 1.0, p)),
            dt=DT,
        )
        est = StateEstimate(rng.standard_normal(n), random_spd(rng, n))
        out = update_joint(est, model, rng.standard_normal(p))
        assert np.trace(out.p) <= np.trace(est.p) + 1e-12


# ---------------------------------------------------------------------------
# run_filter_trace


def test_run_filter_single_step_without_observation_is_predict():
    model = scalar_model(a=0.9, b=0.5, q=0.04)
    init = StateEstimate([2.0], [[1.0]])
    trace = run_filter_trace(model, init, [[1.0]], ([[0.0]], [False]))
    expected = predict(init, model, [1.0])
    assert trace.x_post.shape == (1, 1)
    np.testing.assert_allclose(trace.x_post[0], expected.x_hat, rtol=1e-15)
    np.testing.assert_allclose(trace.p_post[0], expected.p, rtol=1e-15)


def test_run_filter_tracks_perfect_sensor():
    # q >> r keeps the gain at ~identity, so the estimate pins to each sample
    rng = np.random.default_rng(5)
    n = 3
    model = SystemModel(
        a=0.8 * np.eye(n),
        b=np.zeros((n, 1)),
        h=np.eye(n),
        q=np.eye(n),
        r=1e-12 * np.eye(n),
        dt=DT,
    )
    z = rng.standard_normal((50, n))
    trace = run_filter_trace(
        model,
        StateEstimate(np.zeros(n), np.eye(n)),
        np.zeros((50, 1)),
        (z, np.ones(50, dtype=bool)),
    )
    np.testing.assert_allclose(trace.x_post[1:], z[1:], atol=1e-6)


def test_step_api_matches_batch_trace_bit_for_bit():
    data = reference_dataset(600)
    model = identified_system(data)
    est = initial_estimate(model, first_obs=data.outputs[0])
    u, z = data.inputs[:-1], data.outputs[1:]
    trace = run_filter_trace(model, est, u, (z, np.ones(len(z), dtype=bool)))
    for t in range(len(z)):
        est = update_sequential(predict(est, model, u[t]), model, z[t])
        np.testing.assert_array_equal(est.x_hat, trace.x_post[t])
        np.testing.assert_array_equal(est.p, trace.p_post[t])


def test_run_filter_length_mismatch():
    model = scalar_model()
    init = StateEstimate([0.0], [[1.0]])
    with pytest.raises(ContractViolationError, match="equal length"):
        run_filter_trace(model, init, [[0.0], [0.0]], ([[0.0]], [False]))


def test_observations_must_be_a_pair_with_a_boolean_mask():
    model = scalar_model()
    init = StateEstimate([0.0], [[1.0]])
    u = [[0.0], [0.0]]
    z = [[1.0], [2.0]]
    for not_a_pair in (z, [[1.0], None], (z,), [z, [True, True]]):
        with pytest.raises(ContractViolationError, match=r"\(z, mask\) pair"):
            run_filter_trace(model, init, u, not_a_pair)
    # a tuple of two observations is a pair whose mask is not boolean
    for mask in ([2.0], [1, 1], np.ones(2)):
        with pytest.raises(ContractViolationError, match="mask must be boolean"):
            run_filter_trace(model, init, u, ([1.0], mask))
    trace = run_filter_trace(model, init, u, (z, np.ones(2, dtype=bool)))
    np.testing.assert_array_equal(trace.has_obs, [True, True])


def test_run_filter_missing_observations_propagate_prediction():
    model = exact_lti(seed=3)
    rng = np.random.default_rng(8)
    steps = 40
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    mask = np.arange(steps) % 3 == 0
    trace = run_filter_trace(model, initial_estimate(model), u, (z, mask))
    skipped = ~trace.has_obs
    np.testing.assert_array_equal(trace.x_post[skipped], trace.x_prior[skipped])
    np.testing.assert_array_equal(trace.p_post[skipped], trace.p_prior[skipped])
    assert (trace.x_post[trace.has_obs] != trace.x_prior[trace.has_obs]).any()


def test_run_filter_covariance_hygiene_on_random_run():
    model = exact_lti(seed=11)
    rng = np.random.default_rng(12)
    steps = 500
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    trace = run_filter_trace(
        model, initial_estimate(model), u, (z, np.ones(steps, dtype=bool))
    )
    for stack in (trace.p_prior, trace.p_post):
        asym, eig_min = hygiene_of_covs(stack)
        assert asym <= 1e-9
        assert eig_min >= -1e-9


def test_initial_estimate_policies():
    model = exact_lti(seed=31)
    est = initial_estimate(model)
    np.testing.assert_array_equal(est.x_hat, np.zeros(model.n_states))
    np.testing.assert_array_equal(est.p, 10.0 * np.eye(model.n_states))

    z0 = np.array([0.4, -1.2])
    est2 = initial_estimate(model, first_obs=z0)
    np.testing.assert_allclose(model.h @ est2.x_hat, z0, atol=1e-9)


# ---------------------------------------------------------------------------
# non-finite inputs


def test_state_estimate_rejects_non_finite_values():
    for bad in (np.nan, np.inf):
        with pytest.raises(ContractViolationError, match="state vector must be finite"):
            StateEstimate([bad], [[1.0]])
        with pytest.raises(ContractViolationError, match="covariance must be finite"):
            StateEstimate([0.0], [[bad]])


def test_non_finite_controls_and_measurements_rejected():
    model = scalar_model(a=0.9, b=0.5, q=0.04)
    est = StateEstimate([0.0], [[1.0]])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ContractViolationError, match="control vector must be finite"):
            predict(est, model, [bad])
        for update in (update_sequential, update_joint):
            with pytest.raises(ContractViolationError, match="measurement must be finite"):
                update(est, model, [bad])
        with pytest.raises(ContractViolationError, match="inputs must be finite"):
            run_filter_trace(model, est, [[0.0], [bad]], ([[1.0], [1.0]], [True, True]))
        with pytest.raises(ContractViolationError, match="observations must be finite"):
            run_filter_trace(model, est, [[0.0], [0.0]], ([[1.0], [bad]], [True, True]))


def test_unobserved_rows_are_never_read():
    model = exact_lti(seed=41)
    rng = np.random.default_rng(42)
    steps = 300
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    mask = rng.random(steps) > 0.3
    junk = z.copy()
    junk[~mask] = np.nan
    junk[np.flatnonzero(~mask)[::2]] = np.inf
    init = initial_estimate(model)
    clean = run_filter_trace(model, init, u, (z, mask))
    dirty = run_filter_trace(model, init, u, (junk, mask))
    np.testing.assert_array_equal(dirty.x_prior, clean.x_prior)
    np.testing.assert_array_equal(dirty.x_post, clean.x_post)


# ---------------------------------------------------------------------------
# the covariance pass shared by run_filter_trace calls


def test_covariances_shared_read_only_and_keyed_on_exact_inputs(monkeypatch):
    monkeypatch.setattr(filtering, "_memo", None)
    model = exact_lti(seed=51)
    rng = np.random.default_rng(52)
    steps = 200
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    mask = np.ones(steps, dtype=bool)
    init = initial_estimate(model)

    first = run_filter_trace(model, init, u, (z, mask))
    other_data = run_filter_trace(model, init, 2.0 * u, (-z, mask))
    assert other_data.p_post is first.p_post and other_data.p_prior is first.p_prior
    with pytest.raises(ValueError, match="read-only"):
        first.p_post[0, 0, 0] = 1.0

    q_ulp = model.q.copy()
    q_ulp[0, 0] = np.nextafter(q_ulp[0, 0], np.inf)
    nudged = SystemModel(a=model.a, b=model.b, h=model.h, q=q_ulp, r=model.r, dt=model.dt)
    fewer = mask.copy()
    fewer[5] = False
    p0_ulp = init.p.copy()
    p0_ulp[1, 1] = np.nextafter(p0_ulp[1, 1], np.inf)
    other_init = StateEstimate(init.x_hat, p0_ulp)
    for changed, start, obs in ((nudged, init, mask), (model, init, fewer), (model, other_init, mask)):
        base = run_filter_trace(model, init, u, (z, mask))
        fresh = run_filter_trace(changed, start, u, (z, obs))
        assert fresh.p_post is not base.p_post
        assert not np.array_equal(fresh.p_post, base.p_post)
        monkeypatch.setattr(filtering, "_memo", None)
        cold = run_filter_trace(changed, start, u, (z, obs))
        np.testing.assert_array_equal(cold.p_prior, fresh.p_prior)
        np.testing.assert_array_equal(cold.p_post, fresh.p_post)
        np.testing.assert_array_equal(cold.x_post, fresh.x_post)


# ---------------------------------------------------------------------------
# model validation


def test_system_model_validation():
    with pytest.raises(ContractViolationError, match="square"):
        SystemModel(a=np.zeros((2, 3)), b=np.zeros((2, 1)), h=np.eye(2), q=np.eye(2), r=np.eye(2), dt=DT)
    with pytest.raises(ContractViolationError, match="dt"):
        SystemModel(a=np.eye(1), b=np.eye(1), h=np.eye(1), q=np.eye(1), r=np.eye(1), dt=0.0)
    with pytest.raises(ContractViolationError, match="symmetric"):
        SystemModel(a=np.eye(2), b=np.zeros((2, 1)), h=np.eye(2), q=[[0.0, 1.0], [0.0, 0.0]], r=np.eye(2), dt=DT)
    with pytest.raises(ContractViolationError, match="positive semidefinite"):
        SystemModel(a=np.eye(1), b=np.eye(1), h=np.eye(1), q=[[-1.0]], r=np.eye(1), dt=DT)
