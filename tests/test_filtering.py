import numpy as np
import pytest

from conftest import (
    exact_lti,
    hygiene_of_covs,
    joint_gain_update,
    max_rel_diff,
    random_spd,
)
from telekf import filtering
from telekf.errors import ContractViolationError, SingularInnovationError
from telekf.filtering import (
    StateEstimate,
    SystemModel,
    initial_estimate,
    run_filter_trace,
)


def scalar_model(a=1.0, b=0.0, h=1.0, q=0.0, r=1.0):
    return SystemModel(a=[[a]], b=[[b]], h=[[h]], q_diag=[q], r_diag=[r])


def static_model(h, r_diag):
    """Identity dynamics with no noise or input: a step's prediction leaves
    the state and a symmetric covariance as they are, so a one-step run is
    the measurement update alone."""
    n = h.shape[1]
    return SystemModel(a=np.eye(n), b=np.zeros((n, 1)), h=h, q_diag=np.zeros(n), r_diag=r_diag)


def one_step(model, est, u=None, z=None):
    """A one-step :func:`run_filter_trace` from ``est``, observed when ``z`` is given."""
    u = np.zeros(model.n_inputs) if u is None else u
    observed = z is not None
    z = np.zeros(model.n_outputs) if z is None else z
    return run_filter_trace(model, est, np.reshape(u, (1, -1)), (np.reshape(z, (1, -1)), np.array([observed])))


# ---------------------------------------------------------------------------
# prediction: one unobserved step


def test_predict_identity_dynamics():
    model = SystemModel(
        a=np.eye(2), b=np.zeros((2, 1)), h=np.eye(2), q_diag=np.zeros(2), r_diag=np.ones(2)
    )
    trace = one_step(model, StateEstimate([1.0, 2.0], np.eye(2)), u=[0.0])
    np.testing.assert_array_equal(trace.x_prior[0], [1.0, 2.0])
    np.testing.assert_array_equal(trace.cov_prior[trace.step[0]], np.eye(2))


def test_predict_constant_velocity_exact():
    dt = 0.1
    model = SystemModel(
        a=[[1.0, dt], [0.0, 1.0]],
        b=np.zeros((2, 1)),
        h=np.eye(2),
        q_diag=np.zeros(2),
        r_diag=np.ones(2),
    )
    trace = one_step(model, StateEstimate([0.0, 1.0], np.zeros((2, 2))), u=[0.0])
    np.testing.assert_allclose(trace.x_prior[0], [0.1, 1.0], rtol=0, atol=0)
    np.testing.assert_array_equal(trace.cov_prior[trace.step[0]], np.zeros((2, 2)))


def test_predict_scalar_hand_arithmetic():
    # independent scalar oracle: x = 0.9*2 + 0.5*1 = 2.3, p = 0.81 + 0.04 = 0.85
    model = scalar_model(a=0.9, b=0.5, q=0.04)
    trace = one_step(model, StateEstimate([2.0], [[1.0]]), u=[1.0])
    np.testing.assert_allclose(trace.x_prior[0], [2.3], atol=1e-15)
    np.testing.assert_allclose(trace.cov_prior[trace.step[0]], [[0.85]], atol=1e-15)


def test_predict_dimension_errors_name_offender():
    model = scalar_model()
    with pytest.raises(ContractViolationError, match=r"inputs must have shape \(N, 1\), got \(1, 2\)"):
        one_step(model, StateEstimate([0.0], [[1.0]]), u=[0.0, 1.0])
    with pytest.raises(ContractViolationError, match=r"x_hat must have shape \(1,\), got \(2,\)"):
        one_step(model, StateEstimate([0.0, 0.0], np.eye(2)), u=[0.0])


# ---------------------------------------------------------------------------
# the measurement update: one observed step, against hand values and the
# joint-gain reference


def test_one_step_trace_perfect_sensor_limit():
    rng = np.random.default_rng(0)
    model = static_model(np.eye(3), np.full(3, 1e-12))
    est = StateEstimate(rng.standard_normal(3), np.eye(3))
    z = rng.standard_normal(3)
    trace = one_step(model, est, z=z)
    np.testing.assert_allclose(trace.x_post[0], z, atol=1e-6)


def test_one_step_trace_equal_weight_fusion():
    model = scalar_model(q=0.0, r=1.0)
    trace = one_step(model, StateEstimate([0.0], [[1.0]]), z=[2.0])
    np.testing.assert_allclose(trace.x_post[0], [1.0], atol=1e-15)
    np.testing.assert_allclose(trace.cov_post[trace.step[0]], [[0.5]], atol=1e-15)


def singular_cases():
    """(estimate, model) pairs of finite values whose innovation variance is
    zero, infinite (h p h' overflows) and NaN (an overflow times zero)."""
    nan_model = SystemModel(
        a=np.eye(2), b=np.zeros((2, 1)), h=[[1e10, 0.0]], q_diag=np.zeros(2), r_diag=[1.0]
    )
    return [
        (StateEstimate([0.0], [[0.0]]), scalar_model(r=0.0)),
        (StateEstimate([0.0], [[1e300]]), scalar_model(h=1e10)),
        (StateEstimate([0.0, 0.0], [[1e300, -1e300], [-1e300, 1e300]]), nan_model),
    ]


def test_trace_singular_innovation_names_first_observed_step():
    # the covariance of each case survives unobserved steps, so the first
    # observed step is the one named
    for est, model in singular_cases():
        with pytest.raises(SingularInnovationError, match="step 2, measurement row 0$"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            run_filter_trace(model, est, np.zeros((4, 1)), (np.ones((4, 1)), np.array([False, False, True, True])))


def test_one_step_trace_measurement_length_error():
    model = scalar_model()
    with pytest.raises(ContractViolationError, match=r"z must have shape \(1, 1\), got \(1, 2\)"):
        one_step(model, StateEstimate([0.0], [[1.0]]), z=[1.0, 2.0])


def test_scalar_riccati_steady_state():
    # analytic prior fixed point: (q + sqrt(q^2 + 4 q r)) / 2 ~= 0.10512 for q=0.01, r=1
    q, r = 0.01, 1.0
    model = scalar_model(q=q, r=r)
    steps = 2000
    trace = run_filter_trace(
        model, StateEstimate([0.0], [[1.0]]), np.zeros((steps, 1)), (np.zeros((steps, 1)), np.ones(steps, dtype=bool))
    )
    prior_p = trace.cov_prior[trace.step[-1], 0, 0]
    expected_prior = (q + np.sqrt(q * q + 4 * q * r)) / 2
    assert abs(prior_p - expected_prior) < 1e-12
    assert abs(prior_p - 0.105124921973) < 1e-9


def test_sequential_single_row_equals_joint():
    model = scalar_model(q=0.02, r=0.5)
    trace = one_step(model, StateEstimate([1.5], [[2.0]]), z=[0.3])
    x, p = joint_gain_update(trace.x_prior[0], trace.cov_prior[trace.step[0]], model.h, np.diag(model.r_diag), np.array([0.3]))
    np.testing.assert_allclose(trace.x_post[0], x, rtol=1e-12)
    np.testing.assert_allclose(trace.cov_post[trace.step[0]], p, rtol=1e-12)


def test_sequential_two_rows_hand_case():
    model = static_model(np.eye(2), np.ones(2))
    trace = one_step(model, StateEstimate([0.0, 0.0], np.eye(2)), z=[2.0, 4.0])
    np.testing.assert_allclose(trace.x_post[0], [1.0, 2.0], atol=1e-15)
    np.testing.assert_allclose(trace.cov_post[trace.step[0]], 0.5 * np.eye(2), atol=1e-15)


def test_sequential_matches_joint_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        p = int(rng.integers(1, 7))
        model = static_model(rng.standard_normal((p, n)), rng.uniform(0.1, 2.0, p))
        est = StateEstimate(rng.standard_normal(n), random_spd(rng, n))
        z = rng.standard_normal(p)
        trace = one_step(model, est, z=z)
        x, cov = joint_gain_update(est.x_hat, est.p, model.h, np.diag(model.r_diag), z)
        assert max_rel_diff(trace.x_post[0], x) <= 1e-8
        assert max_rel_diff(trace.cov_post[trace.step[0]], cov) <= 1e-8


def test_sequential_zero_innovation_variance():
    for est, model in singular_cases():
        with pytest.raises(SingularInnovationError, match="step 0, measurement row 0$"), np.errstate(
            over="ignore", invalid="ignore"
        ):
            one_step(model, est, z=[1.0])


def test_update_never_increases_trace():
    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, 5))
        model = static_model(rng.standard_normal((p, n)), rng.uniform(0.05, 1.0, p))
        est = StateEstimate(rng.standard_normal(n), random_spd(rng, n))
        trace = one_step(model, est, z=rng.standard_normal(p))
        assert np.trace(trace.cov_post[trace.step[0]]) <= np.trace(est.p) + 1e-12


# ---------------------------------------------------------------------------
# run_filter_trace


def test_one_step_trace_without_observation_is_predict():
    model = scalar_model(a=0.9, b=0.5, q=0.04)
    trace = one_step(model, StateEstimate([2.0], [[1.0]]), u=[1.0])
    assert trace.x_post.shape == (1, 1)
    # an unobserved step's posterior is its prediction, bit for bit
    np.testing.assert_array_equal(trace.x_post, trace.x_prior)
    np.testing.assert_array_equal(trace.cov_post[trace.step], trace.cov_prior[trace.step])
    np.testing.assert_allclose(trace.x_post[0], [2.3], atol=1e-15)


def test_run_filter_tracks_perfect_sensor():
    # q >> r keeps the gain at ~identity, so the estimate pins to each sample
    rng = np.random.default_rng(5)
    n = 3
    model = SystemModel(
        a=0.8 * np.eye(n),
        b=np.zeros((n, 1)),
        h=np.eye(n),
        q_diag=np.ones(n),
        r_diag=np.full(n, 1e-12),
    )
    z = rng.standard_normal((50, n))
    trace = run_filter_trace(
        model,
        StateEstimate(np.zeros(n), np.eye(n)),
        np.zeros((50, 1)),
        (z, np.ones(50, dtype=bool)),
    )
    np.testing.assert_allclose(trace.x_post[1:], z[1:], atol=1e-6)


def test_run_filter_length_mismatch():
    model = scalar_model()
    init = StateEstimate([0.0], [[1.0]])
    with pytest.raises(ContractViolationError, match=r"z must have shape \(2, 1\), got \(1, 1\)"):
        run_filter_trace(model, init, [[0.0], [0.0]], ([[0.0]], [False]))
    # a short mask, with z of the right length, is named as the short one
    with pytest.raises(ContractViolationError, match=r"mask must have shape \(2,\), got \(1,\)"):
        run_filter_trace(model, init, [[0.0], [0.0]], ([[0.0], [0.0]], [False]))
    # with three outputs, z transposed is refused, not read as five scrambled rows
    model = exact_lti(seed=5, p=3)
    z = np.arange(15.0).reshape(5, 3)
    u, mask = np.zeros((5, model.n_inputs)), np.ones(5, dtype=bool)
    with pytest.raises(ContractViolationError, match=r"z must have shape \(5, 3\), got \(3, 5\)"):
        run_filter_trace(model, initial_estimate(model, z[0]), u, (z.T, mask))


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
    trace = run_filter_trace(model, initial_estimate(model, z[0]), u, (z, mask))
    skipped = ~trace.has_obs
    np.testing.assert_array_equal(trace.x_post[skipped], trace.x_prior[skipped])
    np.testing.assert_array_equal(trace.cov_post[trace.step[skipped]], trace.cov_prior[trace.step[skipped]])
    assert (trace.x_post[trace.has_obs] != trace.x_prior[trace.has_obs]).any()


def test_run_filter_covariance_hygiene_on_random_run():
    model = exact_lti(seed=11)
    rng = np.random.default_rng(12)
    steps = 500
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    trace = run_filter_trace(
        model, initial_estimate(model, z[0]), u, (z, np.ones(steps, dtype=bool))
    )
    for stack in (trace.cov_prior, trace.cov_post):
        asym, eig_min = hygiene_of_covs(stack)
        assert asym <= 1e-9
        assert eig_min >= -1e-9


def test_initial_estimate_policies():
    model = exact_lti(seed=31)
    z0 = np.array([0.4, -1.2])
    est = initial_estimate(model, first_obs=z0)
    np.testing.assert_allclose(model.h @ est.x_hat, z0, atol=1e-9)
    np.testing.assert_array_equal(est.p, 10.0 * np.eye(model.n_states))


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
    init = initial_estimate(model, z[0])
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
    init = initial_estimate(model, z[0])

    first = run_filter_trace(model, init, u, (z, mask))
    other_data = run_filter_trace(model, init, 2.0 * u, (-z, mask))
    # the distinct covariances and the step index are shared, and no run can write them
    for name in ("cov_prior", "cov_post", "step"):
        assert getattr(other_data, name) is getattr(first, name)
        with pytest.raises(ValueError, match="read-only"):
            getattr(first, name)[0] = 1.0
    assert len(first.cov_post) < steps

    q_ulp = model.q_diag.copy()
    q_ulp[0] = np.nextafter(q_ulp[0], np.inf)
    nudged = SystemModel(a=model.a, b=model.b, h=model.h, q_diag=q_ulp, r_diag=model.r_diag)
    fewer = mask.copy()
    fewer[5] = False
    p0_ulp = init.p.copy()
    p0_ulp[1, 1] = np.nextafter(p0_ulp[1, 1], np.inf)
    other_init = StateEstimate(init.x_hat, p0_ulp)
    for changed, start, obs in ((nudged, init, mask), (model, init, fewer), (model, other_init, mask)):
        base = run_filter_trace(model, init, u, (z, mask))
        fresh = run_filter_trace(changed, start, u, (z, obs))
        assert fresh.cov_post is not base.cov_post and fresh.step is not base.step
        assert not np.array_equal(fresh.cov_post[fresh.step], base.cov_post[base.step])
        monkeypatch.setattr(filtering, "_memo", None)
        cold = run_filter_trace(changed, start, u, (z, obs))
        for name in ("cov_prior", "cov_post", "step", "x_post"):
            np.testing.assert_array_equal(getattr(cold, name), getattr(fresh, name))


# ---------------------------------------------------------------------------
# model validation


def test_system_model_validation():
    with pytest.raises(ContractViolationError, match=r"a must have shape \(2, 2\), got \(2, 3\)"):
        SystemModel(a=np.zeros((2, 3)), b=np.zeros((2, 1)), h=np.eye(2), q_diag=np.ones(2), r_diag=np.ones(2))
    # the noise is one variance per state and per output channel, each finite and >= 0
    good = dict(a=np.eye(2), b=np.zeros((2, 1)), h=np.eye(3, 2), q_diag=[0.5, 0.0], r_diag=[1.0, 2.0, 0.0])
    model = SystemModel(**good)
    np.testing.assert_array_equal(model.q_diag, [0.5, 0.0])
    np.testing.assert_array_equal(model.r_diag, [1.0, 2.0, 0.0])
    for field, bad, message in (
        ("q_diag", [0.5], r"q_diag must have shape \(2,\), got \(1,\)"),
        ("q_diag", np.eye(2), r"q_diag must have shape \(2,\), got \(2, 2\)"),
        ("r_diag", 1.0, r"r_diag must have shape \(3,\), got \(\)"),
        ("q_diag", [0.5, -1e-12], r"q_diag must be in \[0, inf\), got -1e-12"),
        ("r_diag", [1.0, -1.0, 0.0], r"r_diag must be in \[0, inf\), got -1.0"),
        ("q_diag", [np.nan, 0.0], r"q_diag must be in \[0, inf\), got nan"),
        ("r_diag", [1.0, 2.0, np.inf], r"r_diag must be in \[0, inf\), got inf"),
    ):
        with pytest.raises(ContractViolationError, match=message):
            SystemModel(**{**good, field: bad})
