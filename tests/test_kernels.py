"""The filter kernels against plain references, and their breakdown report."""

import tracemalloc

import numpy as np
import pytest

from conftest import exact_lti, identified_system, reference_dataset
from telekf import _kernels
from telekf.errors import SingularInnovationError


def _cov_inputs(seed, steps=60):
    rng = np.random.default_rng(seed)
    n, p = 5, 3
    a = rng.standard_normal((n, n))
    a *= 0.85 / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
    h = rng.standard_normal((p, n))
    q = 0.01 * np.eye(n)
    r_diag = rng.uniform(0.1, 1.0, p)
    p0 = np.eye(n)
    mask = rng.random(steps) > 0.2
    return a, h, q, r_diag, p0, mask


def _covariance_per_step(a, h, q, r_diag, p0, has_z):
    """The Riccati recursion computed afresh at every step."""
    steps = has_z.shape[0]
    p, n = h.shape
    p_pri = np.empty((steps, n, n))
    p_post = np.empty((steps, n, n))
    gains = np.zeros((steps, p, n))
    a_t = np.ascontiguousarray(a.T)
    cov = p0
    for t in range(steps):
        cov = a @ cov @ a_t + q
        cov = 0.5 * (cov + cov.T)
        p_pri[t] = cov
        if has_z[t]:
            for d in range(p):
                ph = cov @ h[d]
                s = h[d] @ ph + r_diag[d]
                gain = ph / s
                gains[t, d] = gain
                cov = cov - np.outer(gain, ph)
                cov = 0.5 * (cov + cov.T)
        p_post[t] = cov
    return p_pri, p_post, gains


def _state_per_step(a, b, h, gains, x0, u, z, has_z):
    """The state recursion applying one scalar row update at a time."""
    x = x0
    x_pri, x_post = [], []
    for t in range(u.shape[0]):
        x = a @ x + b @ u[t]
        x_pri.append(x)
        if has_z[t]:
            for d in range(h.shape[0]):
                x = x + gains[t, d] * (z[t, d] - h[d] @ x)
        x_post.append(x)
    return np.array(x_pri), np.array(x_post)


def _model(which):
    return exact_lti(seed=7) if which == "exact_lti" else identified_system(reference_dataset())


def _masks(steps=600):
    rng = np.random.default_rng(8)
    # the burst mask converges, drops a burst of 10 steps, then resumes
    burst = np.ones(steps, dtype=bool)
    burst[300:310] = False
    # the alternating and period-3 masks repeat with a period above one step
    alternating = np.arange(steps) % 2 == 0
    period_3 = np.arange(steps) % 3 != 2
    return (np.ones(steps, dtype=bool), rng.random(steps) > 0.2, np.ones(3000, dtype=bool), burst,
            alternating, period_3)


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_covariance_loop_matches_per_step_recursion_bit_for_bit(which):
    model = _model(which)
    args = (model.a, model.h, np.diag(model.q_diag), model.r_diag, 10.0 * np.eye(model.n_states))
    for mask in _masks():
        p_pri, p_post, mk, step = _kernels.covariance_loop(*args, mask)
        # every row is some step's; a full mask settles into a short cycle
        np.testing.assert_array_equal(np.unique(step), np.arange(len(p_post)))
        assert len(p_pri) == len(mk) == len(p_post) <= (100 if mask.all() else mask.shape[0])
        want_pri, want_post, want_gains = _covariance_per_step(*args, mask)
        np.testing.assert_array_equal(p_pri[step], want_pri)
        np.testing.assert_array_equal(p_post[step], want_post)
        # an unobserved step's zero gains fold to [I | 0]
        np.testing.assert_array_equal(mk[step], _kernels._fold_rows(model.h, want_gains))
        # one row per distinct (entering covariance, observed) pair
        entering = [args[4], *want_post[:-1]]
        assert len(p_post) == len({(cov.tobytes(), flag) for cov, flag in zip(entering, mask)})


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_doubled_h_and_quadrupled_r_leave_covariances_and_states_bit_for_bit(which):
    # h -> 2h, r -> 4r quadruples every h p h' + r and halves every gain,
    # both exact in binary floating point, so the pass keeps its covariances
    # and M blocks, and a doubled z meets the halved K blocks in the same states
    model = _model(which)
    q, r_diag, p0 = np.diag(model.q_diag), model.r_diag, 10.0 * np.eye(model.n_states)
    rng = np.random.default_rng(9)
    n = model.n_states
    for mask in _masks():
        steps = mask.shape[0]
        u = rng.standard_normal((steps, model.n_inputs))
        z = rng.standard_normal((steps, model.n_outputs))
        x0 = rng.standard_normal(n)
        p_pri, p_post, mk, step = _kernels.covariance_loop(model.a, model.h, q, r_diag, p0, mask)
        s_pri, s_post, s_mk, s_step = _kernels.covariance_loop(model.a, 2.0 * model.h, q, 4.0 * r_diag, p0, mask)
        np.testing.assert_array_equal(s_pri[s_step], p_pri[step])
        np.testing.assert_array_equal(s_post[s_step], p_post[step])
        np.testing.assert_array_equal(s_mk[s_step, :, :n], mk[step, :, :n])
        np.testing.assert_array_equal(s_mk[s_step, :, n:], 0.5 * mk[step, :, n:])
        want_states = _kernels.state_loop(model.a, model.b, mk, step, mask, x0, u, z)
        got_states = _kernels.state_loop(model.a, model.b, s_mk, s_step, mask, x0, u, 2.0 * z)
        for got, want in zip(got_states, want_states):
            np.testing.assert_array_equal(got, want)


def test_full_mask_covariance_loop_holds_little_beyond_its_covariance_stacks():
    # only the distinct steps are stored, and the repeating run of the step
    # index is filled by slice copies, with no temporary of its length
    model = identified_system(reference_dataset())
    args = (model.a, model.h, np.diag(model.q_diag), model.r_diag, 10.0 * np.eye(model.n_states))
    steps = 10000
    mask = np.ones(steps, dtype=bool)
    tracemalloc.start()
    try:
        _kernels.covariance_loop(*args, mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * steps + 256 * 1024


def test_covariance_loop_reports_singular_row():
    # a zero, NaN or infinite innovation variance stops the loop at its step and row
    for first_obs in (0, 4):
        a, h, q, r_diag, p0, mask = _cov_inputs(3)
        mask[:first_obs] = False
        mask[first_obs:] = True
        assert len(_kernels.covariance_loop(a, h, q, r_diag, p0, mask)[3]) == len(mask)
        for bad_row, r_value in ((1, np.nan), (2, np.inf)):
            r_bad = r_diag.copy()
            r_bad[bad_row] = r_value
            with pytest.raises(SingularInnovationError, match=f"step {first_obs}, measurement row {bad_row}$"):
                _kernels.covariance_loop(a, h, q, r_bad, p0, mask)
        zero = np.zeros_like(q)
        with pytest.raises(SingularInnovationError, match=f"step {first_obs}, measurement row 0$"):
            _kernels.covariance_loop(a, h, zero, np.zeros_like(r_diag), zero, mask)


def test_state_loop_matches_plain_dot_products_bit_for_bit():
    # the same two products per step as np.dot on freshly stacked vectors
    model = identified_system(reference_dataset())
    rng = np.random.default_rng(13)
    steps = 500
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    x0 = rng.standard_normal(model.n_states)
    ab = np.hstack([model.a, model.b])
    for mask in (np.ones(steps, dtype=bool), rng.random(steps) > 0.2, np.arange(steps) % 2 == 0):
        mk, step = _kernels.covariance_loop(
            model.a, model.h, np.diag(model.q_diag), model.r_diag, 10.0 * np.eye(model.n_states), mask
        )[2:]
        want_pri, want_post = [], []
        x = x0
        for t in range(steps):
            x = np.dot(ab, np.concatenate([x, u[t]]))
            want_pri.append(x)
            x = np.dot(mk[step[t]], np.concatenate([x, z[t] if mask[t] else np.zeros(model.n_outputs)]))
            want_post.append(x)
        x_pri, x_post = _kernels.state_loop(model.a, model.b, mk, step, mask, x0, u, z)
        np.testing.assert_array_equal(x_pri, want_pri)
        np.testing.assert_array_equal(x_post, want_post)


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_state_loop_matches_per_step_row_updates(which):
    model = _model(which)
    rng = np.random.default_rng(11)
    steps = 800
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    x0 = rng.standard_normal(model.n_states)
    for mask in (np.ones(steps, dtype=bool), rng.random(steps) > 0.2):
        cov_args = (model.a, model.h, np.diag(model.q_diag), model.r_diag, 10.0 * np.eye(model.n_states), mask)
        mk, step = _kernels.covariance_loop(*cov_args)[2:4]
        gains = _covariance_per_step(*cov_args)[2]
        got_states = _kernels.state_loop(model.a, model.b, mk, step, mask, x0, u, z)
        want_states = _state_per_step(model.a, model.b, model.h, gains, x0, u, z, mask)
        for got, want in zip(got_states, want_states):
            # relative to the largest state entry: entries near zero carry its rounding
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_state_loop_keeps_gain_sets_that_differ_in_one_row_apart():
    model = exact_lti(seed=7, p=3)
    rng = np.random.default_rng(12)
    steps = 300
    first, settled = _covariance_per_step(
        model.a, model.h, np.diag(model.q_diag), model.r_diag, 10.0 * np.eye(model.n_states),
        np.ones(20, dtype=bool),
    )[2][[0, -1]]
    # set 0 is the settled gain set; set d + 1 takes its row d from the first
    # step; the last set, all zeros, is that of the unobserved steps
    sets = np.repeat(settled[None], model.n_outputs + 2, axis=0)
    for d in range(model.n_outputs):
        sets[d + 1, d] = first[d]
    sets[-1] = 0.0
    step = rng.integers(0, len(sets) - 1, steps)
    gains = sets[step]
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    mask = rng.random(steps) > 0.2
    step[~mask] = len(sets) - 1
    x0 = np.zeros(model.n_states)
    mk = _kernels._fold_rows(model.h, sets)
    got_states = _kernels.state_loop(model.a, model.b, mk, step, mask, x0, u, z)
    want_states = _state_per_step(model.a, model.b, model.h, gains, x0, u, z, mask)
    for got, want in zip(got_states, want_states):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
