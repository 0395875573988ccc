"""The filter kernels against plain references, and their breakdown report."""

import numpy as np
import pytest

from conftest import exact_lti, identified_system, reference_dataset
from telekf import _kernels


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


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_covariance_loop_matches_per_step_recursion_bit_for_bit(which):
    model = exact_lti(seed=7) if which == "exact_lti" else identified_system(reference_dataset())
    args = (model.a, model.h, model.q, np.diag(model.r).copy(), 10.0 * np.eye(model.n_states))
    steps = 600
    rng = np.random.default_rng(8)
    # the last mask converges, drops a burst of 10 steps, then resumes
    burst = np.ones(steps, dtype=bool)
    burst[300:310] = False
    for mask in (np.ones(steps, dtype=bool), rng.random(steps) > 0.2, np.ones(3000, dtype=bool), burst):
        *got, bad_step, bad_row = _kernels.covariance_loop(*args, mask)
        assert (bad_step, bad_row) == (-1, -1)
        for got_arr, want_arr in zip(got, _covariance_per_step(*args, mask)):
            np.testing.assert_array_equal(got_arr, want_arr)


def test_covariance_loop_reports_singular_row():
    # a zero, NaN or infinite innovation variance stops the loop at its step and row
    for first_obs in (0, 4):
        a, h, q, r_diag, p0, mask = _cov_inputs(3)
        mask[:first_obs] = False
        mask[first_obs:] = True
        assert _kernels.covariance_loop(a, h, q, r_diag, p0, mask)[3:] == (-1, -1)
        for bad_row, r_value in ((1, np.nan), (2, np.inf)):
            r_bad = r_diag.copy()
            r_bad[bad_row] = r_value
            out = _kernels.covariance_loop(a, h, q, r_bad, p0, mask)
            assert out[3:] == (first_obs, bad_row)
        zero = np.zeros_like(q)
        out = _kernels.covariance_loop(a, h, zero, np.zeros_like(r_diag), zero, mask)
        assert out[3:] == (first_obs, 0)


def test_state_loop_does_not_depend_on_chunk_length(monkeypatch):
    model = exact_lti(seed=9)
    rng = np.random.default_rng(10)
    steps = 700
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    x0 = rng.standard_normal(model.n_states)
    for mask in (np.ones(steps, dtype=bool), rng.random(steps) > 0.2):
        gains = _kernels.covariance_loop(
            model.a, model.h, model.q, np.diag(model.r).copy(), np.eye(model.n_states), mask
        )[2]
        runs = []
        for chunk in (1, 7, 128, steps + 1):
            monkeypatch.setattr(_kernels, "CHUNK", chunk)
            runs.append(_kernels.state_loop(model.a, model.b, model.h, gains, x0, u, z, mask))
        for x_pri, x_post in runs[1:]:
            np.testing.assert_array_equal(x_pri, runs[0][0])
            np.testing.assert_array_equal(x_post, runs[0][1])


@pytest.mark.parametrize("which", ["exact_lti", "identified_system"])
def test_state_loop_matches_per_step_row_updates(which):
    model = exact_lti(seed=7) if which == "exact_lti" else identified_system(reference_dataset())
    rng = np.random.default_rng(11)
    steps = 800
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    x0 = rng.standard_normal(model.n_states)
    for mask in (np.ones(steps, dtype=bool), rng.random(steps) > 0.2):
        gains = _kernels.covariance_loop(
            model.a, model.h, model.q, np.diag(model.r).copy(), 10.0 * np.eye(model.n_states), mask
        )[2]
        args = (model.a, model.b, model.h, gains, x0, u, z, mask)
        for got, want in zip(_kernels.state_loop(*args), _state_per_step(*args)):
            # relative to the largest state entry: entries near zero carry its rounding
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_state_loop_keeps_gain_sets_that_differ_in_one_row_apart():
    model = exact_lti(seed=7, p=3)
    rng = np.random.default_rng(12)
    steps = 300
    first, settled = _kernels.covariance_loop(
        model.a, model.h, model.q, np.diag(model.r).copy(), 10.0 * np.eye(model.n_states),
        np.ones(20, dtype=bool),
    )[2][[0, -1]]
    # set 0 is the settled gain set; set d + 1 takes its row d from the first step
    sets = np.repeat(settled[None], model.n_outputs + 1, axis=0)
    for d in range(model.n_outputs):
        sets[d + 1, d] = first[d]
    gains = sets[rng.integers(0, len(sets), steps)]
    u = rng.standard_normal((steps, model.n_inputs))
    z = rng.standard_normal((steps, model.n_outputs))
    mask = rng.random(steps) > 0.2
    args = (model.a, model.b, model.h, gains, np.zeros(model.n_states), u, z, mask)
    for got, want in zip(_kernels.state_loop(*args), _state_per_step(*args)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
