"""The covariance kernel reports where an innovation variance breaks down."""

import numpy as np

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
