"""The batch filter kernel reports where an innovation variance breaks down."""

import numpy as np

from telekf import _kernels


def _kf_inputs(seed, steps=60):
    rng = np.random.default_rng(seed)
    n, m, p = 5, 2, 3
    a = rng.standard_normal((n, n))
    a *= 0.85 / max(1e-9, np.abs(np.linalg.eigvals(a)).max())
    b = rng.standard_normal((n, m))
    h = rng.standard_normal((p, n))
    q = 0.01 * np.eye(n)
    r_diag = rng.uniform(0.1, 1.0, p)
    x0 = rng.standard_normal(n)
    p0 = np.eye(n)
    u = rng.standard_normal((steps, m))
    z = rng.standard_normal((steps, p))
    mask = rng.random(steps) > 0.2
    return a, b, h, q, r_diag, x0, p0, u, z, mask


def test_kf_loop_reports_singular_row():
    # a zero, NaN or infinite innovation variance stops the loop at its step and row
    for first_obs in (0, 4):
        a, b, h, q, r_diag, x0, p0, u, z, mask = _kf_inputs(3)
        mask[:first_obs] = False
        mask[first_obs:] = True
        assert _kernels.kf_loop(a, b, h, q, r_diag, x0, p0, u, z, mask)[4:] == (-1, -1)
        for bad_row, r_value in ((1, np.nan), (2, np.inf)):
            r_bad = r_diag.copy()
            r_bad[bad_row] = r_value
            out = _kernels.kf_loop(a, b, h, q, r_bad, x0, p0, u, z, mask)
            assert out[4:] == (first_obs, bad_row)
        zero = np.zeros_like(q)
        out = _kernels.kf_loop(a, b, h, zero, np.zeros_like(r_diag), x0, zero, u, z, mask)
        assert out[4:] == (first_obs, 0)
