"""The compiled and interpreted kernel paths must agree bit for bit."""

import os
import subprocess
import sys

import numpy as np
import pytest

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


@pytest.mark.skipif(not _kernels.NUMBA_ENABLED, reason="numba path not active")
def test_kf_loop_paths_bit_identical():
    for seed in range(5):
        args = _kf_inputs(seed)
        jit_out = _kernels.kf_loop(*args)
        ref_out = _kernels.kf_loop_numpy(*args)
        for a, b in zip(jit_out[:4], ref_out[:4]):
            assert np.array_equal(a, b)
        assert jit_out[4:] == ref_out[4:]


def test_env_flag_disables_numba():
    code = (
        "from telekf import _kernels; "
        "print(_kernels.NUMBA_ENABLED, _kernels.kf_loop is _kernels.kf_loop_numpy)"
    )
    env = dict(os.environ, TELEKF_DISABLE_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "True"]


def test_kf_loop_reports_singular_row():
    a, b, h, q, r_diag, x0, p0, u, z, mask = _kf_inputs(3)
    q[:] = 0.0
    p0[:] = 0.0
    r_diag[:] = 0.0
    mask[:] = True
    out = _kernels.kf_loop(a, b, h, q, r_diag, x0, p0, u, z, mask)
    assert out[4] == 0 and out[5] == 0
