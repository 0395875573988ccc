"""The Kalman filter loop, compiled with numba when available.

The loop body is written once, in a numba-compatible numpy subset, and
exported twice: ``kf_loop_numpy`` always refers to the interpreted version,
while ``kf_loop`` points at an ``@njit``-compiled wrapper unless numba is
missing or the ``TELEKF_DISABLE_NUMBA`` environment variable is set to a
truthy value ("1", "true", "yes").  Both paths are bit-identical.
"""

import os

import numpy as np

__all__ = [
    "NUMBA_ENABLED",
    "kf_loop",
    "kf_loop_numpy",
]


def _numba_disabled_by_env() -> bool:
    return os.environ.get("TELEKF_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")


def _kf_loop(a, b, h, q, r_diag, x0, p0, u, z, has_z):
    """Run the predict / sequential-update recursion over a whole batch.

    Step t (0-based) predicts with control ``u[t]`` and, when ``has_z[t]``,
    refines with measurement ``z[t]`` one scalar row at a time; each row's
    correction starts from the running state and covariance left by the
    previous row.  Covariances are re-symmetrized after every operation.

    Returns stacked a-priori and a-posteriori states/covariances plus
    ``(bad_step, bad_row)`` — both -1 on success, else the first location
    where a scalar innovation variance was not strictly positive.
    """
    steps = u.shape[0]
    n = a.shape[0]
    p = h.shape[0]
    a_t = np.ascontiguousarray(a.T)

    x_pri = np.empty((steps, n))
    p_pri = np.empty((steps, n, n))
    x_post = np.empty((steps, n))
    p_post = np.empty((steps, n, n))

    x = x0.copy()
    cov = p0.copy()
    for t in range(steps):
        x = a @ x + b @ u[t]
        cov = a @ cov @ a_t + q
        cov = 0.5 * (cov + cov.T)
        x_pri[t] = x
        p_pri[t] = cov
        if has_z[t]:
            for d in range(p):
                hd = h[d]
                ph = cov @ hd
                s = hd @ ph + r_diag[d]
                if s <= 0.0:
                    return x_pri, p_pri, x_post, p_post, t, d
                gain = ph / s
                x = x + gain * (z[t, d] - hd @ x)
                cov = cov - np.outer(gain, ph)
                cov = 0.5 * (cov + cov.T)
        x_post[t] = x
        p_post[t] = cov
    return x_pri, p_pri, x_post, p_post, -1, -1


kf_loop_numpy = _kf_loop

if _numba_disabled_by_env():
    NUMBA_ENABLED = False
else:
    try:
        import numba

        NUMBA_ENABLED = True
    except ImportError:
        NUMBA_ENABLED = False

if NUMBA_ENABLED:
    kf_loop = numba.njit(cache=True)(_kf_loop)
else:
    kf_loop = _kf_loop
