"""The Kalman filter arithmetic, written once.

``predict_step`` is the time update and ``update_rows`` the sequential
scalar measurement update; ``kf_loop`` runs both over a batch.  The public
functions in :mod:`telekf.filtering` validate their arguments and call
these, so a single-step and a batch run perform the same operations.
"""

import numpy as np

__all__ = ["kf_loop", "predict_step", "update_rows"]

# there is no compiled path; kept because ``perfbench/run.py`` records it in every result
NUMBA_ENABLED = False


def predict_step(a, a_t, b, q, x, cov, u):
    """``x = a x + b u``, ``cov = a cov a' + q`` re-symmetrized; ``a_t`` is ``a.T``."""
    x = a @ x + b @ u
    cov = a @ cov @ a_t + q
    return x, 0.5 * (cov + cov.T)


def update_rows(h, r_diag, x, cov, z):
    """Fuse ``z`` one scalar row at a time; returns ``(x, cov, bad_row)``.

    Row d's correction starts from the state and covariance left by row d-1,
    and the covariance is re-symmetrized after every row.  ``bad_row`` is -1
    on success, else the first row whose innovation variance is not positive
    and finite; ``x`` and ``cov`` are then the values before that row.
    """
    for d in range(h.shape[0]):
        hd = h[d]
        ph = cov @ hd
        s = hd @ ph + r_diag[d]
        if not 0.0 < s < np.inf:
            return x, cov, d
        gain = ph / s
        x = x + gain * (z[d] - hd @ x)
        cov = cov - np.outer(gain, ph)
        cov = 0.5 * (cov + cov.T)
    return x, cov, -1


def kf_loop(a, b, h, q, r_diag, x0, p0, u, z, has_z):
    """Run the predict / sequential-update recursion over a whole batch.

    Step t (0-based) predicts with control ``u[t]`` and, when ``has_z[t]``,
    refines with measurement ``z[t]``.

    Returns stacked a-priori and a-posteriori states/covariances plus
    ``(bad_step, bad_row)`` — both -1 on success, else the first location
    where a scalar innovation variance was not positive and finite.
    """
    steps = u.shape[0]
    n = a.shape[0]
    a_t = np.ascontiguousarray(a.T)

    x_pri = np.empty((steps, n))
    p_pri = np.empty((steps, n, n))
    x_post = np.empty((steps, n))
    p_post = np.empty((steps, n, n))

    x, cov = x0, p0
    for t in range(steps):
        x, cov = predict_step(a, a_t, b, q, x, cov, u[t])
        x_pri[t] = x
        p_pri[t] = cov
        if has_z[t]:
            x, cov, bad_row = update_rows(h, r_diag, x, cov, z[t])
            if bad_row >= 0:
                return x_pri, p_pri, x_post, p_post, t, bad_row
        x_post[t] = x
        p_post[t] = cov
    return x_pri, p_pri, x_post, p_post, -1, -1
