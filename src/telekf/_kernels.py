"""The Kalman filter arithmetic, written once.

The covariance recursion reads neither the controls nor the measurements,
only the model, the initial covariance and which steps carry a measurement,
so it runs apart from the state: ``covariance_loop`` computes the
covariances and each measurement row's gain, and ``state_loop`` applies
those gains to the state.  The public functions in :mod:`telekf.filtering`
validate their arguments and call both, so a single step and a batch
perform the same operations.
"""

import numpy as np

__all__ = ["covariance_loop", "state_loop"]

# there is no compiled path; kept because ``perfbench/run.py`` records it in every result
NUMBA_ENABLED = False

#: steps whose input terms and folded measurement updates ``state_loop`` forms together
CHUNK = 128


def covariance_loop(a, h, q, r_diag, p0, has_z):
    """Run the Riccati recursion over ``len(has_z)`` steps.

    Step t predicts ``cov = a cov a' + q`` and, when ``has_z[t]``, fuses the
    measurement one scalar row at a time: row d's gain starts from the
    covariance left by row d-1.  The covariance is re-symmetrized after the
    time update and after every row.

    Returns ``(p_pri, p_post, gains, bad_step, bad_row)``: the a-priori and
    a-posteriori covariances per step, ``gains[t, d]`` the gain of row d at
    step t (zero on steps without a measurement), and ``(bad_step, bad_row)``
    -1 on success, else the first location whose innovation variance was
    not positive and finite; the arrays are then filled only before it.

    A step's results depend only on the covariance entering it and on
    whether it is observed, so a step whose two match an earlier step's bit
    for bit copies that step's results instead of recomputing them.  With every step
    observed the recursion settles into a short cycle after a few dozen
    steps, and the rest of the pass is copies.
    """
    steps = has_z.shape[0]
    p, n = h.shape
    a_t = np.ascontiguousarray(a.T)
    p_pri = np.empty((steps, n, n))
    p_post = np.empty((steps, n, n))
    gains = np.zeros((steps, p, n))

    seen = {}  # (bytes of the entering covariance, observed) -> first step
    cov = p0
    for t, observed in enumerate(has_z.tolist()):
        key = (cov.tobytes(), observed)
        done = seen.get(key)
        if done is not None:
            p_pri[t] = p_pri[done]
            p_post[t] = cov = p_post[done]
            gains[t] = gains[done]
            continue
        cov = a @ cov @ a_t + q
        cov = 0.5 * (cov + cov.T)
        p_pri[t] = cov
        if observed:
            for d in range(p):
                hd = h[d]
                ph = cov @ hd
                s = hd @ ph + r_diag[d]
                if not 0.0 < s < np.inf:
                    return p_pri, p_post, gains, t, d
                gain = ph / s
                gains[t, d] = gain
                cov = cov - np.outer(gain, ph)
                cov = 0.5 * (cov + cov.T)
        p_post[t] = cov
        seen[key] = t
    return p_pri, p_post, gains, -1, -1


def _fold_rows(h, gains, z):
    """Compose the row updates ``x = (I - g_d h_d') x + g_d z_d`` of k steps.

    ``gains`` is (k, p, n) and ``z`` is (k, p); returns ``m`` (k, n, n) and
    ``kz`` (k, n) with ``x = m[j] @ x + kz[j]`` equal to the p row updates
    of step j applied in order.
    """
    k, p, n = gains.shape
    eye = np.eye(n)
    m = np.broadcast_to(eye, (k, n, n))
    kz = np.zeros((k, n, 1))
    for d in range(p):
        g_d = gains[:, d, :, None]
        row = eye - g_d * h[d]
        m = row @ m
        kz = row @ kz + g_d * z[:, d, None, None]
    return m, kz[:, :, 0]


def state_loop(a, b, h, gains, x0, u, z, has_z):
    """Run the state recursion with the gains of :func:`covariance_loop`.

    Step t predicts ``x = a x + b u[t]`` and, when ``has_z[t]``, applies
    the step's row updates folded into ``x = M_t x + K_t z[t]``.  ``b u``,
    ``M_t`` and ``K_t z[t]`` are formed for ``CHUNK`` steps at a time, with
    the same per-step operations whatever the batch length; measurements of
    steps without one are never read.  Returns the a-priori and
    a-posteriori states.
    """
    steps = u.shape[0]
    n = a.shape[0]
    x_pri = np.empty((steps, n))
    x_post = np.empty((steps, n))

    x = x0
    for start in range(0, steps, CHUNK):
        span = slice(start, start + CHUNK)
        observed = has_z[span]
        bu = (b @ u[span, :, None])[:, :, 0]
        folds = zip(*_fold_rows(h, gains[span][observed], z[span][observed]))
        pri, post = [], []
        for bu_t, obs_t in zip(bu, observed.tolist()):
            x = np.dot(a, x) + bu_t
            pri.append(x)
            if obs_t:
                m_t, kz_t = next(folds)
                x = np.dot(m_t, x) + kz_t
            post.append(x)
        x_pri[span] = pri
        x_post[span] = post
    return x_pri, x_post
