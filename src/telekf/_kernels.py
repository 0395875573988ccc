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

#: steps whose folded measurement updates ``state_loop`` forms together
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
    whether it is observed.  So once step t enters with the covariance and
    flag of an earlier step s, steps t, t+1, ... repeat steps s, s+1, ...
    with period t - s for as long as the mask repeats with that period, and
    that whole run is filled in one periodic copy.  With every step
    observed the recursion settles into a short cycle after a few dozen
    steps, and the rest of the pass is one copy.
    """
    steps = has_z.shape[0]
    p, n = h.shape
    a_t = np.ascontiguousarray(a.T)
    p_pri = np.empty((steps, n, n))
    p_post = np.empty((steps, n, n))
    gains = np.zeros((steps, p, n))
    mask = has_z.tolist()

    seen = {}  # (bytes of the entering covariance, observed) -> first step
    cov = p0
    t = 0
    while t < steps:
        observed = mask[t]
        key = (cov.tobytes(), observed)
        done = seen.get(key)
        if done is not None:
            period = t - done
            end = _periodic_run_end(has_z, t, period)
            src = done + np.arange(end - t) % period
            for arr in (p_pri, p_post, gains):
                arr[t:end] = arr[src]
            t = end
            cov = p_post[t - 1]
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
        t += 1
    return p_pri, p_post, gains, -1, -1


def _periodic_run_end(has_z, start, period):
    """The first step at or after ``start`` whose flag differs from the one
    ``period`` steps before it, or ``len(has_z)``.

    The flags are compared in windows that double in length, so a long run
    costs a few comparisons, not one per step.
    """
    steps = has_z.shape[0]
    width = 1
    while start < steps:
        stop = min(start + width, steps)
        differs = has_z[start:stop] != has_z[start - period : stop - period]
        if differs.any():
            return start + int(differs.argmax())
        start, width = stop, 2 * width
    return steps


def _fold_rows(h, gains):
    """Compose the row updates ``x = (I - g_d h_d') x + g_d z_d`` of k steps.

    ``gains`` is (k, p, n); returns ``mk`` (k, n, n + p), ``[M | K]`` with
    ``x = mk[j] @ [x; z]`` equal to the p row updates of gain set j applied
    in order to a measurement z.
    """
    k, p, n = gains.shape
    eye = np.eye(n)
    mk = np.zeros((k, n, n + p))
    mk[:, :, :n] = eye
    for d in range(p):
        g_d = gains[:, d, :, None]
        mk = (eye - g_d * h[d]) @ mk
        mk[:, :, n + d] = g_d[:, :, 0]
    return mk


def _folds(h, gains, observed):
    """``[M | K]`` for each step of ``gains`` (k, p, n) that is ``observed``,
    None for the others.

    Each distinct gain set is folded once, and the steps whose gains are
    equal to it bit for bit share its array.
    """
    g = gains[observed]
    # every step's gains as one bytes object, made in a single call
    keys = g.reshape(-1, gains[0].size).view(np.dtype((np.void, gains[0].nbytes)))[:, 0].tolist()
    where = dict(zip(keys, range(len(keys))))  # one step per distinct gain set
    fold = dict(zip(where, _fold_rows(h, g[list(where.values())])))
    per_step = map(fold.__getitem__, keys)
    return [next(per_step) if obs else None for obs in observed.tolist()]


def state_loop(a, b, h, gains, x0, u, z, has_z):
    """Run the state recursion with the gains of :func:`covariance_loop`.

    Step t predicts ``x = [a | b] [x; u[t]]`` and, when ``has_z[t]``,
    applies the step's p row updates folded into ``x = [M_t | K_t] [x; z[t]]``:
    two matrix-vector products per step, each written straight into the row
    that the next one reads.  The folds are formed for ``CHUNK`` steps at a
    time, once per distinct gain set, with the same operations whatever the
    batch length; measurements of steps without one are never read.
    Returns the a-priori and a-posteriori states.
    """
    steps, m = u.shape
    n = a.shape[0]
    ab = np.hstack([a, b])
    xu = np.zeros((steps + 1, n + m))  # row t: [x_post[t-1]; u[t]]
    xu[0, :n] = x0
    xu[:steps, n:] = u
    xz = np.zeros((steps, n + z.shape[1]))  # row t: [x_pri[t]; z[t]]
    xz[has_z, n:] = z[has_z]
    x_pri = xz[:, :n]
    x_post = xu[1:, :n]

    dot, copyto = np.dot, np.copyto
    for start in range(0, steps, CHUNK):
        span = slice(start, start + CHUNK)
        folds = _folds(h, gains[span], has_z[span])
        rows = zip(list(xu[span]), list(xz[span]), list(x_pri[span]), list(x_post[span]), folds)
        for xu_t, xz_t, pri_t, post_t, mk_t in rows:
            dot(ab, xu_t, out=pri_t)
            if mk_t is None:
                copyto(post_t, pri_t)
            else:
                dot(mk_t, xz_t, out=post_t)
    return x_pri.copy(), x_post.copy()
