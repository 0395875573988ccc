"""The Kalman filter arithmetic, written once.

The covariance recursion reads neither the controls nor the measurements,
only the model, the initial covariance and which steps carry a measurement,
so it runs apart from the state: ``covariance_loop`` computes each distinct
step once, its covariances and its row updates folded into one matrix, and
indexes every step's row; ``state_loop`` applies each step's fold to the
state.  :func:`telekf.filtering.run_filter_trace` validates its arguments
and calls both; it is the filter's only entry point.
"""

import numpy as np

from .errors import SingularInnovationError

__all__ = ["covariance_loop", "state_loop"]

# there is no compiled path; kept because ``perfbench/run.py`` records it in every result
NUMBA_ENABLED = False


def covariance_loop(a, h, q, r_diag, p0, has_z):
    """Run the Riccati recursion over ``len(has_z)`` steps.

    Step t predicts ``cov = a cov a' + q`` and, when ``has_z[t]``, fuses the
    measurement one scalar row at a time: row d's gain starts from the
    covariance left by row d-1.  The covariance is re-symmetrized after the
    time update and after every row.

    Returns ``(p_pri, p_post, mk, step)``.  ``p_pri``, ``p_post`` and ``mk``
    hold one row per step computed here: its a-priori and a-posteriori
    covariances and its row updates folded by :func:`_fold_rows` (zero
    gains, so ``[I | 0]``, without a measurement).  ``step[t]`` is the row
    of step t.  The first innovation variance that is not positive and
    finite raises :class:`SingularInnovationError` naming its step and row.

    A step's results depend only on the covariance entering it and on
    whether it is observed, so a step that enters with the covariance and
    flag of an earlier step takes that step's row.  With every step
    observed, each later step repeats too: the first repeat fills the rest
    of ``step`` with the cycle since that earlier step, and a few dozen
    rows serve the whole pass.
    """
    steps = has_z.shape[0]
    p, n = h.shape
    a_t = np.ascontiguousarray(a.T)
    step = np.empty(steps, dtype=np.intp)
    p_pri, p_post, gains = [], [], []  # one entry per step computed below

    full = has_z.all()
    seen = {}  # (bytes of the entering covariance, observed) -> first step
    cov = p0
    for t in range(steps):
        observed = bool(has_z[t])
        key = (cov.tobytes(), observed)
        done = seen.get(key)
        if done is not None:
            if full:
                _fill_periodic(step, done, t, steps)
                break
            step[t] = step[done]
            cov = p_post[step[t]]
            continue
        cov = a @ cov @ a_t + q
        cov = 0.5 * (cov + cov.T)
        p_pri.append(cov)
        step_gains = np.zeros((p, n))
        for d in range(p if observed else 0):
            hd = h[d]
            ph = cov @ hd
            s = hd @ ph + r_diag[d]
            if not 0.0 < s < np.inf:
                raise SingularInnovationError(
                    f"innovation variance is not positive and finite at step {t}, measurement row {d}"
                )
            gain = ph / s
            step_gains[d] = gain
            cov = cov - np.outer(gain, ph)
            cov = 0.5 * (cov + cov.T)
        step[t] = len(p_post)
        p_post.append(cov)
        gains.append(step_gains)
        seen[key] = t
    del seen  # with a lossy mask most steps are distinct: fold before stacking
    mk = _fold_rows(h, np.array(gains))
    return np.array(p_pri), np.array(p_post), mk, step


def _fill_periodic(arr, first, start, end):
    """Fill ``arr[start:end]`` by repeating ``arr[first:start]``.

    Each slice copy doubles the filled span, so a run takes a few copies
    and makes no temporary of its own length.
    """
    while start < end:
        width = min(start - first, end - start)
        arr[start : start + width] = arr[first : first + width]
        start += width


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


def state_loop(a, b, mk, step, has_z, x0, u, z):
    """Run the state recursion with the folds of :func:`covariance_loop`.

    Step t predicts ``x = [a | b] [x; u[t]]`` and applies its p row updates
    folded into ``x = mk[step[t]] @ [x; z[t]]``: two matrix-vector products
    per step, each written straight into the row that the next one reads.
    One loop walks the row views and the folds together, reading ``step``
    as it goes, so it holds nothing of the run's length beyond its outputs.
    ``z[t]`` is read only where ``has_z[t]``; elsewhere it is taken as zero,
    which the step's ``[I | 0]`` fold ignores.  Returns the a-priori and
    a-posteriori states.
    """
    steps, m = u.shape
    n = a.shape[0]
    xu = np.zeros((steps + 1, n + m))  # row t: [x_post[t-1]; u[t]]
    xu[0, :n] = x0
    xu[:steps, n:] = u
    xz = np.zeros((steps, n + z.shape[1]))  # row t: [x_pri[t]; z[t]]
    xz[has_z, n:] = z[has_z]
    x_pri = xz[:, :n]
    x_post = xu[1:, :n]

    # bound ``dot`` methods: the same products as ``np.dot``, without its dispatch
    predict = np.hstack([a, b]).dot
    folds = [fold.dot for fold in mk]
    for xu_t, xz_t, pri_t, post_t, update in zip(xu, xz, x_pri, x_post, map(folds.__getitem__, step)):
        predict(xu_t, out=pri_t)
        update(xz_t, out=post_t)
    return x_pri.copy(), x_post.copy()
