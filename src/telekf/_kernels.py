"""The Kalman filter arithmetic, written once.

The covariance recursion reads neither the controls nor the measurements,
only the model, the initial covariance and which steps carry a measurement,
so it runs apart from the state: ``covariance_loop`` computes each distinct
step once, its covariances and its row updates folded into one matrix, and
indexes every step's row; ``state_loop`` applies each step's fold to the
state.  :func:`telekf.filtering.run_filter_trace` validates its arguments
and calls both; it is the filter's only entry point.

Under a full mask the pass settles at a step ``t0`` into a cycle of period
``P``, after which the filter is a periodic linear recursion (Bittanti &
Colaneri, *Periodic Systems*, 2009; Anderson & Moore, *Optimal Filtering*,
1979, ch. 4).  ``lift_tail`` lifts one block of ``B = (BLOCK_STEPS // P) P``
settled steps into two matrices, once per pass, and ``lifted_state_loop``
runs whole blocks of the settled steps in a few products per run instead of
two per step, leaving the steps before ``t0`` and the last partial block to
``state_loop``.  A lossy mask, a period above ``BLOCK_STEPS`` or a settled
tail shorter than two blocks runs ``state_loop`` alone.
"""

import numpy as np

from .errors import SingularInnovationError

__all__ = ["covariance_loop", "state_loop", "lift_tail", "lifted_state_loop"]

# there is no compiled path; kept because ``perfbench/run.py`` records it in every result
NUMBA_ENABLED = False

#: the lifted tail's blocks hold the most whole periods that fit in this many steps
BLOCK_STEPS = 24
#: blocks per forced-response product: BLAS packs a product's rows into a
#: buffer of its own whose pages stay resident, so a few blocks at a time
#: keep the tail's peak memory below the state loop's
FORCED_BLOCKS = 8


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


def lift_tail(a, mk, step):
    """The settled cycle of a full mask's pass in lifted form, or None.

    Under a full mask :func:`covariance_loop` stops at its first repeat:
    its ``len(mk)`` rows are steps 0, 1, ... and step ``len(mk)`` repeats
    step ``t0 = step[len(mk)]``, so from ``t0`` on the folds cycle with
    period ``P = len(mk) - t0``.  There the state recursion is periodic
    and linear, ``x_t = F_t x_{t-1} + w_t`` with ``F_t = M_t a`` and
    ``w_t = M_t b u_t + K_t z_t`` (``[M_t | K_t] = mk[step[t]]``).  For
    blocks of ``B = (BLOCK_STEPS // P) P`` steps, each starting at phase 0
    from state ``x``, step j of a block is ``Phi_j x + sum_{i <= j}
    Psi_ji w_i`` with ``Phi_j = F_j ... F_0`` and ``Psi_ji = F_j ... F_{i+1}``.

    Returns ``(t0, phi, psi_t)``: ``phi`` stacks the ``Phi_j`` (B n, n) and
    ``psi_t`` is the transpose of the block lower-triangular (B n, B n) of
    the ``Psi_ji``, stored in row order (at n = 9, BLAS ran the eight-block
    products of :func:`lifted_state_loop` on it in half the time it took on
    a transposed view), both read-only.  None when the pass never repeats, the period exceeds
    ``BLOCK_STEPS`` or the tail holds fewer than two blocks: the state
    loop alone runs those.
    """
    rows, steps = len(mk), len(step)
    if rows == steps:
        return None
    t0 = int(step[rows])
    period = rows - t0
    block = BLOCK_STEPS // period * period
    if block == 0 or steps - t0 < 2 * block:
        return None
    n = a.shape[0]
    f = mk[t0:rows, :, :n] @ a
    psi = np.eye(block * n)
    for j in range(1, block):
        lo = j * n
        psi[lo : lo + n, :lo] = f[j % period] @ psi[lo - n : lo, :lo]
    phi = psi[:, :n] @ f[0]
    psi_t = np.ascontiguousarray(psi.T)
    phi.flags.writeable = psi_t.flags.writeable = False
    return t0, phi, psi_t


def lifted_state_loop(a, b, mk, step, has_z, lift, x0, u, z):
    """:func:`state_loop` over a full mask, its settled tail run lifted.

    ``lift`` is :func:`lift_tail`'s ``(t0, phi, psi_t)`` for this pass.  The
    state loop runs the steps before ``t0`` and the last ``L mod B`` of the
    ``L`` steps from ``t0`` on; the whole blocks between take a few
    products per run:

    - every ``w_t``, in one product for its ``u`` part and one for its
      ``z`` part, each batched over the phases;
    - each block's forced response from rest, ``C = W psi_t``, in one
      product per ``FORCED_BLOCKS`` blocks;
    - the block-end states ``x_k = Phi_{B-1} x_{k-1} + c_k``, in one small
      product per block;
    - every state ``Phi_j x_{k-1} + c_kj`` in one product, and the a-priori
      states ``a x_{t-1} + b u_t`` in two more.

    The output rows of those steps hold the scratch (``W``, then ``C``), so
    the one temporary of the run's length is ``b u_t``.  The sums run in
    another order than the loop's, so the states agree with it to rounding,
    not bit for bit.  Returns the a-priori and a-posteriori states.
    """
    t0, phi, psi_t = lift
    steps, n = u.shape[0], a.shape[0]
    block = phi.shape[0] // n
    period = len(mk) - t0
    end = t0 + (steps - t0) // block * block
    x_pri = np.empty((steps, n))
    x_post = np.empty((steps, n))
    x_pri[:t0], x_post[:t0] = state_loop(a, b, mk, step[:t0], has_z[:t0], x0, u[:t0], z[:t0])
    x_in = x_post[t0 - 1] if t0 else x0

    pri, post = x_pri[t0:end], x_post[t0:end]
    folds = mk[t0 : t0 + period]

    def by_phase(arr):
        return arr.reshape(-1, period, arr.shape[1]).swapaxes(0, 1)

    # W = [M b | K] [u; z] by phase: its u part in pri, its z part in post
    np.matmul(by_phase(u[t0:end]), (folds[:, :, :n] @ b).swapaxes(1, 2), out=by_phase(pri))
    np.matmul(by_phase(z[t0:end]), folds[:, :, n:].swapaxes(1, 2), out=by_phase(post))
    pri += post
    w_rows, c_rows = pri.reshape(-1, block * n), post.reshape(-1, block * n)
    for lo in range(0, len(w_rows), FORCED_BLOCKS):
        np.matmul(w_rows[lo : lo + FORCED_BLOCKS], psi_t, out=c_rows[lo : lo + FORCED_BLOCKS])

    # row k: [x_{k-1}; c_k], the state entering block k and the end of its forced response
    starts = np.empty((len(c_rows) + 1, 2 * n))
    starts[0, :n] = x_in
    starts[:-1, n:] = post[block - 1 :: block]
    carry = np.hstack([phi[-n:], np.eye(n)]).dot
    for row, nxt in zip(starts, starts[1:, :n]):
        carry(row, out=nxt)
    np.matmul(starts[:-1, :n], phi.T, out=w_rows)
    post += pri
    post[block - 1 :: block] = starts[1:, :n]

    np.matmul(post[:-1], a.T, out=pri[1:])
    np.dot(a, x_in, out=pri[0])
    pri += u[t0:end] @ b.T

    rest = slice(end, steps)
    x_pri[rest], x_post[rest] = state_loop(a, b, mk, step[rest], has_z[rest], x_post[end - 1], u[rest], z[rest])
    return x_pri, x_post
