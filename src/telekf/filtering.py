"""Linear Kalman filtering over a discrete LTI model.

:func:`run_filter_trace` is the filter: it validates its arguments and runs
the prediction and the sequential-scalar measurement update (valid for the
model's uncorrelated measurement noise) of :mod:`telekf._kernels` over a
whole trajectory with a per-step arrival mask.  A one-step filter is a
one-step run.  Nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from . import _kernels
from .errors import ContractViolationError, check_range, check_shape

__all__ = [
    "SystemModel",
    "StateEstimate",
    "FilterTrace",
    "run_filter_trace",
    "initial_estimate",
]


def _as_variances(value, name: str, length: int) -> np.ndarray:
    arr = np.array(value, dtype=float)
    check_shape(name, arr, (length,))
    for v in arr:
        check_range(name, v, (0, inf))
    return arr


@dataclass(frozen=True, eq=False)
class SystemModel:
    """Discrete LTI model with uncorrelated noise.

    x[k] = a x[k-1] + b u[k-1] + w,   w ~ N(0, diag(q_diag))
    z[k] = h x[k] + v,                v ~ N(0, diag(r_diag))

    ``a`` is n x n, ``b`` is n x m and ``h`` is p x n; ``q_diag`` holds the
    n per-state process-noise variances and ``r_diag`` the p per-channel
    measurement-noise variances, each finite and >= 0.  The noise is
    diagonal because the sequential-scalar update needs uncorrelated
    measurement noise.  The model steps in samples and carries no sample
    period: the channel reads the data's ``dt``.
    """

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray
    q_diag: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self):
        a, b, h = (np.asarray(arr, dtype=float) for arr in (self.a, self.b, self.h))
        n = a.shape[0] if a.ndim else None
        for name, arr, shape in (("a", a, (n, n)), ("b", b, (n, None)), ("h", h, (None, n))):
            check_shape(name, arr, shape)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "q_diag", _as_variances(self.q_diag, "q_diag", n))
        object.__setattr__(self, "r_diag", _as_variances(self.r_diag, "r_diag", self.h.shape[0]))

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True, eq=False)
class StateEstimate:
    """State vector ``x_hat``, (n,), and covariance ``p``, (n, n), at one time index."""

    x_hat: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_hat, dtype=float)
        cov = np.asarray(self.p, dtype=float)
        check_shape("x_hat", x, (None,))
        check_shape("p", cov, x.shape * 2)
        if not np.isfinite(x).all():
            raise ContractViolationError("state vector must be finite")
        if not np.isfinite(cov).all():
            raise ContractViolationError("covariance must be finite")
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "p", cov)

    @property
    def n_states(self) -> int:
        return self.x_hat.shape[0]


@dataclass(eq=False)
class FilterTrace:
    """Per-step output of :func:`run_filter_trace`.

    ``x_prior``/``x_post`` hold the a-priori and a-posteriori states (equal on
    steps without a measurement); ``has_obs`` marks the observed steps.
    ``cov_prior``/``cov_post`` hold each distinct covariance of the Riccati
    pass once, read-only and shared by runs with the same model, initial
    covariance and mask; ``step[t]`` is step t's row in them, so
    ``cov_prior[step[t]]`` is step t's a-priori covariance.
    """

    x_prior: np.ndarray
    x_post: np.ndarray
    has_obs: np.ndarray
    cov_prior: np.ndarray
    cov_post: np.ndarray
    step: np.ndarray

    def innovations(self, model: SystemModel, z: np.ndarray):
        """Innovation vectors and covariances on observed steps of the (N, p)
        measurements ``z`` the trace was run on.

        Returns (nu, s) where ``nu[t] = z[t] - h x_prior[t]`` and
        ``s[t] = h cov_prior[step[t]] h' + diag(r_diag)``, both restricted to
        observed steps.
        """
        check_shape("z", z, (len(self.has_obs), model.n_outputs))
        mask = self.has_obs
        h = model.h
        nu = z[mask] - self.x_prior[mask] @ h.T
        s = h @ self.cov_prior[self.step[mask]] @ h.T + np.diag(model.r_diag)
        return nu, s


def run_filter_trace(
    model: SystemModel,
    init: StateEstimate,
    inputs,
    observations,
) -> FilterTrace:
    """Run the filter over N steps and record every estimate.

    ``inputs`` is (N, m) and ``observations`` is a ``(z, mask)`` pair: ``z``
    is (N, p) and the boolean (N,) ``mask`` marks the steps whose
    measurement arrived.  Step t predicts from the running estimate with
    ``inputs[t]`` and, where ``mask[t]`` is set, refines with the
    sequential-scalar update on ``z[t]``; rows of ``z`` on other steps are
    never read.  The first step starts from ``init``.  An innovation
    variance that is not positive and finite raises
    :class:`SingularInnovationError` naming its step and measurement row.

    The covariance pass depends only on the model, ``init.p`` and the mask;
    the last one is kept, so calls that share those (the scenarios of a
    sweep) compute it once and share its arrays read-only.

    Under a full mask the pass settles at a step T0 into a cycle of period
    P.  When 1 <= P <= 24 and the steps from T0 on hold at least two blocks
    of B = (24 // P) P steps, the whole blocks run as a lifted periodic
    recursion (:func:`telekf._kernels.lifted_state_loop`, its matrices kept
    with the pass), whose states agree with the state loop's to rounding;
    the steps before T0 and after the last whole block, and every other
    run, go through the state loop, one step at a time.
    """
    check_shape("x_hat", init.x_hat, (model.n_states,))
    u = np.asarray(inputs, dtype=float)
    check_shape("inputs", u, (None, model.n_inputs))
    steps = u.shape[0]
    if steps < 1:
        raise ContractViolationError("at least one step is required")

    if not (isinstance(observations, tuple) and len(observations) == 2):
        raise ContractViolationError("observations must be a (z, mask) pair")
    z, mask = observations
    mask = np.asarray(mask)
    if mask.dtype != bool:
        raise ContractViolationError(f"the observation mask must be boolean, got dtype {mask.dtype}")
    z = np.asarray(z, dtype=float)
    check_shape("z", z, (steps, model.n_outputs))
    check_shape("mask", mask, (steps,))

    if not np.isfinite(u).all():
        raise ContractViolationError("inputs must be finite")
    if not np.isfinite(z[mask]).all():
        raise ContractViolationError("observations must be finite on steps with a measurement")

    q = np.diag(model.q_diag)
    (cov_prior, cov_post, mk, step), lift = _covariances(model.a, model.h, q, model.r_diag, init.p, mask)
    if lift is None:
        x_pri, x_post = _kernels.state_loop(model.a, model.b, mk, step, mask, init.x_hat, u, z)
    else:
        x_pri, x_post = _kernels.lifted_state_loop(model.a, model.b, mk, step, mask, lift, init.x_hat, u, z)
    return FilterTrace(x_pri, x_post, mask, cov_prior, cov_post, step)


#: ``(key, result, lift)`` of the last covariance pass of :func:`run_filter_trace`
_memo = None


def _covariances(a, h, q, r_diag, p0, mask):
    """:func:`_kernels.covariance_loop` and, under a full mask, its
    :func:`_kernels.lift_tail`, kept for the last distinct input.

    The covariances, folds and lifted cycle depend on nothing else, so the
    scenarios of a sweep, which share the model, the initial covariance and
    the full mask, share one pass.  The key is the exact bytes of every
    input; the distinct covariances, folds and step index, which every
    trace shares, are made read-only.  Only a pass that completes is kept.
    """
    global _memo
    key = tuple((arr.shape, arr.tobytes()) for arr in (a, h, q, r_diag, p0, mask))
    if _memo is None or _memo[0] != key:
        result = _kernels.covariance_loop(a, h, q, r_diag, p0, mask)
        for arr in result:
            arr.flags.writeable = False
        lift = _kernels.lift_tail(a, *result[2:]) if mask.all() else None
        _memo = (key, result, lift)
    return _memo[1:]


def initial_estimate(model: SystemModel, first_obs: np.ndarray) -> StateEstimate:
    """Diffuse starting estimate: the (p,) first sample mapped through the
    pseudoinverse of h, with covariance 10 I."""
    first_obs = np.asarray(first_obs, dtype=float)
    check_shape("first_obs", first_obs, (model.n_outputs,))
    return StateEstimate(np.linalg.pinv(model.h) @ first_obs, 10.0 * np.eye(model.n_states))
