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
from .errors import ContractViolationError, check_range

__all__ = [
    "SystemModel",
    "StateEstimate",
    "FilterTrace",
    "run_filter_trace",
    "initial_estimate",
]


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ContractViolationError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _as_variances(value, name: str, length: int) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.shape != (length,):
        raise ContractViolationError(f"{name} must hold {length} variances, got shape {arr.shape}")
    for v in arr:
        check_range(name, v, (0, inf))
    return arr


@dataclass(frozen=True)
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
        object.__setattr__(self, "a", _as_matrix(self.a, "a"))
        object.__setattr__(self, "b", _as_matrix(self.b, "b"))
        object.__setattr__(self, "h", _as_matrix(self.h, "h"))
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ContractViolationError(f"a must be square, got {self.a.shape}")
        if self.b.shape[0] != n:
            raise ContractViolationError(
                f"b must have {n} rows to match a, got {self.b.shape[0]}"
            )
        if self.h.shape[1] != n:
            raise ContractViolationError(
                f"h must have {n} columns to match a, got {self.h.shape[1]}"
            )
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


@dataclass(frozen=True)
class StateEstimate:
    """State vector and covariance at one time index."""

    x_hat: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_hat, dtype=float).reshape(-1)
        cov = _as_matrix(self.p, "p")
        n = x.shape[0]
        if cov.shape != (n, n):
            raise ContractViolationError(
                f"covariance must be {n}x{n} to match the state, got {cov.shape}"
            )
        if not np.isfinite(x).all():
            raise ContractViolationError("state vector must be finite")
        if not np.isfinite(cov).all():
            raise ContractViolationError("covariance must be finite")
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "p", cov)

    @property
    def n_states(self) -> int:
        return self.x_hat.shape[0]


@dataclass
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
        """Innovation vectors and covariances on observed steps.

        Returns (nu, s) where ``nu[t] = z[t] - h x_prior[t]`` and
        ``s[t] = h cov_prior[step[t]] h' + diag(r_diag)``, both restricted to
        observed steps.
        """
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
    holds N measurement rows and the boolean ``mask`` marks the steps whose
    measurement arrived.  Step t predicts from the running estimate with
    ``inputs[t]`` and, where ``mask[t]`` is set, refines with the
    sequential-scalar update on ``z[t]``; rows of ``z`` on other steps are
    never read.  The first step starts from ``init``.  An innovation
    variance that is not positive and finite raises
    :class:`SingularInnovationError` naming its step and measurement row.

    The covariance pass depends only on the model, ``init.p`` and the mask;
    the last one is kept, so calls that share those (the scenarios of a
    sweep) compute it once and share its arrays read-only.
    """
    if init.n_states != model.n_states:
        raise ContractViolationError(
            f"estimate has {init.n_states} states but the model expects {model.n_states}"
        )
    u = np.ascontiguousarray(np.atleast_2d(np.asarray(inputs, dtype=float)))
    if u.ndim != 2 or u.shape[1] != model.n_inputs:
        raise ContractViolationError(
            f"inputs must be (N, {model.n_inputs}), got {u.shape}"
        )
    steps = u.shape[0]
    if steps < 1:
        raise ContractViolationError("at least one step is required")

    if not (isinstance(observations, tuple) and len(observations) == 2):
        raise ContractViolationError("observations must be a (z, mask) pair")
    z, mask = observations
    mask = np.asarray(mask).reshape(-1)
    if mask.dtype != bool:
        raise ContractViolationError(f"the observation mask must be boolean, got dtype {mask.dtype}")
    z = np.ascontiguousarray(np.asarray(z, dtype=float).reshape(-1, model.n_outputs))
    if z.shape[0] != steps or mask.shape[0] != steps:
        raise ContractViolationError(
            "inputs, observations and mask must have equal length, "
            f"got {steps}, {z.shape[0]} and {mask.shape[0]}"
        )

    if not np.isfinite(u).all():
        raise ContractViolationError("inputs must be finite")
    if not np.isfinite(z[mask]).all():
        raise ContractViolationError("observations must be finite on steps with a measurement")

    q = np.diag(model.q_diag)
    cov_prior, cov_post, mk, step = _covariances(model.a, model.h, q, model.r_diag, init.p, mask)
    x_pri, x_post = _kernels.state_loop(model.a, model.b, mk, step, mask, init.x_hat, u, z)
    return FilterTrace(x_pri, x_post, mask, cov_prior, cov_post, step)


#: ``(key, result)`` of the last covariance pass of :func:`run_filter_trace`
_memo = None


def _covariances(a, h, q, r_diag, p0, mask):
    """:func:`_kernels.covariance_loop`, kept for the last distinct input.

    The covariances and folds depend on nothing else, so the scenarios of a
    sweep, which share the model, the initial covariance and the full mask,
    share one pass.  The key is the exact bytes of every input; the
    distinct covariances, folds and step index, which every trace shares, are
    made read-only.  Only a pass that completes is kept.
    """
    global _memo
    key = tuple((arr.shape, arr.tobytes()) for arr in (a, h, q, r_diag, p0, mask))
    if _memo is None or _memo[0] != key:
        result = _kernels.covariance_loop(a, h, q, r_diag, p0, mask)
        for arr in result:
            arr.flags.writeable = False
        _memo = (key, result)
    return _memo[1]


def initial_estimate(model: SystemModel, first_obs: np.ndarray) -> StateEstimate:
    """Diffuse starting estimate: pseudoinverse-mapped first sample, p = 10 I."""
    first_obs = np.asarray(first_obs, dtype=float).reshape(-1)
    if first_obs.shape[0] != model.n_outputs:
        raise ContractViolationError(
            f"first observation has length {first_obs.shape[0]}, expected {model.n_outputs}"
        )
    return StateEstimate(np.linalg.pinv(model.h) @ first_obs, 10.0 * np.eye(model.n_states))
