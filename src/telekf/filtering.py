"""Linear Kalman filtering over a discrete LTI model.

Implements the prediction step, the joint-vector measurement update, and the
sequential-scalar measurement update (valid for diagonal measurement noise),
and runs the filter over a whole trajectory with a per-step arrival mask.
All functions are pure: they return new estimates and never mutate their
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import ContractViolationError, SingularInnovationError

__all__ = [
    "SystemModel",
    "StateEstimate",
    "FilterTrace",
    "predict",
    "update_joint",
    "update_sequential",
    "run_filter_trace",
    "initial_estimate",
]

#: eigenvalues of a covariance in [-PSD_FLOOR, 0) are clipped to zero
PSD_FLOOR = 1e-9


def _as_matrix(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ContractViolationError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


def _check_sym_psd(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
        raise ContractViolationError(f"{name} must be symmetric")
    eigmin = float(np.linalg.eigvalsh(mat).min()) if mat.size else 0.0
    if eigmin < -PSD_FLOOR:
        raise ContractViolationError(f"{name} must be positive semidefinite (min eigenvalue {eigmin:.3e})")


@dataclass(frozen=True)
class SystemModel:
    """Discrete LTI model with noise covariances.

    x[k] = a x[k-1] + b u[k-1] + w,   w ~ N(0, q)
    z[k] = h x[k] + v,                v ~ N(0, r)

    ``a`` is n x n, ``b`` is n x m, ``h`` is p x n, ``q`` is n x n,
    ``r`` is p x p, and ``dt`` is the sample period in seconds.
    """

    a: np.ndarray
    b: np.ndarray
    h: np.ndarray
    q: np.ndarray
    r: np.ndarray
    dt: float

    def __post_init__(self):
        object.__setattr__(self, "a", _as_matrix(self.a, "a"))
        object.__setattr__(self, "b", _as_matrix(self.b, "b"))
        object.__setattr__(self, "h", _as_matrix(self.h, "h"))
        object.__setattr__(self, "q", _as_matrix(self.q, "q"))
        object.__setattr__(self, "r", _as_matrix(self.r, "r"))
        object.__setattr__(self, "dt", float(self.dt))
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
        if self.q.shape != (n, n):
            raise ContractViolationError(f"q must be {n}x{n}, got {self.q.shape}")
        p = self.h.shape[0]
        if self.r.shape != (p, p):
            raise ContractViolationError(f"r must be {p}x{p} to match h, got {self.r.shape}")
        if not self.dt > 0.0:
            raise ContractViolationError(f"dt must be positive, got {self.dt}")
        _check_sym_psd(self.q, "q")
        _check_sym_psd(self.r, "r")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.h.shape[0]

    def r_diagonal(self) -> np.ndarray:
        """Diagonal of r; raises unless r is exactly diagonal."""
        off = self.r - np.diag(np.diag(self.r))
        if np.count_nonzero(off):
            raise ContractViolationError(
                "sequential update requires a diagonal measurement covariance r"
            )
        return np.diag(self.r).copy()


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


def _finalize_cov(cov: np.ndarray) -> np.ndarray:
    """Symmetrize; clip a barely-negative spectrum (>= -PSD_FLOOR) at zero."""
    cov = 0.5 * (cov + cov.T)
    w, v = np.linalg.eigh(cov)
    wmin = w.min() if w.size else 0.0
    if -PSD_FLOOR <= wmin < 0.0:
        cov = (v * np.clip(w, 0.0, None)) @ v.T
        cov = 0.5 * (cov + cov.T)
    return cov


def _check_est(est: StateEstimate, model: SystemModel) -> None:
    if est.n_states != model.n_states:
        raise ContractViolationError(
            f"estimate has {est.n_states} states but the model expects {model.n_states}"
        )


def _measurement(z, model: SystemModel) -> np.ndarray:
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.shape[0] != model.n_outputs:
        raise ContractViolationError(
            f"measurement has length {z.shape[0]} but the model expects {model.n_outputs}"
        )
    if not np.isfinite(z).all():
        raise ContractViolationError("measurement must be finite")
    return z


def predict(est: StateEstimate, model: SystemModel, u) -> StateEstimate:
    """Propagate one step: x = a x + b u,  p = a p a' + q.

    Returns the a-priori estimate for the next time index with the
    covariance re-symmetrized.
    """
    _check_est(est, model)
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.shape[0] != model.n_inputs:
        raise ContractViolationError(
            f"control vector has length {u.shape[0]} but the model expects {model.n_inputs}"
        )
    if not np.isfinite(u).all():
        raise ContractViolationError("control vector must be finite")
    has_z = np.zeros(1, dtype=bool)
    p_pri, _, mk, fold, _, _ = _kernels.covariance_loop(
        model.a, model.h, model.q, np.diag(model.r), est.p, has_z
    )
    x_pri, _ = _kernels.state_loop(
        model.a, model.b, mk, fold, est.x_hat, u[None], np.zeros((1, model.n_outputs))
    )
    return StateEstimate(x_pri[0], p_pri[0])


def update_joint(est: StateEstimate, model: SystemModel, z) -> StateEstimate:
    """Fuse a full measurement vector through the joint-gain update.

    The gain solve goes through a Cholesky factorization of the innovation
    covariance s = h p h' + r rather than an explicit inverse; a non-finite
    s or a factorization failure raises :class:`SingularInnovationError`
    carrying the condition estimate of s (``inf`` when s is not finite).
    """
    _check_est(est, model)
    z = _measurement(z, model)
    h = model.h
    s = h @ est.p @ h.T + model.r
    s = 0.5 * (s + s.T)
    if not np.isfinite(s).all():
        raise SingularInnovationError("innovation covariance is not finite", condition=float("inf"))
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularInnovationError(
            f"innovation covariance is not positive definite: {exc}",
            condition=float(np.linalg.cond(s)),
        ) from exc
    gain = np.linalg.solve(chol.T, np.linalg.solve(chol, h @ est.p)).T
    x = est.x_hat + gain @ (z - h @ est.x_hat)
    cov = (np.eye(model.n_states) - gain @ h) @ est.p
    return StateEstimate(x, _finalize_cov(cov))


def update_sequential(est: StateEstimate, model: SystemModel, z) -> StateEstimate:
    """Fuse a measurement one scalar row at a time (requires diagonal r).

    Row d's correction starts from the state and covariance produced by row
    d-1, so the final result matches :func:`update_joint` up to rounding.
    The update runs as one step of the batch kernels with identity dynamics
    and no noise or input, whose time update leaves a symmetric covariance
    and the state as they are.
    """
    _check_est(est, model)
    z = _measurement(z, model)
    n = model.n_states
    eye = np.eye(n)
    has_z = np.ones(1, dtype=bool)
    _, p_post, mk, fold, _, bad_row = _kernels.covariance_loop(
        eye, model.h, np.zeros((n, n)), model.r_diagonal(), est.p, has_z
    )
    if bad_row >= 0:
        raise SingularInnovationError(
            f"innovation variance is not positive and finite on measurement row {bad_row}",
            condition=float("inf"),
        )
    _, x_post = _kernels.state_loop(
        eye, np.zeros((n, 1)), mk, fold, est.x_hat, np.zeros((1, 1)), z[None]
    )
    return StateEstimate(x_post[0], _finalize_cov(p_post[0]))


@dataclass
class FilterTrace:
    """Stacked per-step output of :func:`run_filter_trace`.

    ``x_prior``/``p_prior`` hold the a-priori estimates, ``x_post``/``p_post``
    the a-posteriori ones (identical to the priors on steps without a
    measurement).  ``has_obs`` marks which steps carried a measurement.
    The covariance stacks are read-only: runs with the same model, initial
    covariance and mask share them.
    """

    x_prior: np.ndarray
    p_prior: np.ndarray
    x_post: np.ndarray
    p_post: np.ndarray
    has_obs: np.ndarray

    def innovations(self, model: SystemModel, z: np.ndarray):
        """Innovation vectors and covariances on observed steps.

        Returns (nu, s) where ``nu[t] = z[t] - h x_prior[t]`` and
        ``s[t] = h p_prior[t] h' + r``, both restricted to observed steps.
        """
        mask = self.has_obs
        h = model.h
        nu = z[mask] - self.x_prior[mask] @ h.T
        s = h @ self.p_prior[mask] @ h.T + model.r
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
    never read.  The first step starts from ``init``.

    The covariance pass depends only on the model, ``init.p`` and the mask;
    the last one is kept, so calls that share those (the scenarios of a
    sweep) compute it once and share its arrays read-only.
    """
    _check_est(init, model)
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
            f"inputs and observations must have equal length, got {steps} and {z.shape[0]}"
        )

    if not np.isfinite(u).all():
        raise ContractViolationError("inputs must be finite")
    if not np.isfinite(z[mask]).all():
        raise ContractViolationError("observations must be finite on steps with a measurement")

    r_diag = model.r_diagonal() if mask.any() else np.diag(model.r).copy()
    p_pri, p_post, mk, fold, bad_step, bad_row = _covariances(
        model.a, model.h, model.q, r_diag, init.p, mask
    )
    if bad_step >= 0:
        raise SingularInnovationError(
            f"innovation variance is not positive and finite at step {bad_step}, "
            f"measurement row {bad_row}",
            condition=float("inf"),
        )
    x_pri, x_post = _kernels.state_loop(model.a, model.b, mk, fold, init.x_hat, u, z)
    return FilterTrace(x_pri, p_pri, x_post, p_post, mask)


#: ``(key, result)`` of the last covariance pass of :func:`run_filter_trace`
_memo = None


def _covariances(a, h, q, r_diag, p0, mask):
    """:func:`_kernels.covariance_loop`, kept for the last distinct input.

    The covariances and folds depend on nothing else, so the scenarios of a
    sweep, which share the model, the initial covariance and the full mask,
    share one pass.  The key is the exact bytes of every input; the
    covariance stacks, which every trace shares, are made read-only, and a
    breakdown is cached like a result.
    """
    global _memo
    key = tuple((arr.shape, arr.tobytes()) for arr in (a, h, q, r_diag, p0, mask))
    memo = _memo
    if memo is None or memo[0] != key:
        result = _kernels.covariance_loop(a, h, q, r_diag, p0, mask)
        for arr in result[:2]:
            arr.flags.writeable = False
        memo = _memo = (key, result)
    return memo[1]


def initial_estimate(model: SystemModel, first_obs: Optional[np.ndarray] = None) -> StateEstimate:
    """Diffuse starting estimate: pseudoinverse-mapped first sample, p = 10 I.

    With no observation available the state starts at zero.
    """
    if first_obs is None:
        x0 = np.zeros(model.n_states)
    else:
        first_obs = np.asarray(first_obs, dtype=float).reshape(-1)
        if first_obs.shape[0] != model.n_outputs:
            raise ContractViolationError(
                f"first observation has length {first_obs.shape[0]}, expected {model.n_outputs}"
            )
        x0 = np.linalg.pinv(model.h) @ first_obs
    return StateEstimate(x0, 10.0 * np.eye(model.n_states))
