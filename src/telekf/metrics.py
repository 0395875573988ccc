"""Accuracy metrics: NRMSE-style fit percentage and per-channel MSE."""

from __future__ import annotations

import numpy as np

from .errors import ContractViolationError, check_shape

__all__ = ["fit_percent", "fit_aggregate", "mse"]


def _aligned(truth, estimate, min_len: int):
    """``truth`` and ``estimate`` as (N, channels) float arrays of one shape,
    a 1-D series read as one channel."""
    truth, estimate = (np.asarray(x, dtype=float) for x in (truth, estimate))
    truth, estimate = (x[:, None] if x.ndim == 1 else x for x in (truth, estimate))
    check_shape("truth", truth, (None, None))
    check_shape("estimate", estimate, truth.shape)
    if truth.shape[0] < min_len:
        raise ContractViolationError(
            f"need at least {min_len} samples, got {truth.shape[0]}"
        )
    return truth, estimate


def fit_percent(truth, estimate) -> np.ndarray:
    """Per-channel fit: 100 * (1 - ||y - yhat|| / ||y - mean(y)||).

    100 means a perfect match, 0 means no better than the channel mean, and
    the value is unbounded below.  A constant truth channel has a zero
    denominator; its fit is reported as the NaN sentinel rather than a
    number.
    """
    truth, estimate = _aligned(truth, estimate, min_len=2)
    return fit_from_error_norm(np.linalg.norm(truth - estimate, axis=0), channel_spread(truth))


def channel_spread(truth) -> np.ndarray:
    """Per-channel ``||y - mean(y)||``, the denominator of :func:`fit_percent`."""
    return np.linalg.norm(truth - truth.mean(axis=0), axis=0)


def fit_from_error_norm(err, spread) -> np.ndarray:
    """:func:`fit_percent` of an estimate given only its per-channel error
    norm ``err`` and the truth's :func:`channel_spread`, for a caller that
    sums the squared errors as it goes and scores several estimates of one
    truth."""
    out = np.full(spread.shape[0], np.nan)
    ok = spread > 0.0
    out[ok] = 100.0 * (1.0 - err[ok] / spread[ok])
    return out


def fit_aggregate(per_channel: np.ndarray) -> float:
    """Unweighted mean over channels, ignoring NaN sentinels."""
    per_channel = np.asarray(per_channel, dtype=float)
    if np.all(np.isnan(per_channel)):
        return float("nan")
    return float(np.nanmean(per_channel))


def mse(truth, estimate) -> np.ndarray:
    """Per-channel mean squared error."""
    truth, estimate = _aligned(truth, estimate, min_len=1)
    return np.mean((truth - estimate) ** 2, axis=0)
