"""ARX identification by least squares and conversion to state space.

Sign convention used throughout: per output channel c,

    y_c[t] = sum_i a[c, i] * y_c[t - 1 - i]
           + sum_j sum_l b[c, j, l] * u_j[t - nk - l]

i.e. the recovered coefficients appear with a positive sign in the one-step
predictor.  Multi-output data is handled as a stack of MISO regressions:
each output channel regresses on its own past and on all inputs.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    IllConditionedDataError,
    UnsupportedStructureError,
)
from .filtering import SystemModel
from .metrics import fit_aggregate, fit_from_error_norm

__all__ = [
    "ArxModel",
    "FitReport",
    "arx_fit",
    "simulate_arx",
    "predict_one_step",
    "arx_to_ss",
    "residual_covariances",
    "cross_validate",
    "order_sweep",
    "save_model",
    "load_model",
    "model_to_doc",
    "model_from_doc",
]

MODEL_FORMAT = "telekf-arx"
MODEL_FORMAT_VERSION = 1

#: relative residual above which a rank-deficient regression is rejected
_EXACT_FIT_RTOL = 1e-8

#: time steps the batched free run of :func:`order_sweep` holds at a time
CHUNK = 512


@dataclass(frozen=True)
class ArxModel:
    """ARX polynomial orders and coefficients.

    ``a_coeffs`` has shape (n_outputs, na): output-lag coefficients per
    channel.  ``b_coeffs`` has shape (n_outputs, n_inputs, nb): input-lag
    coefficients per (output, input) pair, offset by the dead time ``nk``.
    """

    na: int
    nb: int
    nk: int
    a_coeffs: np.ndarray
    b_coeffs: np.ndarray
    n_outputs: int
    n_inputs: int
    dt: float
    source_trial: str | None = None

    def __post_init__(self):
        for name in ("na", "nb", "nk", "n_outputs", "n_inputs"):
            object.__setattr__(self, name, int(getattr(self, name)))
        object.__setattr__(self, "dt", float(self.dt))
        if self.na < 0:
            raise ContractViolationError(f"na must be >= 0, got {self.na}")
        if self.nb < 1:
            raise ContractViolationError(f"nb must be >= 1, got {self.nb}")
        if self.nk < 0:
            raise ContractViolationError(f"nk must be >= 0, got {self.nk}")
        if self.dt <= 0.0:
            raise ContractViolationError(f"dt must be positive, got {self.dt}")
        a = np.asarray(self.a_coeffs, dtype=float).reshape(self.n_outputs, self.na)
        b = np.asarray(self.b_coeffs, dtype=float).reshape(
            self.n_outputs, self.n_inputs, self.nb
        )
        object.__setattr__(self, "a_coeffs", a)
        object.__setattr__(self, "b_coeffs", b)

    @property
    def max_lag(self) -> int:
        """Longest history the difference equation reaches back."""
        return max(self.na, self.nb + self.nk - 1)

    def characteristic_roots(self) -> np.ndarray:
        """Poles per output channel, shape (n_outputs, na)."""
        if self.na == 0:
            return np.zeros((self.n_outputs, 0))
        roots = [np.roots(np.concatenate(([1.0], -self.a_coeffs[c]))) for c in range(self.n_outputs)]
        return np.asarray(roots)

    @property
    def stable(self) -> bool:
        """True when every characteristic root is strictly inside the unit circle."""
        roots = self.characteristic_roots()
        return bool(roots.size == 0 or np.abs(roots).max() < 1.0)

    @property
    def label(self) -> str:
        return f"arx(na={self.na},nb={self.nb},nk={self.nk})"


@dataclass(frozen=True)
class FitReport:
    """Per-channel fit percentage and MSE for one candidate model."""

    fit_percent: np.ndarray
    mse: np.ndarray
    model_label: str

    def __post_init__(self):
        fp = np.asarray(self.fit_percent, dtype=float).reshape(-1)
        ms = np.asarray(self.mse, dtype=float).reshape(-1)
        if np.any(fp[~np.isnan(fp)] > 100.0 + 1e-9):
            raise ContractViolationError("fit percentage cannot exceed 100")
        object.__setattr__(self, "fit_percent", fp)
        object.__setattr__(self, "mse", ms)

    @property
    def aggregate(self) -> float:
        return fit_aggregate(self.fit_percent)


def _regressor(y: np.ndarray, u: np.ndarray, na: int, nb: int, nk: int):
    """Regressor matrix and target for one output channel.

    Rows start at t0 = max(na, nb + nk - 1) so every lag stays in range.
    Column order: [y lags 1..na, then per input: u lags nk..nk+nb-1].
    """
    n_samples, m = u.shape
    t0 = max(na, nb + nk - 1, 0)
    rows = n_samples - t0
    cols = na + m * nb
    phi = np.empty((rows, cols))
    t = np.arange(t0, n_samples)
    for i in range(na):
        phi[:, i] = y[t - 1 - i]
    for j in range(m):
        for lag in range(nb):
            phi[:, na + j * nb + lag] = u[t - nk - lag, j]
    return phi, y[t0:], t0


def arx_fit(data, orders: tuple[int, int, int]) -> ArxModel:
    """Least-squares ARX fit of a TrajectorySet.

    ``orders`` is (na, nb, nk).  Each output channel is fit independently by
    an SVD-based least-squares solve (minimum-norm on rank deficiency).  A
    rank-deficient regressor whose minimum-norm solution does not reproduce
    the channel exactly raises :class:`IllConditionedDataError` with the
    condition estimate.
    """
    na, nb, nk = (int(v) for v in orders)
    u = np.atleast_2d(np.asarray(data.inputs, dtype=float))
    y = np.atleast_2d(np.asarray(data.outputs, dtype=float))
    n_samples = y.shape[0]
    if u.shape[0] != n_samples:
        raise ContractViolationError(
            f"inputs and outputs must be row-aligned, got {u.shape[0]} and {n_samples}"
        )
    if n_samples <= na + nb + nk + 10:
        raise ContractViolationError(
            f"need more than {na + nb + nk + 10} samples for orders ({na},{nb},{nk}), got {n_samples}"
        )
    if nb < 1:
        raise ContractViolationError(f"nb must be >= 1, got {nb}")

    p = y.shape[1]
    m = u.shape[1]
    a_coeffs = np.zeros((p, na))
    b_coeffs = np.zeros((p, m, nb))
    for c in range(p):
        phi, target, _ = _regressor(y[:, c], u, na, nb, nk)
        theta, _, rank, sv = np.linalg.lstsq(phi, target, rcond=None)
        if rank < phi.shape[1]:
            cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
            resid = np.linalg.norm(phi @ theta - target)
            scale = max(np.linalg.norm(target), 1.0)
            if resid > _EXACT_FIT_RTOL * scale:
                raise IllConditionedDataError(
                    f"regressor for output channel {c} is rank deficient "
                    f"(rank {rank} of {phi.shape[1]}, condition {cond:.3e})",
                    condition=cond,
                )
        a_coeffs[c] = theta[:na]
        b_coeffs[c] = theta[na:].reshape(m, nb)
    return ArxModel(
        na=na,
        nb=nb,
        nk=nk,
        a_coeffs=a_coeffs,
        b_coeffs=b_coeffs,
        n_outputs=p,
        n_inputs=m,
        dt=float(data.dt),
        source_trial=getattr(data, "trial_id", None),
    )


def _histories(model: ArxModel, y_init, u_init):
    na, nb, nk = model.na, model.nb, model.nk
    p, m = model.n_outputs, model.n_inputs
    if y_init is None:
        y_init = np.zeros((na, p))
    else:
        y_init = np.atleast_2d(np.asarray(y_init, dtype=float))
    if y_init.size == 0:
        y_init = np.zeros((0, p))
    if y_init.shape[0] < na:
        raise ContractViolationError(
            f"y_init must provide at least na={na} rows, got {y_init.shape[0]}"
        )
    if na and y_init.shape[1] != p:
        raise ContractViolationError(
            f"y_init must have {p} channels, got {y_init.shape[1]}"
        )
    hu = max(nb + nk - 1, 0)
    if u_init is None:
        u_hist = np.zeros((hu, m))
    else:
        u_init = np.atleast_2d(np.asarray(u_init, dtype=float))
        if u_init.shape[0] < hu:
            raise ContractViolationError(
                f"u_init must provide at least {hu} rows, got {u_init.shape[0]}"
            )
        if hu and u_init.shape[1] != m:
            raise ContractViolationError(
                f"u_init must have {m} channels, got {u_init.shape[1]}"
            )
        u_hist = u_init[u_init.shape[0] - hu:].reshape(hu, m)
    y_hist = y_init[y_init.shape[0] - na:].reshape(na, p)
    return y_hist, u_hist


def _forced(model: ArxModel, u_src: np.ndarray, steps: int) -> np.ndarray:
    """Input term of ``steps`` consecutive steps, in one product.

    The input term reads no output.  Lag l of step s is
    ``u_src[s + nb - 1 - l]``, so ``u_src`` starts nb + nk - 1 rows before
    the first step.  numpy sends a one-row product to gemv, which rounds
    differently from the gemm of more rows, so a caller that splits the
    steps must never ask for one row.
    """
    nb, p, m = model.nb, model.n_outputs, model.n_inputs
    lagged = u_src[np.arange(steps)[:, None] + np.arange(nb - 1, -1, -1)]
    b_flat = model.b_coeffs.reshape(p, m * nb)
    return lagged.transpose(0, 2, 1).reshape(steps, m * nb) @ b_flat.T


def simulate_arx(model: ArxModel, u, y_init=None, u_init=None, noise=None) -> np.ndarray:
    """Free-run simulation: the recursion feeds on its own past outputs.

    ``y_init`` rows are the pre-start output history in chronological order
    (last row is y[-1]); it defaults to zeros, as does ``u_init``, the
    pre-start input history.  ``noise``, when given, is an (N, p) array of equation-noise
    terms added inside the recursion (so later outputs feed on the noisy
    values).  Returns one output row per input row.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    if u.shape[1] != model.n_inputs:
        raise ContractViolationError(
            f"u must have {model.n_inputs} channels, got {u.shape[1]}"
        )
    na, p = model.na, model.n_outputs
    y_hist, u_hist = _histories(model, y_init, u_init)
    steps = u.shape[0]
    if noise is not None:
        noise = np.asarray(noise, dtype=float).reshape(steps, p)
    forced = _forced(model, np.vstack([u_hist, u]), steps)
    if na == 0:
        return forced if noise is None else forced + noise
    # the output lags are a recursion; with a few lags per channel, Python
    # floats cost less than a numpy call per step.  The additions keep the
    # order (input term + output term) + noise, the output term summed one
    # lag at a time (not by ``sum()``, which compensates from Python 3.12).
    y = np.empty((steps, p))
    for c in range(p):
        taps = list(enumerate(model.a_coeffs[c].tolist(), 1))  # (i + 1, a[c, i])
        noise_c = None if noise is None else noise[:, c].tolist()
        ys = y_hist[:, c].tolist()
        for t, f in enumerate(forced[:, c].tolist()):
            acc = 0.0
            for back, a_i in taps:
                acc += a_i * ys[-back]
            y_t = f + acc
            if noise_c is not None:
                y_t += noise_c[t]
            ys.append(y_t)
        y[:, c] = ys[na:]
    return y


def predict_one_step(model: ArxModel, data) -> tuple[int, np.ndarray]:
    """One-step-ahead predictions on measured data.

    Returns (t0, yhat) where yhat[i] predicts sample t0 + i from measured
    lags; t0 = max(na, nb + nk - 1).
    """
    u = np.atleast_2d(np.asarray(data.inputs, dtype=float))
    y = np.atleast_2d(np.asarray(data.outputs, dtype=float))
    if y.shape[1] != model.n_outputs or u.shape[1] != model.n_inputs:
        raise ContractViolationError(
            f"data has {u.shape[1]} inputs / {y.shape[1]} outputs, model expects "
            f"{model.n_inputs} / {model.n_outputs}"
        )
    t0 = max(model.na, model.nb + model.nk - 1, 0)
    preds = np.empty((y.shape[0] - t0, model.n_outputs))
    for c in range(model.n_outputs):
        phi, _, _ = _regressor(y[:, c], u, model.na, model.nb, model.nk)
        theta = np.concatenate([model.a_coeffs[c], model.b_coeffs[c].reshape(-1)])
        preds[:, c] = phi @ theta
    return t0, preds


def _noise_matrix(value, size: int, name: str) -> np.ndarray:
    if value is None:
        return None
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(size)
    if arr.ndim == 1:
        if arr.shape[0] != size:
            raise ContractViolationError(f"{name} diagonal must have length {size}")
        return np.diag(arr)
    if arr.shape != (size, size):
        raise ContractViolationError(f"{name} must be {size}x{size}, got {arr.shape}")
    return arr


def arx_to_ss(model: ArxModel, q=None, r=None) -> SystemModel:
    """Observable companion realization of the ARX difference equation.

    One companion block per output channel (block-diagonal state matrix);
    the observation matrix picks each block's first state, so the
    input-output response matches the difference equation exactly.  The
    block size is max(na, nb + nk - 1), which equals na whenever
    nb + nk - 1 <= na.

    ``q`` / ``r`` may be scalars, diagonals, or full matrices; they default
    to zero process noise and unit measurement noise.  For filtering real
    data pass the residual-matched values from :func:`residual_covariances`.
    """
    if model.na == 0:
        raise UnsupportedStructureError(
            "na=0 has no dynamic state; the filter needs at least one output lag"
        )
    if model.nk == 0:
        raise UnsupportedStructureError(
            "nk=0 implies direct feedthrough, which the observation model cannot represent"
        )
    nc = model.max_lag
    p, m = model.n_outputs, model.n_inputs
    n = p * nc
    a = np.zeros((n, n))
    b = np.zeros((n, m))
    for c in range(p):
        first = c * nc
        a[first : first + model.na, first] = model.a_coeffs[c]
        a[first + np.arange(nc - 1), first + np.arange(1, nc)] = 1.0
        b[first + model.nk - 1 : first + model.nk - 1 + model.nb] = model.b_coeffs[c].T
    h = np.zeros((p, n))
    h[np.arange(p), np.arange(p) * nc] = 1.0
    q_mat = _noise_matrix(q, n, "q")
    r_mat = _noise_matrix(r, p, "r")
    if q_mat is None:
        q_mat = np.zeros((n, n))
    if r_mat is None:
        r_mat = np.eye(p)
    return SystemModel(a=a, b=b, h=h, q=q_mat, r=r_mat, dt=model.dt)


def residual_covariances(model: ArxModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Residual-matched noise bootstrap from one-step prediction errors.

    Returns (Q, R) sized for the companion realization: Q = q I with q the
    pooled residual variance, R = diag of per-channel residual variances.
    """
    t0, preds = predict_one_step(model, data)
    y = np.atleast_2d(np.asarray(data.outputs, dtype=float))[t0:]
    resid = y - preds
    q = float(np.mean(resid**2))
    r_diag = np.mean(resid**2, axis=0)
    n = model.n_outputs * model.max_lag
    return q * np.eye(n), np.diag(r_diag)


def _holdout_arrays(model: ArxModel, holdout) -> tuple[np.ndarray, np.ndarray]:
    """The holdout's (inputs, outputs), checked against the model's channels
    and long enough to seed its history and score two steps."""
    u = np.atleast_2d(np.asarray(holdout.inputs, dtype=float))
    y = np.atleast_2d(np.asarray(holdout.outputs, dtype=float))
    if y.shape[1] != model.n_outputs or u.shape[1] != model.n_inputs:
        raise ContractViolationError(
            f"holdout has {u.shape[1]} inputs / {y.shape[1]} outputs, model expects "
            f"{model.n_inputs} / {model.n_outputs}"
        )
    lag = model.max_lag
    if y.shape[0] <= lag + 1:
        raise ContractViolationError(
            f"holdout needs more than {lag + 1} samples, got {y.shape[0]}"
        )
    return u, y


def _warn_if_same_trial(model: ArxModel, holdout) -> None:
    holdout_id = getattr(holdout, "trial_id", None)
    if holdout_id and model.source_trial and holdout_id == model.source_trial:
        warnings.warn(
            f"holdout trial {holdout_id!r} matches the training trial; "
            "validation is not independent",
            stacklevel=3,
        )


def _free_run_reports(models: list[ArxModel], u: np.ndarray, y: np.ndarray) -> list[FitReport]:
    """Holdout reports of several models from one free run over all of them.

    Each model is seeded with the first max-lag samples of the holdout, as
    ``simulate_arx(model, u[lag:], y_init=y[:lag], u_init=u[:lag])`` is,
    and scored on the rest.  Every (model, output channel) pair is a column
    of one array.  The columns are ordered by na, largest first, so each
    lag's taps apply to a prefix of them, and one time loop advances them
    all, CHUNK steps at a time, streaming the squared errors.

    The arithmetic is simulate_arx's, (0.0 + a1 y1) + a2 y2 ..., then the
    input term plus that, and the error sums run row by row, as numpy
    reduces an (n, p) array over axis 0.  With two or more outputs the
    reports therefore equal those of simulate_arx, fit_percent and mse bit
    for bit.  With one output numpy sums the error column pairwise and
    makes the input term by gemv, so the two agree to rounding.
    """
    n, p = y.shape
    rank = sorted(range(len(models)), key=lambda k: -models[k].na)
    runs = [models[k] for k in rank]
    span = [slice(j * p, j * p + p) for j in range(len(runs))]
    width = len(runs) * p
    channel = np.tile(np.arange(p), len(runs))
    start = np.repeat([model.max_lag for model in runs], p)  # first free step per column
    pad = max(model.nb + model.nk - 1 for model in runs)
    u_pad = np.vstack([np.zeros((pad, u.shape[1])), u])

    na_max = runs[0].na
    taps = np.zeros((na_max, width))  # row na_max - i: lag i's taps, 0 past a column's na
    for j, model in enumerate(runs):
        taps[na_max - model.na :, span[j]] = model.a_coeffs[:, ::-1].T
    prods = np.empty((na_max, width))
    acc = np.zeros(width)
    adds = []  # (left, lag i's products, out), lag by lag over the columns with na >= i
    for i in range(1, na_max + 1):
        w = p * sum(model.na >= i for model in runs)
        adds.append((acc[:w] if i > 1 else 0.0, prods[na_max - i, :w], acc[:w]))

    # ys: the na_max steps before the chunk, then the chunk's outputs;
    # sq: the running sums of squared errors, then the chunk's squares
    chunk = CHUNK
    ys = np.zeros((na_max + chunk + 1, width))
    forced = np.empty((chunk + 1, width))
    sq = np.zeros((chunk + 2, width))

    t_first, t_late = int(start.min()), int(start.max())
    for r, t in enumerate(range(t_first - na_max, t_first)):
        if t >= 0:  # earlier rows meet only zero taps
            ys[r] = y[t, channel]
    bounds = [*range(t_first, n, chunk), n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]  # a one-row tail joins the chunk before it
    with np.errstate(over="ignore", invalid="ignore"):
        for t0, t1 in zip(bounds, bounds[1:]):
            rows = t1 - t0
            for j, model in enumerate(runs):
                u_src = u_pad[pad + t0 - model.nb - model.nk + 1 :]
                forced[:rows, span[j]] = _forced(model, u_src, rows)
            measured = sq[1 : rows + 1]  # in place, then the chunk's squared errors
            measured[...] = y[t0:t1, channel]
            for s in range(rows):
                np.multiply(taps, ys[s : s + na_max], out=prods)
                for left, prod, out in adds:
                    np.add(left, prod, out=out)
                y_s = ys[na_max + s]
                np.add(forced[s], acc, out=y_s)
                if t0 + s < t_late:  # a model that starts later still reads measured history
                    late = start > t0 + s
                    y_s[late] = measured[s, late]
            np.subtract(measured, ys[na_max : na_max + rows], out=measured)
            np.multiply(measured, measured, out=measured)
            np.cumsum(sq[: rows + 1], axis=0, out=sq[: rows + 1])
            sq[0] = sq[rows]
            ys[:na_max] = ys[rows : rows + na_max]

        reports = [None] * len(models)
        for j, model in enumerate(runs):
            lag = model.max_lag
            total = sq[0, span[j]]
            reports[rank[j]] = FitReport(
                fit_percent=fit_from_error_norm(np.sqrt(total), y[lag:]),
                mse=total / (n - lag),
                model_label=model.label,
            )
    return reports


def cross_validate(model: ArxModel, holdout) -> FitReport:
    """Free-run validation on an independent trajectory.

    The first max-lag samples of the holdout seed the simulation history;
    the remainder is scored with the fit percentage and per-channel MSE.
    The holdout must be longer than max-lag + 1 samples.  A holdout from
    the training trial draws a warning on every call.
    """
    u, y = _holdout_arrays(model, holdout)
    _warn_if_same_trial(model, holdout)
    return _free_run_reports([model], u, y)[0]


def order_sweep(
    train,
    holdout,
    na_values=(1, 2, 3, 4),
    nb_values=(1, 2, 3, 4),
    nk_values=(0, 1, 2),
) -> list[dict]:
    """Fit every order combination and rank by holdout fit.

    Returns one record per (na, nb, nk): the fitted model, its holdout
    report, and whether it can be realized for filtering (na >= 1 and
    nk >= 1).  Sorted by aggregate fit descending; ties break toward the
    lowest total order.  Combinations that fail to fit or to validate are
    recorded with the error message instead of a report (and, when the fit
    failed, of a model).

    Every fitted candidate is validated as :func:`cross_validate` does it,
    but all of them in one free run over the holdout.  Unlike
    :func:`cross_validate`, the sweep does not warn about a holdout from the
    training trial; ``telekf identify`` reports that case itself.
    """
    records = []
    valid = []
    for na in na_values:
        for nb in nb_values:
            for nk in nk_values:
                rec = {"orders": (na, nb, nk), "model": None, "report": None, "error": None}
                rec["filterable"] = na >= 1 and nk >= 1
                try:
                    model = arx_fit(train, (na, nb, nk))
                    rec["model"] = model
                    u, y = _holdout_arrays(model, holdout)
                    valid.append(rec)
                except (ContractViolationError, IllConditionedDataError) as exc:
                    rec["error"] = str(exc)
                records.append(rec)
    if valid:
        reports = _free_run_reports([rec["model"] for rec in valid], u, y)
        for rec, report in zip(valid, reports):
            rec["report"] = report

    def sort_key(rec):
        agg = rec["report"].aggregate if rec["report"] is not None else float("-inf")
        if np.isnan(agg):
            agg = float("-inf")
        # fits equal to within 1e-6 % count as ties; prefer the simpler model
        return (-round(agg, 6), sum(rec["orders"]))

    records.sort(key=sort_key)
    return records


def model_to_doc(model: ArxModel) -> dict:
    """JSON-ready mapping of the model's orders and coefficients."""
    return {
        "na": model.na,
        "nb": model.nb,
        "nk": model.nk,
        "n_outputs": model.n_outputs,
        "n_inputs": model.n_inputs,
        "dt": model.dt,
        "a_coeffs": model.a_coeffs.tolist(),
        "b_coeffs": model.b_coeffs.tolist(),
        "source_trial": model.source_trial,
    }


#: the keys :func:`model_from_doc` reads
_MODEL_KEYS = ("na", "nb", "nk", "a_coeffs", "b_coeffs", "n_outputs", "n_inputs", "dt")


def model_from_doc(doc: dict) -> ArxModel:
    return ArxModel(
        na=doc["na"],
        nb=doc["nb"],
        nk=doc["nk"],
        a_coeffs=np.asarray(doc["a_coeffs"], dtype=float),
        b_coeffs=np.asarray(doc["b_coeffs"], dtype=float),
        n_outputs=doc["n_outputs"],
        n_inputs=doc["n_inputs"],
        dt=doc["dt"],
        source_trial=doc.get("source_trial"),
    )


def save_model(
    model: ArxModel,
    path,
    input_names=None,
    output_names=None,
    fit: FitReport | None = None,
    noise: tuple | None = None,
) -> None:
    """Serialize a model (plus optional metadata) as versioned JSON.

    Floats survive the round trip exactly: JSON rendering uses the shortest
    representation that parses back to the same double.
    """
    doc = {"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION}
    doc.update(model_to_doc(model))
    doc["input_names"] = list(input_names) if input_names is not None else None
    doc["output_names"] = list(output_names) if output_names is not None else None
    if fit is not None:
        doc["fit"] = {
            "fit_percent": fit.fit_percent.tolist(),
            "mse": fit.mse.tolist(),
            "model_label": fit.model_label,
        }
    if noise is not None:
        q_scalar, r_diag = noise
        doc["noise"] = {
            "q": float(q_scalar),
            "r_diag": np.asarray(r_diag, dtype=float).reshape(-1).tolist(),
        }
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n", encoding="utf-8")


def load_model(path) -> tuple[ArxModel, dict]:
    """Read a model file back; returns (model, metadata)."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ContractViolationError(f"{path}: a model file must hold a JSON object")
    if doc.get("format") != MODEL_FORMAT:
        raise ContractViolationError(
            f"{path}: not a {MODEL_FORMAT} file: format={doc.get('format')!r}"
        )
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ContractViolationError(
            f"{path}: unsupported model file version {doc.get('version')!r}"
        )
    missing = [key for key in _MODEL_KEYS if key not in doc]
    if missing:
        raise ContractViolationError(f"{path}: model file lacks {', '.join(missing)}")
    model = model_from_doc(doc)
    meta = {k: doc.get(k) for k in ("input_names", "output_names", "fit", "noise")}
    return model, meta
