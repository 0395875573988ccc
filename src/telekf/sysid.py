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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ContractViolationError,
    IllConditionedDataError,
    UnsupportedStructureError,
    check_dt,
    check_range,
    check_shape,
    is_int,
    is_list_of,
    is_number,
    to_float,
    to_int,
)
from .metrics import channel_spread, fit_aggregate, fit_from_error_norm

if TYPE_CHECKING:
    from .filtering import SystemModel

__all__ = [
    "ArxModel",
    "FitReport",
    "arx_fit",
    "simulate_arx",
    "predict_one_step",
    "arx_to_ss",
    "filter_obstacle",
    "residual_covariances",
    "order_sweep",
    "save_model",
    "load_model",
    "model_to_doc",
]

MODEL_FORMAT = "telekf-arx"
MODEL_FORMAT_VERSION = 1

#: relative residual above which a rank-deficient regression is rejected
_EXACT_FIT_RTOL = 1e-8

#: time steps the batched free run of :func:`order_sweep` holds at a time
CHUNK = 512


@dataclass(frozen=True, eq=False)
class ArxModel:
    """ARX polynomial orders and coefficients.

    ``a_coeffs`` has shape (n_outputs, na): output-lag coefficients per
    channel.  ``b_coeffs`` has shape (n_outputs, n_inputs, nb): input-lag
    coefficients per (output, input) pair, offset by the dead time ``nk``.
    """

    #: the (least, most) value of each order and channel count, as
    #: :func:`~telekf.errors.check_range` reads it; the orders come first
    RANGES = {
        "na": (0, np.inf), "nb": (1, np.inf), "nk": (0, np.inf),
        "n_outputs": (1, np.inf), "n_inputs": (1, np.inf),
    }

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
        for name, bounds in self.RANGES.items():
            object.__setattr__(self, name, to_int(name, getattr(self, name), bounds))
        object.__setattr__(self, "dt", check_dt(self.dt))
        p = self.n_outputs
        for name, shape in (("a_coeffs", (p, self.na)), ("b_coeffs", (p, self.n_inputs, self.nb))):
            coeffs = np.asarray(getattr(self, name), dtype=float)
            check_shape(name, coeffs, shape)
            if not np.isfinite(coeffs).all():
                check_range(name, coeffs[~np.isfinite(coeffs)][0], (-np.inf, np.inf))
            object.__setattr__(self, name, coeffs)

    @property
    def max_lag(self) -> int:
        """Longest history the difference equation reaches back."""
        return max(self.na, self.nb + self.nk - 1)

    @property
    def stable(self) -> bool:
        """True when every output channel's characteristic roots are strictly
        inside the unit circle."""
        return all(np.abs(np.roots([1.0, *-a])).max(initial=0.0) < 1.0 for a in self.a_coeffs)

    @property
    def label(self) -> str:
        return f"arx(na={self.na},nb={self.nb},nk={self.nk})"


@dataclass(frozen=True, eq=False)
class FitReport:
    """Per-channel fit percentage and MSE for one candidate model: two (p,)
    float arrays, as the holdout validator of :func:`order_sweep` scores
    them (a fit is at most 100, or NaN on a constant channel)."""

    fit_percent: np.ndarray
    mse: np.ndarray
    model_label: str

    @cached_property
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
    for i in range(na):
        phi[:, i] = y[t0 - 1 - i : n_samples - 1 - i]
    for j in range(m):
        for lag in range(nb):
            phi[:, na + j * nb + lag] = u[t0 - nk - lag : n_samples - nk - lag, j]
    return phi, y[t0:], t0


def _fit_grid(data, grid) -> list:
    """Least-squares ARX fits of a TrajectorySet over a list of orders.

    Returns, for each (na, nb, nk) of ``grid``, its :class:`ArxModel` or the
    error :func:`arx_fit` raises for it.  Per output channel one QR
    factorization serves every candidate: the regressor of the largest
    orders, NA output lags and input lags 0..K-1 from row T = max(NA, K - 1),
    holds each candidate's columns S, and with [Phi, y] = QR the residual
    ||Phi_S theta - y|| equals ||R_S theta - R_y||.  A candidate whose rows
    start before T stacks those rows under R_S, so each SVD least-squares
    solve (minimum-norm on rank deficiency) is a few rows deep.  Its rank
    threshold is the one of the candidate's own regressor, and a
    rank-deficient candidate whose solution does not reproduce the channel
    exactly gets :class:`IllConditionedDataError` with the condition number.
    """
    u, y = data.inputs, data.outputs
    n_samples, p = y.shape
    m = u.shape[1]
    results, fits = [], []  # fits: (index into results, na, nb, nk, a, b)
    for orders in grid:
        try:
            na, nb, nk = (to_int(name, v, bounds) for (name, bounds), v in zip(ArxModel.RANGES.items(), orders))
            if n_samples <= na + nb + nk + 10:
                raise ContractViolationError(
                    f"need more than {na + nb + nk + 10} samples for orders ({na},{nb},{nk}), got {n_samples}"
                )
        except ContractViolationError as exc:
            results.append(exc)
            continue
        fits.append((len(results), na, nb, nk, np.zeros((p, na)), np.zeros((p, m, nb))))
        results.append(None)
    if not fits:
        return results

    na_max = max(fit[1] for fit in fits)
    k = max(fit[2] + fit[3] for fit in fits)
    for c in range(p):
        phi, target, t_big = _regressor(y[:, c], u, na_max, k, 0)
        r = np.linalg.qr(np.column_stack([phi, target]), mode="r")
        for i, na, nb, nk, a_coeffs, b_coeffs in fits:
            if results[i] is not None:  # rejected on an earlier channel
                continue
            cols = [*range(na), *(na_max + j * k + d for j in range(m) for d in range(nk, nk + nb))]
            head, head_target, t0 = _regressor(y[:t_big, c], u[:t_big], na, nb, nk)
            lhs = np.vstack([r[:, cols], head])
            rhs = np.concatenate([r[:, -1], head_target])
            rcond = np.finfo(float).eps * max(n_samples - t0, len(cols))
            theta, _, rank, sv = np.linalg.lstsq(lhs, rhs, rcond=rcond)
            if rank < len(cols):
                cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else float("inf")
                resid = np.linalg.norm(lhs @ theta - rhs)
                scale = max(np.linalg.norm(y[t0:, c]), 1.0)
                if resid > _EXACT_FIT_RTOL * scale:
                    results[i] = IllConditionedDataError(
                        f"regressor for output channel {c} is rank deficient "
                        f"(rank {rank} of {len(cols)}, condition {cond:.3e})"
                    )
                    continue
            a_coeffs[c] = theta[:na]
            b_coeffs[c] = theta[na:].reshape(m, nb)

    for i, na, nb, nk, a_coeffs, b_coeffs in fits:
        if results[i] is None:
            results[i] = ArxModel(
                na=na, nb=nb, nk=nk, a_coeffs=a_coeffs, b_coeffs=b_coeffs,
                n_outputs=p, n_inputs=m, dt=float(data.dt),
                source_trial=data.trial_id,
            )
    return results


def arx_fit(data, orders: tuple[int, int, int]) -> ArxModel:
    """Least-squares ARX fit of a TrajectorySet.

    ``orders`` is (na, nb, nk).  Each output channel is fit independently by
    an SVD-based least-squares solve (minimum-norm on rank deficiency).  A
    rank-deficient regressor whose minimum-norm solution does not reproduce
    the channel exactly raises :class:`IllConditionedDataError` with the
    condition estimate.  It is the fit of :func:`order_sweep` over a grid
    of one, so the two give a candidate the same model to rounding.
    """
    [fit] = _fit_grid(data, [orders])
    if isinstance(fit, Exception):
        raise fit
    return fit


def _forced(model: ArxModel, u_src: np.ndarray, steps: int) -> np.ndarray:
    """Input term of the ``steps`` steps of :func:`simulate_arx`, in one
    product.

    The input term reads no output.  Lag l of step s is
    ``u_src[s + nb - 1 - l]``, so ``u_src`` starts nb + nk - 1 rows before
    the first step.  Each output's sum runs input by input, lag by lag; the
    free run of :func:`order_sweep` forms the same sums with exact zeros
    between the terms, so the two agree bit for bit.
    """
    nb, p, m = model.nb, model.n_outputs, model.n_inputs
    lagged = u_src[np.arange(steps)[:, None] + np.arange(nb - 1, -1, -1)]
    b_flat = model.b_coeffs.reshape(p, m * nb)
    return lagged.transpose(0, 2, 1).reshape(steps, m * nb) @ b_flat.T


def simulate_arx(model: ArxModel, u, noise=None) -> np.ndarray:
    """Free-run simulation from rest of the (N, m) inputs ``u``: the
    recursion feeds on its own past outputs, and every output and input
    before the first step is zero.

    ``noise``, when given, is an (N, p) array of equation-noise terms added
    inside the recursion (so later outputs feed on the noisy values).
    Returns one output row per input row.
    """
    u = np.asarray(u, dtype=float)
    check_shape("u", u, (None, model.n_inputs))
    if noise is not None:
        noise = np.asarray(noise, dtype=float)
        check_shape("noise", noise, (u.shape[0], model.n_outputs))
    y_hist = np.zeros((model.na, model.n_outputs))
    u_hist = np.zeros((model.nb + model.nk - 1, model.n_inputs))
    return _simulate(model, u, y_hist, u_hist, noise)


def _simulate(model: ArxModel, u, y_hist, u_hist, noise) -> np.ndarray:
    """The free run of :func:`simulate_arx` from the histories ``y_hist``,
    the na outputs before the first step, and ``u_hist``, the
    nb + nk - 1 inputs before it, both in chronological order."""
    na, p = model.na, model.n_outputs
    steps = u.shape[0]
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
    u, y = data.inputs, data.outputs
    check_shape("inputs", u, (None, model.n_inputs))
    check_shape("outputs", y, (None, model.n_outputs))
    t0 = max(model.na, model.nb + model.nk - 1, 0)
    preds = np.empty((y.shape[0] - t0, model.n_outputs))
    for c in range(model.n_outputs):
        phi, _, _ = _regressor(y[:, c], u, model.na, model.nb, model.nk)
        theta = np.concatenate([model.a_coeffs[c], model.b_coeffs[c].reshape(-1)])
        preds[:, c] = phi @ theta
    return t0, preds


def filter_obstacle(na: int, nk: int) -> str | None:
    """Why ARX orders (na, nb, nk) have no realization the filter can run, or
    None; the reason's first word names the order, ``na=0`` before ``nk=0``."""
    if na == 0:
        return "na=0 has no dynamic state; the filter needs at least one output lag"
    if nk == 0:
        return "nk=0 implies direct feedthrough, which the observation model cannot represent"
    return None


def arx_to_ss(model: ArxModel, q, r) -> SystemModel:
    """Observable companion realization of the ARX difference equation.

    One companion block per output channel (block-diagonal state matrix);
    the observation matrix picks each block's first state, so the
    input-output response matches the difference equation exactly.  The
    block size is max(na, nb + nk - 1), which equals na whenever
    nb + nk - 1 <= na.

    ``q`` is one process-noise variance for every state and ``r`` the
    (p,) measurement-noise variances, one per output channel: the
    residual-matched pair of :func:`residual_covariances`, which the model
    file carries as its noise.  :class:`SystemModel` checks ``r``'s length
    and range.
    """
    from .filtering import SystemModel  # imported here, so identify and synth do not load the filter

    obstacle = filter_obstacle(model.na, model.nk)
    if obstacle is not None:
        raise UnsupportedStructureError(obstacle)
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
    return SystemModel(a=a, b=b, h=h, q_diag=np.full(n, float(q)), r_diag=r)


def residual_covariances(model: ArxModel, data) -> tuple[float, np.ndarray]:
    """Residual-matched noise bootstrap from one-step prediction errors.

    Returns (q, r_diag), the noise form :func:`arx_to_ss` and the model file
    take: q is the pooled residual variance, r_diag the (p,) per-channel
    residual variances.
    """
    t0, preds = predict_one_step(model, data)
    resid = data.outputs[t0:] - preds
    return float(np.mean(resid**2)), np.mean(resid**2, axis=0)


def _free_run_reports(models: list[ArxModel], u: np.ndarray, y: np.ndarray) -> list[FitReport]:
    """Holdout reports of several models from one free run over all of them.

    Each model is seeded with the first max-lag samples of the holdout, as
    ``_simulate(model, u[lag:], y[lag - na:lag], u[lag - nb - nk + 1:lag],
    None)`` is, and scored on the rest.  Every (model, output channel) pair
    is a column of one array, and one time loop advances them all, CHUNK
    steps at a time, streaming the squared errors.  Each step sums its output term in
    one masked reduction over the lags, lag 1 first; the mask skips the
    lags past a column's na, so a column with na = 0 sums to 0.0 and the
    0 * inf of a zero tap on a diverged history never enters a sum.  The
    input term of a chunk is one product for every column: the chunk's
    inputs at delays 0..K-1 (K the largest nb + nk) times a block that
    holds each model's b at its delays nk..nk+nb-1 and zeros elsewhere.
    numpy sends a one-row product to gemv, which rounds differently from
    the gemm of more rows, so a one-row tail joins the chunk before it.

    The arithmetic is _simulate's, (0.0 + a1 y1) + a2 y2 ..., then the
    input term (its sum in _simulate's order, the zeros adding nothing)
    plus that, and the error sums run row by row, as numpy
    reduces an (n, p) array over axis 0.  With two or more outputs the
    reports therefore equal those of _simulate, fit_percent and mse bit
    for bit.  With one output numpy sums the error column pairwise and
    makes the input term by gemv, so the two agree to rounding.
    """
    n, p = y.shape
    span = [slice(j * p, j * p + p) for j in range(len(models))]
    width = len(models) * p
    channel = np.tile(np.arange(p), len(models))
    start = np.repeat([model.max_lag for model in models], p)  # first free step per column
    m, k = u.shape[1], max(model.nb + model.nk for model in models)
    u_pad = np.vstack([np.zeros((k - 1, m)), u])
    delayed = sliding_window_view(u_pad, k, axis=0)[:, :, ::-1]  # [t, j, d]: u_j[t - d]
    gains = np.zeros((m * k, width))  # row j*k + d: input j's coefficient at delay d, or 0
    for j, model in enumerate(models):
        b_rows = (np.arange(m)[:, None] * k + model.nk + np.arange(model.nb)).ravel()
        gains[b_rows, span[j]] = model.b_coeffs.reshape(p, -1).T

    na_max = max(model.na for model in models)
    taps = np.zeros((na_max, width))  # row na_max - i: lag i's taps, 0 past a column's na
    fused = np.zeros((na_max, width), dtype=bool)  # row i - 1: the columns with na >= i
    for j, model in enumerate(models):
        taps[na_max - model.na :, span[j]] = model.a_coeffs[:, ::-1].T
        fused[: model.na, span[j]] = True
    prods = np.empty((na_max, width))
    acc = np.empty(width)

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
            np.matmul(delayed[t0:t1].reshape(rows, m * k), gains, out=forced[:rows])
            measured = sq[1 : rows + 1]  # in place, then the chunk's squared errors
            measured[...] = y[t0:t1, channel]
            for s in range(rows):
                np.multiply(taps, ys[s : s + na_max], out=prods)
                np.add.reduce(prods[::-1], axis=0, where=fused, out=acc)
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

        reports = []
        spreads = {}  # max lag -> the spread of the window it scores
        for j, model in enumerate(models):
            lag = model.max_lag
            if lag not in spreads:
                spreads[lag] = channel_spread(y[lag:])
            total = sq[0, span[j]]
            reports.append(FitReport(
                fit_percent=fit_from_error_norm(np.sqrt(total), spreads[lag]),
                mse=total / (n - lag),
                model_label=model.label,
            ))
    return reports


def order_sweep(train, holdout, na_values, nb_values, nk_values) -> list[dict]:
    """Fit every order combination and rank by holdout fit.

    Returns one record per (na, nb, nk): the fitted model, its holdout
    report, and whether it can be realized for filtering (see
    :func:`filter_obstacle`).  Sorted by aggregate fit descending; ties
    break toward the lowest total order.  Combinations that fail to fit or to validate are
    recorded with the error message instead of a report (and, when the fit
    failed, of a model).

    Every fitted candidate is validated in one free run over the holdout:
    the first max-lag samples seed its history and the rest is scored with
    the fit percentage and per-channel MSE.  Every candidate has the
    training data's channels, so the holdout's channel counts are checked
    once; its length is checked per candidate.  The sweep does not warn about
    a holdout from the training trial; ``telekf identify`` reports that
    case itself.
    """
    grid = [(na, nb, nk) for na in na_values for nb in nb_values for nk in nk_values]
    u, y = holdout.inputs, holdout.outputs
    m, p = train.inputs.shape[1], train.outputs.shape[1]  # every candidate's channels
    try:
        check_shape("holdout inputs", u, (None, m))
        check_shape("holdout outputs", y, (None, p))
        mismatch = None
    except ContractViolationError as err:
        mismatch = str(err)
    records = []
    valid = []
    for (na, nb, nk), fit in zip(grid, _fit_grid(train, grid)):
        rec = {"orders": (na, nb, nk), "model": None, "report": None, "error": None}
        rec["filterable"] = filter_obstacle(na, nk) is None
        if isinstance(fit, Exception):
            rec["error"] = str(fit)
        else:
            rec["model"] = fit
            if mismatch is not None:
                rec["error"] = mismatch
            elif y.shape[0] <= fit.max_lag + 1:  # seed the history and score two steps
                rec["error"] = f"holdout needs more than {fit.max_lag + 1} samples, got {y.shape[0]}"
            else:
                valid.append(rec)
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


#: the keys of a model file that :func:`load_model` builds its model from
_MODEL_KEYS = ("na", "nb", "nk", "a_coeffs", "b_coeffs", "n_outputs", "n_inputs", "dt")


def save_model(model: ArxModel, path, input_names, output_names, fit: FitReport, noise: tuple) -> None:
    """Serialize a model, its channel names, holdout fit and ``noise``, the
    (q, r_diag) of :func:`residual_covariances`, as versioned JSON.

    Floats survive the round trip exactly: JSON rendering uses the shortest
    representation that parses back to the same double.
    """
    q, r_diag = noise
    doc = {"format": MODEL_FORMAT, "version": MODEL_FORMAT_VERSION}
    doc.update(model_to_doc(model))
    doc["input_names"] = list(input_names)
    doc["output_names"] = list(output_names)
    doc["fit"] = {
        "fit_percent": fit.fit_percent.tolist(),
        "mse": fit.mse.tolist(),
        "model_label": fit.model_label,
    }
    doc["noise"] = {"q": float(q), "r_diag": np.asarray(r_diag, dtype=float).tolist()}
    Path(path).write_text(json.dumps(doc, indent=2, allow_nan=True) + "\n", encoding="utf-8")


def _is_nested(value, shape) -> bool:
    """``value`` is nested lists of numbers with the given lengths."""
    if not shape:
        return is_number(value)
    return is_list_of(value, lambda item: _is_nested(item, shape[1:])) and len(value) == shape[0]


def _check_model_doc(path, doc: dict) -> None:
    """Raise, naming ``path``, unless a model file's values have the types,
    shapes and ranges its model and noise variances need."""

    def reject(what, value):
        raise ContractViolationError(f"{path}: {what}, got {json.dumps(value)}")

    for key, bounds in ArxModel.RANGES.items():
        if not is_int(doc[key]):
            reject(f"{key}: expected a non-negative integer", doc[key])
        check_range(f"{path}: {key}", doc[key], bounds)
    if not is_number(doc["dt"]):
        reject("dt: expected a number", doc["dt"])
    check_dt(doc["dt"], f"{path}: dt")
    p = doc["n_outputs"]
    for key, shape in (("a_coeffs", (p, doc["na"])), ("b_coeffs", (p, doc["n_inputs"], doc["nb"]))):
        if not _is_nested(doc[key], shape):
            reject(f"{key}: expected {' x '.join(map(str, shape))} nested lists of numbers", doc[key])
        values = doc[key]
        for _ in shape[1:]:
            values = [value for row in values for value in row]
        for value in values:
            to_float(f"{path}: {key}", value, (-np.inf, np.inf))
    noise = doc["noise"]
    if not isinstance(noise, dict):
        reject("noise: expected an object", noise)
    if not is_number(noise.get("q")):
        reject("noise: q: expected a number", noise.get("q"))
    if not _is_nested(noise.get("r_diag"), (p,)):
        reject(f"noise: r_diag: expected a list of {p} numbers", noise.get("r_diag"))
    for key, values in (("q", [noise["q"]]), ("r_diag", noise["r_diag"])):
        for value in values:
            to_float(f"{path}: noise: {key}", value, (0, np.inf))


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
    missing = [key for key in (*_MODEL_KEYS, "noise") if key not in doc]
    if missing:
        raise ContractViolationError(f"{path}: model file lacks {', '.join(missing)}")
    _check_model_doc(path, doc)
    model = ArxModel(**{key: doc[key] for key in _MODEL_KEYS}, source_trial=doc.get("source_trial"))
    meta = {k: doc.get(k) for k in ("input_names", "output_names", "fit", "noise")}
    return model, meta
