"""Kinematics file parsing, channel selection, and synthetic trajectories.

The on-disk format is whitespace-delimited numeric text, one row per sample
at a fixed period (1/30 s by default), 76 columns: master-side channels in
columns 1-38 and patient-side channels in 39-76.  The per-column meaning is
data-driven — ``resources/jigsaws_columns.json`` maps column index to name,
unit, and block, and can be swapped without code changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    KinematicsFormatError,
    UnknownChannelNameError,
)
from .sysid import ArxModel, simulate_arx

__all__ = [
    "ColumnLayout",
    "TrajectorySet",
    "SyntheticSpec",
    "parse_kinematics",
    "select_channels",
    "apply_preset",
    "paper_preset_names",
    "gen_synthetic",
    "random_stable_arx",
    "write_kinematics",
    "default_layout",
]

DEFAULT_DT = 1.0 / 30.0


@dataclass(frozen=True)
class ColumnLayout:
    """Column descriptor: names, units, and master/slave block per column."""

    names: tuple[str, ...]
    units: tuple[str, ...]
    blocks: tuple[str, ...]

    @property
    def n_columns(self) -> int:
        return len(self.names)

    def block_indices(self, block: str) -> np.ndarray:
        return np.array([i for i, b in enumerate(self.blocks) if b == block], dtype=int)

    @classmethod
    def from_dict(cls, doc: dict) -> "ColumnLayout":
        cols = sorted(doc["columns"], key=lambda c: c["index"])
        return cls(
            names=tuple(c["name"] for c in cols),
            units=tuple(c["unit"] for c in cols),
            blocks=tuple(c["block"] for c in cols),
        )


_DEFAULT_LAYOUT = None


def default_layout() -> ColumnLayout:
    """The packaged 76-column descriptor (cached)."""
    global _DEFAULT_LAYOUT
    if _DEFAULT_LAYOUT is None:
        text = (
            importlib_resources.files("telekf.resources")
            .joinpath("jigsaws_columns.json")
            .read_text(encoding="utf-8")
        )
        _DEFAULT_LAYOUT = ColumnLayout.from_dict(json.loads(text))
    return _DEFAULT_LAYOUT


@dataclass(frozen=True)
class TrajectorySet:
    """Row-aligned input (master-side) and output (patient-side) channels."""

    dt: float
    inputs: np.ndarray
    outputs: np.ndarray
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    trial_id: str = ""

    def __post_init__(self):
        inputs = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        outputs = np.atleast_2d(np.asarray(self.outputs, dtype=float))
        if inputs.shape[0] != outputs.shape[0]:
            raise ContractViolationError(
                f"inputs and outputs must be row-aligned, got {inputs.shape[0]} and {outputs.shape[0]}"
            )
        if inputs.shape[0] < 1:
            raise ContractViolationError("a trajectory needs at least one sample")
        if not np.isfinite(inputs).all() or not np.isfinite(outputs).all():
            raise ContractViolationError("trajectory values must be finite")
        if not self.dt > 0.0:
            raise ContractViolationError(f"dt must be positive, got {self.dt}")
        if len(self.input_names) != inputs.shape[1]:
            raise ContractViolationError(
                f"{len(self.input_names)} input names for {inputs.shape[1]} input channels"
            )
        if len(self.output_names) != outputs.shape[1]:
            raise ContractViolationError(
                f"{len(self.output_names)} output names for {outputs.shape[1]} output channels"
            )
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "input_names", tuple(self.input_names))
        object.__setattr__(self, "output_names", tuple(self.output_names))

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def channel_names(self) -> tuple[str, ...]:
        return self.input_names + self.output_names


def _read_text(source) -> str:
    """The source's text; every byte source is decoded as UTF-8."""
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    elif isinstance(source, bytes):
        data = source
    else:
        data = source.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KinematicsFormatError(
            f"byte offset {exc.start}: cannot decode {data[exc.start:exc.end]!r} as UTF-8"
        ) from None


def _parse_tokens(text: str, n_columns: int) -> np.ndarray:
    """Per-token reader: values, or the error naming the offending row.

    Reads tokens only Python's ``float`` accepts (``1_0``, non-ASCII digits)
    and is the only reader that can name the row and column of an error.
    """
    rows = []
    line_numbers = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != n_columns:
            raise KinematicsFormatError(
                f"row {lineno}: expected {n_columns} columns, got {len(tokens)}"
            )
        rows.append(tokens)
        line_numbers.append(lineno)
    if not rows:
        raise ContractViolationError("kinematics source contains no data rows")
    try:
        values = np.array(rows, dtype=float)
    except ValueError:
        for tokens, lineno in zip(rows, line_numbers):
            for col, token in enumerate(tokens, start=1):
                try:
                    float(token)
                except ValueError:
                    raise KinematicsFormatError(
                        f"row {lineno}, column {col}: cannot parse {token!r} as a number"
                    ) from None
        raise
    bad = ~np.isfinite(values).all(axis=1)
    if bad.any():
        bad_lines = [line_numbers[i] for i in np.flatnonzero(bad)]
        raise KinematicsFormatError(
            f"rows with non-finite values rejected (lines {bad_lines})"
        )
    return values


def parse_kinematics(
    source,
    layout: ColumnLayout | None = None,
    dt: float = DEFAULT_DT,
    trial_id: str = "",
) -> TrajectorySet:
    """Parse a kinematics text file into a TrajectorySet.

    ``source`` may be a path, raw bytes, or a file object; bytes are decoded
    as UTF-8.  Every row must carry exactly ``layout.n_columns``
    whitespace-separated numeric tokens; violations raise
    :class:`KinematicsFormatError` naming the row (and column for bad
    tokens).  Rows containing NaN or infinity are rejected, with their line
    numbers reported.
    """
    layout = layout or default_layout()
    text = _read_text(source)
    if not text or text.isspace():
        raise ContractViolationError("kinematics source contains no data rows")
    # numpy's reader splits rows and tokens as str.splitlines/str.split do and
    # parses a subset of what float() accepts to the same bits; anything it
    # rejects goes to the per-token reader for its value or its error
    try:
        values = np.loadtxt(text.splitlines(), dtype=float, comments=None, ndmin=2)
    except ValueError:
        values = None
    if (
        values is None
        or values.shape[1] != layout.n_columns
        or not np.isfinite(values).all()
    ):
        values = _parse_tokens(text, layout.n_columns)
    master = layout.block_indices("master")
    slave = layout.block_indices("slave")
    names = np.asarray(layout.names)
    return TrajectorySet(
        dt=dt,
        inputs=values[:, master],
        outputs=values[:, slave],
        input_names=tuple(names[master]),
        output_names=tuple(names[slave]),
        trial_id=trial_id,
    )


def _pick_columns(ts: TrajectorySet, names) -> np.ndarray:
    """Column data for each requested name, searched across both sides."""
    stacked = {}
    for i, name in enumerate(ts.input_names):
        stacked.setdefault(name, ts.inputs[:, i])
    for i, name in enumerate(ts.output_names):
        stacked.setdefault(name, ts.outputs[:, i])
    cols = []
    for name in names:
        if name not in stacked:
            raise UnknownChannelNameError(
                f"unknown channel {name!r}; available: {', '.join(ts.channel_names)}"
            )
        cols.append(stacked[name])
    if not cols:
        raise ContractViolationError("at least one channel must be selected")
    return np.column_stack(cols)


def select_channels(ts: TrajectorySet, input_names, output_names) -> TrajectorySet:
    """Column-subset TrajectorySet preserving the order of the name lists.

    Names may come from either side (an output channel can be re-used as an
    input) and may repeat; unknown names raise with the available labels.
    """
    input_names = list(input_names)
    output_names = list(output_names)
    return TrajectorySet(
        dt=ts.dt,
        inputs=_pick_columns(ts, input_names),
        outputs=_pick_columns(ts, output_names),
        input_names=tuple(input_names),
        output_names=tuple(output_names),
        trial_id=ts.trial_id,
    )


def paper_preset_names(arm: str = "right") -> tuple[list[str], list[str], dict[str, str]]:
    """Channel names for the default preset: master tool-tip kinematics in,
    patient tool-tip position out, with arm-neutral relabeling."""
    if arm not in ("left", "right"):
        raise ContractViolationError(f"arm must be 'left' or 'right', got {arm!r}")
    in_fields = ["x", "y", "z", "vx", "vy", "vz"]
    out_fields = ["x", "y", "z"]
    inputs = [f"mtm_{arm}_{f}" for f in in_fields]
    outputs = [f"psm_{arm}_{f}" for f in out_fields]
    renames = {f"mtm_{arm}_{f}": f"mtm_{f}" for f in in_fields}
    renames.update({f"psm_{arm}_{f}": f"psm_{f}" for f in out_fields})
    return inputs, outputs, renames


def apply_preset(ts: TrajectorySet, preset: str = "paper", arm: str = "right") -> TrajectorySet:
    """Apply a named channel preset; only "paper" is defined."""
    if preset != "paper":
        raise ContractViolationError(f"unknown preset {preset!r}")
    inputs, outputs, renames = paper_preset_names(arm)
    selected = select_channels(ts, inputs, outputs)
    return replace(
        selected,
        input_names=tuple(renames[n] for n in selected.input_names),
        output_names=tuple(renames[n] for n in selected.output_names),
    )


def random_stable_arx(
    na: int,
    nb: int,
    nk: int,
    n_outputs: int,
    n_inputs: int,
    seed: int,
    dt: float = DEFAULT_DT,
    pole_radius: float = 0.9,
) -> ArxModel:
    """Random ARX model with all poles inside ``pole_radius``.

    Poles are drawn as complex-conjugate pairs (plus one real pole when na
    is odd); input coefficients are standard normal.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    a_coeffs = np.empty((n_outputs, na))
    for c in range(n_outputs):
        poles = []
        remaining = na
        while remaining >= 2:
            radius = rng.uniform(0.2, pole_radius)
            angle = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([radius * np.exp(1j * angle), radius * np.exp(-1j * angle)])
            remaining -= 2
        if remaining:
            poles.append(rng.uniform(-pole_radius, pole_radius))
        poly = np.real(np.poly(np.asarray(poles))) if poles else np.array([1.0])
        a_coeffs[c] = -poly[1:]
    b_coeffs = rng.standard_normal((n_outputs, n_inputs, nb))
    return ArxModel(
        na=na,
        nb=nb,
        nk=nk,
        a_coeffs=a_coeffs,
        b_coeffs=b_coeffs,
        n_outputs=n_outputs,
        n_inputs=n_inputs,
        dt=dt,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a deterministic synthetic trajectory.

    ``generator`` is the ground-truth ArxModel; ``excitation`` is "white"
    or "sines"; ``process_noise`` is the standard deviation of the equation
    noise entering the recursion; ``measurement_noise`` is the standard
    deviation of the additive noise on the recorded outputs.
    """

    generator: ArxModel
    n_samples: int
    seed: int
    excitation: str = "white"
    input_scale: float = 1.0
    process_noise: float = 0.0
    measurement_noise: float = 0.0
    dt: float | None = None

    def __post_init__(self):
        if self.excitation not in ("white", "sines"):
            raise ContractViolationError(
                f"excitation must be 'white' or 'sines', got {self.excitation!r}"
            )
        if self.n_samples < 2:
            raise ContractViolationError("n_samples must be at least 2")
        if self.process_noise < 0 or self.measurement_noise < 0:
            raise ContractViolationError("noise levels must be >= 0")


def gen_synthetic(spec: SyntheticSpec) -> TrajectorySet:
    """Simulate the generator under seeded excitation and noise.

    The same spec always produces the same TrajectorySet.  Unstable
    generators are rejected.
    """
    model = spec.generator
    if not model.stable:
        raise ContractViolationError("generator is unstable")
    dt = spec.dt if spec.dt is not None else model.dt
    exc_seq, proc_seq, meas_seq = np.random.SeedSequence(spec.seed).spawn(3)
    exc_rng = np.random.Generator(np.random.PCG64(exc_seq))
    n, m, p = spec.n_samples, model.n_inputs, model.n_outputs

    if spec.excitation == "white":
        u = spec.input_scale * exc_rng.standard_normal((n, m))
    else:
        t = np.arange(n)[:, None, None] * dt
        freqs = exc_rng.uniform(0.05, 0.45, size=(1, m, 4)) / dt / 10.0
        phases = exc_rng.uniform(0.0, 2 * np.pi, size=(1, m, 4))
        amps = exc_rng.uniform(0.3, 1.0, size=(1, m, 4))
        u = spec.input_scale * np.sum(amps * np.sin(2 * np.pi * freqs * t + phases), axis=2)

    noise = None
    if spec.process_noise > 0:
        proc_rng = np.random.Generator(np.random.PCG64(proc_seq))
        noise = spec.process_noise * proc_rng.standard_normal((n, p))
    y = simulate_arx(model, u, y_init=np.zeros((model.na, p)), noise=noise)
    if spec.measurement_noise > 0:
        meas_rng = np.random.Generator(np.random.PCG64(meas_seq))
        y = y + spec.measurement_noise * meas_rng.standard_normal((n, p))
    return TrajectorySet(
        dt=dt,
        inputs=u,
        outputs=y,
        input_names=tuple(f"u{j + 1}" for j in range(m)),
        output_names=tuple(f"y{c + 1}" for c in range(p)),
        trial_id=f"synthetic-seed{spec.seed}",
    )


def write_kinematics(ts: TrajectorySet, path, layout: ColumnLayout | None = None) -> None:
    """Write a TrajectorySet as layout-shaped text (unused columns zero).

    Inputs land in the first master-side columns, outputs in the first
    slave-side columns, so a parse + select round trip reproduces the
    values exactly (floats are written with full precision).
    """
    layout = layout or default_layout()
    master = layout.block_indices("master")
    slave = layout.block_indices("slave")
    m, p = ts.inputs.shape[1], ts.outputs.shape[1]
    if m > master.size or p > slave.size:
        raise ContractViolationError(
            f"layout holds {master.size} master / {slave.size} slave columns; "
            f"trajectory has {m} / {p}"
        )
    used = np.concatenate([master[:m], slave[:p]])
    order = np.argsort(used)
    values = np.hstack([ts.inputs, ts.outputs])[:, order].tolist()
    # "%.17g" prints 0.0 as "0", so the unused columns are literal text
    fields = ["0"] * layout.n_columns
    for col in used:
        fields[col] = "%.17g"
    row = " ".join(fields) + "\n"
    Path(path).write_text("".join([row % tuple(v) for v in values]), encoding="utf-8")
