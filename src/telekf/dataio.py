"""Kinematics file parsing, channel selection, and synthetic trajectories.

The on-disk format is the JIGSAWS kinematics text (Gao et al., 2014):
whitespace-delimited numbers, one row per sample at a fixed period (1/30 s
by default), 76 columns as :data:`LAYOUT` names them — master-side arms in
columns 1-38 and patient-side arms in 39-76.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    ContractViolationError,
    KinematicsFormatError,
    UnknownChannelNameError,
    check_dt,
    check_range,
    check_shape,
    to_int,
)
from .sysid import ArxModel, simulate_arx

__all__ = [
    "LAYOUT",
    "SIDE",
    "check_capacity",
    "TrajectorySet",
    "SyntheticSpec",
    "parse_kinematics",
    "select_channels",
    "paper_preset",
    "gen_synthetic",
    "random_stable_arx",
    "write_kinematics",
]

DEFAULT_DT = 1.0 / 30.0
POLE_RADIUS = 0.9

#: rows of text formatted and written at a time, here and by ``simrunner``
WRITE_BLOCK_ROWS = 1024


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted (RFC 4180) if it holds a comma or a quote."""
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


_POSITION = ("x", "y", "z")
_VELOCITY = ("vx", "vy", "vz")
#: the 19 columns of one arm: tool-tip position, rotation matrix, linear
#: velocity, angular velocity and gripper angle
_ARM_FIELDS = (*_POSITION, *(f"r{i}{j}" for i in "123" for j in "123"), *_VELOCITY, "wx", "wy", "wz", "grip")

#: the 76 JIGSAWS columns ``<mtm|psm>_<left|right>_<field>``: the master
#: arms (MTM), left then right, then the patient-side arms (PSM)
LAYOUT = tuple(
    f"{side}_{arm}_{field}" for side in ("mtm", "psm") for arm in ("left", "right") for field in _ARM_FIELDS
)
#: the columns of each side: ``LAYOUT[:SIDE]`` are the master arms, ``LAYOUT[SIDE:]`` the patient-side ones
SIDE = 2 * len(_ARM_FIELDS)


def check_capacity(n_inputs: int, n_outputs: int, names=("input channels", "output channels")) -> None:
    """Raise unless the master side holds ``n_inputs`` columns and the
    patient side ``n_outputs``; the error calls the two counts ``names``."""
    for name, value, block in zip(names, (n_inputs, n_outputs), ("master", "slave")):
        if value > SIDE:
            raise ContractViolationError(f"{name} must be at most {SIDE} (the layout's {block} columns), got {value}")


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Input (master-side) and output (patient-side) channels: ``inputs`` is
    (N, m) and ``outputs`` (N, p), with one name per column."""

    dt: float
    inputs: np.ndarray
    outputs: np.ndarray
    input_names: tuple[str, ...]
    output_names: tuple[str, ...]
    trial_id: str = ""

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        check_shape("inputs", inputs, (None, len(self.input_names)))
        outputs = np.asarray(self.outputs, dtype=float)
        check_shape("outputs", outputs, (inputs.shape[0], len(self.output_names)))
        if inputs.shape[0] < 1:
            raise ContractViolationError("a trajectory needs at least one sample")
        if not np.isfinite(inputs).all() or not np.isfinite(outputs).all():
            raise ContractViolationError("trajectory values must be finite")
        object.__setattr__(self, "dt", check_dt(self.dt))
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


def _parse_tokens(data: bytes, n_columns: int) -> np.ndarray:
    """Per-token reader: values, or the error naming the offending byte or row.

    Reads tokens only Python's ``float`` accepts (``1_0``, non-ASCII digits)
    and is the only reader that can name the row and column of an error.
    The text is decoded whole before any row is read, so an undecodable
    byte is named first wherever it lies.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise KinematicsFormatError(
            f"byte offset {exc.start}: cannot decode {data[exc.start:exc.end]!r} as UTF-8"
        ) from None
    rows = []
    line_numbers = []
    # lines end at "\n", "\r\n" or "\r", as they do for numpy's reader
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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
    dt: float = DEFAULT_DT,
    trial_id: str = "",
) -> TrajectorySet:
    r"""Parse a kinematics text file into a TrajectorySet.

    ``source`` is the file's path (``str`` or ``os.PathLike``), read as UTF-8
    text whose rows end at ``"\n"``, ``"\r\n"`` or ``"\r"``; any other
    whitespace, ``"\x0b"`` and ``"\x85"`` included, separates tokens within a
    row.  The open text is streamed to numpy's reader, so neither the text
    nor its lines are held beside the parsed array.  Every row must carry
    exactly 76 whitespace-separated numeric tokens;
    violations raise :class:`KinematicsFormatError` naming the row (and
    column for bad tokens).  Rows containing NaN or infinity are rejected,
    with their line numbers reported.
    """
    path = Path(source)
    # the file is opened here, not by numpy, which would decompress it by its
    # extension or fetch it as a URL.  numpy's reader iterates the stream's
    # lines, splits them into tokens as str.split does and parses a subset of
    # what float() accepts to the same bits; anything it rejects or warns
    # about (an undecodable byte, a file with no data rows) goes to the
    # per-token reader for its value or its error
    with open(path, encoding="utf-8") as stream, warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            values = np.loadtxt(stream, dtype=float, comments=None, ndmin=2)
        except (ValueError, Warning):
            values = None
    if (
        values is None
        or values.shape[1] != len(LAYOUT)
        or not np.isfinite(values).all()
    ):
        values = _parse_tokens(path.read_bytes(), len(LAYOUT))
    # both sides are views of the one parsed array
    return TrajectorySet(
        dt=dt,
        inputs=values[:, :SIDE],
        outputs=values[:, SIDE:],
        input_names=LAYOUT[:SIDE],
        output_names=LAYOUT[SIDE:],
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


def paper_preset(ts: TrajectorySet, arm: str) -> TrajectorySet:
    """The paper's channels of one arm: master tool-tip position and velocity
    in, patient tool-tip position out, named without the arm (``mtm_x``, ``psm_x``)."""
    if arm not in ("left", "right"):
        raise ContractViolationError(f"arm must be 'left' or 'right', got {arm!r}")
    in_fields, out_fields = _POSITION + _VELOCITY, _POSITION
    selected = select_channels(ts, [f"mtm_{arm}_{f}" for f in in_fields], [f"psm_{arm}_{f}" for f in out_fields])
    return replace(
        selected,
        input_names=tuple(f"mtm_{f}" for f in in_fields),
        output_names=tuple(f"psm_{f}" for f in out_fields),
    )


def random_stable_arx(
    na: int,
    nb: int,
    nk: int,
    n_outputs: int,
    n_inputs: int,
    seed: int,
    dt: float = DEFAULT_DT,
) -> ArxModel:
    """Random ARX model with all poles inside :data:`POLE_RADIUS`.

    Poles are drawn as complex-conjugate pairs (plus one real pole when na
    is odd); input coefficients are standard normal.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    a_coeffs = np.empty((n_outputs, na))
    for c in range(n_outputs):
        poles = []
        remaining = na
        while remaining >= 2:
            radius = rng.uniform(0.2, POLE_RADIUS)
            angle = rng.uniform(0.1, np.pi - 0.1)
            poles.extend([radius * np.exp(1j * angle), radius * np.exp(-1j * angle)])
            remaining -= 2
        if remaining:
            poles.append(rng.uniform(-POLE_RADIUS, POLE_RADIUS))
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


@dataclass(frozen=True, eq=False)
class SyntheticSpec:
    """Recipe for a deterministic synthetic trajectory.

    ``generator`` is the ground-truth ArxModel; ``excitation`` is "white"
    or "sines"; ``process_noise`` is the standard deviation of the equation
    noise entering the recursion; ``measurement_noise`` is the standard
    deviation of the additive noise on the recorded outputs.  The sample
    period is the generator's.
    """

    #: the (least, most) value of each numeric field, as :func:`~telekf.errors.check_range` reads it
    RANGES = {"n_samples": (2, np.inf), "seed": (0, np.inf), "input_scale": (-np.inf, np.inf),
              "process_noise": (0, np.inf), "measurement_noise": (0, np.inf)}

    generator: ArxModel
    n_samples: int
    seed: int
    excitation: str = "white"
    input_scale: float = 1.0
    process_noise: float = 0.0
    measurement_noise: float = 0.0

    def __post_init__(self):
        if self.excitation not in ("white", "sines"):
            raise ContractViolationError(
                f"excitation must be 'white' or 'sines', got {self.excitation!r}"
            )
        for name, bounds in self.RANGES.items():
            if name in ("n_samples", "seed"):
                object.__setattr__(self, name, to_int(name, getattr(self, name), bounds))
            else:
                check_range(name, getattr(self, name), bounds)


def gen_synthetic(spec: SyntheticSpec) -> TrajectorySet:
    """Simulate the generator under seeded excitation and noise.

    The same spec always produces the same TrajectorySet.  Unstable
    generators are rejected.
    """
    model = spec.generator
    if not model.stable:
        raise ContractViolationError("generator is unstable")
    exc_seq, proc_seq, meas_seq = np.random.SeedSequence(spec.seed).spawn(3)
    exc_rng = np.random.Generator(np.random.PCG64(exc_seq))
    n, m, p = spec.n_samples, model.n_inputs, model.n_outputs

    if spec.excitation == "white":
        u = spec.input_scale * exc_rng.standard_normal((n, m))
    else:
        t = np.arange(n)[:, None, None] * model.dt
        freqs = exc_rng.uniform(0.05, 0.45, size=(1, m, 4)) / model.dt / 10.0
        phases = exc_rng.uniform(0.0, 2 * np.pi, size=(1, m, 4))
        amps = exc_rng.uniform(0.3, 1.0, size=(1, m, 4))
        u = spec.input_scale * np.sum(amps * np.sin(2 * np.pi * freqs * t + phases), axis=2)

    noise = None
    if spec.process_noise > 0:
        proc_rng = np.random.Generator(np.random.PCG64(proc_seq))
        noise = spec.process_noise * proc_rng.standard_normal((n, p))
    y = simulate_arx(model, u, noise=noise)
    if spec.measurement_noise > 0:
        meas_rng = np.random.Generator(np.random.PCG64(meas_seq))
        y = y + spec.measurement_noise * meas_rng.standard_normal((n, p))
    return TrajectorySet(
        dt=model.dt,
        inputs=u,
        outputs=y,
        input_names=tuple(f"u{j + 1}" for j in range(m)),
        output_names=tuple(f"y{c + 1}" for c in range(p)),
        trial_id=f"synthetic-seed{spec.seed}",
    )


def write_kinematics(ts: TrajectorySet, path) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Write a TrajectorySet as a :data:`LAYOUT` table (unused columns zero)
    and return the names of the input and of the output columns it filled.

    Inputs land in the first master-side columns, outputs in the first
    patient-side columns, so a parse + select round trip of those names
    reproduces the values exactly (floats are written with full precision).
    The rows are formatted and written :data:`WRITE_BLOCK_ROWS` at a time.
    """
    m, p = ts.inputs.shape[1], ts.outputs.shape[1]
    check_capacity(m, p)
    # "%.17g" prints 0.0 as "0", so the unused columns are literal text
    fields = ["%.17g"] * m + ["0"] * (SIDE - m) + ["%.17g"] * p + ["0"] * (SIDE - p)
    row = " ".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as out:
        for start in range(0, ts.n_samples, WRITE_BLOCK_ROWS):
            stop = start + WRITE_BLOCK_ROWS
            values = np.hstack([ts.inputs[start:stop], ts.outputs[start:stop]]).tolist()
            out.write("".join([row % tuple(v) for v in values]))
    return LAYOUT[:m], LAYOUT[SIDE : SIDE + p]
