"""Command-line entry point.

Subcommands:

* ``identify`` — fit ARX models over an order grid, print the comparison
  table, and save the best filter-compatible model.
* ``run``      — one scenario; writes a truth/delivered/estimate trace CSV.
* ``sweep``    — a table of channel conditions x seeds; writes per-run and
  aggregated report CSVs plus a summary table.
* ``synth``    — generate a synthetic dataset file with a ground-truth
  sidecar.

Settings may also be supplied through ``--config FILE`` (a JSON object
keyed by flag name).  Every report embeds such an object for its subcommand
in its ``# config=`` line, and ``sweep --replay REPORT`` reads that line as
``--config`` would read a file.  Each setting is taken from the command-line
flag, then ``--replay``, then ``--config``, then the built-in default.

Exit codes: 0 on success, 1 when the scenario of ``run`` or one or more
sweep scenarios failed, 2 on usage or validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from math import inf
from pathlib import Path

import numpy as np

from . import __version__, dataio, simrunner, sysid
from .channel import NetworkConfig
from .errors import (
    ContractViolationError,
    KinematicsFormatError,
    SingularInnovationError,
    UnknownChannelNameError,
    UnsupportedStructureError,
    check_dt,
    check_range,
    is_int,
    is_list_of,
    is_number,
    to_float,
)

USAGE_ERROR = 2
SCENARIO_ERROR = 1


def _parse_int_values(text: str) -> list[int]:
    """Accept "1:4" (inclusive range) or "1,2,3"."""
    text = text.strip()
    try:
        if ":" in text:
            lo, hi = text.split(":")
            return list(range(int(lo), int(hi) + 1))
        return [int(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI or a comma list of integers, got {text!r}"
        ) from None


def _parse_rows(text: str) -> list[tuple[float, float, float]]:
    """Explicit conditions: "nj,nd,np;nj,nd,np;..." (table column order),
    kept in that order."""
    rows = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n_j, n_d, n_p = (float(v) for v in chunk.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"each row needs three numbers (jitter_ms,delay_ms,loss_prob), got {chunk!r}"
            ) from None
        rows.append((n_j, n_d, n_p))
    return rows


@contextlib.contextmanager
def _reading(path):
    """Turn an input ``path`` that cannot be read, or whose text is not
    UTF-8 or not JSON or nested too deeply to decode, into an error naming
    the file.

    Only input reads go through here; an I/O error while writing outputs
    is not a usage error.
    """
    try:
        yield
    except OSError as exc:
        raise ContractViolationError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise ContractViolationError(
            f"{path}: byte offset {exc.start}: cannot decode {bad!r} as UTF-8"
        ) from None
    except (ContractViolationError, KinematicsFormatError):
        raise  # the readers' own errors say what is wrong in their own words
    except json.JSONDecodeError as exc:
        raise ContractViolationError(f"{path}: {exc}") from None
    except RecursionError:
        raise ContractViolationError(f"{path}: JSON nested too deeply to decode") from None
    except ValueError:  # the only other: a JSON integer longer than int() reads
        raise ContractViolationError(
            f"{path}: a JSON integer exceeds the limit of {sys.get_int_max_str_digits()} digits"
        ) from None


def _is_row(value) -> bool:
    return is_list_of(value, is_number) and len(value) == 3


#: for each flag type, what a --config value that is not a string must be:
#: the form the type returns (argparse parses a string like the flag's text)
_CONFIG_FORMS = {
    None: ("a string", lambda value: False),
    int: ("an integer", is_int),
    float: ("a number", is_number),
    _parse_int_values: ("a list of integers", lambda value: is_list_of(value, is_int)),
    _parse_rows: ("a list of [jitter_ms, delay_ms, loss] rows", lambda value: is_list_of(value, _is_row)),
}


_CHANNEL, _ORDERS, _SPEC = NetworkConfig.RANGES, sysid.ArxModel.RANGES, dataio.SyntheticSpec.RANGES

#: the (least, most) value of each numeric flag of each subcommand, checked by
#: :func:`main` (for ``identify``, each order of its lists): the entry of the
#: library type that consumes the value, or the CLI's own where none checks it
_BOUNDS = {
    "identify": {key: _ORDERS[key] for key in ("na", "nb", "nk")},
    "run": {"nd": _CHANNEL["n_d"], "nj": _CHANNEL["n_j"], "np": _CHANNEL["n_p"], "seed": _CHANNEL["seed"]},
    "sweep": {"seeds": (1, inf), "seed0": _CHANNEL["seed"]},
    "synth": {
        "n": _SPEC["n_samples"], **_ORDERS, "gen_seed": (0, inf),
        **{key: _SPEC[key] for key in ("seed", "input_scale", "process_noise", "measurement_noise")},
    },
}


#: flags that say where settings come from rather than set one, so no
#: config object may hold them
_NOT_SETTINGS = ("help", "config", "replay")


def _from_version_1(doc: dict, path) -> dict:
    """A version-1 sweep config in the flag form of ``sweep``: its
    ``conditions`` rows [delay_ms, jitter_ms, loss] become ``rows`` and its
    list of consecutive seeds becomes ``seeds`` and ``seed0``."""
    doc = dict(doc)
    conditions, seeds = doc.pop("conditions"), doc.pop("seeds", None)
    if not is_list_of(conditions, _is_row):
        raise ContractViolationError(
            f"{path}: conditions: expected a list of [delay_ms, jitter_ms, loss] rows, "
            f"got {json.dumps(conditions)}"
        )
    if not (is_list_of(seeds, is_int) and seeds and seeds == list(range(seeds[0], seeds[0] + len(seeds)))):
        raise ContractViolationError(
            f"{path}: seeds: expected a list of consecutive integers, got {json.dumps(seeds)}"
        )
    doc.update(rows=[[n_j, n_d, n_p] for n_d, n_j, n_p in conditions], seeds=len(seeds), seed0=seeds[0])
    return doc


def _read_config(path, command: str, parser: argparse.ArgumentParser, embedded: bool) -> dict:
    """The config object of ``path`` keyed by flag destination; null means unset.

    ``path`` is a JSON file, or with ``embedded`` a report whose ``# config=``
    line holds the object.  A key that names no setting of ``parser``, a
    ``command`` other than ``command``, or a value of a type its flag would
    not accept, is an error naming the file and the key.
    """
    with _reading(path):
        if embedded:
            doc = simrunner.read_embedded_config(path)
        else:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ContractViolationError(f"{path}: the config must be a JSON object")
    if "conditions" in doc:
        doc = _from_version_1(doc, path)
    flag_types = {action.dest: action.type for action in parser._actions if action.dest not in _NOT_SETTINGS}
    config = {}
    for name, value in doc.items():
        key = name.replace("-", "_")
        if key == "command":
            if value != command:
                raise ContractViolationError(
                    f"{path}: command: expected {json.dumps(command)}, got {json.dumps(value)}"
                )
            continue
        if key not in flag_types:
            raise ContractViolationError(f"{path}: unknown key {name!r}")
        if value is None:
            continue
        if not isinstance(value, str):
            form, check = _CONFIG_FORMS[flag_types[key]]
            if not check(value):
                raise ContractViolationError(f"{path}: {key}: expected {form}, got {json.dumps(value)}")
        config[key] = value
    return config


def _report_config(args, **values) -> dict:
    """The ``# config=`` object of a report: the input flags of
    ``args.command`` in ``--config`` form, then ``values``."""
    keys = ("command", "model", "data", "inputs", "outputs", "preset", "arm")
    return {**{key: getattr(args, key) for key in keys}, "dt": float(args.dt), **values}


def _sidecar_names(data_path) -> tuple[list[str], list[str]] | None:
    """The channel names of ``<data>.truth.json``, if it names both sides."""
    sidecar = Path(str(data_path) + ".truth.json")
    if not sidecar.exists():
        return None
    with _reading(sidecar):
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ContractViolationError(f"sidecar {sidecar} must hold a JSON object")
    if "input_names" not in doc or "output_names" not in doc:
        return None
    names = doc["input_names"], doc["output_names"]
    if not all(is_list_of(side, lambda name: isinstance(name, str)) for side in names):
        raise ContractViolationError(
            f"sidecar {sidecar}: input_names and output_names must be lists of strings"
        )
    return names


def _load_trajectory(data_path, dt, inputs, outputs, preset, arm) -> dataio.TrajectorySet:
    """Parse a kinematics file and narrow it to the configured channels.

    Channel precedence: explicit inputs/outputs (comma-separated names),
    then the preset, then a ``<data>.truth.json`` sidecar written by
    ``synth``.
    """
    with _reading(data_path):
        ts = dataio.parse_kinematics(data_path, dt=dt, trial_id=str(data_path))
    if inputs or outputs:
        if not (inputs and outputs):
            raise ContractViolationError("--inputs and --outputs must be given together")
        return dataio.select_channels(ts, inputs.split(","), outputs.split(","))
    if preset:
        # reports record the arm as given (null without --arm), so the
        # preset's default arm is applied here rather than by the parser
        return dataio.paper_preset(ts, arm=arm or "right")
    names = _sidecar_names(data_path)
    if names is not None:
        return dataio.select_channels(ts, names[0], names[1])
    raise ContractViolationError(
        "no channel selection: pass --preset, --inputs/--outputs, or keep the "
        "synthetic sidecar next to the data file"
    )


def _load_system(model_path):
    """Model file -> SystemModel with the stored noise variances."""
    with _reading(model_path):
        arx, meta = sysid.load_model(model_path)
    return sysid.arx_to_ss(arx, q=meta["noise"]["q"], r=meta["noise"]["r_diag"])


# ---------------------------------------------------------------------------
# identify


def cmd_identify(args) -> int:
    train_path = Path(args.train)
    holdout_path = Path(args.holdout)
    if train_path.resolve() == holdout_path.resolve():
        print(
            "warning: holdout equals the training file; fit figures are in-sample",
            file=sys.stderr,
        )
    channels = (args.dt, args.inputs, args.outputs, args.preset, args.arm)
    train = _load_trajectory(train_path, *channels)
    holdout = _load_trajectory(holdout_path, *channels)
    records = sysid.order_sweep(train, holdout, args.na, args.nb, args.nk)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'na':>3} {'nb':>3} {'nk':>3} {'fit%':>10} {'mse':>12}  note")
    table_lines = ["na,nb,nk,fit_percent,mse_mean,filterable,note"]
    for rec in records:
        na, nb, nk = rec["orders"]
        if rec["report"] is None:
            note = rec["error"] or "failed"
            print(f"{na:>3} {nb:>3} {nk:>3} {'-':>10} {'-':>12}  {note}")
            table_lines.append(f"{na},{nb},{nk},,,{rec['filterable']},{simrunner._csv_field(note)}")
            continue
        agg = rec["report"].aggregate
        mse_mean = float(np.mean(rec["report"].mse))
        notes = [] if rec["filterable"] else [f"not filterable ({sysid.filter_obstacle(na, nk).split()[0]})"]
        if rec["model"].stable:
            scores = f"{agg:>10.4f} {mse_mean:>12.4e}"
        else:
            # a free run of an unstable model diverges, so its fit and MSE
            # say only how far it got; the CSV keeps them
            notes.append("unstable")
            scores = f"{'-':>10} {'-':>12}"
        note = "; ".join(notes)
        print(f"{na:>3} {nb:>3} {nk:>3} {scores}  {note}")
        table_lines.append(
            f"{na},{nb},{nk},{agg!r},{mse_mean!r},{rec['filterable']},{simrunner._csv_field(note)}"
        )
    (out_dir / "order_fits.csv").write_text("\n".join(table_lines) + "\n", encoding="utf-8")

    best = next(
        (r for r in records if r["filterable"] and r["report"] is not None), None
    )
    if best is None:
        print("error: no filter-compatible model could be fit", file=sys.stderr)
        return USAGE_ERROR
    model = best["model"]
    out_path = Path(args.out) if args.out else out_dir / "model.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    sysid.save_model(
        model,
        out_path,
        input_names=train.input_names,
        output_names=train.output_names,
        fit=best["report"],
        noise=sysid.residual_covariances(model, train),
    )
    na, nb, nk = best["orders"]
    print(
        f"saved best filterable model arx(na={na},nb={nb},nk={nk}) "
        f"fit={best['report'].aggregate:.4f}% -> {out_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# run


def cmd_run(args) -> int:
    network = NetworkConfig(n_d=args.nd, n_j=args.nj, n_p=args.np, seed=args.seed)
    data = _load_trajectory(
        Path(args.data), args.dt, args.inputs, args.outputs, args.preset, args.arm
    )
    system = _load_system(args.model)
    scenario = simrunner.Scenario(model=system, network=network, data=data)
    result = simrunner.run_scenario(scenario)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _report_config(args, nd=network.n_d, nj=network.n_j, np=network.n_p, seed=network.seed)
    trace_path = out_dir / "trace.csv"
    simrunner.write_trace_csv(
        trace_path, data, result.delivered, result.z_est, config, __version__
    )
    for name, m, f in zip(data.output_names, result.mse, result.est_percent):
        print(f"{name}: mse={m:.6e} est%={f:.4f}")
    print(
        f"aggregate est%={result.est_aggregate:.4f} "
        f"loss_realized={result.channel_stats.loss_realized:.4f} -> {trace_path}"
    )
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    if not args.rows:
        raise ContractViolationError("--rows lists no condition")
    seeds = range(args.seed0, args.seed0 + args.seeds)
    # run_sweep keeps a failing scenario's error and moves on; a row that no
    # channel accepts, or that repeats an earlier row, is a usage error,
    # reported before any file is read. The (jitter_ms, delay_ms, loss) rows
    # are floats, whatever JSON numbers a config gave
    rows, first = [], {}
    for i, values in enumerate(args.rows, 1):
        columns = zip(("jitter_ms", "delay_ms", "loss"), ("n_j", "n_d", "n_p"), values)
        row = tuple(to_float(f"--rows row {i}: {column}", value, _CHANNEL[key]) for column, key, value in columns)
        rows.append(row)
        if first.setdefault(row, i) != i:
            text = ",".join(f"{value:g}" for value in row)
            raise ContractViolationError(f"--rows row {i} repeats row {first[row]} ({text})")
    data = _load_trajectory(Path(args.data), args.dt, args.inputs, args.outputs, args.preset, args.arm)
    system = _load_system(args.model)
    # a model that does not fit the data would fail every scenario alike
    simrunner.Scenario(model=system, network=NetworkConfig(), data=data)

    table = simrunner.run_sweep(system, data, [(n_d, n_j, n_p) for n_j, n_d, n_p in rows], seeds)
    aggregates = simrunner.aggregate_sweep(table)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _report_config(args, rows=rows, seeds=args.seeds, seed0=args.seed0)
    names = data.output_names
    simrunner.write_runs_csv(out_dir / "sweep_runs.csv", table, names, config, __version__)
    simrunner.write_aggregate_csv(
        out_dir / "sweep_aggregated.csv", aggregates, names, config, __version__
    )

    print(f"{'jitter_ms':>9} {'delay_ms':>8} {'loss':>6} {'est%':>9} {'std':>8} {'loss_real':>9}")
    for agg in aggregates:
        n_d, n_j, n_p = agg["condition"]
        if "est_aggregate_mean" not in agg:
            print(f"{n_j:>9g} {n_d:>8g} {n_p:>6g}   all {agg['n_failed']} runs failed")
            continue
        print(
            f"{n_j:>9g} {n_d:>8g} {n_p:>6g} {agg['est_aggregate_mean']:>9.4f} "
            f"{agg['est_aggregate_std']:>8.4f} {agg['loss_realized']:>9.4f}"
        )
    failures = sum(1 for error in table.error if error)
    if failures:
        print(f"{failures} scenario run(s) failed; see sweep_runs.csv", file=sys.stderr)
        return SCENARIO_ERROR
    return 0


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
    dataio.LAYOUT.check_capacity(args.n_inputs, args.n_outputs, names=("--n-inputs", "--n-outputs"))
    generator = dataio.random_stable_arx(
        args.na, args.nb, args.nk, n_outputs=args.n_outputs, n_inputs=args.n_inputs,
        seed=args.gen_seed, dt=args.dt,
    )
    spec = dataio.SyntheticSpec(
        generator=generator,
        n_samples=args.n,
        seed=args.seed,
        excitation=args.excitation,
        input_scale=args.input_scale,
        process_noise=args.process_noise,
        measurement_noise=args.measurement_noise,
    )
    ts = dataio.gen_synthetic(spec)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    input_names, output_names = dataio.write_kinematics(ts, out_path)

    sidecar = {
        "format": "telekf-synth-truth",
        "version": 1,
        "input_names": input_names,
        "output_names": output_names,
        "model": sysid.model_to_doc(generator),
        "spec": {
            "n_samples": spec.n_samples,
            "seed": spec.seed,
            "gen_seed": args.gen_seed,
            "excitation": spec.excitation,
            "input_scale": spec.input_scale,
            "process_noise": spec.process_noise,
            "measurement_noise": spec.measurement_noise,
            "dt": args.dt,
        },
    }
    sidecar_path = Path(str(out_path) + ".truth.json")
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {ts.n_samples} samples -> {out_path} (+ {sidecar_path.name})")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="telekf",
        description="Kalman-filter state estimation under simulated network impairments",
    )
    parser.add_argument("--version", action="version", version=f"telekf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument(
            "--dt", type=float, default=dataio.DEFAULT_DT,
            help="sample period override in seconds (default 1/30)",
        )

    def add_pipeline(p):
        """The flags of the commands that read kinematics and write reports."""
        p.add_argument("--out-dir", dest="out_dir", default=".", help="output directory (default .)")
        p.add_argument("--preset", choices=["paper"], help="named channel preset")
        p.add_argument("--arm", choices=["left", "right"], help="manipulator arm for --preset (default right)")
        p.add_argument("--inputs", help="comma-separated input channel names")
        p.add_argument("--outputs", help="comma-separated output channel names")

    p_id = sub.add_parser("identify", help="fit ARX models over an order grid")
    add_common(p_id)
    add_pipeline(p_id)
    p_id.add_argument("--train", required=True, help="training kinematics file")
    p_id.add_argument("--holdout", required=True, help="holdout kinematics file")
    p_id.add_argument(
        "--na", type=_parse_int_values, default="1:4",
        help="output-lag orders, e.g. 1:4 or 1,2 (default 1:4)",
    )
    p_id.add_argument("--nb", type=_parse_int_values, default="1:4", help="input-lag orders (default 1:4)")
    p_id.add_argument("--nk", type=_parse_int_values, default="0:2", help="dead times (default 0:2)")
    p_id.add_argument("--out", help="model file path (default OUT_DIR/model.json)")
    p_id.set_defaults(func=cmd_identify)

    p_run = sub.add_parser("run", help="run one scenario and write the trace CSV")
    add_common(p_run)
    add_pipeline(p_run)
    p_run.add_argument("--model", required=True, help="model file from identify")
    p_run.add_argument("--data", required=True, help="kinematics file")
    p_run.add_argument("--nd", type=float, default=0.0, help="network delay in ms (default 0)")
    p_run.add_argument("--nj", type=float, default=0.0, help="jitter standard deviation in ms (default 0)")
    p_run.add_argument("--np", type=float, default=0.0, help="packet-loss probability (default 0)")
    p_run.add_argument("--seed", type=int, default=0, help="channel RNG seed (default 0)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a condition table x seeds and write reports")
    add_common(p_sweep)
    add_pipeline(p_sweep)
    p_sweep.add_argument("--model", required=True, help="model file from identify")
    p_sweep.add_argument("--data", required=True, help="kinematics file")
    p_sweep.add_argument(
        "--rows", type=_parse_rows, required=True, help='channel conditions "jitter_ms,delay_ms,loss;..."'
    )
    p_sweep.add_argument("--seeds", type=int, default=30, help="number of seeds per condition (default 30)")
    p_sweep.add_argument("--seed0", type=int, default=0, help="first seed (default 0)")
    p_sweep.add_argument(
        "--replay", help="read the config embedded in a sweep report like --config; flags override it"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset + truth sidecar")
    add_common(p_synth)
    p_synth.add_argument("--out", required=True, help="dataset file to write")
    p_synth.add_argument("--n", type=int, default=2000, help="number of samples (default 2000)")
    p_synth.add_argument("--seed", type=int, default=0, help="excitation/noise seed (default 0)")
    p_synth.add_argument(
        "--gen-seed", dest="gen_seed", type=int, default=12345,
        help="generator coefficient seed (default 12345)",
    )
    p_synth.add_argument("--na", type=int, default=2, help="generator output-lag order (default 2)")
    p_synth.add_argument("--nb", type=int, default=2, help="generator input-lag order (default 2)")
    p_synth.add_argument("--nk", type=int, default=1, help="generator dead time (default 1)")
    p_synth.add_argument("--n-inputs", dest="n_inputs", type=int, default=2, help="input channels (default 2)")
    p_synth.add_argument("--n-outputs", dest="n_outputs", type=int, default=3, help="output channels (default 3)")
    p_synth.add_argument(
        "--excitation", choices=["white", "sines"], default="white", help="input excitation (default white)"
    )
    p_synth.add_argument(
        "--input-scale", dest="input_scale", type=float, default=1.0, help="excitation amplitude (default 1)"
    )
    p_synth.add_argument(
        "--process-noise", dest="process_noise", type=float, default=0.0, help="equation noise std (default 0)"
    )
    p_synth.add_argument(
        "--measurement-noise", dest="measurement_noise", type=float, default=0.0,
        help="output noise std (default 0)",
    )
    p_synth.set_defaults(func=cmd_synth)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    # a config may set a required flag, so only the last parse, made once
    # the configs are read, checks the required flags
    required = [action for command in commands.values() for action in command._actions if action.required]
    for action in required:
        action.required = False
    args = parser.parse_args(argv)
    try:
        command = commands[args.command]
        # each config becomes the subcommand's defaults (defaults set on the
        # top-level parser do not reach subcommand arguments); --replay is
        # read last, so its values override --config's, and flags override both
        for flag in ("config", "replay"):
            path = getattr(args, flag, None)
            if path:
                command.set_defaults(**_read_config(path, args.command, command, embedded=flag == "replay"))
        for action in required:
            action.required = command.get_default(action.dest) is None
        args = parser.parse_args(argv)
        check_dt(args.dt, "--dt")
        # a float flag's value must also fit a float: a config may give it as any JSON integer
        floats = {action.dest for action in command._actions if action.type is float}
        for key, bounds in _BOUNDS[args.command].items():
            value = getattr(args, key)
            if value == []:
                raise ContractViolationError(f"--{key} lists no order")
            check = to_float if key in floats else check_range
            values = value if isinstance(value, list) else [value]
            for i, v in enumerate(values):
                check(f"--{key.replace('_', '-')}", v, bounds)
                if v in values[:i]:  # an order listed twice would be fitted and reported twice
                    raise ContractViolationError(f"--{key} repeats {v}")
        return args.func(args)
    except (ContractViolationError, KinematicsFormatError, UnknownChannelNameError, UnsupportedStructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SingularInnovationError as exc:  # the filter of ``run`` broke down
        print(f"error: {exc}", file=sys.stderr)
        return SCENARIO_ERROR


if __name__ == "__main__":
    sys.exit(main())
