"""Command-line entry point.

Subcommands:

* ``identify`` — fit ARX models over an order grid, print the comparison
  table, and save the best filter-compatible model.
* ``run``      — one scenario; writes a truth/delivered/estimate trace CSV.
* ``sweep``    — a grid of channel conditions x seeds; writes per-run and
  aggregated report CSVs plus a summary table.
* ``synth``    — generate a synthetic dataset file with a ground-truth
  sidecar.

Flags may also be supplied through ``--config FILE`` (a JSON object keyed
by flag name); explicit command-line flags take precedence over config
values, which take precedence over built-in defaults.

Exit codes: 0 on success, 1 when one or more sweep scenarios failed, 2 on
usage or validation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, dataio, simrunner, sysid
from .channel import NetworkConfig
from .errors import (
    ContractViolationError,
    IllConditionedDataError,
    KinematicsFormatError,
    UnknownChannelNameError,
    UnsupportedStructureError,
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


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of numbers, got {text!r}") from None


def _parse_rows(text: str) -> list[tuple[float, float, float]]:
    """Explicit conditions: "nj,nd,np;nj,nd,np;..." (table column order)."""
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
        rows.append((n_d, n_j, n_p))
    return rows


@contextlib.contextmanager
def _reading(path):
    """Turn an input ``path`` that cannot be read, or whose text is not
    UTF-8 or not JSON, into an error naming the file.

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
    except json.JSONDecodeError as exc:
        raise ContractViolationError(f"{path}: {exc}") from None


def _read_config(path) -> dict:
    """The --config JSON object keyed by flag destination; null means unset."""
    with _reading(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ContractViolationError(f"config file {path} must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in doc.items() if value is not None}


def _sidecar_names(data_path) -> tuple[list[str], list[str]] | None:
    sidecar = Path(str(data_path) + ".truth.json")
    if not sidecar.exists():
        return None
    with _reading(sidecar):
        doc = json.loads(sidecar.read_text(encoding="utf-8"))
    if "input_names" in doc and "output_names" in doc:
        return list(doc["input_names"]), list(doc["output_names"])
    return None


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
        return dataio.apply_preset(ts, preset, arm=arm or "right")
    names = _sidecar_names(data_path)
    if names is not None:
        return dataio.select_channels(ts, names[0], names[1])
    raise ContractViolationError(
        "no channel selection: pass --preset, --inputs/--outputs, or keep the "
        "synthetic sidecar next to the data file"
    )


def _load_system(model_path):
    """Model file -> (ArxModel, SystemModel with stored noise, metadata)."""
    with _reading(model_path):
        arx, meta = sysid.load_model(model_path)
    noise = meta.get("noise") or {}
    q = noise.get("q")
    r_diag = noise.get("r_diag")
    if q is None or r_diag is None:
        print(
            "warning: model file has no stored noise covariances; "
            "using zero process noise and unit measurement noise",
            file=sys.stderr,
        )
    system = sysid.arx_to_ss(
        arx,
        q=q,
        r=np.asarray(r_diag, dtype=float) if r_diag is not None else None,
    )
    return arx, system, meta


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
            table_lines.append(f"{na},{nb},{nk},,,{rec['filterable']},{note}")
            continue
        agg = rec["report"].aggregate
        mse_mean = float(np.mean(rec["report"].mse))
        note = "" if rec["filterable"] else "not filterable (nk=0)"
        print(f"{na:>3} {nb:>3} {nk:>3} {agg:>10.4f} {mse_mean:>12.4e}  {note}")
        table_lines.append(
            f"{na},{nb},{nk},{agg!r},{mse_mean!r},{rec['filterable']},{note}"
        )
    (out_dir / "order_fits.csv").write_text("\n".join(table_lines) + "\n", encoding="utf-8")

    best = next(
        (r for r in records if r["filterable"] and r["report"] is not None), None
    )
    if best is None:
        print("error: no filter-compatible model could be fit", file=sys.stderr)
        return USAGE_ERROR
    model = best["model"]
    q_mat, r_mat = sysid.residual_covariances(model, train)
    out_path = Path(args.out) if args.out else out_dir / "model.json"
    sysid.save_model(
        model,
        out_path,
        input_names=train.input_names,
        output_names=train.output_names,
        fit=best["report"],
        noise=(float(q_mat[0, 0]), np.diag(r_mat)),
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
    arx, system, meta = _load_system(args.model)
    scenario = simrunner.Scenario(model=system, network=network, data=data)
    result = simrunner.run_scenario(scenario, return_trace=True)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "command": "run",
        "model": str(args.model),
        "data": str(args.data),
        "inputs": args.inputs,
        "outputs": args.outputs,
        "preset": args.preset,
        "arm": args.arm,
        "dt": data.dt,
        "n_d": network.n_d,
        "n_j": network.n_j,
        "n_p": network.n_p,
        "seeds": [network.seed],
    }
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


def _sweep_conditions(args) -> list[tuple[float, float, float]]:
    if args.rows:
        rows = args.rows
    elif args.nd_list and args.nj_list and args.np_list:
        rows = itertools.product(args.nd_list, args.nj_list, args.np_list)
    else:
        raise ContractViolationError(
            "sweep needs --rows or non-empty --nd-list, --nj-list, and --np-list"
        )
    return [tuple(float(v) for v in row) for row in rows]


def _run_sweep_from_config(config: dict, out_dir: Path) -> int:
    conditions = [tuple(c) for c in config["conditions"]]
    seeds = [int(s) for s in config["seeds"]]
    # run_sweep records a failing scenario and moves on; a grid entry that no
    # channel accepts is a usage error, reported before any scenario runs
    for (n_d, n_j, n_p), seed in itertools.product(conditions, seeds):
        NetworkConfig(n_d=n_d, n_j=n_j, n_p=n_p, seed=seed)
    data = _load_trajectory(
        Path(config["data"]), config["dt"], config["inputs"], config["outputs"],
        config["preset"], config["arm"],
    )
    arx, system, meta = _load_system(config["model"])

    runs = simrunner.run_sweep(system, data, conditions, seeds)
    aggregates = simrunner.aggregate_sweep(runs)

    out_dir.mkdir(parents=True, exist_ok=True)
    names = data.output_names
    simrunner.write_runs_csv(out_dir / "sweep_runs.csv", runs, names, config, __version__)
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
    failures = sum(1 for r in runs if r["error"] is not None)
    if failures:
        print(f"{failures} scenario run(s) failed; see sweep_runs.csv", file=sys.stderr)
        return SCENARIO_ERROR
    return 0


def cmd_sweep(args) -> int:
    out_dir = Path(args.out_dir)
    if args.replay:
        with _reading(args.replay):
            config = simrunner.read_embedded_config(args.replay)
        if config.get("command") != "sweep":
            raise ContractViolationError(
                f"{args.replay} does not embed a sweep config"
            )
        return _run_sweep_from_config(config, out_dir)

    if not args.model or not args.data:
        raise ContractViolationError("sweep needs --model and --data (or --replay)")
    conditions = _sweep_conditions(args)
    if args.seeds < 1:
        raise ContractViolationError(f"--seeds must be >= 1, got {args.seeds}")
    config = {
        "command": "sweep",
        "model": str(args.model),
        "data": str(args.data),
        "inputs": args.inputs,
        "outputs": args.outputs,
        "preset": args.preset,
        "arm": args.arm,
        "dt": args.dt,
        "conditions": [list(c) for c in conditions],
        "seeds": list(range(args.seed0, args.seed0 + args.seeds)),
    }
    return _run_sweep_from_config(config, out_dir)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args) -> int:
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
        dt=args.dt,
    )
    ts = dataio.gen_synthetic(spec)

    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    layout = dataio.default_layout()
    dataio.write_kinematics(ts, out_path, layout)

    master = layout.block_indices("master")
    slave = layout.block_indices("slave")
    names = np.asarray(layout.names)
    sidecar = {
        "format": "telekf-synth-truth",
        "version": 1,
        "input_names": [str(n) for n in names[master[: args.n_inputs]]],
        "output_names": [str(n) for n in names[slave[: args.n_outputs]]],
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
        p.add_argument("--out-dir", dest="out_dir", default=".", help="output directory (default .)")
        p.add_argument(
            "--dt", type=float, default=dataio.DEFAULT_DT,
            help="sample period override in seconds (default 1/30)",
        )

    def add_channels(p):
        p.add_argument("--preset", choices=["paper"], help="named channel preset")
        p.add_argument("--arm", choices=["left", "right"], help="manipulator arm for --preset (default right)")
        p.add_argument("--inputs", help="comma-separated input channel names")
        p.add_argument("--outputs", help="comma-separated output channel names")

    p_id = sub.add_parser("identify", help="fit ARX models over an order grid")
    add_common(p_id)
    add_channels(p_id)
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
    add_channels(p_run)
    p_run.add_argument("--model", required=True, help="model file from identify")
    p_run.add_argument("--data", required=True, help="kinematics file")
    p_run.add_argument("--nd", type=float, default=0.0, help="network delay in ms (default 0)")
    p_run.add_argument("--nj", type=float, default=0.0, help="jitter standard deviation in ms (default 0)")
    p_run.add_argument("--np", type=float, default=0.0, help="packet-loss probability (default 0)")
    p_run.add_argument("--seed", type=int, default=0, help="channel RNG seed (default 0)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a condition grid x seeds and write reports")
    add_common(p_sweep)
    add_channels(p_sweep)
    p_sweep.add_argument("--model", help="model file from identify")
    p_sweep.add_argument("--data", help="kinematics file")
    p_sweep.add_argument(
        "--nd-list", dest="nd_list", type=_parse_float_list,
        help="comma list of delays (ms) for a cartesian grid",
    )
    p_sweep.add_argument("--nj-list", dest="nj_list", type=_parse_float_list, help="comma list of jitters (ms)")
    p_sweep.add_argument(
        "--np-list", dest="np_list", type=_parse_float_list, help="comma list of loss probabilities"
    )
    p_sweep.add_argument(
        "--rows", type=_parse_rows,
        help='explicit conditions "jitter_ms,delay_ms,loss;..." overriding the grid',
    )
    p_sweep.add_argument("--seeds", type=int, default=30, help="number of seeds per condition (default 30)")
    p_sweep.add_argument("--seed0", type=int, default=0, help="first seed (default 0)")
    p_sweep.add_argument(
        "--replay", help="re-run the sweep embedded in an existing report CSV"
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
    args = parser.parse_args(argv)
    try:
        if args.config:
            # defaults set on the top-level parser do not reach subcommand
            # arguments, so the config becomes the subcommand's defaults
            commands[args.command].set_defaults(**_read_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except (
        ContractViolationError,
        IllConditionedDataError,
        KinematicsFormatError,
        UnknownChannelNameError,
        UnsupportedStructureError,
        FileNotFoundError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
