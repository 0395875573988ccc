"""Pipeline benchmark for the telekf CLI.

    python3 perfbench/run.py --workload paper_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload builds its input files from ``--seed`` in an
untimed set-up with ``telekf synth`` and ``telekf identify``, then repeats
its timed command(s) for ``--seconds`` seconds:

* ``paper_sweep``: ``telekf sweep`` over the paper's seven channel rows.
* ``identify_grid``: ``telekf identify`` over the default 48-order grid.
* ``trace_io``: ``telekf synth`` of one long trajectory, then ``telekf run``
  with millisecond delay and jitter on it, writing ``trace.csv``.

``--trace 0`` runs every timed command in a fresh interpreter with nothing
attached and reports the end-to-end metrics: wall time, child CPU time,
child peak RSS and work done per second of the best repetition, the
median set-up time of a fresh ``telekf --version``, and the accuracy of
the outputs.  Times and rates are scaled to a reference machine speed
measured by a fixed probe between repetitions (see `summarize`).  ``--trace 1`` calls ``telekf.cli.main`` in this process instead,
alternating untraced and traced calls, and reports the per-layer metrics
of ``tracer.py`` plus the tracing overhead.

Every repetition's outputs are checked: exit codes, byte-identical reports
across repetitions, and accuracy equal to an in-process reference computed
from the public API.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A record with
the environment, every sample and the spans goes to ``.perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: how a console-script ``telekf`` starts: import the entry point and call it
ENTRY = "import sys; from telekf.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import telekf.cli; "
    "print(repr(time.perf_counter() - t))"
)

#: the paper's condition table, "jitter_ms,delay_ms,loss" per row
PAPER_ROWS = "0,0,0;2,5,0.1;5,7,0.2;6,3,0.18;4,8,0.13;4,5,0.2;6,5,0.15"
#: the identify defaults (na 1:4, nb 1:4, nk 0:2) the grid workload relies on
DEFAULT_GRID = (range(1, 5), range(1, 5), range(0, 3))
#: ground-truth generator and noise of every synthesized file; only the
#: excitation/noise seed varies with --seed, so the difficulty does not
GENERATOR = [
    "--gen-seed", "42", "--na", "2", "--nb", "2", "--nk", "1",
    "--excitation", "sines", "--process-noise", "0.005", "--measurement-noise", "0.002",
]
#: filter orders pinned to the generator's, so the state size is fixed
PINNED_ORDERS = ["--na", "2", "--nb", "2", "--nk", "1"]
#: sample period of trace_io: 7 ms delay and 5 ms jitter span several samples
TRACE_DT = "0.002"
#: trace_io's trajectories are fixed and --seed drives its channel draws:
#: under a delay of several samples its Est% follows the frequencies the
#: excitation seed draws (48-66% over eight seeds), the channel draws move
#: it by about 1%
TRACE_TRAIN_SEED, TRACE_DATA_SEED = 1, 2

SIZES = {
    "full": {"train": 2000, "sweep_samples": 2000, "sweep_seeds": 1,
             "grid_samples": 3000, "trace_samples": 10000},
    "tiny": {"train": 300, "sweep_samples": 200, "sweep_seeds": 1,
             "grid_samples": 300, "trace_samples": 300},
}

#: The program runs with one BLAS thread.  With OpenBLAS's default of one
#: thread per CPU, ``telekf identify`` on 3000 samples took 1.7-2.3 s alone
#: and 3.7-5.8 s while another process kept the second CPU busy, so on a
#: shared 2-CPU machine its time measured the neighbours.  The thread count
#: is in the environment record.
BLAS_THREADS = "1"

MIN_REPS = 3
#: the speed probe's best time on a quiet 2-CPU Xeon VM (Python 3.11, numpy
#: 2.4): end-to-end times are reported as if the machine ran at that speed
PROBE_REFERENCE_S = 0.08
SETUP_LAUNCHES = 7
IMPORT_PROBES = 5
REL_TOL = 1e-12


class SetupError(RuntimeError):
    """A set-up step failed, so there is nothing to measure."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


def read_csv(path: Path) -> list[dict]:
    """Rows of a telekf report, skipping its ``#`` metadata lines."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ---------------------------------------------------------------------------
# running the CLI


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """One finished CLI process: exit code, wall, user+sys CPU, peak RSS."""

    def __init__(self, argv, cwd: Path, script=ENTRY):
        self.argv = argv
        log = cwd / "logs"
        log.mkdir(exist_ok=True)
        with open(log / "stdout.txt", "wb") as out, open(log / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-c", script, *argv], cwd=cwd, env=child_env(),
                stdout=out, stderr=err,
            )
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = (log / "stdout.txt").read_text()
        self.stderr = (log / "stderr.txt").read_text()

    def problem(self) -> str | None:
        if self.code == 0:
            return None
        tail = self.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return f"telekf {' '.join(self.argv[:1])} exited {self.code}: {tail[0]}"


def setup_cli(argv, cwd: Path) -> Child:
    child = Child(argv, cwd)
    if child.code != 0:
        raise SetupError(child.problem())
    return child


@contextlib.contextmanager
def inside(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def call_main(telekf, argv) -> int | str:
    """``telekf.cli.main(argv)`` in this process; an exception is a failure."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return telekf.cli.main(list(argv))
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # reported as a failed operation, the run goes on
        return f"{type(exc).__name__}: {exc}"


def import_telekf():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import telekf
    import telekf.cli

    if Path(telekf.__file__).resolve().parent != SRC / "telekf":
        raise SetupError(f"imported telekf from {telekf.__file__}, not from {SRC}")
    return telekf


# ---------------------------------------------------------------------------
# workloads


class Outcome:
    """What one repetition's outputs show."""

    def __init__(self, failed: int = 0, accuracy: float = math.nan,
                 digest: str = "", problems: list[str] | None = None):
        self.failed, self.accuracy = failed, accuracy
        self.digest, self.problems = digest, problems or []


class Workload:
    name = ""
    work_name = ""      # what work_per_s counts on this workload
    accuracy_name = ""  # what accuracy_pct is on this workload

    def __init__(self, work: Path, seed: int, size: dict):
        self.work, self.seed, self.size = work, seed, size

    def synth(self, out: str, n: int, seed: int, *extra) -> list[str]:
        return ["synth", "--out", out, "--n", str(n), "--seed", str(seed), *GENERATOR, *extra]

    def load(self, telekf, data: str, dt: float | None = None):
        """Trajectory as the CLI loads it: parse, then the sidecar's channels."""
        kwargs = {} if dt is None else {"dt": dt}
        ts = telekf.dataio.parse_kinematics(self.work / data, trial_id=data, **kwargs)
        names = json.loads((self.work / f"{data}.truth.json").read_text())
        return telekf.dataio.select_channels(ts, names["input_names"], names["output_names"])

    def system(self, telekf, model: str):
        """Filter model as the CLI builds it from a model file."""
        import numpy as np

        arx, meta = telekf.sysid.load_model(self.work / model)
        noise = meta["noise"]
        return telekf.sysid.arx_to_ss(arx, q=noise["q"], r=np.asarray(noise["r_diag"]))

    def once(self) -> list[str]:
        """Checks made once per invocation; returns the problems found."""
        return []


class PaperSweep(Workload):
    name = "paper_sweep"
    work_name = "scenarios_per_s"
    accuracy_name = "est_pct (mean AGG est_aggregate over the 7 rows)"

    def __init__(self, *args):
        super().__init__(*args)
        self.rows = [tuple(float(v) for v in r.split(",")) for r in PAPER_ROWS.split(";")]
        self.seeds = list(range(10 * self.seed, 10 * self.seed + self.size["sweep_seeds"]))
        self.units = self.ops = len(self.rows) * len(self.seeds)

    def setup(self):
        n = self.size["sweep_samples"]
        setup_cli(self.synth("train.txt", n, 10 * self.seed + 1), self.work)
        setup_cli(self.synth("holdout.txt", n, 10 * self.seed + 2), self.work)
        setup_cli(["identify", "--train", "train.txt", "--holdout", "holdout.txt",
                   *PINNED_ORDERS, "--out", "model.json", "--out-dir", "ident"], self.work)

    def commands(self):
        return [["sweep", "--model", "model.json", "--data", "holdout.txt",
                 "--rows", PAPER_ROWS, "--seeds", str(len(self.seeds)),
                 "--seed0", str(self.seeds[0]), "--out-dir", "sweep"]]

    def clear(self):
        shutil.rmtree(self.work / "sweep", ignore_errors=True)

    def reference(self, telekf) -> float:
        runs = telekf.simrunner.run_sweep(
            self.system(telekf, "model.json"), self.load(telekf, "holdout.txt"),
            [(n_d, n_j, n_p) for n_j, n_d, n_p in self.rows], self.seeds,
        )
        aggs = telekf.simrunner.aggregate_sweep(runs)
        return statistics.fmean(a["est_aggregate_mean"] for a in aggs)

    def inspect(self) -> Outcome:
        runs = read_csv(self.work / "sweep" / "sweep_runs.csv")
        aggs = read_csv(self.work / "sweep" / "sweep_aggregated.csv")
        failed = sum(1 for r in runs if r["est_aggregate"] == "" or "error" in r.values())
        problems = []
        if len(runs) != self.units or len(aggs) != len(self.rows):
            problems.append(f"expected {self.units} runs in {len(self.rows)} rows, "
                            f"got {len(runs)} in {len(aggs)}")
        return Outcome(
            failed=failed, problems=problems,
            accuracy=statistics.fmean(float(a["est_aggregate"]) for a in aggs),
            digest=sha256(self.work / "sweep" / "sweep_aggregated.csv"),
        )

    def once(self):
        """``--replay`` of the aggregated report reproduces it byte for byte."""
        report = self.work / "sweep" / "sweep_aggregated.csv"
        argv = ["sweep", "--replay", "sweep/sweep_aggregated.csv", "--out-dir", "replay"]
        child = Child(argv, self.work)
        if child.code != 0:
            return [child.problem()]
        if sha256(self.work / "replay" / "sweep_aggregated.csv") != sha256(report):
            return ["--replay did not reproduce sweep_aggregated.csv byte for byte"]
        return []


class IdentifyGrid(Workload):
    name = "identify_grid"
    work_name = "fits_per_s"
    accuracy_name = "best_fit_pct (holdout fit of the kept model)"

    def __init__(self, *args):
        super().__init__(*args)
        self.units = self.ops = math.prod(len(r) for r in DEFAULT_GRID)

    def setup(self):
        n = self.size["grid_samples"]
        setup_cli(self.synth("train.txt", n, 10 * self.seed + 1), self.work)
        setup_cli(self.synth("holdout.txt", n, 10 * self.seed + 2), self.work)

    def commands(self):
        return [["identify", "--train", "train.txt", "--holdout", "holdout.txt",
                 "--out-dir", "ident"]]

    def clear(self):
        shutil.rmtree(self.work / "ident", ignore_errors=True)

    def reference(self, telekf) -> float:
        records = telekf.sysid.order_sweep(
            self.load(telekf, "train.txt"), self.load(telekf, "holdout.txt"), *DEFAULT_GRID
        )
        best = next(r for r in records if r["filterable"] and r["report"] is not None)
        return best["report"].aggregate

    def inspect(self) -> Outcome:
        import numpy as np

        fits = read_csv(self.work / "ident" / "order_fits.csv")
        model = json.loads((self.work / "ident" / "model.json").read_text())
        problems = []
        if len(fits) != self.units:
            problems.append(f"expected {self.units} order candidates, got {len(fits)}")
        digest = sha256(self.work / "ident" / "order_fits.csv")
        digest += sha256(self.work / "ident" / "model.json")
        return Outcome(
            failed=sum(1 for r in fits if r["fit_percent"] == ""),
            accuracy=float(np.nanmean(model["fit"]["fit_percent"])),
            digest=digest, problems=problems,
        )


class TraceIO(Workload):
    name = "trace_io"
    work_name = "samples_per_s"
    accuracy_name = "est_pct (aggregate Est% of the run)"

    def __init__(self, *args):
        super().__init__(*args)
        self.units = self.size["trace_samples"]
        self.ops = 2  # the synth and run commands
        self._accuracy: dict[str, float] = {}

    def setup(self):
        setup_cli(self.synth("train.txt", self.size["train"], TRACE_TRAIN_SEED,
                             "--dt", TRACE_DT), self.work)
        setup_cli(["identify", "--train", "train.txt", "--holdout", "train.txt",
                   *PINNED_ORDERS, "--dt", TRACE_DT, "--out", "model.json",
                   "--out-dir", "ident"], self.work)
        setup_cli(self.synth("expected.txt", self.units, TRACE_DATA_SEED, "--dt", TRACE_DT),
                  self.work)
        self.expected = sha256(self.work / "expected.txt")

    def commands(self):
        return [
            self.synth("data.txt", self.units, TRACE_DATA_SEED, "--dt", TRACE_DT),
            ["run", "--model", "model.json", "--data", "data.txt", "--np", "0.2",
             "--nd", "7", "--nj", "5", "--dt", TRACE_DT, "--seed", str(self.seed),
             "--out-dir", "run"],
        ]

    def clear(self):
        shutil.rmtree(self.work / "run", ignore_errors=True)
        (self.work / "data.txt").unlink(missing_ok=True)

    def reference(self, telekf) -> float:
        scenario = telekf.Scenario(
            model=self.system(telekf, "model.json"),
            network=telekf.NetworkConfig(n_d=7.0, n_j=5.0, n_p=0.2, seed=self.seed),
            data=self.load(telekf, "expected.txt", dt=float(TRACE_DT)),
        )
        return telekf.run_scenario(scenario).est_aggregate

    def inspect(self) -> Outcome:
        import numpy as np

        from telekf.metrics import fit_aggregate, fit_percent

        problems = []
        if sha256(self.work / "data.txt") != self.expected:
            problems.append("synth output differs from the set-up copy")
        trace = self.work / "run" / "trace.csv"
        digest = sha256(trace)
        if digest not in self._accuracy:
            rows = read_csv(trace)
            truth = np.array([[float(v) for k, v in r.items() if k.startswith("truth_")]
                              for r in rows])
            est = np.array([[float(v) for k, v in r.items() if k.startswith("est_")]
                            for r in rows])
            self._accuracy[digest] = fit_aggregate(fit_percent(truth, est))
        return Outcome(accuracy=self._accuracy[digest], digest=digest, problems=problems)


WORKLOADS = {w.name: w for w in (PaperSweep, IdentifyGrid, TraceIO)}


# ---------------------------------------------------------------------------
# measurement


class Tally:
    """Operations attempted and failed, and every problem found."""

    def __init__(self, reference: float):
        self.reference = reference
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def add(self, ops: int, codes: list, outcome: Outcome | None):
        """Count one repetition; all its operations fail if a check fails."""
        problems = [f"exit status {c!r}" for c in codes if c != 0]
        if outcome is not None:
            problems += outcome.problems
            if self.digest is None:
                self.digest = outcome.digest
            elif outcome.digest != self.digest:
                problems.append("outputs differ between repetitions")
            if not rel_diff(outcome.accuracy, self.reference) <= REL_TOL:
                problems.append(f"accuracy {outcome.accuracy!r} != reference {self.reference!r}")
        self.attempted += ops
        self.failed += ops if problems else outcome.failed
        self.problems += problems

    def extra(self, problems: list[str]):
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of interpreter-bound work.

    The work resembles the program's inner loops: small numpy products
    called from a Python loop, and plain integer arithmetic.  It runs in
    the benchmark's own process while no child runs.
    """
    import numpy as np

    start = time.perf_counter()
    a = np.eye(6) * 0.5
    x = np.ones(6)
    for _ in range(20000):
        x = a @ x + 0.1
    total = 0
    for i in range(1000000):
        total += i * i
    return time.perf_counter() - start


def setup_seconds(work: Path, probes: list[float]) -> list[float]:
    """Wall times of fresh ``telekf --version`` processes (one warm-up first)."""
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        child = setup_cli(["--version"], work)
        if not child.stdout.startswith("telekf "):
            raise SetupError(f"unexpected --version output {child.stdout!r}")
        if i:
            times.append(child.wall)
        probes.append(speed_probe())
    return times


def measure_cli(workload: Workload, seconds: float, tally: Tally, probes: list[float]) -> dict:
    """Repeat the timed commands in fresh processes; samples per metric."""
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": [], "work_per_s": [],
               "accuracy_pct": []}
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        reps += 1
        workload.clear()
        children = []
        for argv in workload.commands():
            children.append(Child(argv, workload.work))
            if children[-1].code != 0:
                break
        codes = [c.code for c in children]
        if any(c != 0 for c in codes):
            tally.add(workload.ops, codes, None)
            continue  # a failed repetition is no candidate for the best time
        outcome = workload.inspect()
        tally.add(workload.ops, codes, outcome)
        wall = sum(c.wall for c in children)
        samples["wall_s"].append(wall)
        samples["cpu_s"].append(sum(c.cpu for c in children))
        samples["peak_rss_mb"].append(max(c.rss_mb for c in children))
        samples["work_per_s"].append(workload.units / wall)
        samples["accuracy_pct"].append(outcome.accuracy)
        probes.append(speed_probe())
    if not samples["wall_s"]:
        raise SetupError("no repetition succeeded: " + "; ".join(tally.problems[:3]))
    return samples


def import_seconds(work: Path) -> list[float]:
    """``import telekf.cli`` inside fresh interpreters, interpreter start excluded."""
    times = []
    for _ in range(IMPORT_PROBES):
        child = Child([], work, script=IMPORT_PROBE)
        if child.code != 0:
            raise SetupError(child.problem())
        times.append(float(child.stdout))
    return times


def measure_traced(workload: Workload, telekf, seconds: float, tally: Tally):
    """Alternate untraced and traced in-process calls of the timed commands."""
    rec = tracer.Tracer()

    def run_once(traced: bool):
        workload.clear()
        codes = []
        start = time.perf_counter()
        with inside(workload.work):
            for argv in workload.commands():
                if traced:
                    with rec.installed(telekf):
                        codes.append(call_main(telekf, argv))
                else:
                    codes.append(call_main(telekf, argv))
                if codes[-1] != 0:
                    break
        wall = time.perf_counter() - start
        outcome = workload.inspect() if all(c == 0 for c in codes) else None
        tally.add(workload.ops, codes, outcome)
        return wall

    run_once(traced=False)  # warm-up: lazy imports and caches
    overheads, layer_runs, spans = [], [], []
    deadline = time.perf_counter() + seconds
    while len(overheads) < MIN_REPS or time.perf_counter() < deadline:
        untraced = run_once(traced=False)
        traced = run_once(traced=True)
        overheads.append(traced - untraced)
        run_spans, counts = rec.take()
        spans += run_spans
        layer_runs.append(tracer.layer_metrics(run_spans, counts))
    return overheads, layer_runs, spans, rec.missing


# ---------------------------------------------------------------------------
# environment and reporting


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, when it can be asked."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(telekf) -> dict:
    import numpy
    import scipy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None  # not a git checkout: src_sha256 identifies the code
    src = hashlib.sha256()
    for path in sorted((SRC / "telekf").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "numba_enabled": bool(telekf._kernels.NUMBA_ENABLED),
        "blas_threads": blas_threads(),
    }


UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "work_per_s": "1/s", "accuracy_pct": "%", "cli.import_s": "s",
         "trace.overhead_s": "s", "trace.absent_metrics": "count"}
UNITS.update({name: unit for name, (unit, _) in tracer.LAYER_METRICS.items()})


#: metrics where a larger value is the better one
HIGHER_IS_BETTER = {"work_per_s", "accuracy_pct", "dataio.parse_mb_per_s",
                    "dataio.write_mb_per_s", "sysid.useful_ratio"}
MEDIAN_METRICS = {"setup_s", "trace.overhead_s"}
#: end-to-end metrics reported at the reference speed: seconds, and per second
SPEED_TIMES = {"setup_s", "wall_s", "cpu_s"}
SPEED_RATES = {"work_per_s"}


def summarize(samples: dict, speed: float = 1.0) -> dict:
    """Reported value, raw value, median and sample count per metric.

    The raw value is the best repetition's.  On a shared 2-core machine the
    speed drifts by a fifth or more over tens of seconds with the
    neighbours' load, and that drift only ever adds time, so the best
    repetition repeats across runs far better than the median does.  Two
    metrics are medians: ``setup_s``, over its launches, and
    ``trace.overhead_s``, a difference of two noisy times, over its pairs.

    Slower stretches that outlast a whole run remain; ``speed`` (reference
    probe time over this run's best probe time) takes them out of the
    end-to-end times and rates, which are reported at the reference speed.
    """
    out = {}
    for name, values in samples.items():
        if name in MEDIAN_METRICS:
            stat, raw = "median", statistics.median(values)
        else:
            stat, raw = "best", max(values) if name in HIGHER_IS_BETTER else min(values)
        value = raw * speed if name in SPEED_TIMES else raw / speed if name in SPEED_RATES else raw
        out[name] = {"value": value, "unit": UNITS[name], "stat": stat, "raw": raw,
                     "median": statistics.median(values), "n": len(values), "samples": values}
    return out


def report(workload: Workload, args, env: dict, summary: dict, tally: Tally,
           notes: dict, spans=None) -> None:
    correct = not tally.problems
    print(f"{workload.name} seed={args.seed} size={args.size} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if "speed_scale" in notes:
        probes = notes["speed_probes_s"]
        print(f"speed probe: best {min(probes):.6g} s of {len(probes)}, reference "
              f"{PROBE_REFERENCE_S} s; end-to-end times scaled by {notes['speed_scale']:.6g}")
    for name, m in summary.items():
        alias = {"work_per_s": workload.work_name,
                 "accuracy_pct": workload.accuracy_name}.get(name, "")
        absent = name in notes.get("absent_metrics", [])
        value = "absent" if absent else f"{m['value']:.6g}"
        print(f"  {name:30s} {value:>12} {m['unit']:6s} raw {m['stat']} of {m['n']} "
              f"{m['raw']:.6g}, median {m['median']:.6g}  {alias}")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_frac':30s} {frac:>12.6g}        {tally.failed} of {tally.attempted}")
    for problem in tally.problems:
        print(f"  problem: {problem}")
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "sizes": workload.size, "trace": args.trace, "env": env,
              "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "metrics": summary, **notes}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}.spans.json").write_text(json.dumps(
            [[s.trace_id, s.span_id, s.parent_id, s.name, s.start, s.end, s.error]
             for s in spans]) + "\n")
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary.items()}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; tiny is for the benchmark's own test")
    args = parser.parse_args(argv)
    if not (SRC / "telekf" / "cli.py").is_file():
        print(f"error: no telekf sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS  # before numpy loads, here and in children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, SIZES[args.size])
        workload.setup()
        telekf = import_telekf()
        env = environment(telekf)
        with warnings.catch_warnings():
            # diverging order candidates overflow; the CLI prints these to its own stderr
            warnings.simplefilter("ignore", RuntimeWarning)
            tally = Tally(workload.reference(telekf))
        if args.trace == 0:
            probes = []
            samples = {"setup_s": setup_seconds(work, probes)}
            samples.update(measure_cli(workload, args.seconds, tally, probes))
            tally.extra(workload.once())
            speed = PROBE_REFERENCE_S / min(probes)
            notes = {"speed_probes_s": probes, "speed_scale": speed}
            report(workload, args, env, summarize(samples, speed), tally, notes)
            return 0
        imports = import_seconds(work)
        overheads, layer_runs, spans, missing = measure_traced(
            workload, telekf, args.seconds, tally)
        samples = {"cli.import_s": imports}
        for name in tracer.LAYER_METRICS:
            samples[name] = [values[name] for values, _ in layer_runs]
        samples["trace.overhead_s"] = overheads
        absent = layer_runs[-1][1]
        samples["trace.absent_metrics"] = [len(a) for _, a in layer_runs]
        tally.extra([f"{name} differs between traced calls: {samples[name]}"
                     for name in tracer.EXACT_COUNTS if len(set(samples[name])) > 1])
        notes = {"absent_metrics": absent, "missing_boundaries": missing}
        report(workload, args, env, summarize(samples), tally, notes, spans)
        return 0
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
