"""Regenerate the golden reference reports of a small end-to-end pipeline.

Run from the repository root:

    PYTHONPATH=src python tests/data/golden/make_golden.py

It runs ``synth`` (a training and a holdout file), ``identify``, a sweep at
the default sample period and one at 2 ms, and ``run`` through
``telekf.cli.main`` in a temporary directory, with relative file names so
that the reports embed no absolute path, and writes the files of
:func:`generate` next to this script.  ``tests/test_golden.py`` repeats the
steps and compares the result with those files.  Regenerate them only for a
change that is meant to alter the reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from telekf.cli import main

HERE = Path(__file__).resolve().parent

SYNTH = ["--n", "400", "--process-noise", "0.01", "--measurement-noise", "0.01"]
SWEEP = [
    "sweep", "--model", "identify/model.json", "--data", "holdout.txt",
    "--rows", "0,0,0;5,7,0.1;10,20,0.3", "--seeds", "3",
]
STEPS = [
    ["synth", "--out", "train.txt", "--seed", "1", *SYNTH],
    ["synth", "--out", "holdout.txt", "--seed", "2", *SYNTH],
    [
        "identify", "--train", "train.txt", "--holdout", "holdout.txt",
        "--na", "1:3", "--nb", "1:2", "--nk", "0:1", "--out-dir", "identify",
    ],
    [*SWEEP, "--out-dir", "sweep"],
    [*SWEEP, "--dt", "0.002", "--out-dir", "sweep_dt002"],
    [
        "run", "--model", "identify/model.json", "--data", "holdout.txt",
        "--dt", "0.002", "--nd", "7", "--nj", "5", "--np", "0.2", "--out-dir", "run",
    ],
]

#: synth outputs, kept in the golden set as their sha256 only
SYNTH_FILES = ["train.txt", "train.txt.truth.json", "holdout.txt", "holdout.txt.truth.json"]

#: golden file name -> the pipeline output it holds
REPORTS = {
    "order_fits.csv": "identify/order_fits.csv",
    "model.json": "identify/model.json",
    "sweep_runs.csv": "sweep/sweep_runs.csv",
    "sweep_aggregated.csv": "sweep/sweep_aggregated.csv",
    "sweep_dt002_runs.csv": "sweep_dt002/sweep_runs.csv",
    "sweep_dt002_aggregated.csv": "sweep_dt002/sweep_aggregated.csv",
    "trace.csv": "run/trace.csv",
}


def _blank_runtime(text: str) -> str:
    """Empty the last column (runtime_ms, a wall-clock time) of every data row."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    lines[first + 1 :] = [line.rsplit(",", 1)[0] + "," for line in lines[first + 1 :]]
    return "\n".join(lines) + "\n"


def generate(workdir) -> dict[str, str]:
    """Run the pipeline inside ``workdir``; return the golden files' text by name."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in STEPS:
                if main(argv) != 0:
                    raise RuntimeError(f"telekf {' '.join(argv)} failed")
    finally:
        os.chdir(cwd)
    work = Path(workdir)
    golden = {
        "synth.sha256": "".join(
            f"{hashlib.sha256((work / name).read_bytes()).hexdigest()}  {name}\n"
            for name in SYNTH_FILES
        )
    }
    for name, path in REPORTS.items():
        text = (work / path).read_text(encoding="utf-8")
        golden[name] = _blank_runtime(text) if name.endswith("_runs.csv") else text
    return golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = generate(tmp)
    for name, text in files.items():
        (HERE / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(files)} files, {sum(map(len, files.values()))} bytes -> {HERE}", file=sys.stderr)
