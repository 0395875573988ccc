"""End-to-end reports against the golden set in ``tests/data/golden``.

The golden set is made by ``tests/data/golden/make_golden.py``; this test
runs the same pipeline in a temporary directory.  The synth hashes and the
report comment lines must match exactly; in the other lines, every token
that is not a float must match exactly and every float to ``REL_TOL``.
A report of version 1, whose config names the pipeline's files, must
replay there to the reports of the version that writes them now.
"""

import dataclasses
import importlib.util
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from telekf import simrunner
from telekf.cli import main
from telekf.metrics import fit_percent, mse

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN_DIR / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

REL_TOL = 1e-12

#: separators inside a comma field, kept as tokens of their own
_SEPARATORS = re.compile(r'([\s\[\]{}:;"]+)')


def _float(token):
    try:
        return float(token)
    except ValueError:
        return None


def _same_token(golden: str, fresh: str) -> bool:
    if golden == fresh:
        return True
    g, f = _float(golden), _float(fresh)
    return g is not None and f is not None and math.isclose(f, g, rel_tol=REL_TOL, abs_tol=0.0)


def _same_field(golden: str, fresh: str) -> bool:
    g_tokens, f_tokens = _SEPARATORS.split(golden), _SEPARATORS.split(fresh)
    return len(g_tokens) == len(f_tokens) and all(map(_same_token, g_tokens, f_tokens))


def mismatch(name: str, golden: str, fresh: str):
    """The first difference beyond ``REL_TOL`` as "file row N column C", or None."""
    g_lines, f_lines = golden.splitlines(), fresh.splitlines()
    if len(g_lines) != len(f_lines):
        return f"{name}: {len(f_lines)} lines, golden has {len(g_lines)}"
    header = None
    for row, (g_line, f_line) in enumerate(zip(g_lines, f_lines), start=1):
        if g_line.startswith("#") or name == "synth.sha256":
            if g_line != f_line:
                return f"{name} row {row}: {f_line!r}, golden {g_line!r}"
            continue
        g_fields, f_fields = g_line.split(","), f_line.split(",")
        if len(g_fields) != len(f_fields):
            return f"{name} row {row}: {len(f_fields)} fields, golden has {len(g_fields)}"
        columns = header or [str(j) for j in range(1, len(g_fields) + 1)]
        if header is None and name.endswith(".csv"):
            header = g_fields
        for column, g_field, f_field in zip(columns, g_fields, f_fields):
            if not _same_field(g_field, f_field):
                return f"{name} row {row} column {column}: {f_field!r}, golden {g_field!r}"
    return None


#: the config line of the golden ``sweep_aggregated.csv`` as report version 1
#: wrote it: conditions as [delay_ms, jitter_ms, loss] rows, seeds as a list
V1_CONFIG = (
    '# config={"arm":null,"command":"sweep","conditions":[[0.0,0.0,0.0],[7.0,5.0,0.1],[20.0,10.0,0.3]],'
    '"data":"holdout.txt","dt":0.03333333333333333,"inputs":null,"model":"identify/model.json",'
    '"outputs":null,"preset":null,"seeds":[0,1,2]}'
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.fixture(scope="module")
def fresh(workdir):
    return make_golden.generate(workdir)


@pytest.mark.parametrize("name", ["synth.sha256", *make_golden.REPORTS])
def test_pipeline_reports_match_golden(fresh, name):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert mismatch(name, golden, fresh[name]) is None


def _arrays_in(value):
    """Every numpy array reachable from a sweep table."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from _arrays_in(getattr(value, field.name))
    elif isinstance(value, dict):
        for item in value.values():
            yield from _arrays_in(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays_in(item)


def test_sweep_records_hold_scores_only_and_the_run_trace_scores_the_same(fresh, workdir, monkeypatch):
    """A sweep of the ``run`` step's scenario keeps per-channel scores and no
    array of the trajectory's length, and the ``trace.csv`` that ``run``
    wrote for that scenario scores to the same figures bit for bit."""
    tables = []
    run_sweep = simrunner.run_sweep

    def recording(*args):
        tables.append(run_sweep(*args))
        return tables[-1]

    monkeypatch.setattr(simrunner, "run_sweep", recording)
    monkeypatch.chdir(workdir)
    # the run step's channel (--nd 7 --nj 5 --np 0.2 --seed 0) as a sweep row
    argv = ["sweep", "--model", "identify/model.json", "--data", "holdout.txt", "--dt", "0.002",
            "--rows", "5,7,0.2", "--seeds", "1", "--out-dir", "sweep_of_run"]
    assert main(argv) == 0
    [table] = tables
    assert (table.condition, table.seed, table.error) == ([(7.0, 5.0, 0.2)], [0], [""])
    lines = [line for line in Path("run/trace.csv").read_text().splitlines() if not line.startswith("#")]
    trace = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    p = (trace.shape[1] - 1) // 3
    assert {array.shape for array in _arrays_in(table)} == {(1, p), (1,)}
    truth, est = trace[:, 1 : 1 + p], trace[:, 1 + 2 * p :]
    np.testing.assert_array_equal(mse(truth, est), table.mse[0])
    np.testing.assert_array_equal(fit_percent(truth, est), table.est_percent[0])


def test_version_1_report_replays_to_the_reports_of_its_flags(fresh, workdir, monkeypatch, capsys):
    monkeypatch.chdir(workdir)
    Path("v1.csv").write_text(f"# telekf-report v1 telekf=0.1.0 rng=pcg64\n{V1_CONFIG}\nn_d,n_j\n")
    assert main(["sweep", "--replay", "v1.csv", "--out-dir", "v1"]) == 0
    # the sweep of make_golden.SWEEP, whose flags wrote the version-1 line
    sweep, v1 = workdir / "sweep", workdir / "v1"
    assert (v1 / "sweep_aggregated.csv").read_bytes() == (sweep / "sweep_aggregated.csv").read_bytes()
    runs = [make_golden._blank_runtime((path / "sweep_runs.csv").read_text()) for path in (v1, sweep)]
    assert runs[0] == runs[1]


@pytest.mark.parametrize("seeds", ["[0,2,3]", "[2,1]", "[]", "3"])
def test_version_1_report_without_consecutive_seeds_exits_2(seeds, tmp_path, capsys):
    report = tmp_path / "v1.csv"
    report.write_text(V1_CONFIG.replace('"seeds":[0,1,2]', f'"seeds":{seeds}') + "\n")
    out_dir = tmp_path / "out"
    assert main(["sweep", "--replay", str(report), "--out-dir", str(out_dir)]) == 2
    message = f"{report}: seeds: expected a list of consecutive integers, got {json.dumps(json.loads(seeds))}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()
