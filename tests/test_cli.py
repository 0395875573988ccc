import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import telekf
from telekf.cli import main
from telekf.simrunner import read_embedded_config


def synth_args(out, seed=0, n=600, **kw):
    args = [
        "synth", "--out", str(out), "--n", str(n), "--seed", str(seed),
        "--na", "1", "--nb", "1", "--nk", "1",
        "--n-inputs", "1", "--n-outputs", "1",
        "--measurement-noise", "0",
    ]
    for key, value in kw.items():
        args += [f"--{key.replace('_', '-')}", str(value)]
    return args


def exit_code(argv):
    """The process exit code: main's return value, or argparse's SystemExit code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture()
def dataset(tmp_path):
    train = tmp_path / "train.txt"
    holdout = tmp_path / "holdout.txt"
    assert main(synth_args(train, seed=1)) == 0
    assert main(synth_args(holdout, seed=2)) == 0
    return train, holdout


def test_synth_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(synth_args(a, seed=9)) == 0
    assert main(synth_args(b, seed=9)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (
        json.loads((tmp_path / "a.txt.truth.json").read_text())["model"]
        == json.loads((tmp_path / "b.txt.truth.json").read_text())["model"]
    )


def test_identify_finds_true_orders(tmp_path, dataset, capsys):
    train, holdout = dataset
    model_path = tmp_path / "model.json"
    rc = main([
        "identify", "--train", str(train), "--holdout", str(holdout),
        "--na", "1:2", "--nb", "1:2", "--nk", "0:1",
        "--out", str(model_path), "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "saved best filterable model arx(na=1,nb=1,nk=1)" in out
    doc = json.loads(model_path.read_text())
    assert doc["fit"]["fit_percent"][0] >= 99.99
    assert (tmp_path / "order_fits.csv").exists()


def test_identify_missing_file_exits_2(tmp_path, capsys):
    rc = main([
        "identify", "--train", str(tmp_path / "nope.txt"),
        "--holdout", str(tmp_path / "nope.txt"),
    ])
    assert rc == 2
    assert "nope.txt" in capsys.readouterr().err

    rc = exit_code([
        "identify", "--train", str(tmp_path / "nope.txt"),
        "--holdout", str(tmp_path / "nope.txt"), "--na", "1:x",
    ])
    assert rc == 2
    assert "--na" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")  # a Python warning would be a second report
def test_identify_same_holdout_warns_but_runs(tmp_path, dataset, capsys):
    train, _ = dataset
    rc = main([
        "identify", "--train", str(train), "--holdout", str(train),
        "--na", "1", "--nb", "1", "--nk", "1", "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: holdout equals the training file; fit figures are in-sample"]


@pytest.fixture()
def model_file(tmp_path, dataset):
    train, holdout = dataset
    model_path = tmp_path / "model.json"
    assert main([
        "identify", "--train", str(train), "--holdout", str(holdout),
        "--na", "1", "--nb", "1", "--nk", "1",
        "--out", str(model_path), "--out-dir", str(tmp_path),
    ]) == 0
    return model_path


def test_run_writes_correlated_trace(tmp_path, dataset, model_file):
    _, holdout = dataset
    out_dir = tmp_path / "run_out"
    rc = main([
        "run", "--model", str(model_file), "--data", str(holdout),
        "--nd", "0", "--nj", "0", "--np", "0", "--seed", "3",
        "--out-dir", str(out_dir),
    ])
    assert rc == 0
    trace = out_dir / "trace.csv"
    rows = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    assert header[0] == "t"
    assert any(c.startswith("truth_") for c in header)
    assert any(c.startswith("delivered_") for c in header)
    assert any(c.startswith("est_") for c in header)
    values = np.array([r.split(",") for r in rows[1:]], dtype=float)
    truth = values[:, 1]
    est = values[:, 3]
    assert np.corrcoef(truth, est)[0, 1] > 0.99


def test_run_channel_mismatch_exits_2(tmp_path, dataset, capsys):
    train, holdout = dataset
    other_model = tmp_path / "wide.json"
    wide = tmp_path / "wide.txt"
    assert main(synth_args(wide, seed=5, n_outputs=2)) == 0
    assert main([
        "identify", "--train", str(wide), "--holdout", str(wide),
        "--na", "1", "--nb", "1", "--nk", "1",
        "--out", str(other_model), "--out-dir", str(tmp_path),
    ]) == 0
    rc = main([
        "run", "--model", str(other_model), "--data", str(holdout),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 2
    assert "output" in capsys.readouterr().err


def test_run_undecodable_data_exits_2(tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1\xff 2\n")
    (tmp_path / "bad.txt.truth.json").write_bytes(
        Path(str(holdout) + ".truth.json").read_bytes()
    )
    rc = main([
        "run", "--model", str(model_file), "--data", str(bad),
        "--out-dir", str(tmp_path / "run_out"),
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: byte offset 1: cannot decode")
    assert not (tmp_path / "run_out").exists()


@pytest.mark.parametrize(
    "name, text",
    [
        ("cfg.json", b'{"seed": 1\xff}'),
        ("model.json", b'{"format": "\xff"}'),
        ("data.txt.truth.json", b'{"input_names": ["u\xff"]}'),
    ],
    ids=["config", "model", "sidecar"],
)
def test_json_input_that_is_not_utf8_exits_2(name, text, tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    data, model, cfg = tmp_path / "data.txt", tmp_path / "model.json", tmp_path / "cfg.json"
    data.write_bytes(holdout.read_bytes())
    (tmp_path / "data.txt.truth.json").write_bytes(Path(str(holdout) + ".truth.json").read_bytes())
    model.write_bytes(model_file.read_bytes())
    cfg.write_text("{}")
    bad = tmp_path / name
    bad.write_bytes(text)
    out_dir = tmp_path / "run_out"
    argv = ["run", "--config", str(cfg), "--model", str(model), "--data", str(data), "--out-dir", str(out_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: byte offset "), err
    assert "cannot decode b'\\xff' as UTF-8" in err, err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--model", "{model}", "--data", "{dir}"],
        ["sweep", "--model", "{dir}", "--data", "{data}", "--rows", "0,0,0"],
        ["sweep", "--replay", "{dir}"],
    ],
    ids=["run-data", "sweep-model", "sweep-replay"],
)
def test_directory_as_input_file_exits_2(argv, tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    folder = tmp_path / "folder"
    folder.mkdir()
    out_dir = tmp_path / "out"
    argv = [arg.format(model=model_file, data=holdout, dir=folder) for arg in argv]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err, err
    assert not out_dir.exists()


def test_sweep_grid_and_replay_byte_identical(tmp_path, dataset, model_file):
    _, holdout = dataset
    out_a = tmp_path / "sweep_a"
    rc = main([
        "sweep", "--model", str(model_file), "--data", str(holdout),
        "--rows", "0,0,0;2,5,0.1;5,7,0.2",
        "--seeds", "3", "--seed0", "0", "--out-dir", str(out_a),
    ])
    assert rc == 0
    agg_a = out_a / "sweep_aggregated.csv"
    runs_a = out_a / "sweep_runs.csv"
    assert agg_a.exists() and runs_a.exists()
    agg_rows = [l for l in agg_a.read_text().splitlines() if not l.startswith("#")][1:]
    assert len(agg_rows) == 3

    out_b = tmp_path / "sweep_b"
    rc = main(["sweep", "--replay", str(agg_a), "--out-dir", str(out_b)])
    assert rc == 0
    assert (out_b / "sweep_aggregated.csv").read_bytes() == agg_a.read_bytes()


def test_sweep_cartesian_grid(tmp_path, dataset, model_file):
    _, holdout = dataset
    out_dir = tmp_path / "grid"
    rc = main([
        "sweep", "--model", str(model_file), "--data", str(holdout),
        "--nd-list", "0,5", "--nj-list", "0", "--np-list", "0,0.2",
        "--seeds", "2", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    config = read_embedded_config(out_dir / "sweep_aggregated.csv")
    assert len(config["conditions"]) == 4
    assert config["seeds"] == [0, 1]


def test_sweep_empty_grid_exits_2(tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    out_dir = tmp_path / "sweep_out"
    base = ["sweep", "--model", str(model_file), "--data", str(holdout), "--out-dir", str(out_dir)]
    cases = [
        ([], "sweep needs"),
        (["--rows", "a,b,c"], "--rows"),
        (["--rows", "0,0,1.5"], "n_p must be in [0, 1]"),
        (["--rows", "0,0,0", "--seed0", "-1"], "seed must be >= 0"),
        (["--nd-list", "0,x", "--nj-list", "0", "--np-list", "0"], "--nd-list"),
    ]
    for extra, message in cases:
        assert exit_code(base + extra) == 2, extra
        assert message in capsys.readouterr().err
        assert not out_dir.exists(), extra


def test_config_file_supplies_flags_and_cli_overrides(tmp_path, dataset, model_file):
    _, holdout = dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "model": str(model_file),
        "data": str(holdout),
        "rows": [[0.0, 0.0, 0.0]],
        "seeds": 2,
        "out_dir": str(tmp_path / "from_config"),
    }))
    rc = main(["sweep", "--config", str(cfg_path)])
    assert rc == 0
    config = read_embedded_config(tmp_path / "from_config" / "sweep_aggregated.csv")
    assert config["seeds"] == [0, 1]

    rc = main(["sweep", "--config", str(cfg_path), "--seeds", "3",
               "--out-dir", str(tmp_path / "override")])
    assert rc == 0
    config = read_embedded_config(tmp_path / "override" / "sweep_aggregated.csv")
    assert config["seeds"] == [0, 1, 2]


@pytest.mark.parametrize("value", [[1], 1.5, True], ids=["list", "fraction", "bool"])
def test_config_value_of_the_wrong_type_exits_2(value, tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": value}))
    out_dir = tmp_path / "run_out"
    argv = ["run", "--config", str(cfg_path), "--model", str(model_file), "--data", str(holdout)]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: seed: expected an integer, got "), err
    assert not out_dir.exists()


def test_config_key_naming_no_flag_exits_2(tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sed": 3}))
    out_dir = tmp_path / "run_out"
    argv = ["run", "--config", str(cfg_path), "--model", str(model_file), "--data", str(holdout)]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: unknown key 'sed'\n"
    assert not out_dir.exists()


def test_config_rows_read_in_the_flag_column_order(tmp_path, dataset, model_file):
    _, holdout = dataset
    base = ["sweep", "--model", str(model_file), "--data", str(holdout), "--seeds", "1"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rows": [[2, 5, 0.1], [0.5, 7, 0]]}))
    assert main([*base, "--config", str(cfg_path), "--out-dir", str(tmp_path / "cfg")]) == 0
    assert main([*base, "--rows", "2,5,0.1;0.5,7,0", "--out-dir", str(tmp_path / "flag")]) == 0
    from_config = read_embedded_config(tmp_path / "cfg" / "sweep_aggregated.csv")
    from_flag = read_embedded_config(tmp_path / "flag" / "sweep_aggregated.csv")
    assert from_config["conditions"] == from_flag["conditions"] == [[5.0, 2.0, 0.1], [7.0, 0.5, 0.0]]


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(telekf.__file__).resolve().parents[1]))
    code = "import sys, telekf.cli; print('scipy' in sys.modules, 'numba' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]
