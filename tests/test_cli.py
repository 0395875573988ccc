import csv
import json
import os
import shlex
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


def _no_read(*args, **kwargs):
    raise AssertionError("an input file was read")


@pytest.fixture()
def no_input_read(monkeypatch):
    """Fail the test if a kinematics or model file is read."""
    monkeypatch.setattr(telekf.dataio, "parse_kinematics", _no_read)
    monkeypatch.setattr(telekf.sysid, "load_model", _no_read)


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


def test_identify_out_into_a_new_directory(tmp_path, dataset):
    train, holdout = dataset
    model_path = tmp_path / "new" / "sub" / "model.json"
    rc = main([
        "identify", "--train", str(train), "--holdout", str(holdout),
        "--na", "1", "--nb", "1", "--nk", "1", "--out", str(model_path), "--out-dir", str(tmp_path / "fits"),
    ])
    assert rc == 0
    assert json.loads(model_path.read_text())["na"] == 1


@pytest.mark.parametrize(
    "arm, input_columns, output_columns",
    [("left", [1, 2, 3, 13, 14, 15], [39, 40, 41]), ("right", [20, 21, 22, 32, 33, 34], [58, 59, 60])],
)
def test_identify_paper_preset_fits_the_arm_s_tool_tip_columns(arm, input_columns, output_columns, tmp_path,
                                                                monkeypatch):
    # every value of the 76-column files is distinct, so each selected column is known by its values
    values = {name: np.random.default_rng(seed).standard_normal((200, 76))
              for seed, name in enumerate(["train", "holdout"])}
    for name, table in values.items():
        (tmp_path / f"{name}.txt").write_text("".join(" ".join(map(repr, row)) + "\n" for row in table.tolist()))
    fitted = []
    order_sweep = telekf.sysid.order_sweep

    def recording_order_sweep(train, holdout, *orders):
        fitted.extend([train, holdout])
        return order_sweep(train, holdout, *orders)

    monkeypatch.setattr(telekf.sysid, "order_sweep", recording_order_sweep)
    model_path = tmp_path / "model.json"
    assert main([
        "identify", "--train", str(tmp_path / "train.txt"), "--holdout", str(tmp_path / "holdout.txt"),
        "--preset", "paper", "--arm", arm, "--na", "1", "--nb", "1", "--nk", "1",
        "--out", str(model_path), "--out-dir", str(tmp_path),
    ]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["input_names"] == ["mtm_x", "mtm_y", "mtm_z", "mtm_vx", "mtm_vy", "mtm_vz"]
    assert doc["output_names"] == ["psm_x", "psm_y", "psm_z"]
    for ts, table in zip(fitted, values.values(), strict=True):
        np.testing.assert_array_equal(ts.inputs, table[:, np.subtract(input_columns, 1)])
        np.testing.assert_array_equal(ts.outputs, table[:, np.subtract(output_columns, 1)])


@pytest.mark.parametrize("source", ["flag", "config"])
def test_identify_empty_order_list_exits_2_before_reading_the_data(source, tmp_path, capsys, no_input_read):
    missing = str(tmp_path / "nope.txt")
    argv = ["identify", "--train", missing, "--holdout", missing, "--out-dir", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--na", "4:1"]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"na": []}))
        argv += ["--config", str(cfg_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --na lists no order\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "orders, message",
    [
        (["--na=-1:1", "--nb", "0:1", "--nk", "1"], "--na must be in [0, inf), got -1"),
        (["--nb", "0:2"], "--nb must be in [1, inf), got 0"),
        ({"nk": [1, -2]}, "--nk must be in [0, inf), got -2"),
        (["--na", "1,1", "--nb", "1", "--nk", "1"], "--na repeats 1"),
        ({"nk": [0, 2, 0]}, "--nk repeats 0"),
    ],
    ids=["na-flag", "nb-flag", "nk-config", "na-repeated-flag", "nk-repeated-config"],
)
def test_identify_order_out_of_range_exits_2_before_reading_the_data(orders, message, tmp_path, capsys,
                                                                      no_input_read):
    missing = str(tmp_path / "nope.txt")
    argv = ["identify", "--train", missing, "--holdout", missing, "--out-dir", str(tmp_path / "out")]
    if isinstance(orders, dict):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(orders))
        orders = ["--config", str(cfg_path)]
    assert main([*argv, *orders]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_identify_note_names_the_order_that_rules_out_a_filter(tmp_path, dataset):
    train, holdout = dataset
    argv = ["identify", "--train", str(train), "--holdout", str(holdout), "--na", "0:1", "--nb", "1", "--nk", "0:1"]
    assert main([*argv, "--out-dir", str(tmp_path / "fits")]) == 0
    with open(tmp_path / "fits" / "order_fits.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    notes = {(row["na"], row["nk"]): (row["filterable"], row["note"]) for row in rows}
    assert notes == {
        ("0", "0"): ("False", "not filterable (na=0)"),
        ("0", "1"): ("False", "not filterable (na=0)"),
        ("1", "0"): ("False", "not filterable (nk=0)"),
        ("1", "1"): ("True", ""),
    }


def test_identify_notes_an_unstable_candidate_and_prints_no_fit_for_it(tmp_path, capsys):
    noisy = ["--gen-seed", "42", "--na", "2", "--nb", "2", "--nk", "1", "--excitation", "sines",
             "--process-noise", "0.005", "--measurement-noise", "0.002"]
    for name, seed in (("train.txt", 1), ("holdout.txt", 2)):
        assert main(["synth", "--out", str(tmp_path / name), "--n", "600", "--seed", str(seed), *noisy]) == 0
    argv = ["identify", "--train", str(tmp_path / "train.txt"), "--holdout", str(tmp_path / "holdout.txt"),
            "--na", "1:2", "--nb", "1", "--nk", "0:2", "--out-dir", str(tmp_path / "fits")]
    capsys.readouterr()
    assert main(argv) == 0
    printed = {tuple(line.split()[:3]): line.split()[3:] for line in capsys.readouterr().out.splitlines()[1:-1]}
    with open(tmp_path / "fits" / "order_fits.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    # an ARX(na, 1, 2) fit of this ARX(2, 2, 1) data diverges in its free run
    assert [(row["na"], row["nk"], row["note"]) for row in rows if row["nk"] == "2"] == [
        ("2", "2", "unstable"), ("1", "2", "unstable")
    ]
    names = json.loads((tmp_path / "train.txt.truth.json").read_text())
    train = telekf.dataio.select_channels(
        telekf.dataio.parse_kinematics(tmp_path / "train.txt"), names["input_names"], names["output_names"]
    )
    for row in rows:
        orders = (int(row["na"]), int(row["nb"]), int(row["nk"]))
        stable = telekf.sysid.arx_fit(train, orders).stable
        assert ("unstable" in row["note"]) == (not stable)
        # the CSV keeps every fit, and stdout shows none for an unstable model
        assert np.isfinite(float(row["fit_percent"])) or not stable
        shown = printed[(row["na"], row["nb"], row["nk"])]
        assert (shown[:2] == ["-", "-"]) == (not stable)
        assert shown[2:] == row["note"].split()


def test_unknown_channel_message_is_printed_without_quotes(tmp_path, dataset, capsys):
    _, holdout = dataset
    missing = str(tmp_path / "nope.json")
    argv = ["run", "--model", missing, "--data", str(holdout), "--inputs", "foo", "--outputs", "y1"]
    assert main([*argv, "--out-dir", str(tmp_path / "out")]) == 2
    available = ", ".join(telekf.dataio.parse_kinematics(holdout).channel_names)
    assert capsys.readouterr().err == f"error: unknown channel 'foo'; available: {available}\n"


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


def test_run_of_a_breaking_model_exits_1_without_a_trace(tmp_path, dataset, model_file, capsys):
    # with no noise the covariance collapses and an innovation variance reaches zero
    _, holdout = dataset
    doc = json.loads(model_file.read_text())
    doc["noise"] = {"q": 0, "r_diag": [0]}
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    out_dir = tmp_path / "run_out"
    assert main(["run", "--model", str(broken), "--data", str(holdout), "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: innovation variance is not positive and finite at step ")
    assert err.endswith(", measurement row 0\n"), err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("seed", -1, "--seed must be in [0, inf), got -1"),
        ("gen-seed", -1, "--gen-seed must be in [0, inf), got -1"),
        ("na", -1, "--na must be in [0, inf), got -1"),
        ("nb", -1, "--nb must be in [1, inf), got -1"),
        ("n-inputs", 0, "--n-inputs must be in [1, inf), got 0"),
        ("n-outputs", 0, "--n-outputs must be in [1, inf), got 0"),
        ("process-noise", "nan", "--process-noise must be in [0, inf), got nan"),
        ("measurement-noise", "nan", "--measurement-noise must be in [0, inf), got nan"),
        ("measurement-noise", "inf", "--measurement-noise must be in [0, inf), got inf"),
        ("n-outputs", 39, "--n-outputs must be at most 38 (the layout's slave columns), got 39"),
        ("n-inputs", 40, "--n-inputs must be at most 38 (the layout's master columns), got 40"),
        ("input-scale", "nan", "--input-scale must be finite, got nan"),
        ("input-scale", "inf", "--input-scale must be finite, got inf"),
    ],
)
def test_synth_rejects_a_bad_flag_value_before_any_work(flag, value, message, tmp_path, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the generator ran")

    monkeypatch.setattr(telekf.dataio, "random_stable_arx", no_work)
    out = tmp_path / "sub" / "out.txt"
    argv = ["synth", "--out", str(out), f"--{flag}", str(value)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("dt", ["inf", "nan"])
@pytest.mark.parametrize("command", ["synth", "run", "sweep"])
def test_non_finite_dt_exits_2(command, dt, tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    out_dir = tmp_path / "out"
    argv = {
        "synth": ["synth", "--out", str(out_dir / "data.txt")],
        "run": ["run", "--model", str(model_file), "--data", str(holdout), "--out-dir", str(out_dir)],
        "sweep": ["sweep", "--model", str(model_file), "--data", str(holdout), "--rows", "0,0,0", "--seeds", "1",
                  "--out-dir", str(out_dir)],
    }[command]
    assert main([*argv, "--dt", dt]) == 2
    assert capsys.readouterr().err == f"error: --dt must be positive and finite, got {dt}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["identify", "run", "sweep"])
def test_bad_dt_is_named_before_a_missing_input_file(command, tmp_path, capsys, no_input_read):
    missing = str(tmp_path / "missing.txt")
    argv = {
        "identify": ["identify", "--train", missing, "--holdout", missing],
        "run": ["run", "--model", missing, "--data", missing],
        "sweep": ["sweep", "--model", missing, "--data", missing, "--rows", "0,0,0"],
    }[command]
    assert main([*argv, "--dt", "0", "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: --dt must be positive and finite, got 0.0\n"
    assert not (tmp_path / "out").exists()


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


def test_sweep_model_that_does_not_fit_the_data_exits_2_before_any_scenario(
    tmp_path, model_file, capsys, monkeypatch
):
    def no_scenario(*args, **kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(telekf.simrunner, "run_sweep", no_scenario)
    wide = tmp_path / "wide.txt"
    assert main(synth_args(wide, seed=5, n_outputs=2)) == 0
    capsys.readouterr()
    out_dir = tmp_path / "sweep_out"
    rc = main([
        "sweep", "--model", str(model_file), "--data", str(wide),
        "--rows", "0,0,0;5,7,0.2", "--seeds", "2", "--out-dir", str(out_dir),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: model has 1 outputs but data has 2 output channels\n"
    assert not out_dir.exists()


def test_sweep_of_a_one_sample_trajectory_exits_2_before_any_scenario(
    tmp_path, dataset, model_file, capsys, monkeypatch
):
    def no_scenario(*args, **kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(telekf.simrunner, "run_sweep", no_scenario)
    _, holdout = dataset
    one = tmp_path / "one.txt"
    one.write_text(holdout.read_text().splitlines(keepends=True)[0])
    (tmp_path / "one.txt.truth.json").write_bytes(Path(str(holdout) + ".truth.json").read_bytes())
    capsys.readouterr()
    out_dir = tmp_path / "sweep_out"
    rc = main([
        "sweep", "--model", str(model_file), "--data", str(one),
        "--rows", "0,0,0;5,7,0.2", "--seeds", "2", "--out-dir", str(out_dir),
    ])
    assert rc == 2
    assert capsys.readouterr().err == "error: a scenario needs at least two samples\n"
    assert not out_dir.exists()


def test_model_file_order_out_of_range_exits_2_naming_the_file(tmp_path, dataset, model_file, capsys):
    doc = json.loads(model_file.read_text())
    model_file.write_text(json.dumps({**doc, "nb": 0}))
    out_dir = tmp_path / "run_out"
    capsys.readouterr()
    rc = main(["run", "--model", str(model_file), "--data", str(dataset[1]), "--out-dir", str(out_dir)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {model_file}: nb must be in [1, inf), got 0\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_model_file_without_noise_exits_2_naming_the_file(command, tmp_path, dataset, model_file, capsys):
    doc = json.loads(model_file.read_text())
    del doc["noise"]
    model_file.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    rows = ["--rows", "0,0,0", "--seeds", "1"] if command == "sweep" else []
    capsys.readouterr()
    argv = [command, "--model", str(model_file), "--data", str(dataset[1]), *rows, "--out-dir", str(out_dir)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {model_file}: model file lacks noise\n"
    assert not out_dir.exists()


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


#: a JSON integer past the 4300 digits that Python's int() converts by default
HUGE_INT = "1" + "0" * 5000

#: a JSON array nested far deeper than Python's recursion limit
DEEP_ARRAY = "[" * 200000 + "]" * 200000

#: each JSON input of the CLI: its file name, its text around one JSON value, and a command that reads it
JSON_INPUTS = pytest.mark.parametrize(
    "name, text, argv",
    [
        ("cfg.json", '{{"seed": {}}}', ["run", "--config", "{bad}", "--model", "{model}", "--data", "{data}"]),
        ("report.csv", '# config={{"seeds": {}}}\nn_d\n', ["sweep", "--replay", "{bad}"]),
        ("bad_model.json", '{{"dt": {}}}', ["run", "--model", "{bad}", "--data", "{data}"]),
        ("data.txt.truth.json", '{{"input_names": {}}}', ["run", "--model", "{model}", "--data", "{data}"]),
    ],
    ids=["config", "replay", "model", "sidecar"],
)


def _run_on_bad_json(name, text, argv, tmp_path, dataset, model_file, capsys):
    """Run ``argv`` with the JSON input ``name`` holding ``text``; returns stderr
    after checking the exit code 2, the file named first and no output directory."""
    _, holdout = dataset
    data = tmp_path / "data.txt"
    data.write_bytes(holdout.read_bytes())
    (tmp_path / "data.txt.truth.json").write_bytes(Path(str(holdout) + ".truth.json").read_bytes())
    bad = tmp_path / name
    bad.write_text(text)
    out_dir = tmp_path / "out"
    argv = [arg.format(bad=bad, model=model_file, data=data) for arg in argv]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: "), err
    assert not out_dir.exists()
    return err


@JSON_INPUTS
def test_json_integer_past_the_digit_limit_exits_2_naming_the_file(name, text, argv, tmp_path, dataset, model_file,
                                                                    capsys):
    err = _run_on_bad_json(name, text.format(HUGE_INT), argv, tmp_path, dataset, model_file, capsys)
    assert "4300" in err, err
    assert "set_int_max_str_digits" not in err, err


@JSON_INPUTS
def test_json_nested_too_deeply_exits_2_naming_the_file(name, text, argv, tmp_path, dataset, model_file, capsys):
    err = _run_on_bad_json(name, text.format(DEEP_ARRAY), argv, tmp_path, dataset, model_file, capsys)
    assert "nested too deeply" in err, err


@pytest.mark.parametrize(
    "sidecar, message",
    [
        ("1", "must hold a JSON object"),
        ('{"input_names": "u1", "output_names": ["y1"]}', "must be lists of strings"),
        ('{"input_names": ["u1"], "output_names": [1]}', "must be lists of strings"),
    ],
    ids=["not-an-object", "names-not-a-list", "name-not-a-string"],
)
def test_malformed_sidecar_exits_2(sidecar, message, tmp_path, dataset, model_file, capsys):
    _, holdout = dataset
    data = tmp_path / "data.txt"
    data.write_bytes(holdout.read_bytes())
    sidecar_path = tmp_path / "data.txt.truth.json"
    sidecar_path.write_text(sidecar)
    out_dir = tmp_path / "run_out"
    assert main(["run", "--model", str(model_file), "--data", str(data), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: sidecar {sidecar_path}") and message in err, err
    assert not out_dir.exists()


def _sweep_config(**changes):
    """An embedded sweep config with every key, as JSON text, with ``changes`` applied."""
    config = {"command": "sweep", "model": "m.json", "data": "d.txt", "inputs": None, "outputs": None,
              "preset": None, "arm": None, "dt": 0.05, "rows": [[0, 0, 0]], "seeds": 1, "seed0": 0}
    return json.dumps({**config, **changes})


@pytest.mark.parametrize(
    "config, message",
    [
        ("1", "{report}: the config must be a JSON object"),
        ('{"command": "sweep"}', "the following arguments are required: --model, --data, --rows"),
        ('{"command": "sweep", "model": "m.json", "data": "d.txt"}', "the following arguments are required: --rows"),
        # the model and data files do not exist: the types are checked first
        (_sweep_config(rows=[[1, 2]]), "{report}: rows: expected a list of [jitter_ms, delay_ms, loss] rows, got [[1, 2]]"),
        ('{"conditions": 5, "seeds": [0]}',
         "{report}: conditions: expected a list of [delay_ms, jitter_ms, loss] rows, got 5"),
        (_sweep_config(dt="x"), "argument --dt: invalid float value: 'x'"),
        (_sweep_config(seeds="ab"), "argument --seeds: invalid int value: 'ab'"),
        (_sweep_config(seeds=[0, 1]), "{report}: seeds: expected an integer, got [0, 1]"),
        (_sweep_config(seeds=0), "--seeds must be in [1, inf), got 0"),
        (_sweep_config(command="run"), '{report}: command: expected "sweep", got "run"'),
    ],
    ids=["not-an-object", "command-only", "keys-missing", "short-row", "conditions-a-number", "dt-a-string",
         "seeds-a-string", "seeds-a-list", "no-seeds", "command-of-run"],
)
def test_replay_of_a_malformed_config_exits_2(config, message, tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(f"# config={config}\nn_d,n_j\n")
    out_dir = tmp_path / "replayed"
    assert exit_code(["sweep", "--replay", str(report), "--out-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: {message.format(report=report)}\n"), err
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


def _config_line(path) -> str:
    return next(line for line in path.read_text().splitlines() if line.startswith("# config="))


def _without_runtime(path) -> list[str]:
    """The lines of a runs report with the wall-clock runtime_ms column cut."""
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


def test_sweep_config_line_as_config_file_gives_the_same_reports(tmp_path, dataset, model_file):
    _, holdout = dataset
    first = tmp_path / "first"
    assert main([
        "sweep", "--model", str(model_file), "--data", str(holdout),
        "--rows", "2,0,0;2,0,0.2;2,5,0;2,5,0.2", "--seeds", "2", "--seed0", "4",
        "--out-dir", str(first),
    ]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_line(first / "sweep_aggregated.csv")[len("# config="):])
    again = tmp_path / "again"
    assert main(["sweep", "--config", str(cfg_path), "--out-dir", str(again)]) == 0
    assert (again / "sweep_aggregated.csv").read_bytes() == (first / "sweep_aggregated.csv").read_bytes()
    assert _without_runtime(again / "sweep_runs.csv") == _without_runtime(first / "sweep_runs.csv")


def test_run_config_line_as_config_file_gives_the_same_trace(tmp_path, dataset, model_file):
    _, holdout = dataset
    first = tmp_path / "first"
    assert main([
        "run", "--model", str(model_file), "--data", str(holdout),
        "--nd", "7", "--nj", "5", "--np", "0.2", "--seed", "3", "--dt", "0.002", "--out-dir", str(first),
    ]) == 0
    config = read_embedded_config(first / "trace.csv")
    assert {key: config[key] for key in ("nd", "nj", "np", "seed")} == {"nd": 7.0, "nj": 5.0, "np": 0.2, "seed": 3}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_config_line(first / "trace.csv")[len("# config="):])
    again = tmp_path / "again"
    assert main(["run", "--config", str(cfg_path), "--out-dir", str(again)]) == 0
    assert (again / "trace.csv").read_bytes() == (first / "trace.csv").read_bytes()


def test_a_flag_beside_replay_overrides_the_embedded_value(tmp_path, dataset, model_file):
    _, holdout = dataset
    first = tmp_path / "first"
    assert main([
        "sweep", "--model", str(model_file), "--data", str(holdout),
        "--rows", "0,0,0;2,5,0.1", "--seeds", "3", "--out-dir", str(first),
    ]) == 0
    replayed = tmp_path / "replayed"
    assert main([
        "sweep", "--replay", str(first / "sweep_runs.csv"), "--seeds", "1", "--rows", "2,5,0.1",
        "--out-dir", str(replayed),
    ]) == 0
    config = read_embedded_config(replayed / "sweep_aggregated.csv")
    assert (config["rows"], config["seeds"], config["seed0"]) == ([[2.0, 5.0, 0.1]], 1, 0)
    assert config["model"] == str(model_file)
    runs = [line.split(",") for line in (replayed / "sweep_runs.csv").read_text().splitlines()[4:]]
    assert [row[:4] for row in runs] == [["5.0", "2.0", "0.1", "0"]]


@pytest.mark.parametrize(
    "extra, message",
    [
        ([], "the following arguments are required: --rows"),
        (["--rows", ""], "error: --rows lists no condition"),
        (["--config", "{config}"], "error: --rows lists no condition"),
        (["--rows", "a,b,c"], "argument --rows: each row needs three numbers"),
        (["--rows", "0,0,1.5"], "error: --rows row 1: loss must be in [0, 1], got 1.5"),
        (["--rows", "0,0,0", "--nj-list", "0", "--np-list", "0"], "unrecognized arguments: --nj-list 0 --np-list 0"),
    ],
    ids=["no-rows", "empty-rows", "empty-config-rows", "not-numbers", "loss-above-1", "grid-flags"],
)
def test_sweep_without_usable_rows_exits_2_before_reading_files(extra, message, tmp_path, capsys, no_input_read):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rows": []}))
    out_dir = tmp_path / "sweep_out"
    missing = str(tmp_path / "nope")
    argv = ["sweep", "--model", missing, "--data", missing, "--out-dir", str(out_dir)]
    assert exit_code(argv + [arg.format(config=cfg_path) for arg in extra]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--nd", "-1"], "--nd must be in [0, inf), got -1.0"),
        (["run", "--nj", "nan"], "--nj must be in [0, inf), got nan"),
        (["run", "--np", "-0.5"], "--np must be in [0, 1], got -0.5"),
        (["sweep", "--rows", "0,0,0", "--seed0", "-1"], "--seed0 must be in [0, inf), got -1"),
    ],
    ids=["nd", "nj", "np", "seed0"],
)
def test_channel_flag_below_its_least_value_is_named(argv, message, tmp_path, capsys, no_input_read):
    out_dir = tmp_path / "out"
    missing = str(tmp_path / "nope")
    assert main([*argv, "--model", missing, "--data", missing, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["run", "--model", "{missing}", "--data", "{missing}", "--out-dir", "{out}"], {"nd": 10**400},
         "--nd must be in [0, inf), got an integer too large for a float"),
        (["synth", "--out", "{out}"], {"input_scale": -(10**400)},
         "--input-scale must be finite, got an integer too large for a float"),
        (["sweep", "--model", "{missing}", "--data", "{missing}", "--out-dir", "{out}"],
         {"rows": [[0, 0, 0], [10**400, 0, 0]]},
         "--rows row 2: jitter_ms must be in [0, inf), got an integer too large for a float"),
    ],
    ids=["run-nd", "synth-input-scale", "sweep-rows"],
)
def test_config_integer_too_large_for_a_float_is_named(argv, config, message, tmp_path, capsys, no_input_read):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [arg.format(missing=tmp_path / "nope", out=out) for arg in argv]
    assert main([*argv, "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_integer_setting_beyond_the_float_range_is_compared_exactly(tmp_path):
    # only a float setting must fit a float; a seed is any non-negative integer
    out = tmp_path / "big_seed.txt"
    assert main(synth_args(out, seed=10**400, n=20)) == 0
    assert out.stat().st_size > 0


@pytest.mark.parametrize(
    "argv, config_rows, message",
    [
        (["run", "--np", "1.5"], None, "--np must be in [0, 1], got 1.5"),
        (["run", "--np", "nan"], None, "--np must be in [0, 1], got nan"),
        (["sweep", "--rows", "0,-1,0"], None, "--rows row 1: delay_ms must be in [0, inf), got -1.0"),
        (["sweep", "--rows", "0,0,0;inf,0,0"], None, "--rows row 2: jitter_ms must be in [0, inf), got inf"),
        (["sweep", "--rows", "0,0,0;1,2,0.1;0,0,nan"], None, "--rows row 3: loss must be in [0, 1], got nan"),
        (["sweep"], [[0, 0, 0], [0, -1, 0]], "--rows row 2: delay_ms must be in [0, inf), got -1.0"),
        (["sweep", "--rows", "0,0,0.1;0,0,0.1"], None, "--rows row 2 repeats row 1 (0,0,0.1)"),
        (["sweep", "--rows", "0,0,0;5,7,0.2;5,7.0,0.20"], None, "--rows row 3 repeats row 2 (5,7,0.2)"),
        (["sweep"], [[1, 2, 0.1], [0, 0, 0], [1.0, 2.0, 0.1]], "--rows row 3 repeats row 1 (1,2,0.1)"),
    ],
    ids=["np-above-1", "np-nan", "rows-delay", "rows-jitter", "rows-loss", "config-rows-delay",
         "rows-repeated", "rows-repeated-spelled-apart", "config-rows-repeated"],
)
def test_channel_value_out_of_range_or_repeated_row_is_named(argv, config_rows, message, tmp_path, capsys,
                                                             no_input_read):
    out_dir = tmp_path / "out"
    missing = str(tmp_path / "nope")
    if config_rows is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"rows": config_rows}))
        argv = [*argv, "--config", str(cfg_path)]
    assert main([*argv, "--model", missing, "--data", missing, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


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
    assert config["seeds"] == 2

    rc = main(["sweep", "--config", str(cfg_path), "--seeds", "3",
               "--out-dir", str(tmp_path / "override")])
    assert rc == 0
    config = read_embedded_config(tmp_path / "override" / "sweep_aggregated.csv")
    assert config["seeds"] == 3


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


def test_synth_config_naming_out_dir_exits_2(tmp_path, capsys):
    # synth writes only to --out, so it has no --out-dir to set
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"out_dir": str(tmp_path / "elsewhere")}))
    out = tmp_path / "sub" / "data.txt"
    assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: unknown key 'out_dir'\n"
    assert not out.parent.exists()


@pytest.mark.parametrize("key", ["config", "replay", "help"])
def test_config_key_naming_no_setting_exits_2_before_reading_files(key, tmp_path, capsys, no_input_read):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: str(tmp_path / "other.json"), "seeds": 1}))
    out_dir = tmp_path / "sweep_out"
    missing = str(tmp_path / "nope")
    argv = ["sweep", "--config", str(cfg_path), "--model", missing, "--data", missing, "--rows", "0,0,0"]
    assert main([*argv, "--out-dir", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {cfg_path}: unknown key {key!r}\n"
    assert not out_dir.exists()


def test_replay_overrides_config_and_flags_override_both(tmp_path, dataset, model_file):
    _, holdout = dataset
    first = tmp_path / "first"
    assert main([
        "sweep", "--model", str(model_file), "--data", str(holdout),
        "--rows", "2,5,0.1", "--seeds", "1", "--seed0", "3", "--out-dir", str(first),
    ]) == 0
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rows": [[0, 0, 0]], "seeds": 4, "seed0": 7}))
    again = tmp_path / "again"
    assert main([
        "sweep", "--config", str(cfg_path), "--replay", str(first / "sweep_aggregated.csv"), "--seeds", "2",
        "--out-dir", str(again),
    ]) == 0
    config = read_embedded_config(again / "sweep_aggregated.csv")
    assert (config["rows"], config["seed0"], config["seeds"]) == ([[2.0, 5.0, 0.1]], 3, 2)


def test_config_rows_read_in_the_flag_column_order(tmp_path, dataset, model_file):
    _, holdout = dataset
    base = ["sweep", "--model", str(model_file), "--data", str(holdout), "--seeds", "1"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"rows": [[2, 5, 0.1], [0.5, 7, 0]]}))
    assert main([*base, "--config", str(cfg_path), "--out-dir", str(tmp_path / "cfg")]) == 0
    assert main([*base, "--rows", "2,5,0.1;0.5,7,0", "--out-dir", str(tmp_path / "flag")]) == 0
    from_config = read_embedded_config(tmp_path / "cfg" / "sweep_aggregated.csv")
    from_flag = read_embedded_config(tmp_path / "flag" / "sweep_aggregated.csv")
    assert from_config["rows"] == from_flag["rows"] == [[2.0, 5.0, 0.1], [0.5, 7.0, 0.0]]
    rows = (tmp_path / "cfg" / "sweep_aggregated.csv").read_text().splitlines()[4:]
    assert [row.split(",")[:3] for row in rows] == [["5.0", "2.0", "0.1"], ["7.0", "0.5", "0.0"]]


def test_identify_order_fits_quotes_a_note_with_a_comma(tmp_path, dataset):
    train, _ = dataset
    short = tmp_path / "short.txt"
    assert main(synth_args(short, seed=2, n=4)) == 0
    fits = tmp_path / "fits"
    argv = ["identify", "--train", str(train), "--holdout", str(short), "--na", "1:4", "--nb", "1:2", "--nk", "1"]
    assert main([*argv, "--out-dir", str(fits)]) == 0
    with open(fits / "order_fits.csv", newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert all(len(row) == len(header) for row in rows)
    assert "holdout needs more than 4 samples, got 4" in [row[-1] for row in rows]


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    commands = [line for line in lines if line.strip() and not line.startswith("#")]
    assert len(commands) >= 5 and all(line.startswith("telekf ") for line in commands), commands
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert exit_code(shlex.split(line)[1:]) == 0, line


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(telekf.__file__).resolve().parents[1]))
    code = "import sys, telekf.cli; print('scipy' in sys.modules, 'numba' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["False", "False"]
