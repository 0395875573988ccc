import hashlib
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import telekf
from telekf import dataio
from telekf.dataio import (
    LAYOUT,
    SIDE,
    SyntheticSpec,
    TrajectorySet,
    gen_synthetic,
    paper_preset,
    parse_kinematics,
    random_stable_arx,
    select_channels,
    write_kinematics,
)
from telekf.errors import (
    ContractViolationError,
    KinematicsFormatError,
    UnknownChannelNameError,
)

DT = 1.0 / 30.0


def parse_text(tmp_path, data):
    """:func:`parse_kinematics` of a file holding ``data``: bytes as they
    are, or text encoded as UTF-8 with its line ends kept."""
    path = tmp_path / "kinematics.txt"
    path.write_bytes(data if isinstance(data, bytes) else data.encode())
    return parse_kinematics(path)


def pad_rows(data):
    r"""``data``, text or bytes, with 72 zero tokens appended to each row that
    holds a token, so a row of four columns fills the 76 of :data:`LAYOUT`.
    Rows end at "\n", "\r\n" or "\r", as the reader splits them."""
    pad = " 0" * (len(LAYOUT) - 4)
    pattern = r"[^\r\n]+"
    if isinstance(data, bytes):
        pad, pattern = pad.encode(), pattern.encode()
    return re.sub(pattern, lambda row: row[0] + pad if row[0].split() else row[0], data)


def padded(values):
    """Four-column ``values`` in the first four of 76 columns, zeros after."""
    return np.pad(np.asarray(values, dtype=float), ((0, 0), (0, len(LAYOUT) - 4)))


def test_layout_pins_every_column_name_and_block():
    assert len(LAYOUT) == 76
    assert len(set(LAYOUT)) == 76
    assert SIDE == 38
    assert LAYOUT[0] == "mtm_left_x"
    assert LAYOUT[38] == "psm_left_x"
    assert LAYOUT[-1] == "psm_right_grip"
    # the hash of the 76 "<name>,<block>" lines of the JIGSAWS layout in
    # column order: the first 38 columns are the master block, the rest slave
    text = "".join(f"{name},{'master' if i < 38 else 'slave'}\n" for i, name in enumerate(LAYOUT))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bf8f44f703bf47ff0536b8cb552e7cab4a4d37433cc46bfe18b92ca8cc2c9f04"
    )


def test_parse_two_zero_rows(tmp_path):
    row = " ".join(["0"] * 76)
    ts = parse_text(tmp_path, f"{row}\n{row}\n")
    assert ts.n_samples == 2
    assert ts.inputs.shape == (2, 38)
    assert ts.outputs.shape == (2, 38)
    assert not ts.inputs.any()
    assert ts.dt == pytest.approx(DT)


def test_parse_wrong_column_count_names_row(tmp_path):
    good = " ".join(["0"] * 76)
    bad = " ".join(["0"] * 75)
    with pytest.raises(KinematicsFormatError, match="row 2: expected 76 columns, got 75"):
        parse_text(tmp_path, f"{good}\n{bad}\n")


def test_parse_bad_token_names_row_and_column(tmp_path):
    tokens = ["0"] * 76
    tokens[4] = "abc"
    with pytest.raises(KinematicsFormatError, match="row 1, column 5"):
        parse_text(tmp_path, " ".join(tokens) + "\n")


def test_parse_nonfinite_rows_rejected_with_line_numbers(tmp_path):
    good = " ".join(["1.0"] * 76)
    tokens = ["1.0"] * 76
    tokens[10] = "nan"
    with pytest.raises(KinematicsFormatError, match=r"lines \[2\]"):
        parse_text(tmp_path, f"{good}\n{' '.join(tokens)}\n{good}\n")


def test_parse_empty_source(tmp_path):
    # numpy's reader warns on a source with no data rows: the warning is not passed on
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ContractViolationError, match="no data rows"):
            parse_text(tmp_path, "\n\n")
    assert not caught


def reference_parse(text, n_columns):
    """The per-token reader as it stood before the one-call read, with rows
    ending at "\n", "\r\n" or "\r": the values of every data row, or the
    error it raises."""
    rows = []
    line_numbers = []
    for lineno, line in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
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


def assert_parses_like_reference(tmp_path, text):
    """Rows of four columns, padded to 76: bit-identical values, or the
    identical exception and message, and no warning."""
    text = pad_rows(text)
    try:
        expected = reference_parse(text, len(LAYOUT))
    except (KinematicsFormatError, ContractViolationError) as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(exc)) as got:
                parse_text(tmp_path, text)
        assert str(got.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = parse_text(tmp_path, text)
    assert ts.inputs.tobytes() == expected[:, :38].tobytes()
    assert ts.outputs.tobytes() == expected[:, 38:].tobytes()


READ_CASES = {
    "tabs": "1\t2\t3\t4\n5\t\t6 7\t8\n",
    "no-break spaces": "1\xa02\u20033\u30004\n-0.0 1e-310 2.5e308 7\n",
    "crlf": "1 2 3 4\r\n5 6 7 8\r\n",
    "cr": "1 2 3 4\r5 6 7 8\r",
    "vertical tab": "1 2 3 4\x0b5 6 7 8",
    "vertical tab inside a row": "1 2\x0b3 4\n",
    "form feed": "1 2 3 4\x0c5 6 7 8\x0c",
    "next line": "1 2 3 4\x855 6 7 8\x85",
    "line separator": "1 2 3 4\u20285 6 7 8\u2029",
    "blank and whitespace-only lines": "\n  \n1 2 3 4\n\t\xa0\n\n5 6 7 8\n \n",
    "full precision": "0.1 0.30000000000000004 1.7976931348623157e308 5e-324\n"
    "-1 +2 .5 3.\n",
    "underscore digits": "1_0 2 3 4\n5 6 7 8\n",
    "non-ascii digits": "1 \u0661\u0662 3 4\n5 6 \u0967.5 8\n",
    "nan row": "1 2 3 4\nnan 2 3 4\n5 6 7 8\n",
    "infinity rows after a blank line": "1 2 3 4\n\nInfinity 2 3 4\n5 6 -inf 8\n",
    "overflow to infinity": "1 2 3 4\n1e999 2 3 4\n",
    "nan and a bad token": "nan 2 3 4\n5 x 7 8\n",
    "ragged rows": "1 2 3 4\n5 6 7\n",
    "ragged after a bad token": "1 2 x 4\n5 6 7\n",
    "bad token": "1 2 3 4\n5 6 0x7 8\n",
    "comment marker": "1 2 3 4\n# 6 7 8\n",
    "nul in a token": "1 2 3 4\n5 6\x007 8 9\n",
    "wrong count on every row": "1 2 3\n4 5 6\n",
    "too many columns on every row": "1 2 3 4 5\n6 7 8 9 10\n",
    "empty": "",
    "only newlines": "\n\n",
    "only whitespace": " \t\x0c\xa0\u2028\r\n",
}


@pytest.mark.parametrize("name", list(READ_CASES))
def test_parse_matches_the_per_token_reader(tmp_path, name):
    assert_parses_like_reference(tmp_path, READ_CASES[name])


def test_parse_matches_the_per_token_reader_on_random_text(tmp_path):
    rng = np.random.default_rng(61)
    # the breaks str.splitlines splits at, but for "\n" and "\r", are whitespace inside a row
    separators = [" ", "  ", "\t", "\xa0", "\u2003", "\x1f", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]
    line_ends = ["\n", "\r\n", "\r"]
    specials = ["-0.0", "0", "1e-320", "-1.7e308", "inf", "nan", "1_5", "\u0663", "x", "1e"]
    for _ in range(300):
        lines = []
        for _ in range(rng.integers(0, 6)):
            if rng.random() < 0.15:
                lines.append(str(rng.choice(["", " ", "\t"])))
                continue
            n_tokens = 4 if rng.random() < 0.9 else int(rng.integers(1, 7))
            tokens = []
            for _ in range(n_tokens):
                if rng.random() < 0.03:
                    tokens.append(str(rng.choice(specials)))
                else:
                    value = rng.standard_normal() * 10.0 ** rng.integers(-8, 9)
                    tokens.append(str(rng.choice([repr(value), "%.17g" % value, "%.3e" % value])))
            lines.append(str(rng.choice(separators)).join(tokens))
        text = "".join(line + str(rng.choice(line_ends)) for line in lines)
        assert_parses_like_reference(tmp_path, text)


def no_per_token_read(*args):
    raise AssertionError("the per-token reader ran on plain input")


def test_plain_input_takes_the_one_call_read(tmp_path, monkeypatch):
    monkeypatch.setattr(dataio, "_parse_tokens", no_per_token_read)
    line_ends = ["\n", "\r\n", "\r", "\n \t\n"]
    rows = [f"{k}\t{k + 0.5}\xa0-{k}e-3 {k}" for k in range(len(line_ends))]
    # a vertical tab and a line separator are whitespace inside a row
    rows[1] = rows[1].replace("\t", "\x0b").replace(" ", "\u2028")
    k = np.arange(len(line_ends), dtype=float)
    for text in ["".join(r + e for r, e in zip(rows, line_ends)), "\r".join(rows) + "\r"]:
        ts = parse_text(tmp_path, pad_rows(text))
        want = padded(np.column_stack([k, k + 0.5, -k * 1e-3, k]))
        np.testing.assert_array_equal(np.hstack([ts.inputs, ts.outputs]), want)


def test_parse_undecodable_bytes_name_the_offset(tmp_path):
    with pytest.raises(KinematicsFormatError, match=r"byte offset 1: cannot decode b'\\xff' as UTF-8"):
        parse_text(tmp_path, pad_rows(b"1\xff 2 3 4\n"))
    # after a row, after multi-byte characters, before a bad token or a
    # ragged row, and cut short at the end: the offset and bytes
    # whole-text decoding names
    for data in [
        b"1 2 3 4\n5 6 7 \xe9\n",
        "1 2 \u0663 \u20ac\n".encode() + b"5 6 \xe2\x82 8\n",
        b"1 2 x 4\r\n5 6 7 8\r\n\xf0\x9f\x98",
        b"1 2 3\n\xc3\xa9\xc3\n",
        b"1 2 3 4\r\n\xed\xa0\x80\n",
    ]:
        data = pad_rows(data)
        with pytest.raises(UnicodeDecodeError) as exc:
            data.decode("utf-8")
        bad = data[exc.value.start : exc.value.end]
        with pytest.raises(KinematicsFormatError) as got:
            parse_text(tmp_path, data)
        assert str(got.value) == f"byte offset {exc.value.start}: cannot decode {bad!r} as UTF-8"


def test_a_path_is_read_as_a_plain_local_file(tmp_path, monkeypatch):
    """numpy's loadtxt, given a path, decompresses it by its extension and
    fetches it as a URL; the reader opens a path as a plain local file."""
    monkeypatch.setattr(dataio, "_parse_tokens", no_per_token_read)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "http:" / "localhost:1").mkdir(parents=True)
    text = pad_rows(b"1 2 3 4\n5 6 7 8\n")
    for name in ["x.gz", "http://localhost:1/k.txt"]:
        with open(name, "wb") as out:
            out.write(text)
        for source in [name, tmp_path / name]:
            ts = parse_kinematics(source)
            np.testing.assert_array_equal(np.hstack([ts.inputs, ts.outputs]), padded([[1, 2, 3, 4], [5, 6, 7, 8]]))
    # a source is a path: text in memory is not read
    with pytest.raises(TypeError):
        parse_kinematics(text)


def test_a_path_parses_as_utf8_under_the_c_locale(tmp_path):
    row = "\xa0".join(str(v) for v in range(76))
    path = tmp_path / "nbsp.txt"
    path.write_bytes(f"{row}\n{row}\n".encode("utf-8"))
    code = (
        "import locale, sys, numpy as np; from telekf.dataio import parse_kinematics; "
        "p = parse_kinematics(sys.argv[1]); "
        "assert (np.hstack([p.inputs, p.outputs]) == np.arange(76.0)).all(); "
        "print(locale.getpreferredencoding(False), p.n_samples)"
    )
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(telekf.__file__).resolve().parents[1]),
        LC_ALL="C",
        PYTHONUTF8="0",
        PYTHONCOERCECLOCALE="0",
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(path)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    encoding, n_samples = out.stdout.split()
    assert encoding.lower().replace("_", "-") in ("ansi-x3.4-1968", "ascii", "us-ascii")
    assert n_samples == "2"


def test_select_identity_and_order_preserving():
    ts = _small_ts()
    same = select_channels(ts, ts.input_names, ts.output_names)
    np.testing.assert_array_equal(same.inputs, ts.inputs)
    flipped = select_channels(ts, list(ts.input_names[::-1]), ts.output_names)
    np.testing.assert_array_equal(flipped.inputs, ts.inputs[:, ::-1])
    assert flipped.input_names == ts.input_names[::-1]


def test_select_duplicate_column_allowed():
    ts = _small_ts()
    doubled = select_channels(ts, [ts.input_names[0], ts.input_names[0]], ts.output_names)
    np.testing.assert_array_equal(doubled.inputs[:, 0], doubled.inputs[:, 1])


def test_select_unknown_name_lists_available():
    ts = _small_ts()
    with pytest.raises(UnknownChannelNameError, match="available:"):
        select_channels(ts, ["nope"], ts.output_names)


def test_select_can_cross_sides():
    ts = _small_ts()
    crossed = select_channels(ts, [ts.output_names[0]], [ts.output_names[0]])
    np.testing.assert_array_equal(crossed.inputs[:, 0], ts.outputs[:, 0])


def test_paper_preset_labels_and_shape(tmp_path):
    row = " ".join(str(v) for v in range(76))
    ts = parse_text(tmp_path, f"{row}\n{row}\n")
    sel = paper_preset(ts, arm="right")
    assert sel.output_names == ("psm_x", "psm_y", "psm_z")
    assert sel.input_names == ("mtm_x", "mtm_y", "mtm_z", "mtm_vx", "mtm_vy", "mtm_vz")
    assert sel.outputs.shape == (2, 3)
    # right psm x,y,z sit at columns 58-60 (1-based)
    np.testing.assert_array_equal(sel.outputs[0], [57.0, 58.0, 59.0])


def test_gen_synthetic_deterministic():
    gen = random_stable_arx(2, 2, 1, n_outputs=2, n_inputs=2, seed=33)
    spec = SyntheticSpec(
        generator=gen, n_samples=400, seed=7, excitation="sines",
        process_noise=0.01, measurement_noise=0.01,
    )
    a = gen_synthetic(spec)
    b = gen_synthetic(spec)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.outputs, b.outputs)
    assert a.trial_id == b.trial_id


def test_gen_synthetic_zero_excitation_zero_noise_is_silent():
    gen = random_stable_arx(1, 1, 1, n_outputs=1, n_inputs=1, seed=34)
    spec = SyntheticSpec(generator=gen, n_samples=50, seed=0, input_scale=0.0)
    ts = gen_synthetic(spec)
    assert not ts.outputs.any()


def test_gen_synthetic_rejects_unstable_generator():
    from telekf.sysid import ArxModel

    unstable = ArxModel(
        na=1, nb=1, nk=1, a_coeffs=[[1.05]], b_coeffs=[[[1.0]]],
        n_outputs=1, n_inputs=1, dt=DT,
    )
    with pytest.raises(ContractViolationError, match="unstable"):
        gen_synthetic(SyntheticSpec(generator=unstable, n_samples=100, seed=0))


@pytest.mark.parametrize("dt", [np.inf, np.nan, 0.0, -DT])
def test_non_finite_or_non_positive_dt_rejected(dt):
    from telekf.sysid import ArxModel

    with pytest.raises(ContractViolationError, match="dt must be positive and finite"):
        TrajectorySet(dt=dt, inputs=np.zeros((3, 1)), outputs=np.zeros((3, 1)), input_names=("u",), output_names=("y",))
    with pytest.raises(ContractViolationError, match="dt must be positive and finite"):
        ArxModel(na=1, nb=1, nk=1, a_coeffs=[[0.5]], b_coeffs=[[[1.0]]], n_outputs=1, n_inputs=1, dt=dt)


@pytest.mark.parametrize("noise", ["process_noise", "measurement_noise"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -0.1])
def test_synthetic_spec_rejects_noise_that_is_not_finite_and_non_negative(noise, value):
    gen = random_stable_arx(1, 1, 1, n_outputs=1, n_inputs=1, seed=34)
    with pytest.raises(ContractViolationError, match=re.escape(f"{noise} must be in [0, inf), got {value}")):
        SyntheticSpec(generator=gen, n_samples=50, seed=0, **{noise: value})


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_samples", 1, "n_samples must be in [2, inf), got 1"),
        ("seed", -1, "seed must be in [0, inf), got -1"),
        ("input_scale", np.nan, "input_scale must be finite, got nan"),
        ("input_scale", -np.inf, "input_scale must be finite, got -inf"),
        ("n_samples", 2.5, "n_samples must be an integer, got 2.5"),
        ("n_samples", 50.0, "n_samples must be an integer, got 50.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
    ],
    ids=["n_samples", "seed", "input_scale-nan", "input_scale-neg-inf", "n_samples-fraction", "n_samples-float",
         "seed-fraction"],
)
def test_synthetic_spec_names_the_field_and_its_range(field, value, message):
    gen = random_stable_arx(1, 1, 1, n_outputs=1, n_inputs=1, seed=34)
    spec = {"generator": gen, "n_samples": 50, "seed": 0, field: value}
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        SyntheticSpec(**spec)


def test_write_then_parse_round_trip_exact(tmp_path):
    gen = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=35)
    ts = gen_synthetic(
        SyntheticSpec(
            generator=gen, n_samples=64, seed=3,
            process_noise=0.01, measurement_noise=0.02,
        )
    )
    path = tmp_path / "synthetic.txt"
    input_names, output_names = write_kinematics(ts, path)
    # the first master and the first slave columns
    assert input_names == ("mtm_left_x", "mtm_left_y")
    assert output_names == ("psm_left_x", "psm_left_y", "psm_left_z")
    sel = select_channels(parse_kinematics(path), input_names, output_names)
    np.testing.assert_array_equal(sel.inputs, ts.inputs)
    np.testing.assert_array_equal(sel.outputs, ts.outputs)


def savetxt_reference(ts, path):
    """The writer as it stood before the template: zero-filled full width, np.savetxt."""
    full = np.zeros((ts.n_samples, 76))
    full[:, : ts.inputs.shape[1]] = ts.inputs
    full[:, 38 : 38 + ts.outputs.shape[1]] = ts.outputs
    np.savetxt(path, full, fmt="%.17g")


#: values whose "%.17g" text is easy to get wrong
EDGE_VALUES = [
    -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1.7e308, -1.7e308,
    1.0, -3.0, 123456789.0, 2.0**53, 0.1, 0.30000000000000004, 1.0 / 3.0, 7e22, -0.5,
]


def _edge_trajectory(n_samples, m, p, seed):
    rng = np.random.default_rng(seed)
    pool = np.concatenate([EDGE_VALUES, rng.standard_normal(16) * 10.0 ** rng.integers(-9, 9, 16)])
    return TrajectorySet(
        dt=DT,
        inputs=rng.choice(pool, (n_samples, m)),
        outputs=rng.choice(pool, (n_samples, p)),
        input_names=tuple(f"u{j}" for j in range(m)),
        output_names=tuple(f"y{c}" for c in range(p)),
    )


@pytest.mark.parametrize(
    "m, p",
    [(6, 3), (38, 38), (1, 1), (1, 38), (38, 1)],
    ids=["paper-columns", "full-capacity", "one-each", "one-input", "one-output"],
)
def test_write_kinematics_matches_savetxt(tmp_path, m, p):
    ts = _edge_trajectory(64, m, p, seed=m * 100 + p)
    assert write_kinematics(ts, tmp_path / "new.txt") == (LAYOUT[:m], LAYOUT[38 : 38 + p])
    savetxt_reference(ts, tmp_path / "ref.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_parse_returns_both_sides_as_views_of_one_array(tmp_path):
    values = np.random.default_rng(6).standard_normal((5, 76))
    text = "".join(" ".join(map(repr, row)) + "\n" for row in values.tolist())
    ts = parse_text(tmp_path, text)
    assert ts.inputs.tobytes() == values[:, :38].tobytes()
    assert ts.outputs.tobytes() == values[:, 38:].tobytes()
    # views of the one parsed array span each other's rows
    assert np.may_share_memory(ts.inputs, ts.outputs)


def test_parse_peak_is_one_parsed_array(tmp_path):
    gen = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=35)
    ts = gen_synthetic(SyntheticSpec(generator=gen, n_samples=10000, seed=3, process_noise=0.01))
    path = tmp_path / "long.txt"
    write_kinematics(ts, path)
    lines = path.read_bytes().decode("utf-8").splitlines()
    tracemalloc.start()
    try:
        # one parsed array, with the slack numpy's reader grows it by
        assert np.loadtxt(lines, dtype=float, comments=None, ndmin=2).shape == (10000, 76)
        array_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        parse_kinematics(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= array_peak + 1024 * 1024


def test_write_kinematics_peak_stays_below_the_file_size(tmp_path):
    gen = random_stable_arx(2, 2, 1, n_outputs=3, n_inputs=2, seed=35)
    ts = gen_synthetic(SyntheticSpec(generator=gen, n_samples=10000, seed=3, process_noise=0.01))
    path = tmp_path / "long.txt"
    tracemalloc.start()
    try:
        write_kinematics(ts, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_write_kinematics_rejects_too_many_channels(tmp_path):
    ts = _edge_trajectory(4, 39, 1, seed=0)
    message = "input channels must be at most 38 (the layout's master columns), got 39"
    with pytest.raises(ContractViolationError, match=re.escape(message)):
        write_kinematics(ts, tmp_path / "x.txt")
    assert not (tmp_path / "x.txt").exists()


def test_trajectory_validation():
    with pytest.raises(ContractViolationError, match=r"outputs must have shape \(3, 3\), got \(2, 3\)"):
        _small_ts(n_in=3, n_out=2)
    with pytest.raises(ContractViolationError, match="finite"):
        from telekf.dataio import TrajectorySet

        TrajectorySet(
            dt=DT, inputs=[[np.inf]], outputs=[[0.0]],
            input_names=("u1",), output_names=("y1",),
        )


def _small_ts(n_in=4, n_out=4):
    from telekf.dataio import TrajectorySet

    rng = np.random.default_rng(40)
    return TrajectorySet(
        dt=DT,
        inputs=rng.standard_normal((n_in, 2)),
        outputs=rng.standard_normal((n_out, 3)),
        input_names=("in_a", "in_b"),
        output_names=("out_a", "out_b", "out_c"),
    )
