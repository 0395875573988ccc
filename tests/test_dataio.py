import hashlib
import io
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
    ColumnLayout,
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


def test_layout_pins_every_column_name_and_block():
    layout = LAYOUT
    assert layout.n_columns == 76
    assert len(set(layout.names)) == 76
    assert layout.block_indices("master").size == 38
    assert layout.block_indices("slave").size == 38
    assert layout.names[0] == "mtm_left_x"
    assert layout.names[38] == "psm_left_x"
    assert layout.names[-1] == "psm_right_grip"
    # the hash of the 76 "<name>,<block>" lines of the JIGSAWS layout in column order
    text = "".join(f"{name},{block}\n" for name, block in zip(layout.names, layout.blocks))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bf8f44f703bf47ff0536b8cb552e7cab4a4d37433cc46bfe18b92ca8cc2c9f04"
    )


def test_parse_two_zero_rows():
    row = " ".join(["0"] * 76)
    ts = parse_kinematics(f"{row}\n{row}\n".encode())
    assert ts.n_samples == 2
    assert ts.inputs.shape == (2, 38)
    assert ts.outputs.shape == (2, 38)
    assert not ts.inputs.any()
    assert ts.dt == pytest.approx(DT)


def test_parse_wrong_column_count_names_row():
    good = " ".join(["0"] * 76)
    bad = " ".join(["0"] * 75)
    with pytest.raises(KinematicsFormatError, match="row 2: expected 76 columns, got 75"):
        parse_kinematics(f"{good}\n{bad}\n".encode())


def test_parse_bad_token_names_row_and_column():
    tokens = ["0"] * 76
    tokens[4] = "abc"
    with pytest.raises(KinematicsFormatError, match="row 1, column 5"):
        parse_kinematics((" ".join(tokens) + "\n").encode())


def test_parse_nonfinite_rows_rejected_with_line_numbers():
    good = " ".join(["1.0"] * 76)
    tokens = ["1.0"] * 76
    tokens[10] = "nan"
    with pytest.raises(KinematicsFormatError, match=r"lines \[2\]"):
        parse_kinematics(f"{good}\n{' '.join(tokens)}\n{good}\n".encode())


def test_parse_empty_source():
    with pytest.raises(ContractViolationError, match="no data rows"):
        parse_kinematics(b"\n\n")


def test_parse_accepts_file_objects_and_skips_blank_lines():
    row = " ".join(str(v) for v in range(76))
    ts = parse_kinematics(io.BytesIO(f"\n{row}\n\n{row}\n".encode()))
    assert ts.n_samples == 2
    np.testing.assert_array_equal(ts.inputs[0], np.arange(38.0))


def reference_parse(text, n_columns):
    """The per-token reader as it stood before the one-call read: the values
    of every data row, or the error it raises."""
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


#: two master and two slave columns, so parsed values are hstack(inputs, outputs)
SMALL = ColumnLayout(
    names=("m1", "m2", "s1", "s2"),
    blocks=("master", "master", "slave", "slave"),
)


def assert_parses_like_reference(text, layout=SMALL):
    """Bit-identical values, or the identical exception and message, and no warning."""
    try:
        expected = reference_parse(text, layout.n_columns)
    except (KinematicsFormatError, ContractViolationError) as exc:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(type(exc)) as got:
                parse_kinematics(text.encode(), layout)
        assert str(got.value) == str(exc)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = parse_kinematics(text.encode(), layout)
    master = layout.block_indices("master")
    slave = layout.block_indices("slave")
    assert ts.inputs.tobytes() == expected[:, master].tobytes()
    assert ts.outputs.tobytes() == expected[:, slave].tobytes()


READ_CASES = {
    "tabs": "1\t2\t3\t4\n5\t\t6 7\t8\n",
    "no-break spaces": "1\xa02\u20033\u30004\n-0.0 1e-310 2.5e308 7\n",
    "crlf": "1 2 3 4\r\n5 6 7 8\r\n",
    "cr": "1 2 3 4\r5 6 7 8\r",
    "vertical tab": "1 2 3 4\x0b5 6 7 8",
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
def test_parse_matches_the_per_token_reader(name):
    assert_parses_like_reference(READ_CASES[name])


#: read block sizes that split "\r\n" pairs, multi-byte characters and bad bytes, and the default
BLOCK_BYTES = [1, 2, 3, 7, 13, dataio.READ_BLOCK_BYTES]


def test_parse_matches_the_per_token_reader_on_random_text(monkeypatch):
    rng = np.random.default_rng(61)
    separators = [" ", "  ", "\t", "\xa0", "\u2003", "\x1f"]
    line_ends = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028"]
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
        for block_bytes in BLOCK_BYTES:
            monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", block_bytes)
            assert_parses_like_reference(text)


def test_plain_input_takes_the_one_call_read(monkeypatch):
    def fail(*args):
        raise AssertionError("the per-token reader ran on plain input")

    monkeypatch.setattr(dataio, "_parse_tokens", fail)
    line_ends = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x85", "\u2028", "\n \t\n"]
    rows = [f"{k}\t{k + 0.5}\xa0-{k}e-3 {k}" for k in range(len(line_ends))]
    k = np.arange(len(line_ends), dtype=float)
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", block_bytes)
        ts = parse_kinematics("".join(r + e for r, e in zip(rows, line_ends)).encode(), SMALL)
        np.testing.assert_array_equal(ts.inputs, np.column_stack([k, k + 0.5]))
        np.testing.assert_array_equal(ts.outputs, np.column_stack([-k * 1e-3, k]))


def test_parse_undecodable_bytes_name_the_offset(tmp_path, monkeypatch):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"1 2 3 4\n5 6 7 \xe9\n")
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(dataio, "READ_BLOCK_BYTES", block_bytes)
        with pytest.raises(KinematicsFormatError, match=r"byte offset 1: cannot decode b'\\xff' as UTF-8"):
            parse_kinematics(b"1\xff 2 3 4\n", SMALL)
        with pytest.raises(KinematicsFormatError, match="byte offset 14"):
            parse_kinematics(path, SMALL)
        # after multi-byte characters, before a bad token or a ragged row, and
        # cut short at the end: the offset and bytes whole-text decoding names
        for data in [
            "1 2 \u0663 \u20ac\n".encode() + b"5 6 \xe2\x82 8\n",
            b"1 2 x 4\r\n5 6 7 8\r\n\xf0\x9f\x98",
            b"1 2 3\n\xc3\xa9\xc3\n",
            b"1 2 3 4\r\n\xed\xa0\x80\n",
        ]:
            with pytest.raises(UnicodeDecodeError) as exc:
                data.decode("utf-8")
            bad = data[exc.value.start : exc.value.end]
            with pytest.raises(KinematicsFormatError) as got:
                parse_kinematics(data, SMALL)
            assert str(got.value) == f"byte offset {exc.value.start}: cannot decode {bad!r} as UTF-8"


def test_path_and_bytes_parse_equal_under_the_c_locale(tmp_path):
    row = "\xa0".join(str(v) for v in range(76))
    path = tmp_path / "nbsp.txt"
    path.write_bytes(f"{row}\n{row}\n".encode("utf-8"))
    code = (
        "import locale, sys, numpy as np; from telekf.dataio import parse_kinematics; "
        "p = parse_kinematics(sys.argv[1]); b = parse_kinematics(open(sys.argv[1], 'rb').read()); "
        "assert p.inputs.tobytes() == b.inputs.tobytes() and p.outputs.tobytes() == b.outputs.tobytes(); "
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


def test_paper_preset_labels_and_shape():
    row = " ".join(str(v) for v in range(76))
    ts = parse_kinematics(f"{row}\n{row}\n".encode())
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
    ],
    ids=["n_samples", "seed", "input_scale-nan", "input_scale-neg-inf"],
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


def savetxt_reference(ts, path, layout):
    """The writer as it stood before the template: zero-filled full width, np.savetxt."""
    master = layout.block_indices("master")
    slave = layout.block_indices("slave")
    full = np.zeros((ts.n_samples, layout.n_columns))
    full[:, master[: ts.inputs.shape[1]]] = ts.inputs
    full[:, slave[: ts.outputs.shape[1]]] = ts.outputs
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


#: used columns of the two blocks alternate
INTERLEAVED = ColumnLayout(
    names=tuple(f"c{i}" for i in range(9)),
    blocks=("slave", "master", "slave", "master", "master", "slave", "slave", "master", "slave"),
)


@pytest.mark.parametrize(
    "layout, m, p",
    [(LAYOUT, 6, 3), (LAYOUT, 38, 38), (INTERLEAVED, 3, 4), (INTERLEAVED, 4, 5)],
    ids=["paper-columns", "full-capacity", "interleaved", "interleaved-full"],
)
def test_write_kinematics_matches_savetxt(tmp_path, layout, m, p):
    ts = _edge_trajectory(64, m, p, seed=m * 100 + p)
    write_kinematics(ts, tmp_path / "new.txt", layout)
    savetxt_reference(ts, tmp_path / "ref.txt", layout)
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


@pytest.mark.parametrize("layout", [LAYOUT, INTERLEAVED], ids=["packaged", "interleaved"])
def test_parse_keeps_consecutive_blocks_as_views_and_copies_interleaved_ones(layout):
    values = np.random.default_rng(6).standard_normal((5, layout.n_columns))
    text = "".join(" ".join(map(repr, row)) + "\n" for row in values.tolist())
    ts = parse_kinematics(text.encode(), layout)
    master = layout.block_indices("master")
    slave = layout.block_indices("slave")
    assert ts.inputs.tobytes() == values[:, master].tobytes()
    assert ts.outputs.tobytes() == values[:, slave].tobytes()
    # views of the one parsed array span each other's rows; copies do not
    consecutive = bool((np.diff(master) == 1).all() and (np.diff(slave) == 1).all())
    assert consecutive == (layout is LAYOUT)
    assert np.may_share_memory(ts.inputs, ts.outputs) == consecutive


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
    with pytest.raises(ContractViolationError, match="row-aligned"):
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
