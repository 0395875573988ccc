"""End-to-end reports against the golden set in ``tests/data/golden``.

The golden set is made by ``tests/data/golden/make_golden.py``; this test
runs the same pipeline in a temporary directory.  The synth hashes and the
report comment lines must match exactly; in the other lines, every token
that is not a float must match exactly and every float to ``REL_TOL``.
"""

import importlib.util
import math
import re
from pathlib import Path

import pytest

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


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return make_golden.generate(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ["synth.sha256", *make_golden.REPORTS])
def test_pipeline_reports_match_golden(fresh, name):
    golden = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    assert mismatch(name, golden, fresh[name]) is None
