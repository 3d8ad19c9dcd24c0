"""Problem-file schema: parsing and diagnostics."""
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from noncomm_recur.algebra import FreeElement, FreeVector, Matrix
from noncomm_recur.problems import (
    ProblemFileError,
    ProblemFile,
    load_problem,
    loads_problem,
)

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
BUNDLED = sorted(PROBLEMS_DIR.glob("*.json"))


def test_bundled_problems_exist():
    assert len(BUNDLED) >= 5


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
def test_bundled_file_loads(path):
    doc, text = load_problem(path), path.read_text(encoding="utf-8")
    assert doc.backend == json.loads(text)["backend"]
    assert loads_problem(text, source=str(path)) == doc


def test_scalar_parsing():
    doc = loads_problem(json.dumps(
        {"backend": "scalar", "L0": "1/2", "L1": -3, "Y1": "2"}))
    assert doc.problem.L0 == Fraction(1, 2)
    assert doc.problem.L1 == Fraction(-3)
    assert doc.problem.y1bar == 2
    assert doc.label is None


def test_rational_matrix_parsing():
    doc = load_problem(PROBLEMS_DIR / "rational-2x2.json")
    assert doc.backend == "rational-matrix"
    assert doc.problem.L0 == Matrix([[0, 1], [1, 0]])
    assert doc.problem.L1.rows[0][1] == Fraction(1, 2)
    assert doc.problem.L0.exact


def test_float_matrix_parsing():
    doc = load_problem(PROBLEMS_DIR / "float-2x2.json")
    assert doc.backend == "float-matrix"
    assert not doc.problem.L0.exact
    assert doc.problem.L0.rows[0][0] == 0.5


def test_free_defaults():
    doc = loads_problem('{"backend": "free"}')
    A, B = FreeElement.generators()
    assert doc.problem.L0 == A
    assert doc.problem.L1 == B
    assert doc.problem.y1bar == FreeVector.generator()


def test_free_explicit_elements():
    doc = loads_problem(json.dumps({
        "backend": "free",
        "L0": {"A": 1, "BA": -2},
        "L1": {"B": 1},
        "Y1": {"": 1, "AB": 3},
    }))
    assert doc.problem.L0 == FreeElement({(0,): 1, (1, 0): -2})
    assert doc.problem.y1bar == FreeVector({(): 1, (0, 1): 3})


LONG_INT = "1" * 4301  # one digit past Python's default int/str limit
EYE2 = "[[1, 0], [0, 1]]"
FINITE = "^float entry must be finite and within the range of a double$"


def scalar(L0='"1"'):
    return f'{{"backend": "scalar", "L0": {L0}, "L1": "1", "Y1": "1"}}'


def matrix(L0, L1="[[1]]", Y1="[1]", n=1, backend="float-matrix"):
    return f'{{"backend": "{backend}", "n": {n}, "L0": {L0}, "L1": {L1}, "Y1": {Y1}}}'


# One row per rejection in the parser: the file text, the field (or for
# malformed JSON the line) that the error names, and its message.
REJECTED_FILES = {
    "malformed-json": ('{\n  "backend": "scalar",\n  oops\n}', 3, "^Expecting property name"),
    "deep-nesting": ("[" * 100000, None, "^JSON nested too deeply$"),
    "json-int-too-long": (scalar(LONG_INT), None, "^integer has more digits"),
    "not-an-object": ("[1]", None, "^top level must be a JSON object$"),
    "unknown-backend": ('{"backend": "quaternion"}', "backend",
                        "^unknown backend 'quaternion'; expected one of rational-matrix, "),
    "label": ('{"backend": "free", "label": 3}', "label", "^label must be a string$"),
    "missing": ('{"backend": "scalar", "L0": "1", "L1": "1"}', "Y1", "^required field is missing$"),
    "bool-rational": (scalar("true"), "L0", "^invalid rational True$"),
    "decimal": (scalar("0.5"), "L0", r"^decimal 0\.5 not allowed in an exact backend"),
    "decimal-text": (matrix('[["1.5"]]', backend="rational-matrix"), "L0[0][0]",
                     r"^invalid rational '1\.5'; expected 'p' or 'p/q'$"),
    "zero-denominator": (scalar('"1/0"'), "L0", "^zero denominator in '1/0'$"),
    "rational-too-long": (scalar(f'"1/{LONG_INT}"'), "L0", "^integer has more digits"),
    "null-rational": (scalar("null"), "L0", "^invalid rational None$"),
    "float-text": (matrix('[["1/2"]]'), "L0[0][0]", "^invalid float entry '1/2'; expected a JSON"),
    "nan": (matrix("[[NaN]]"), "L0[0][0]", FINITE),
    "infinity": (matrix("[[1]]", "[[-Infinity]]"), "L1[0][0]", FINITE),
    "1e999": (matrix("[[1]]", Y1="[1e999]"), "Y1[0]", FINITE),
    "int-past-double": (matrix("[[1]]", Y1=f'[1{"0" * 400}]'), "Y1[0]", FINITE),
    **{f"n-{n}": (matrix("[[1]]", n=n), "n", f"^n must be a positive integer, got {n.title()}$")
       for n in ("true", "0", "-1")},
    "row-count": (matrix("[[1, 0]]", EYE2, "[1, 0]", 2), "L0", "^expected 2 rows$"),
    "ragged-matrix": (matrix("[[1, 0], [1]]", EYE2, "[1, 0]", 2), "L0[1]", "^expected 2 entries$"),
    "vector-length": (matrix(EYE2, EYE2, "[1]", 2), "Y1", "^expected 2 entries$"),
    "free-field": ('{"backend": "free", "L1": [1]}', "L1", "^expected an object mapping words"),
    "free-word": ('{"backend": "free", "L0": {"AXB": 1}}', "L0", "^invalid word text 'AXB': "),
    **{f"free-coefficient-{c}": ('{"backend": "free", "L0": {"AB": %s}}' % c, "L0",
                                 "^coefficient of word 'AB' must be an int, got ")
       for c in ("true", "0.5", '"1"', "null", "[]")},
}


@pytest.mark.parametrize("case", REJECTED_FILES)
def test_rejected_file_names_field_or_line(case):
    text, named, message = REJECTED_FILES[case]
    field, line = (None, named) if isinstance(named, int) else (named, None)
    where = "bad.json" + (f":{line}" if line else "") + (f": field {field}" if field else "")
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem(text, source="bad.json")
    error = excinfo.value
    assert (error.source, error.field, error.line) == ("bad.json", field, line)
    assert str(error).startswith(where + ": ")
    assert re.search(message, str(error)[len(where) + 2:]), str(error)


def test_unreadable_file_raises_problem_file_error(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(ProblemFileError) as excinfo:
        load_problem(missing)
    assert excinfo.value.source == str(missing)
    assert isinstance(excinfo.value.__cause__, FileNotFoundError)
    (tmp_path / "latin1.json").write_bytes(b'{"label": "\xe9"}')
    with pytest.raises(ProblemFileError) as excinfo:
        load_problem(tmp_path / "latin1.json")
    assert isinstance(excinfo.value.__cause__, UnicodeDecodeError)


def test_problem_file_is_comparable():
    doc = load_problem(PROBLEMS_DIR / "fibonacci.json")
    assert doc == ProblemFile("scalar", doc.problem, "fibonacci")
