"""Problem-file schema: parsing, diagnostics, round-trips."""
import json
from fractions import Fraction
from pathlib import Path

import pytest

from noncomm_recur.algebra import FreeElement, FreeVector, Matrix
from noncomm_recur.problems import (
    ProblemFileError,
    ProblemFile,
    dumps_problem,
    load_problem,
    loads_problem,
)

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
BUNDLED = sorted(PROBLEMS_DIR.glob("*.json"))


def test_bundled_problems_exist():
    assert len(BUNDLED) >= 5


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.name)
def test_bundled_round_trip(path):
    doc = load_problem(path)
    again = loads_problem(dumps_problem(doc), source=str(path))
    assert again == doc
    assert loads_problem(dumps_problem(again)) == again


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


def test_malformed_json_reports_line():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem('{\n  "backend": "scalar",\n  oops\n}', source="bad.json")
    assert excinfo.value.line == 3
    assert "bad.json:3" in str(excinfo.value)


def test_deeply_nested_json_rejected():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem("[" * 100000, source="deep.json")
    assert "deep.json" in str(excinfo.value)


def test_unknown_backend():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem('{"backend": "quaternion"}')
    assert excinfo.value.field == "backend"


def test_missing_field_named():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem('{"backend": "scalar", "L0": "1", "L1": "1"}')
    assert excinfo.value.field == "Y1"


def test_decimal_rejected_in_rational_backend():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem(json.dumps(
            {"backend": "scalar", "L0": 0.5, "L1": "1", "Y1": "1"}))
    assert excinfo.value.field == "L0"
    with pytest.raises(ProblemFileError):
        loads_problem(json.dumps({
            "backend": "rational-matrix", "n": 1,
            "L0": [["1.5"]], "L1": [["1"]], "Y1": ["1"]}))


def test_zero_denominator_rejected():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem(json.dumps(
            {"backend": "scalar", "L0": "1/0", "L1": "1", "Y1": "1"}))
    assert excinfo.value.field == "L0"


def test_ragged_matrix_rejected():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem(json.dumps({
            "backend": "rational-matrix", "n": 2,
            "L0": [["1", "0"], ["1"]], "L1": [["1", "0"], ["0", "1"]],
            "Y1": ["1", "0"]}))
    assert excinfo.value.field == "L0[1]"


def test_wrong_vector_length_rejected():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem(json.dumps({
            "backend": "rational-matrix", "n": 2,
            "L0": [["1", "0"], ["0", "1"]], "L1": [["1", "0"], ["0", "1"]],
            "Y1": ["1"]}))
    assert excinfo.value.field == "Y1"


def test_bad_free_word_rejected():
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem('{"backend": "free", "L0": {"AXB": 1}}')
    assert excinfo.value.field == "L0"
    for coeff in ("true", "0.5", '"1"', "null", "[]"):
        with pytest.raises(ProblemFileError, match="'AB'") as excinfo:
            loads_problem('{"backend": "free", "L0": {"AB": %s}}' % coeff)
        assert excinfo.value.field == "L0"


def test_string_entries_rejected_in_float_backend():
    with pytest.raises(ProblemFileError):
        loads_problem(json.dumps({
            "backend": "float-matrix", "n": 1,
            "L0": [["1/2"]], "L1": [[1.0]], "Y1": [1.0]}))


@pytest.mark.parametrize("field, fields", [
    ("L0[0][0]", '"L0": [[NaN]], "L1": [[1]], "Y1": [1]'),
    ("L1[0][0]", '"L0": [[1]], "L1": [[-Infinity]], "Y1": [1]'),
    ("Y1[0]", '"L0": [[1]], "L1": [[1]], "Y1": [1e999]'),
    ("Y1[0]", f'"L0": [[1]], "L1": [[1]], "Y1": [1{"0" * 400}]'),
], ids=["nan", "infinity", "1e999", "int-past-double"])
def test_non_finite_float_entries_rejected(field, fields):
    with pytest.raises(ProblemFileError) as excinfo:
        loads_problem(f'{{"backend": "float-matrix", "n": 1, {fields}}}')
    assert excinfo.value.field == field


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


def test_dump_uses_rational_strings():
    doc = load_problem(PROBLEMS_DIR / "rational-2x2.json")
    data = json.loads(dumps_problem(doc))
    assert data["L1"][0][1] == "1/2"
    assert data["Y1"] == ["1", "0"]


def test_problem_file_is_comparable():
    doc = load_problem(PROBLEMS_DIR / "fibonacci.json")
    assert doc == ProblemFile("scalar", doc.problem, "fibonacci")
