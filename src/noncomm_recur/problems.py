"""Reading and writing problem files.

A problem file is a JSON object describing one Cauchy problem:

    {
      "backend": "rational-matrix" | "float-matrix" | "scalar" | "free",
      "label":   optional string,
      "n":       dimension (matrix backends),
      "L0":      coefficient,
      "L1":      coefficient,
      "Y1":      initial vector
    }

Per backend:

* ``rational-matrix`` -- L0/L1 are n x n arrays, Y1 a length-n array.
  Entries are exact rationals written as integers or strings ``"p"`` /
  ``"p/q"``; decimal numbers are rejected so no precision is lost
  silently.
* ``float-matrix`` -- same shapes with JSON numbers as entries.
* ``scalar`` -- L0/L1/Y1 are single rational entries.
* ``free`` -- L0/L1/Y1 are maps from word text ('A'/'B' letters, ""
  for the empty word) to integer coefficients.  All three are optional
  and default to the generators A, B and the formal initial vector.

Parse failures raise :class:`ProblemFileError` carrying the offending
source, line (for malformed JSON) and field path.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import ColumnVector, FreeElement, FreeVector, Matrix
from .solver import CauchyProblem

BACKENDS = ("rational-matrix", "float-matrix", "scalar", "free")

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ProblemFileError(ValueError):
    """A problem file failed to parse or validate."""

    def __init__(self, message, source=None, field=None, line=None):
        self.source = source
        self.field = field
        self.line = line
        where = source or "<problem>"
        if line is not None:
            where += f":{line}"
        if field is not None:
            where += f": field {field}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ProblemFile:
    """A parsed problem file: backend tag, optional label, the problem."""

    backend: str
    problem: CauchyProblem
    label: str | None = None


def load_problem(path):
    """Parse the problem file at ``path``."""
    text = Path(path).read_text(encoding="utf-8")
    return loads_problem(text, source=str(path))


def loads_problem(text, source="<string>"):
    """Parse a problem file from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(exc.msg, source=source, line=exc.lineno) from None
    except RecursionError:
        raise ProblemFileError("JSON nested too deeply", source=source) from None
    if not isinstance(data, dict):
        raise ProblemFileError("top level must be a JSON object", source=source)
    backend = data.get("backend")
    if backend not in BACKENDS:
        raise ProblemFileError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}",
            source=source, field="backend")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ProblemFileError("label must be a string", source=source, field="label")

    if backend in ("rational-matrix", "float-matrix"):
        problem = _parse_matrix_problem(data, backend, source)
    elif backend == "scalar":
        problem = CauchyProblem(
            _parse_rational(_require(data, "L0", source), "L0", source),
            _parse_rational(_require(data, "L1", source), "L1", source),
            _parse_rational(_require(data, "Y1", source), "Y1", source))
    else:
        problem = _parse_free_problem(data, source)
    return ProblemFile(backend=backend, problem=problem, label=label)


def dumps_problem(doc):
    """Serialize a :class:`ProblemFile` back to its JSON text form."""
    data = {"backend": doc.backend}
    if doc.label is not None:
        data["label"] = doc.label
    problem = doc.problem
    if doc.backend in ("rational-matrix", "float-matrix"):
        data["n"] = problem.L0.n
        data["L0"] = _matrix_data(problem.L0)
        data["L1"] = _matrix_data(problem.L1)
        data["Y1"] = [_entry_data(v) for v in problem.y1bar.entries]
    elif doc.backend == "scalar":
        data["L0"] = _entry_data(problem.L0)
        data["L1"] = _entry_data(problem.L1)
        data["Y1"] = _entry_data(problem.y1bar)
    else:
        data["L0"] = problem.L0.to_coeff_map()
        data["L1"] = problem.L1.to_coeff_map()
        data["Y1"] = problem.y1bar.to_coeff_map()
    return json.dumps(data, indent=2) + "\n"


def dump_problem(doc, path):
    Path(path).write_text(dumps_problem(doc), encoding="utf-8")


# ---------------------------------------------------------------------------
# Field parsers
# ---------------------------------------------------------------------------

def _require(data, key, source):
    if key not in data:
        raise ProblemFileError("required field is missing", source=source, field=key)
    return data[key]

def _parse_rational(value, field, source):
    if isinstance(value, bool):
        raise ProblemFileError(f"invalid rational {value!r}", source=source, field=field)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ProblemFileError(
            f"decimal {value!r} not allowed in an exact backend; write 'p/q'",
            source=source, field=field)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise ProblemFileError(
                f"invalid rational {value!r}; expected 'p' or 'p/q'",
                source=source, field=field)
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ProblemFileError(
                f"zero denominator in {value!r}", source=source, field=field) from None
    raise ProblemFileError(f"invalid rational {value!r}", source=source, field=field)


def _parse_float(value, field, source):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(
            f"invalid float entry {value!r}; expected a JSON number",
            source=source, field=field)
    return float(value)


def _parse_matrix_problem(data, backend, source):
    n = _require(data, "n", source)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ProblemFileError(f"n must be a positive integer, got {n!r}",
                               source=source, field="n")
    exact = backend == "rational-matrix"
    entry = _parse_rational if exact else _parse_float
    L0 = _parse_square(_require(data, "L0", source), n, "L0", entry, source)
    L1 = _parse_square(_require(data, "L1", source), n, "L1", entry, source)
    y1 = _parse_array(_require(data, "Y1", source), n, "Y1", entry, source)
    return CauchyProblem(L0, L1, ColumnVector(y1))


def _parse_square(value, n, field, entry_parser, source):
    if not isinstance(value, list) or len(value) != n:
        raise ProblemFileError(f"expected {n} rows", source=source, field=field)
    rows = []
    for i, row in enumerate(value):
        rows.append(_parse_array(row, n, f"{field}[{i}]", entry_parser, source))
    return Matrix(rows)


def _parse_array(value, n, field, entry_parser, source):
    if not isinstance(value, list) or len(value) != n:
        raise ProblemFileError(f"expected {n} entries", source=source, field=field)
    return [entry_parser(v, f"{field}[{j}]", source) for j, v in enumerate(value)]


def _parse_free_map(value, field, source, factory):
    if not isinstance(value, dict):
        raise ProblemFileError("expected an object mapping words to integers",
                               source=source, field=field)
    terms = {}
    for text, coeff in value.items():
        if isinstance(coeff, bool) or not isinstance(coeff, int):
            raise ProblemFileError(
                f"coefficient of {text!r} must be an integer, got {coeff!r}",
                source=source, field=field)
        try:
            word = tuple("AB".index(ch) for ch in text)
        except ValueError:
            raise ProblemFileError(
                f"invalid word {text!r}: letters must be 'A' or 'B'",
                source=source, field=field) from None
        if coeff:
            terms[word] = terms.get(word, 0) + coeff
    return factory(terms)


def _parse_free_problem(data, source):
    A, B = FreeElement.generators()
    L0 = _parse_free_map(data["L0"], "L0", source, FreeElement) if "L0" in data else A
    L1 = _parse_free_map(data["L1"], "L1", source, FreeElement) if "L1" in data else B
    y1 = (_parse_free_map(data["Y1"], "Y1", source, FreeVector)
          if "Y1" in data else FreeVector.generator())
    return CauchyProblem(L0, L1, y1)


def _entry_data(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _matrix_data(matrix):
    return [[_entry_data(v) for v in row] for row in matrix.rows]
