"""Reading problem files.

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

After backend, label and ``n``, the fields are read in the order L0,
L1, Y1, each in full (a matrix's rows, then each row's entries) before
the next, and the first fault is reported: parse failures, and files
that cannot be read, raise :class:`ProblemFileError` carrying the
offending source, line (for malformed JSON) and field path.
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .algebra import ColumnVector, FreeElement, FreeVector, Matrix
from .solver import CauchyProblem

BACKENDS = ("rational-matrix", "float-matrix", "scalar", "free")
_FIELDS = ("L0", "L1", "Y1")
_FREE_DEFAULTS = ((FreeElement, {"A": 1}), (FreeElement, {"B": 1}), (FreeVector, {"": 1}))

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")
_TOO_MANY_DIGITS = "integer has more digits than Python's int/str conversion limit"


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
    """Parse the problem file at ``path``; an unreadable one raises ProblemFileError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ProblemFileError(exc.strerror or str(exc), source=str(path)) from exc
    except UnicodeDecodeError as exc:
        raise ProblemFileError("not UTF-8 text", source=str(path)) from exc
    return loads_problem(text, source=str(path))


def loads_problem(text, source="<string>"):
    """Parse a problem file from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(exc.msg, source=source, line=exc.lineno) from None
    except RecursionError:
        raise ProblemFileError("JSON nested too deeply", source=source) from None
    except ValueError:  # an integer past Python's int/str digit limit
        raise ProblemFileError(_TOO_MANY_DIGITS, source=source) from None
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

    if backend == "scalar":
        fields = [_parse_rational(_require(data, field, source), field, source)
                  for field in _FIELDS]
    elif backend == "free":
        fields = [_parse_free_map(data.get(field, default), field, source, kind)
                  for field, (kind, default) in zip(_FIELDS, _FREE_DEFAULTS)]
    else:
        n = _require(data, "n", source)
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ProblemFileError(f"n must be a positive integer, got {n!r}",
                                   source=source, field="n")
        entry = _parse_rational if backend == "rational-matrix" else _parse_float
        fields = []
        for field, kind in zip(_FIELDS, (Matrix, Matrix, ColumnVector)):
            value = _require(data, field, source)
            fields.append(kind(_parse_list(value, n, field, source, entry, rows=kind is Matrix)))
    return ProblemFile(backend=backend, problem=CauchyProblem(*fields), label=label)


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
        except ValueError:
            raise ProblemFileError(_TOO_MANY_DIGITS, source=source, field=field) from None
    raise ProblemFileError(f"invalid rational {value!r}", source=source, field=field)


def _parse_float(value, field, source):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFileError(
            f"invalid float entry {value!r}; expected a JSON number",
            source=source, field=field)
    try:
        number = float(value)
    except OverflowError:  # an integer past the largest double
        number = math.inf
    if not math.isfinite(number):
        raise ProblemFileError("float entry must be finite and within the range of a double",
                               source=source, field=field)
    return number


def _parse_list(value, n, field, source, entry, rows=False):
    """The n entries at ``field``, each read by ``entry``; with ``rows``,
    its n rows of n entries each."""
    if not isinstance(value, list) or len(value) != n:
        raise ProblemFileError(f"expected {n} {'rows' if rows else 'entries'}",
                               source=source, field=field)
    if rows:
        return [_parse_list(row, n, f"{field}[{i}]", source, entry)
                for i, row in enumerate(value)]
    return [entry(v, f"{field}[{j}]", source) for j, v in enumerate(value)]


def _parse_free_map(value, field, source, kind):
    if not isinstance(value, dict):
        raise ProblemFileError("expected an object mapping words to integers",
                               source=source, field=field)
    try:
        return kind.from_coeff_map(value)
    except (TypeError, ValueError) as exc:
        raise ProblemFileError(str(exc), source=source, field=field) from None
