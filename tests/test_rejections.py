"""Caller input that ``algebra``, ``permsum`` and ``solver`` refuse: one row per check.

The free coefficient check, immutability and the root solver's c0 check keep
their own tests in ``test_algebra`` and ``test_solver``.
"""
import re
from fractions import Fraction

import pytest

from noncomm_recur.algebra import (BackendMismatchError, ColumnVector, FreeElement, FreeVector,
                                   Matrix, apply, compose, ring_one, ring_sum, ring_zero,
                                   vector_zero, word_from_str, word_to_element, word_to_str)
from noncomm_recur.permsum import count_terms, perm_sum_batch, perm_sum_naive, stifel_check
from noncomm_recur.solver import (CauchyProblem, NotARationalSquareError, solve_iterative,
                                  solve_iterative_upto, solve_scalar_roots, solve_scalar_sum,
                                  t_bar, verify_identity_21, verify_identity_23)
from noncomm_recur.verify import free_problem

A, B = FreeElement.generators()
I1, I2, I3 = (Matrix.identity(n) for n in (1, 2, 3))
F2 = Matrix.identity(2, exact=False)
V1, V2, V3 = (ColumnVector(range(1, n + 1)) for n in (1, 2, 3))
Y = FreeVector.generator()

MISMATCH = BackendMismatchError
WORD = "^invalid word {}: letters must be 0 or 1$"
KINDS = "^elements from different backends: {} vs {}$"
SPACE = "^dimension or field mismatch: n={} vs {}, exact={} vs {}$"
APPLY = "^cannot apply {} to {}$"
SQUARE = "^matrix must be square with at least one row$"
NEGATIVE_P = "^p must be nonnegative, got {}$"
NEGATIVE_N = "^n must be nonnegative, got -1$"


# (call, exception, pattern for its message); the exception's type is exact.
REJECTIONS = {
    # algebra: words and word sums
    "word-2": (lambda: word_to_element((2,), A, B), ValueError, WORD.format(r"\(2,\)")),
    "word-minus-1": (lambda: word_to_element((-1,), A, B), ValueError, WORD.format(r"\(-1,\)")),
    "word-text": (lambda: word_to_element("AB", A, B), ValueError, WORD.format("'AB'")),
    "word-sum-int-key": (lambda: FreeElement({3: 1}), ValueError, WORD.format("3")),
    "word-sum-str-key": (lambda: FreeVector({"AB": 1}), ValueError, WORD.format("'AB'")),
    "word-sum-bytes-2": (lambda: FreeElement({b"\x00\x02": 1}), ValueError,
                         WORD.format(re.escape(repr(b"\x00\x02")))),
    "word-to-str-2": (lambda: word_to_str((0, 2)), ValueError, WORD.format(r"\(0, 2\)")),
    "word-to-str-minus-1": (lambda: word_to_str((-1,)), ValueError, WORD.format(r"\(-1,\)")),
    "word-to-str-int": (lambda: word_to_str(3), TypeError, "^'int' object is not iterable$"),
    "word-from-str": (lambda: word_from_str("AXB"), ValueError,
                      "^invalid word text 'AXB': letters must be 'A' or 'B'$"),
    # algebra: dense values
    "matrix-not-square": (lambda: Matrix([[1, 2]]), ValueError, SQUARE),
    "matrix-empty": (lambda: Matrix([]), ValueError, SQUARE),
    "vector-empty": (lambda: ColumnVector([]), ValueError, "^vector must have at least one entry$"),
    "mixed-entries": (lambda: Matrix([[Fraction(1, 2), 0.5], [1, 1]]), ValueError,
                      "^matrix: cannot mix exact and float entries$"),
    "bool-entry": (lambda: ColumnVector([True, 1]), ValueError, "^vector: invalid entry True$"),
    # algebra: backend dispatch
    "compose-free-scalar": (lambda: compose(A, Fraction(1)), MISMATCH,
                            KINDS.format("FreeElement", "Fraction")),
    "compose-free-int": (lambda: compose(A, 1), MISMATCH, KINDS.format("FreeElement", "int")),
    "compose-scalar-matrix": (lambda: compose(Fraction(1), I1), MISMATCH,
                              KINDS.format("Fraction", "Matrix")),
    "compose-n": (lambda: compose(I2, I3), MISMATCH, SPACE.format(2, 3, True, True)),
    "compose-field": (lambda: compose(I2, F2), MISMATCH, SPACE.format(2, 2, True, False)),
    "add-n": (lambda: I2 + I3, MISMATCH, SPACE.format(2, 3, True, True)),
    "add-field": (lambda: V1 + ColumnVector([1.0]), MISMATCH, SPACE.format(1, 1, True, False)),
    "apply-n": (lambda: apply(I2, V3), MISMATCH, SPACE.format(2, 3, True, True)),
    "apply-field": (lambda: apply(F2, V2), MISMATCH, SPACE.format(2, 2, False, True)),
    "apply-matrix-free": (lambda: apply(I2, Y), MISMATCH, APPLY.format("Matrix", "FreeVector")),
    "apply-free-dense": (lambda: apply(A, V1), MISMATCH,
                         APPLY.format("FreeElement", "ColumnVector")),
    "apply-scalar-free": (lambda: apply(Fraction(1), Y), MISMATCH,
                          APPLY.format("Fraction", "FreeVector")),
    "apply-a-vector": (lambda: apply(Y, Y), MISMATCH, APPLY.format("FreeVector", "FreeVector")),
    "ring-one": (lambda: ring_one(V1), MISMATCH, r"^not a ring element: ColumnVector\(\[1\]\)$"),
    "ring-zero": (lambda: ring_zero(Y), MISMATCH, r"^not a ring element: FreeVector\(y1\)$"),
    "vector-zero-I2": (lambda: vector_zero(I2), MISMATCH,
                       r"^not a module vector: Matrix\(\[\[1, 0\], \[0, 1\]\]\)$"),
    "vector-zero-A": (lambda: vector_zero(A), MISMATCH, r"^not a module vector: FreeElement\(A\)$"),
    "sum-n": (lambda: ring_sum([V2], ColumnVector([0] * 3)), MISMATCH,
              SPACE.format(3, 2, True, True)),
    "sum-field": (lambda: ring_sum([ColumnVector([1.0, 2.0])], V2.zero()), MISMATCH,
                  SPACE.format(2, 2, True, False)),
    "sum-n-part-way": (lambda: ring_sum([V2, V3], V2.zero()), MISMATCH,
                       SPACE.format(2, 3, True, True)),
    **{f"sum-{x}-to-{z}": (lambda v=v, zero=zero: ring_sum([v], zero), MISMATCH,
                           f"^cannot add {x} to {z}$")
       for v, zero in ((I2, V2.zero()), (A, FreeVector.zero()), (Fraction(1), V1.zero()),
                       (V1, Fraction(0))) for x, z in [(type(v).__name__, type(zero).__name__)]},
    # permsum
    "count-terms": (lambda: count_terms(-1, 2), ValueError,
                    r"^letter counts must be nonnegative, got \(-1, 2\)$"),
    "stifel": (lambda: stifel_check(-1, 0), ValueError, NEGATIVE_N),
    "naive-not-a-ring-element": (lambda: perm_sum_naive(Y, Y, 1, 1), MISMATCH,
                                 r"^not a ring element: FreeVector\(y1\)$"),
    "table-n": (lambda: perm_sum_batch(I3, I3, [(1, 1)], vector=V2), MISMATCH,
                SPACE.format(3, 2, True, True)),
    "table-no-keys": (lambda: perm_sum_batch(I3, I3, [], vector=Y), MISMATCH,
                      APPLY.format("Matrix", "FreeVector")),
    "table-free-dense": (lambda: perm_sum_batch(A, B, [(1, 1)], vector=V3), MISMATCH,
                         APPLY.format("FreeElement", "ColumnVector")),
    # solver
    "t-bar": (lambda: t_bar(-1), ValueError, NEGATIVE_P.format(-1)),
    "iterative": (lambda: solve_iterative(free_problem(), -1), ValueError, NEGATIVE_P.format(-1)),
    "iterative-upto": (lambda: solve_iterative_upto(free_problem(), -1), ValueError,
                       "^max_p must be nonnegative, got -1$"),
    "scalar-sum": (lambda: solve_scalar_sum(1, 1, 1, -2), ValueError, NEGATIVE_P.format(-2)),
    "scalar-roots": (lambda: solve_scalar_roots(1, 1, 1, -2), ValueError, NEGATIVE_P.format(-2)),
    "problem-kinds": (lambda: CauchyProblem(A, I2, Y), MISMATCH,
                      KINDS.format("FreeElement", "Matrix")),
    "problem-n": (lambda: CauchyProblem(I2, I2, V3), MISMATCH, SPACE.format(2, 3, True, True)),
    "identity-21-n": (lambda: verify_identity_21(0, -1), ValueError, NEGATIVE_N),
    "identity-21-not-a-square": (lambda: verify_identity_21(1, 4), NotARationalSquareError,
                                 "^5 is not the square of a rational$"),
    "identity-21-singular": (lambda: verify_identity_21(Fraction(-1, 4), 4), ValueError,
                             r"^1 \+ 4z = 0, and the closed form divides by sqrt\(1 \+ 4z\)$"),
    "identity-23-n": (lambda: verify_identity_23(-1), ValueError, NEGATIVE_N),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_rejection_raises_its_one_error(case):
    call, exception, message = REJECTIONS[case]
    with pytest.raises(exception, match=message) as excinfo:
        call()
    assert type(excinfo.value) is exception
