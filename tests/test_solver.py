"""Closed form vs iteration oracle, scalar reduction, identity checks."""
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noncomm_recur.algebra import (
    BackendMismatchError,
    ColumnVector,
    FreeElement,
    FreeVector,
    Matrix,
    apply,
)
from noncomm_recur.solver import (
    CauchyProblem,
    DoubleRangeError,
    InvalidCoefficientError,
    NotARationalSquareError,
    characteristic_roots,
    rational_sqrt,
    solve_closed,
    solve_iterative,
    solve_scalar_roots,
    solve_scalar_sum,
    t_bar,
    verify_identity_21,
    verify_identity_23,
)
from noncomm_recur.verify import (
    free_problem,
    random_matrix_problem,
    random_negative_delta_pair,
    random_square_delta_pair,
)

A, B = FreeElement.generators()


def iterate_scalar(c0, c1, y1, p):
    """Independent oracle: run the scalar recurrence directly."""
    prev, cur = Fraction(0), Fraction(y1)
    if p == 0:
        return prev
    for _ in range(p - 1):
        prev, cur = cur, Fraction(c0) * prev + Fraction(c1) * cur
    return cur


# ---------------------------------------------------------------------------
# Summation limit
# ---------------------------------------------------------------------------

def test_t_bar_values():
    assert t_bar(2) == 0
    assert t_bar(6) == 2
    assert t_bar(0) == -1
    assert t_bar(1) == 0
    assert t_bar(7) == 3


def test_t_bar_branches_and_recursions():
    for p in range(200):
        if p % 2 == 0:
            assert t_bar(p) == (p - 2) // 2 if p else -1
            assert t_bar(p + 1) == t_bar(p) + 1
        else:
            assert t_bar(p) == (p - 1) // 2
            assert t_bar(p + 1) == t_bar(p)
        assert t_bar(p + 2) == t_bar(p) + 1


def test_t_bar_rejects_negative():
    with pytest.raises(ValueError):
        t_bar(-1)


# ---------------------------------------------------------------------------
# Iteration oracle
# ---------------------------------------------------------------------------

def test_iterative_p0_is_zero_vector():
    assert solve_iterative(free_problem(), 0) == FreeVector.zero()
    scalar = CauchyProblem(Fraction(1), Fraction(1), Fraction(1))
    assert solve_iterative(scalar, 0) == 0


def test_iterative_fibonacci():
    problem = CauchyProblem(Fraction(1), Fraction(1), Fraction(1))
    assert iterate_scalar(1, 1, 1, 10) == 55
    assert solve_iterative(problem, 10) == 55


def test_iterative_free_two_steps():
    # Y_3 = L0 Y_1 + L1 (L1 Y_1) symbolically
    y3 = solve_iterative(free_problem(), 3)
    assert y3 == FreeVector({(0,): 1, (1, 1): 1})


def test_iterative_rejects_negative_p():
    with pytest.raises(ValueError):
        solve_iterative(free_problem(), -1)


# ---------------------------------------------------------------------------
# Closed form
# ---------------------------------------------------------------------------

def test_closed_initial_values():
    problem = free_problem()
    assert solve_closed(problem, 0) == FreeVector.zero()
    assert solve_closed(problem, 1) == problem.y1bar
    assert solve_closed(problem, 2) == apply(B, problem.y1bar)


def test_closed_p3_free():
    assert solve_closed(free_problem(), 3) == FreeVector({(0,): 1, (1, 1): 1})


def test_closed_equals_iterative_free():
    problem = free_problem()
    for p in range(13):
        assert solve_closed(problem, p) == solve_iterative(problem, p)


def test_closed_equals_iterative_matrices():
    rng = Random(21)
    for _ in range(10):
        problem = random_matrix_problem(rng, 3)
        for p in range(13):
            assert solve_closed(problem, p) == solve_iterative(problem, p)


def test_closed_induction_step_free():
    # L0 Y_p + L1 Y_{p+1} must reproduce Y_{p+2}
    problem = free_problem()
    for p in range(13):
        lhs = (apply(problem.L0, solve_closed(problem, p))
               + apply(problem.L1, solve_closed(problem, p + 1)))
        assert lhs == solve_closed(problem, p + 2)


# closed = iterative as properties, one per backend; entries stay small
# so that a handful of examples keeps the file fast.
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=2)


@st.composite
def matrix_problems(draw, entries, max_n):
    n = draw(st.integers(1, max_n))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return CauchyProblem(Matrix(draw(square)), Matrix(draw(square)),
                         ColumnVector(draw(st.lists(entries, min_size=n, max_size=n))))


short_words = st.lists(st.integers(0, 1), max_size=2).map(tuple)
free_sums = st.dictionaries(short_words, st.integers(-3, 3).filter(bool), max_size=2)


@settings(max_examples=20, deadline=None)
@given(matrix_problems(small_fractions, max_n=4), st.integers(0, 30))
def test_closed_equals_iterative_exact_matrices(problem, p):
    assert solve_closed(problem, p) == solve_iterative(problem, p)


@settings(max_examples=20, deadline=None)
@given(free_sums.map(FreeElement), free_sums.map(FreeElement), free_sums.map(FreeVector),
       st.integers(0, 9))
def test_closed_equals_iterative_free_sums(L0, L1, y1, p):
    problem = CauchyProblem(L0, L1, y1)
    assert solve_closed(problem, p).terms == solve_iterative(problem, p).terms


@settings(max_examples=20, deadline=None)
@given(matrix_problems(st.integers(-8, 8).map(lambda k: k / 4), max_n=3),
       st.integers(0, 20))
def test_closed_matches_iterative_floats(problem, p):
    closed, iterative = solve_closed(problem, p), solve_iterative(problem, p)
    scale = max(1.0, *(abs(x) for x in iterative.entries))
    assert closed.isclose(iterative, abs_tol=1e-9 * scale)


@settings(max_examples=30, deadline=None)
@given(small_fractions, small_fractions, small_fractions, st.integers(0, 40))
def test_closed_equals_iterative_scalars(c0, c1, y1, p):
    problem = CauchyProblem(c0, c1, y1)
    assert solve_closed(problem, p) == solve_iterative(problem, p)


def test_problem_construction_checks_backends():
    with pytest.raises(BackendMismatchError):
        CauchyProblem(A, Matrix.identity(2), FreeVector.generator())
    with pytest.raises(BackendMismatchError):
        CauchyProblem(Matrix.identity(2), Matrix.identity(2), ColumnVector([1, 2, 3]))


# ---------------------------------------------------------------------------
# Characteristic roots
# ---------------------------------------------------------------------------

def test_roots_rational_case():
    roots = characteristic_roots(2, 1)
    assert roots.delta == 9
    assert roots.m1 == 2 and roots.m2 == -1
    assert roots.exact


def test_roots_repeated():
    roots = characteristic_roots(-1, 2)
    assert roots.delta == 0
    assert roots.m1 == roots.m2 == 1


def test_roots_irrational_goes_float():
    roots = characteristic_roots(1, 1)
    assert roots.delta == 5
    assert not roots.exact
    assert roots.m1.real == pytest.approx(1.6180339887, abs=1e-9)
    assert roots.m2.real == pytest.approx(-0.6180339887, abs=1e-9)


def test_roots_require_nonzero_c0():
    with pytest.raises(InvalidCoefficientError):
        characteristic_roots(0, 3)


def test_root_invariants():
    rng = Random(22)
    for _ in range(50):
        c0, c1 = random_square_delta_pair(rng)
        roots = characteristic_roots(c0, c1)
        assert roots.m1 + roots.m2 == c1
        assert roots.m1 * roots.m2 == -c0
    for _ in range(50):
        c0, c1 = random_negative_delta_pair(rng)
        roots = characteristic_roots(c0, c1)
        assert abs(roots.m1 + roots.m2 - complex(c1)) <= 1e-9 * max(1.0, abs(c1))
        assert abs(roots.m1 * roots.m2 + complex(c0)) <= 1e-9 * max(1.0, abs(c0))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None


# ---------------------------------------------------------------------------
# Scalar solvers
# ---------------------------------------------------------------------------

def test_scalar_roots_examples():
    assert iterate_scalar(2, 1, 1, 3) == 3
    assert solve_scalar_roots(2, 1, 1, 3) == 3
    assert iterate_scalar(-1, 2, 1, 7) == 7
    assert solve_scalar_roots(-1, 2, 1, 7) == 7


def test_scalar_roots_initial_condition():
    rng = Random(23)
    for _ in range(20):
        c0, c1 = random_square_delta_pair(rng)
        y1 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        assert solve_scalar_roots(c0, c1, y1, 1) == y1


def test_scalar_sum_examples():
    assert solve_scalar_sum(1, 1, 1, 10) == iterate_scalar(1, 1, 1, 10) == 55
    assert solve_scalar_sum(4, 0, 1, 5) == iterate_scalar(4, 0, 1, 5) == 16
    assert solve_scalar_sum(2, 1, 1, 3) == 3


@given(st.fractions(min_value=-6, max_value=6, max_denominator=3),
       st.fractions(min_value=-6, max_value=6, max_denominator=3),
       st.fractions(min_value=-6, max_value=6, max_denominator=3),
       st.integers(0, 20))
def test_scalar_sum_equals_iteration(c0, c1, y1, p):
    # total in c0 and c1, including zeros
    assert solve_scalar_sum(c0, c1, y1, p) == iterate_scalar(c0, c1, y1, p)


def test_scalar_roots_complex_branch_matches_exact_sum():
    rng = Random(24)
    for _ in range(10):
        c0, c1 = random_negative_delta_pair(rng)
        for p in range(21):
            exact = solve_scalar_sum(c0, c1, 1, p)
            approx = solve_scalar_roots(c0, c1, 1, p)
            assert isinstance(approx, float)
            if exact == 0:
                assert abs(approx) <= 1e-9
            else:
                assert abs(approx - float(exact)) <= 1e-9 * abs(float(exact))


def test_scalar_roots_irrational_delta_degenerates_to_real_doubles():
    # golden-ratio roots: float route must track the exact sum
    for p in range(21):
        approx = solve_scalar_roots(1, 1, 1, p)
        exact = solve_scalar_sum(1, 1, 1, p)
        assert isinstance(approx, float)
        if exact == 0:
            assert abs(approx) <= 1e-9
        else:
            assert abs(approx - float(exact)) <= 1e-9 * abs(float(exact))


def test_scalar_roots_beyond_double_range_raises():
    # golden-ratio roots: y_1440 * 10^300 overflows to inf, and from p ~ 1500
    # complex exponentiation itself overflows
    for y1, p in ((10 ** 300, 1440), (1, 1500), (1, 2000)):
        with pytest.raises(DoubleRangeError, match="scalar-sum"):
            solve_scalar_roots(1, 1, y1, p)
    assert solve_scalar_sum(1, 1, 10 ** 300, 1440) > 10 ** 600
    assert math.isclose(solve_scalar_roots(1, 1, 1, 1400), float(solve_scalar_sum(1, 1, 1, 1400)),
                        rel_tol=1e-9)


def test_delta_zero_continuity():
    # at c0 = -c1^2/4 the root formula collapses onto the exact sum
    for c1 in (Fraction(1), Fraction(-2), Fraction(3), Fraction(4, 3)):
        c0 = -c1 * c1 / 4
        for p in range(31):
            assert solve_scalar_roots(c0, c1, 1, p) == solve_scalar_sum(c0, c1, 1, p)


def test_scalar_closed_form_coherence():
    # all routes agree on the scalar backend and its 1x1 matrix twin
    rng = Random(25)
    for _ in range(15):
        c0, c1 = random_square_delta_pair(rng)
        y1 = Fraction(rng.randint(1, 5))
        scalar = CauchyProblem(c0, c1, y1)
        matrix = CauchyProblem(Matrix([[c0]]), Matrix([[c1]]), ColumnVector([y1]))
        for p in range(11):
            expected = solve_scalar_sum(c0, c1, y1, p)
            assert solve_closed(scalar, p) == expected
            assert solve_iterative(scalar, p) == expected
            assert solve_closed(matrix, p) == ColumnVector([expected])


def test_scalar_solvers_reject_negative_p():
    with pytest.raises(ValueError):
        solve_scalar_sum(1, 1, 1, -2)
    with pytest.raises(ValueError):
        solve_scalar_roots(1, 1, 1, -2)


# ---------------------------------------------------------------------------
# Binomial identities
# ---------------------------------------------------------------------------

def test_identity_21_examples():
    # z=2, n=3: LHS = C(3,0) + C(2,1)*2 = 5; RHS = (1/16)(1/3)(4^4 - (-2)^4) = 5
    lhs = sum(Fraction(2) ** k * math.comb(3 - k, k) for k in range(2))
    assert lhs == 5
    assert verify_identity_21(2, 3)
    assert verify_identity_21(6, 2)
    for n in range(12):
        assert verify_identity_21(0, n)


def test_identity_21_requires_square():
    with pytest.raises(NotARationalSquareError):
        verify_identity_21(1, 4)  # 1+4z = 5
    with pytest.raises(NotARationalSquareError):
        verify_identity_21(Fraction(-1, 4), 4)  # 1+4z = 0, closed form singular


def test_identity_23_examples():
    assert verify_identity_23(0)   # 1 = 1
    assert verify_identity_23(2)   # 1 - 1/4 = 3/4
    # direct summation for n=4: 1 - 3/4 + 1/16 = 5/16
    assert Fraction(1) - Fraction(3, 4) + Fraction(1, 16) == Fraction(5, 16)
    assert verify_identity_23(4)


def test_identity_23_range():
    for n in range(31):
        assert verify_identity_23(n)
