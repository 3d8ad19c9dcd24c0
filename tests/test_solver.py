"""Closed form vs iteration oracle, scalar reduction, identity checks."""
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncomm_recur import algebra
from noncomm_recur.algebra import (
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
    characteristic_roots,
    entry_width,
    rational_sqrt,
    solve_closed,
    solve_iterative,
    solve_scalar_roots,
    solve_scalar_sum,
    t_bar,
    term_bounds,
    verify_identity_21,
    verify_identity_23,
)
from noncomm_recur.permsum import perm_sum_batch
from noncomm_recur.verify import (
    free_problem,
    random_matrix_problem,
    random_negative_delta_pair,
    random_square_delta_pair,
)

_, B = FreeElement.generators()


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
            assert t_bar(p) == ((p - 2) // 2 if p else -1)
            assert t_bar(p + 1) == t_bar(p) + 1
        else:
            assert t_bar(p) == (p - 1) // 2
            assert t_bar(p + 1) == t_bar(p)
        assert t_bar(p + 2) == t_bar(p) + 1


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


def test_closed_induction_step_free():
    # L0 Y_p + L1 Y_{p+1} must reproduce Y_{p+2}
    problem = free_problem()
    for p in range(13):
        lhs = (apply(problem.L0, solve_closed(problem, p))
               + apply(problem.L1, solve_closed(problem, p + 1)))
        assert lhs == solve_closed(problem, p + 2)


def test_closed_reduces_once(monkeypatch):
    # The ten keys at p = 20 add on integers; only the sum is reduced.
    problem = random_matrix_problem(Random(5))
    expected = solve_iterative(problem, 20)
    made = []
    new = algebra._Dense._new.__func__

    def counted(cls, *args):
        made.append(cls)
        return new(cls, *args)

    monkeypatch.setattr(algebra._Dense, "_new", classmethod(counted))
    assert solve_closed(problem, 20) == expected
    assert made == [ColumnVector]


short_words = st.lists(st.integers(0, 1), max_size=2).map(tuple)
free_sums = st.dictionaries(short_words, st.integers(-3, 3).filter(bool), max_size=2)


# Problems for the estimate's size bounds: small entries, or one entry
# repeated, whose powers grow fastest for the entry's size.  Coprime
# denominators make the common denominator of Y_k grow fastest.
sized_fractions = st.builds(Fraction, st.integers(-8, 8), st.sampled_from([1, 2, 3, 5, 7, 17, 31]))


@st.composite
def sized_problems(draw):
    kind = draw(st.sampled_from(["matrix", "scalar", "free"]))
    if kind == "free":
        return (CauchyProblem(FreeElement(draw(free_sums)), FreeElement(draw(free_sums)),
                              FreeVector(draw(free_sums))), draw(st.integers(0, 10)))
    if kind == "scalar":
        return CauchyProblem(*(draw(sized_fractions) for _ in range(3))), draw(st.integers(0, 30))
    n = draw(st.integers(1, 3))
    square = st.lists(st.lists(sized_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
    square |= st.integers(-4, 4).map(lambda c: [[c] * n] * n)
    vector = ColumnVector(draw(st.lists(sized_fractions, min_size=n, max_size=n)))
    problem = CauchyProblem(Matrix(draw(square)), Matrix(draw(square)), vector)
    return problem, draw(st.integers(0, 20))


def stored_bits(value):
    parts = (*value._nums, value._den) if hasattr(value, "_nums") else (
        value.numerator, value.denominator)
    return max(x.bit_length() for x in parts)


# L1 = J, the all-ones 3x3 matrix, grows by log2(3) bits a step from 1-bit
# entries.  With L0 = 1/31 and L1 = 1/17, Y_40 has the 254-bit denominator
# 17^39·31^19: past 1 + 40·6 = 241, the longest stored part of L0 and L1
# plus a bit for the sums at each step, but within 1 + 40·bits(17·31) = 401.
@settings(max_examples=300, deadline=None)
@given(sized_problems())
@example((CauchyProblem(Matrix([[0] * 3] * 3), Matrix([[1] * 3] * 3), ColumnVector([0, 0, 1])), 8))
@example((CauchyProblem(Fraction(1, 31), Fraction(1, 17), Fraction(1)), 40))
def test_estimate_size_bounds_hold_on_random_problems(drawn):
    problem, p = drawn
    values = [solve_iterative(problem, k) for k in range(p + 1)]
    if not isinstance(problem.L0, FreeElement):
        for k, value in enumerate(values):
            assert stored_bits(value) <= entry_width(problem, k)
        # bench's ring cells P(u, v) are within the bound at 2(u + v) steps
        cells = [(u, v) for u in range(4) for v in range(4)]
        for (u, v), cell in zip(cells, perm_sum_batch(problem.L0, problem.L1, cells)):
            assert stored_bits(cell) <= entry_width(problem, 2 * (u + v))
        return
    for k, value in enumerate(values):
        last, total, letters = term_bounds(problem, k)
        assert len(value.terms) <= last
        assert sum(len(y.terms) for y in values[:k + 1]) <= total
        assert max(map(len, value.terms), default=0) <= letters
    # the closed form's table: every cell within the total, its keys within a_p
    keys = [(t, p - 1 - 2 * t) for t in range(t_bar(p) + 1)]
    cells = [(u, v) for u in range(t_bar(p) + 1) for v in range(p - 2 * u)]
    table = perm_sum_batch(problem.L0, problem.L1, cells, vector=problem.y1bar)
    sizes = [len(z.terms) for z in table]
    last, total, _ = term_bounds(problem, p)
    assert sum(sizes) <= total
    assert sum(sizes[cells.index(key)] for key in keys) <= last
    # bench's ring cells: C(u+v, u)·c0^u·c1^v terms, each count at least 1
    c0, c1 = (max(len(x.terms), 1) for x in (problem.L0, problem.L1))
    for u in range(5):
        for v in range(5):
            cell = perm_sum_batch(problem.L0, problem.L1, [(u, v)])[0]
            assert len(cell.terms) <= math.comb(u + v, u) * c0 ** u * c1 ** v


@pytest.mark.parametrize("c0, c1, y1", [(1, 1, 1), (2, -3, 5), (-1, 1, 1)])
def test_term_bounds_of_empty_words_hold_the_closed_form(c0, c1, y1):
    # every word empty: each Y_k and cell is one term, so the bounds are the
    # closed form's t̄(p) + 1 summands and its (p+1)^2 // 4 cells, and each
    # coefficient of Y_k has at most (k-1)·⌈log2(|c0| + |c1|)⌉ + bits(|y1|) bits
    problem = CauchyProblem(FreeElement({(): c0}), FreeElement({(): c1}), FreeVector({(): y1}))
    growth = (abs(c0) + abs(c1) - 1).bit_length()
    for p in range(16):
        assert term_bounds(problem, p) == ((p + 1) // 2, (p + 1) ** 2 // 4, 0)
        keys = [(t, p - 1 - 2 * t) for t in range(t_bar(p) + 1)]
        cells = [(u, v) for u in range(t_bar(p) + 1) for v in range(p - 2 * u)]
        table = perm_sum_batch(problem.L0, problem.L1, cells, vector=problem.y1bar)
        assert sum(len(z.terms) for z in table) <= (p + 1) ** 2 // 4
        assert sum(len(table[cells.index(key)].terms) for key in keys) <= (p + 1) // 2
        for coefficient in solve_iterative(problem, p).terms.values():
            assert abs(coefficient).bit_length() <= (p - 1) * growth + abs(y1).bit_length()


# ---------------------------------------------------------------------------
# Iteration on integer numerators
# ---------------------------------------------------------------------------

def iterate_values(problem, p):
    """The recurrence on values, apply(L0, Y_k) + apply(L1, Y_(k+1)); scalars are Fractions."""
    previous = problem.zero_vector()
    current = Fraction(problem.y1bar) if type(previous) is Fraction else problem.y1bar
    if p == 0:
        return previous
    for _ in range(p - 1):
        previous, current = current, apply(problem.L0, previous) + apply(problem.L1, current)
    return current


@st.composite
def iteration_problems(draw):
    kind = draw(st.sampled_from(["exact", "float", "scalar"]))
    if kind == "scalar":  # int and Fraction scalars, mixed
        return CauchyProblem(*(draw(st.integers(-8, 8) | sized_fractions) for _ in range(3)))
    n = draw(st.integers(1, 4))
    entries = sized_fractions if kind == "exact" else st.floats(-4, 4)
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    square |= st.just([[0.0 if kind == "float" else 0] * n] * n)
    return CauchyProblem(Matrix(draw(square)), Matrix(draw(square)),
                         ColumnVector(draw(st.lists(entries, min_size=n, max_size=n))))


DIAGONAL_HALF = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
DIAGONAL_SEVEN_SIXTHS = Matrix([[Fraction(7, 6), 0], [0, Fraction(7, 6)]])


@settings(max_examples=200, deadline=None)
@given(iteration_problems(), st.integers(0, 30))
@example(CauchyProblem(Matrix([[0] * 2] * 2), DIAGONAL_SEVEN_SIXTHS, ColumnVector([1, 1])), 9)
@example(CauchyProblem(DIAGONAL_HALF, Matrix([[0] * 2] * 2), ColumnVector([1, 1])), 9)
@example(CauchyProblem(0, Fraction(7, 6), 1), 9)
@example(CauchyProblem(Fraction(1, 2), 0, 1), 9)
@example(CauchyProblem(DIAGONAL_HALF, DIAGONAL_SEVEN_SIXTHS, ColumnVector([1, 3])), 0)
@example(CauchyProblem(DIAGONAL_HALF, DIAGONAL_SEVEN_SIXTHS, ColumnVector([1, 3])), 1)
@example(CauchyProblem(DIAGONAL_HALF, DIAGONAL_SEVEN_SIXTHS, ColumnVector([1, 3])), 2)
@example(CauchyProblem(Fraction(1, 31), Fraction(1, 17), 1), 2)
@example(CauchyProblem(Fraction(1, 31), Fraction(1, 17), 1), 7)
@example(CauchyProblem(Matrix([[0.1, 0.7], [-1.3, 0.2]]), Matrix([[0.3, -0.9], [1.1, 0.6]]),
                       ColumnVector([0.5, -2.5])), 12)
def test_iteration_matches_a_value_reference(problem, p):
    got, want = solve_iterative(problem, p), iterate_values(problem, p)
    assert type(got) is type(want)
    if isinstance(got, ColumnVector) and not got.exact:  # the same float operations
        assert [x.hex() for x in got.entries] == [x.hex() for x in want.entries]
        return
    assert got == want
    if isinstance(got, ColumnVector):  # one reduction leaves the stored pair canonical
        assert math.gcd(got._den, *got._nums) == 1


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
    c0_zero = "^characteristic-root solver requires c0 != 0$"
    with pytest.raises(InvalidCoefficientError, match=c0_zero):
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


def direct_binomial_sum(c0, c1, y1, p):
    """Reference: the closed form's scalar sum evaluated term by term."""
    c0, c1 = Fraction(c0), Fraction(c1)
    return sum((math.comb(p - t - 1, t) * c0 ** t * c1 ** (p - 1 - 2 * t)
                for t in range(t_bar(p) + 1)), Fraction(0)) * Fraction(y1)


@pytest.mark.parametrize("c0, c1, y1", [(Fraction(-3, 7), Fraction(5, 2), Fraction(2, 3)),
                                        (2, 0, 1), (0, Fraction(3, 2), 1), (5, 0, 1)])
def test_scalar_sum_equals_the_direct_sum(c0, c1, y1):
    # zero coefficients take the 0^0 = 1 convention
    for p in range(40):
        assert solve_scalar_sum(c0, c1, y1, p) == direct_binomial_sum(c0, c1, y1, p)


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
    # golden-ratio roots: float route must track the exact sum; and roots
    # ±√(4/3) and ±i·√(4/3), where y_p = 0 at every even p, past p = 100 too
    for c0, c1, y1, ps in ((1, 1, 1, range(21)), (Fraction(4, 3), 0, 1, (100, 228, 230, 400)),
                           (Fraction(-4, 3), 0, 1, (2, 4, 100, 228, 230, 400))):
        for p in ps:
            approx = solve_scalar_roots(c0, c1, y1, p)
            exact = solve_scalar_sum(c0, c1, y1, p)
            assert isinstance(approx, float)
            if exact == 0:
                assert abs(approx) <= 1e-9
            else:
                assert abs(approx - float(exact)) <= 1e-9 * abs(float(exact))


def relative_error(value, exact):
    if exact == 0:
        return 0.0 if value == 0 else math.inf
    return float(abs(Fraction(value) - exact) / abs(exact))


def test_scalar_roots_same_sign_roots_do_not_cancel():
    # c0 < 0 < δ, δ not a rational square: the float roots share a sign, and
    # (m1^p - m2^p)/(m1 - m2) cancels near a repeated root (2.5·10^-3 at e = 30)
    for e in (14, 16, 20, 30):
        for c1 in (Fraction(3, 2), Fraction(2)):
            c0 = -c1 * c1 / 4 + Fraction(3, 10 ** e)
            for p in (2, 5, 30, 101):
                assert relative_error(solve_scalar_roots(c0, c1, 1, p),
                                      solve_scalar_sum(c0, c1, 1, p)) < 1e-14
    # roots far from 1, where r^(p-1)·sinh(pψ)/sinh ψ leaves double range,
    # and a ratio of the roots below rounding, where 1 - q rounds to 1
    for c0, c1, p in ((Fraction(-1, 10 ** 10), 1, 200), (Fraction(-1, 10 ** 10), 1, 1000),
                      (Fraction(-1, 10 ** 200), Fraction(1, 10 ** 90), 3)):
        assert relative_error(solve_scalar_roots(c0, c1, 1, p),
                              solve_scalar_sum(c0, c1, 1, p)) < 1e-12
        assert str(solve_scalar_roots(c0, c1, 1, 0)) == "0.0"  # not -0.0, nor nan
    # distinct roots that are equal as doubles: y_5 = 5 + 3·10^-33 + 9·10^-68
    c0 = -1 + Fraction(3, 10 ** 34)
    assert relative_error(solve_scalar_roots(c0, 2, 1, 5), solve_scalar_sum(c0, 2, 1, 5)) < 1e-15
    # seeded same-sign pairs over 120 decades, against the subtraction: no
    # raise where it is finite, and no larger error beyond 10^-13
    rng = Random(31)
    for _ in range(60):
        c1 = rng.choice((1, -1)) * Fraction(rng.randint(1, 999), 100) * \
            Fraction(10) ** rng.randint(-60, 60)
        c0 = -c1 * c1 / 4 * (1 - Fraction(rng.randint(1, 999), 1000) / 10 ** rng.randint(0, 34))
        roots = characteristic_roots(c0, c1)
        for p in () if roots.exact else (0, 1, 2, 5, 30, 101, 400):
            try:
                subtracted = (roots.m1 ** p - roots.m2 ** p) / (roots.m1 - roots.m2)
            except (OverflowError, ZeroDivisionError):
                continue
            if math.isfinite(subtracted):
                exact = solve_scalar_sum(c0, c1, 1, p)
                assert relative_error(solve_scalar_roots(c0, c1, 1, p), exact) <= \
                    max(relative_error(subtracted, exact), 1e-13)


def test_scalar_roots_opposite_sign_roots_do_not_cancel():
    # c0 > 0, δ not a rational square: the float roots have opposite signs and
    # |m1| ≈ |m2| near c1 = 0, so m1^p - m2^p cancels at even p (a relative
    # error of 2.4·10^-2 at e = 14, and y_2 = 0.0 from e = 20 on)
    for e in (6, 8, 10, 14, 20, 30):
        for c0 in (Fraction(1), Fraction(2), Fraction(5, 3), Fraction(1, 10 ** 6)):
            for c1 in (Fraction(1), Fraction(-3), Fraction(7, 3)):
                c1 /= 10 ** e
                for p in (*range(7), 30, 100, 101):
                    exact = solve_scalar_sum(c0, c1, 1, p)
                    if exact == 0 or 2.3e-308 <= abs(exact) <= 1.7e308:  # normal doubles
                        assert relative_error(solve_scalar_roots(c0, c1, 1, p), exact) < 1e-13
    # seeded opposite-sign pairs over 120 decades, against the subtraction: no
    # raise where it is finite, and no larger error beyond 10^-13
    rng = Random(31)
    for _ in range(300):
        c0, c1 = (Fraction(rng.randint(1, 999), 100) * Fraction(10) ** rng.randint(-60, 60)
                  for _ in range(2))
        c1 *= rng.choice((1, -1))
        roots = characteristic_roots(c0, c1)
        for p in () if roots.exact else (0, 1, 2, 5, 30, 101, 400):
            try:
                subtracted = (roots.m1 ** p - roots.m2 ** p) / (roots.m1 - roots.m2)
            except (OverflowError, ZeroDivisionError):
                continue
            if math.isfinite(subtracted):
                exact = solve_scalar_sum(c0, c1, 1, p)
                assert relative_error(solve_scalar_roots(c0, c1, 1, p), exact) <= \
                    max(relative_error(subtracted, exact), 1e-13)


def test_scalar_roots_complex_roots_near_a_repeated_root():
    # δ = -12·10^-e < 0: the roots' angle θ is near 0 for c1 > 0 and near π
    # for c1 < 0, where π/2 - φ would keep only φ's absolute accuracy
    # (5.7·10^-2 at e = 30)
    for e in (14, 16, 20, 30):
        for c1 in (Fraction(3, 2), Fraction(2), Fraction(-3, 2), Fraction(-2)):
            c0 = -c1 * c1 / 4 - Fraction(3, 10 ** e)
            for p in (2, 5, 30, 101):
                assert relative_error(solve_scalar_roots(c0, c1, 1, p),
                                      solve_scalar_sum(c0, c1, 1, p)) < 1e-13
            assert str(solve_scalar_roots(c0, c1, 1, 0)) == "0.0"


def test_scalar_roots_beyond_double_range_raises():
    # golden-ratio roots: y_1440 * 10^300 overflows to inf, and from p ~ 1500
    # the power of a root itself overflows
    for y1, p in ((10 ** 300, 1440), (1, 1500), (1, 2000)):
        with pytest.raises(DoubleRangeError, match=f"^y_{p} exceeds .*double precision.*scalar-sum"):
            solve_scalar_roots(1, 1, y1, p)
    # coefficients past double range: the discriminant overflows, or it
    # underflows to 0.0 and the two float roots coincide, or only the
    # complex roots' modulus √(-c0) overflows, or underflows to 0.0, or
    # two real roots of one sign underflow to 0.0, at every p
    tiny = Fraction(1, 10 ** 400)
    for c0, c1 in ((10 ** 400, 1), (1, 10 ** 400), (-10 ** 400, 1), (tiny, tiny),
                   (-(10 ** 400 + 1), 2 * 10 ** 200), (Fraction(-2, 10 ** 324), 0),
                   (-tiny * tiny / 8, tiny)):
        for p in (0, 1, 5):
            with pytest.raises(DoubleRangeError) as raised:
                solve_scalar_roots(c0, c1, 1, p)
            assert str(raised.value) == (f"the characteristic roots of these coefficients lie "
                                         f"beyond double precision; scalar-sum computes y_{p} "
                                         f"exactly")
    assert solve_scalar_sum(1, 1, 10 ** 300, 1440) > 10 ** 600
    assert math.isclose(solve_scalar_roots(1, 1, 1, 1400), float(solve_scalar_sum(1, 1, 1, 1400)),
                        rel_tol=1e-9)


def test_scalar_closed_form_coherence():
    # the scalar sum agrees with the closed form on its 1x1 matrix twin
    rng = Random(25)
    for _ in range(15):
        c0, c1 = random_square_delta_pair(rng)
        y1 = Fraction(rng.randint(1, 5))
        matrix = CauchyProblem(Matrix([[c0]]), Matrix([[c1]]), ColumnVector([y1]))
        for p in range(11):
            assert solve_closed(matrix, p) == ColumnVector([solve_scalar_sum(c0, c1, y1, p)])


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


def test_identity_23_examples():
    assert verify_identity_23(0)   # 1 = 1
    assert verify_identity_23(2)   # 1 - 1/4 = 3/4
    # direct summation for n=4: 1 - 3/4 + 1/16 = 5/16
    assert Fraction(1) - Fraction(3, 4) + Fraction(1, 16) == Fraction(5, 16)
    assert verify_identity_23(4)


def test_identity_23_range():
    for n in range(31):
        assert verify_identity_23(n)
