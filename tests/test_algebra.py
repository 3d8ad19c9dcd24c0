"""Backend contracts: ring axioms, module action, canonical forms."""
import math
from collections import defaultdict
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
    _linear_nums,
    _mul_nums,
    apply,
    compose,
    ring_one,
    ring_sum,
    ring_zero,
    vector_zero,
    word_from_str,
    word_to_str,
)
from noncomm_recur.verify import random_fraction, random_matrix, random_vector

A, B = FreeElement.generators()

words = st.lists(st.sampled_from([0, 1]), max_size=6).map(tuple)
term_maps = st.dictionaries(words, st.integers(-9, 9), max_size=5)
free_elements = term_maps.map(FreeElement)
fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def random_free(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        word = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 4)))
        terms[word] = rng.randint(-5, 5)
    return FreeElement(terms)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@given(words)
def test_word_text_round_trip(word):
    assert word_from_str(word_to_str(word)) == word


def test_word_text_forms():
    assert word_to_str(()) == ""
    assert word_to_str((0, 1, 1)) == "ABB"
    assert word_from_str("BA") == (1, 0)
    with pytest.raises(ValueError):
        word_from_str("AXB")


# ---------------------------------------------------------------------------
# compose / apply examples
# ---------------------------------------------------------------------------

def test_compose_free_single_words():
    # concatenation of two generators is the single two-letter word
    assert compose(A, B) == FreeElement({(0, 1): 1})


def test_compose_1x1_matrix():
    assert compose(Matrix([[2]]), Matrix([[3]])) == Matrix([[6]])


def test_compose_free_bilinear():
    # (AB + BA) * A expanded by hand: ABA + BAA
    left = A * B + B * A
    assert compose(left, A) == FreeElement({(0, 1, 0): 1, (1, 0, 0): 1})


def test_apply_identity_is_identity():
    y = ColumnVector([Fraction(1, 2), 3])
    assert apply(Matrix.identity(2), y) == y
    g = FreeVector.generator()
    assert apply(FreeElement.one(), g) == g
    assert apply(Fraction(1), Fraction(7, 3)) == Fraction(7, 3)


def test_apply_matrix_vector():
    m = Matrix([[1, 1], [1, 0]])
    assert apply(m, ColumnVector([1, 0])) == ColumnVector([1, 1])


def test_apply_free_linearity():
    out = apply(A + B, FreeVector.generator())
    assert out == FreeVector({(0,): 1, (1,): 1})


# ---------------------------------------------------------------------------
# Ring axioms, checked exactly on random elements of each exact backend
# ---------------------------------------------------------------------------

def _assert_ring_axioms(a, b, c):
    one = ring_one(a)
    zero = ring_zero(a)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert compose(one, a) == a
    assert compose(a, one) == a
    assert compose(zero, a) == zero
    assert compose(a, zero) == zero
    assert compose(compose(a, b), c) == compose(a, compose(b, c))
    assert compose(a, b + c) == compose(a, b) + compose(a, c)
    assert compose(a + b, c) == compose(a, c) + compose(b, c)


def test_ring_axioms_free():
    rng = Random(101)
    for _ in range(120):
        _assert_ring_axioms(random_free(rng), random_free(rng), random_free(rng))


def test_ring_axioms_rational_matrix():
    rng = Random(102)
    for _ in range(120):
        _assert_ring_axioms(random_matrix(rng, 3), random_matrix(rng, 3),
                            random_matrix(rng, 3))


@given(fractions, fractions, fractions)
def test_ring_axioms_scalar(a, b, c):
    _assert_ring_axioms(a, b, c)


def test_equality_is_transitive_on_canonical_forms():
    x = A * B + FreeElement({(0, 1): -1}) + B  # cancels to B
    y = FreeElement({(1,): 1})
    z = FreeElement.generators()[1]
    assert x == y and y == z and x == z


# Zeros, negatives and denominators sharing factors, so that sums cancel
# and common denominators reduce.
dense_entries = st.one_of(st.just(Fraction(0)),
                          st.fractions(min_value=-9, max_value=9, max_denominator=12))
dense_operands = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), *(st.lists(dense_entries, min_size=k, max_size=k) for k in (n * n, n * n, n))))


@settings(max_examples=200, deadline=None)
@given(dense_operands)
def test_dense_storage_matches_a_fraction_list_reference(operands):
    n, a, b, y = operands

    def rows(flat):
        return [flat[i:i + n] for i in range(0, len(flat), n)]

    def dot(row, col):
        return sum((p * q for p, q in zip(row, col)), Fraction(0))

    x, z, v = Matrix(rows(a)), Matrix(rows(b)), ColumnVector(y)
    cases = [
        (x, a), (v, y),
        (x * z, [dot(row, b[j::n]) for row in rows(a) for j in range(n)]),
        (x * v, [dot(row, y) for row in rows(a)]),
        (x + z, [p + q for p, q in zip(a, b)]),
        (x + Matrix(rows([-p for p in a])), [Fraction(0)] * (n * n)),
        (v + v, [2 * p for p in y]),
    ]
    for value, expected in cases:
        assert value.entries == tuple(expected)
        assert all(type(e) is Fraction for e in value.entries)
        rebuilt = Matrix(rows(expected)) if isinstance(value, Matrix) else ColumnVector(expected)
        assert value == rebuilt and hash(value) == hash(rebuilt)
        # canonical: equal values have equal stored pairs
        assert value._den > 0 and math.gcd(value._den, *value._nums) == 1
        assert (value._nums, value._den) == (rebuilt._nums, rebuilt._den)
    assert (x == z) == (a == b)
    assert (x * v == z * v) == (cases[3][1] == [dot(row, y) for row in rows(b)])


@st.composite
def linear_operands(draw):
    """n, f0, f1 (n×n) and x, y (both n-vectors or both n×n), all of one
    field: integers of any width or floats of any value but nan."""
    n = draw(st.integers(1, 4))
    entries = draw(st.sampled_from([st.integers(), st.floats(allow_nan=False)]))
    cell = draw(st.sampled_from([n, n * n]))
    return (n, *(tuple(draw(st.lists(entries, min_size=k, max_size=k)))
                 for k in (n * n, n * n, cell, cell)))


@settings(max_examples=300, deadline=None)
@given(linear_operands())
def test_fused_step_matches_two_products_and_a_sum(operands):
    n, f0, f1, x, y = operands
    fused = _linear_nums(n, f0, f1)(x, y)
    expected = tuple(p + q for p, q in zip(_mul_nums(n, f0, x), _mul_nums(n, f1, y)))
    assert len(fused) == len(x)
    # bit for bit: float.hex tells -0.0 from 0.0, and an inf*0 nan only matches nan
    assert [v.hex() if isinstance(v, float) else v for v in fused] == \
        [v.hex() if isinstance(v, float) else v for v in expected]


# ---------------------------------------------------------------------------
# Action associativity: (a*b)*y == a*(b*y)
# ---------------------------------------------------------------------------

def test_action_associativity_exact_backends():
    rng = Random(103)
    for _ in range(100):
        a, b = random_matrix(rng, 3), random_matrix(rng, 3)
        y = random_vector(rng, 3)
        assert apply(compose(a, b), y) == apply(a, apply(b, y))
    for _ in range(100):
        a, b = random_free(rng), random_free(rng)
        y = FreeVector({(rng.randint(0, 1),): 1, (): rng.randint(-3, 3)})
        assert apply(compose(a, b), y) == apply(a, apply(b, y))
    for _ in range(100):
        a, b, y = (random_fraction(rng) for _ in range(3))
        assert apply(compose(a, b), y) == apply(a, apply(b, y))


def test_action_associativity_float_backend():
    # non-dyadic entries so rounding actually occurs
    rng = Random(104)
    for _ in range(100):
        a = Matrix([[rng.randint(-9, 9) / 3 for _ in range(3)] for _ in range(3)])
        b = Matrix([[rng.randint(-9, 9) / 3 for _ in range(3)] for _ in range(3)])
        y = ColumnVector([rng.randint(-9, 9) / 3 for _ in range(3)])
        left = apply(compose(a, b), y)
        right = apply(a, apply(b, y))
        assert left.isclose(right, rel_tol=1e-12, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# Canonical form and serialization of free elements
# ---------------------------------------------------------------------------

def test_free_zero_coefficients_dropped():
    assert FreeElement({(0,): 0}) == FreeElement.zero()
    assert A + FreeElement({(0,): -1}) == FreeElement.zero()
    assert len((A + B + FreeElement({(1,): -1})).terms) == 1


@pytest.mark.parametrize("coeff", [0.5, "x", True])
def test_free_coefficients_must_be_ints(coeff):
    with pytest.raises(TypeError, match=r"^coefficient of word 'A' must be an int, got "):
        FreeElement({(0,): coeff})
    with pytest.raises(TypeError):
        FreeVector({(): 1, (1,): coeff})
    # a bad letter is named as before, whatever its coefficient
    with pytest.raises(ValueError, match=r"^invalid word \(0, 2\): letters must be 0 or 1$"):
        FreeElement({(0, 2): coeff})


@given(free_elements)
def test_free_coeff_map_round_trip(element):
    assert FreeElement.from_coeff_map(element.to_coeff_map()) == element


@given(st.dictionaries(words, st.integers(-9, 9), max_size=5).map(FreeVector))
def test_free_vector_coeff_map_round_trip(vector):
    assert FreeVector.from_coeff_map(vector.to_coeff_map()) == vector


@given(term_maps, term_maps)
def test_word_sum_arithmetic_matches_a_dict_reference(x, y):
    def reference(pairs):
        out = defaultdict(int)
        for word, coeff in pairs:
            out[word] += coeff
        return {word: coeff for word, coeff in out.items() if coeff != 0}

    def negated(terms):
        return {word: -coeff for word, coeff in terms.items()}

    left, cases = FreeElement(x), []
    for cls in (FreeElement, FreeVector):
        a, b = cls(x), cls(y)
        cases += [
            (a + b, cls, reference([*x.items(), *y.items()])),
            (a + cls(negated(x)), cls, reference([*x.items(), *negated(x).items()])),
            (left * b, cls, reference([(w1 + w2, c1 * c2) for w1, c1 in x.items()
                                       for w2, c2 in y.items()])),
        ]
    for result, cls, expected in cases:
        assert type(result) is cls
        assert result.terms == expected
        assert 0 not in result.terms.values()


def test_free_text_forms():
    assert str(FreeElement.zero()) == "0"
    assert str(FreeElement.one()) == "I"
    assert str(FreeElement({(): 2})) == "2·I"
    assert str(A * B + B * A) == "AB + BA"
    assert str(FreeElement({(0, 1): 1, (1, 0): -2})) == "AB - 2·BA"
    assert str(FreeVector.zero()) == "0"
    assert str(FreeVector.generator()) == "y1"
    assert str(FreeVector({(1,): 1})) == "B·y1"
    assert str(FreeVector({(0,): 1, (1, 1): 1})) == "A·y1 + BB·y1"


def test_dense_text_forms():
    # Rationals print as p/q and floats as their repr, special values included.
    assert str(Matrix([[Fraction(1, 2), -3], [0, Fraction(7, 3)]])) == "[[1/2, -3], [0, 7/3]]"
    vector = ColumnVector([0.5, -0.0, 1e200, math.inf, math.nan])
    assert str(vector) == "[0.5, -0.0, 1e+200, inf, nan]"
    assert repr(ColumnVector([Fraction(1, 2)])) == "ColumnVector([1/2])"


# ---------------------------------------------------------------------------
# 1x1 rational matrices are ring-isomorphic to the scalar backend
# ---------------------------------------------------------------------------

def test_1x1_matrix_scalar_isomorphism():
    rng = Random(105)
    for _ in range(120):
        a, b, y = (random_fraction(rng, max_abs=9, denominators=(1, 2, 3))
                   for _ in range(3))
        ma, mb = Matrix([[a]]), Matrix([[b]])
        assert compose(ma, mb) == Matrix([[compose(a, b)]])
        assert ma + mb == Matrix([[a + b]])
        assert apply(ma, ColumnVector([y])) == ColumnVector([apply(a, y)])
    assert Matrix.identity(1) == Matrix([[ring_one(Fraction(0))]])
    assert Matrix([[0]]) == Matrix([[ring_zero(Fraction(0))]])


# ---------------------------------------------------------------------------
# Structured mismatch errors and immutability
# ---------------------------------------------------------------------------

def test_backend_mismatch_errors():
    with pytest.raises(BackendMismatchError):
        compose(A, Fraction(1))
    with pytest.raises(BackendMismatchError):
        compose(Matrix.identity(2), Matrix.identity(3))
    with pytest.raises(BackendMismatchError):
        compose(Matrix.identity(2), Matrix.identity(2, exact=False))
    with pytest.raises(BackendMismatchError):
        apply(Matrix.identity(2), ColumnVector([1, 2, 3]))
    with pytest.raises(BackendMismatchError):
        apply(Matrix.identity(2), FreeVector.generator())
    with pytest.raises(BackendMismatchError):
        Matrix.identity(2) + Matrix.identity(3)
    # integer scaling of FreeElement must not pass for the ring product
    with pytest.raises(BackendMismatchError):
        compose(A, 1)
    with pytest.raises(BackendMismatchError):
        compose(Fraction(1), Matrix.identity(1))
    with pytest.raises(BackendMismatchError):
        apply(A, ColumnVector([1]))
    with pytest.raises(BackendMismatchError):
        apply(Fraction(1), FreeVector.generator())
    with pytest.raises(BackendMismatchError):
        apply(FreeVector.generator(), FreeVector.generator())
    with pytest.raises(BackendMismatchError):
        apply(Matrix.identity(2, exact=False), ColumnVector([1, 2]))
    with pytest.raises(BackendMismatchError):
        ring_one(ColumnVector([1]))
    with pytest.raises(BackendMismatchError):
        ring_zero(FreeVector.generator())
    with pytest.raises(BackendMismatchError):
        vector_zero(Matrix.identity(2))
    with pytest.raises(BackendMismatchError):
        vector_zero(A)
    with pytest.raises(BackendMismatchError):
        ColumnVector([1]) + ColumnVector([1.0])


def test_mixed_entry_fields_rejected():
    with pytest.raises(ValueError):
        Matrix([[Fraction(1, 2), 0.5], [1, 1]])
    with pytest.raises(ValueError):
        ColumnVector([True, 1])


def test_values_are_immutable():
    with pytest.raises(AttributeError, match="^FreeElement is immutable$"):
        A.terms = {}
    with pytest.raises(AttributeError, match="^Matrix is immutable$"):
        Matrix.identity(2).rows = ()
    with pytest.raises(AttributeError, match="^ColumnVector is immutable$"):
        ColumnVector([1]).entries = ()
    with pytest.raises(AttributeError, match="^FreeVector is immutable$"):
        FreeVector.generator().terms = {}


def test_free_elements_and_vectors_never_mix():
    one, y = FreeElement.one(), FreeVector.generator()
    assert one.terms == y.terms
    assert one != y and y != one
    for mixed in (lambda: one + y, lambda: y * one, lambda: y * 2):
        with pytest.raises(TypeError):
            mixed()


def test_matrices_and_column_vectors_never_mix():
    m, y = Matrix([[1]]), ColumnVector([1])
    assert m.entries == y.entries
    assert m != y and y != m
    assert not m.isclose(y) and not y.isclose(m)
    for mixed in (lambda: m + y, lambda: y * m):
        with pytest.raises(TypeError):
            mixed()
    equal_pairs = [
        (Matrix([[1, Fraction(1, 2)], [0, 3]]),
         Matrix([[Fraction(2, 2), Fraction(2, 4)], (0, 3)])),
        (ColumnVector([1, Fraction(1, 2)]), ColumnVector((Fraction(3, 3), Fraction(1, 2)))),
        (Matrix([[1.0, 2], [0, 1]]), Matrix([[1, 2.0], [0.0, 1]])),
        (ColumnVector([1.0, 2]), ColumnVector([1, 2.0])),
    ]
    for a, b in equal_pairs:
        assert a == b and hash(a) == hash(b)


def test_vector_zero_and_ring_constants():
    assert vector_zero(Fraction(3)) == 0
    assert vector_zero(ColumnVector([1, 2])) == ColumnVector([0, 0])
    assert vector_zero(FreeVector.generator()) == FreeVector.zero()
    assert ring_one(A) == FreeElement.one()
    assert ring_zero(Matrix.identity(2)) == Matrix([[0] * 2] * 2)
    for exact in (True, False):
        entry = Fraction(0) if exact else 0.0
        for value, zeros in ((Matrix.identity(3, exact), Matrix([[entry] * 3] * 3)),
                             (ColumnVector([Fraction(1, 3) if exact else 0.5] * 2),
                              ColumnVector([entry] * 2))):
            zero = value.zero()
            assert type(zero) is type(value) and zero == zeros and hash(zero) == hash(zeros)
            assert (zero._nums, zero._den, zero.exact) == (zeros._nums, 1, exact)
            assert all(type(x) is (int if exact else float) for x in zero._nums)


@st.composite
def summands(draw):
    """(values, zero) of one kind: exact or float dense values, scalars or
    free vectors, with zeros and cancelling pairs among the values."""
    kind = draw(st.sampled_from(["exact", "float", "scalar", "free"]))
    if kind == "scalar":
        value = st.integers(-9, 9) | st.fractions(min_value=-9, max_value=9, max_denominator=12)
        zero = Fraction(0)
    elif kind == "free":
        value = term_maps.map(FreeVector)
        zero = FreeVector.zero()
    else:
        n, shape = draw(st.integers(1, 3)), draw(st.sampled_from([Matrix, ColumnVector]))
        entry = (dense_entries if kind == "exact" else
                 st.sampled_from([0.0, -0.0, 0.1, -2.5, 1e16, 3.0]))
        size = n * n if shape is Matrix else n
        flat = st.lists(entry, min_size=size, max_size=size)
        if shape is Matrix:
            value = flat.map(lambda e: Matrix([e[i:i + n] for i in range(0, n * n, n)]))
        else:
            value = flat.map(ColumnVector)
        entry = 0 if kind == "exact" else 0.0
        zero = Matrix([[entry] * n] * n) if shape is Matrix else ColumnVector([entry] * n)
    values = draw(st.lists(value, max_size=6))
    if values and draw(st.booleans()):  # a value and its negation cancel
        values.append(negated(values[0]))
    return values, zero


def negated(value):
    if isinstance(value, FreeVector):
        return FreeVector({word: -coeff for word, coeff in value.terms.items()})
    if isinstance(value, Matrix):
        return Matrix([[-x for x in row] for row in value.rows])
    if isinstance(value, ColumnVector):
        return ColumnVector([-x for x in value.entries])
    return -value


@settings(max_examples=300, deadline=None)
@given(summands())
def test_ring_sum_equals_the_fold(case):
    values, zero = case
    got, want = ring_sum(values, zero), sum(values, zero)  # the fold: one + a value
    assert type(got) is type(want) and got == want and hash(got) == hash(want)
    if isinstance(want, (Matrix, ColumnVector)):
        # canonical pair, and floats bit for bit (signed zeros included)
        assert (got._den, got.exact) == (want._den, want.exact)
        if got.exact:
            assert math.gcd(got._den, *got._nums) == 1
        else:
            assert [math.copysign(1, x) for x in got._nums] == \
                   [math.copysign(1, x) for x in want._nums]


def test_ring_sum_edges():
    for zero in (Fraction(0), FreeVector.zero(), Matrix([[0] * 2] * 2), ColumnVector([0.0] * 3)):
        assert ring_sum([], zero) == zero and type(ring_sum([], zero)) is type(zero)
    assert ring_sum(iter([1, Fraction(1, 2)]), 0) == Fraction(3, 2)
    y = FreeVector({(0,): 2, (): -1})
    assert ring_sum([y, FreeVector({(0,): -2, (): 1})], FreeVector.zero()).terms == {}
    half = ColumnVector([Fraction(1, 2), Fraction(1, 6)])
    total = ring_sum([half, half, ColumnVector([0, Fraction(2, 3)])], half.zero())
    assert (total._nums, total._den) == ((1, 1), 1)
    floats = ring_sum([ColumnVector([-0.0, 0.1]), ColumnVector([-0.0, 0.2])],
                      ColumnVector([-0.0, 0.0]))
    assert math.copysign(1, floats._nums[0]) == -1 and floats._nums[1] == 0.1 + 0.2
    mismatched = [
        ([ColumnVector([1, 2])], ColumnVector([0] * 3)),
        ([ColumnVector([1.0, 2.0])], ColumnVector([0] * 2)),
        ([Matrix.identity(2)], ColumnVector([0] * 2)),
        ([A], FreeVector.zero()),
        ([Fraction(1)], ColumnVector([0])),
        ([ColumnVector([1])], Fraction(0)),
    ]
    for values, zero in mismatched:
        with pytest.raises(BackendMismatchError):
            ring_sum(values, zero)
