"""Backend contracts: ring axioms, module action, canonical forms."""
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from noncomm_recur.algebra import (
    BackendMismatchError,
    ColumnVector,
    FreeElement,
    FreeVector,
    Matrix,
    apply,
    compose,
    ring_one,
    ring_zero,
    vector_zero,
    word_from_str,
    word_to_str,
)
from noncomm_recur.verify import random_fraction, random_matrix, random_vector

A, B = FreeElement.generators()

words = st.lists(st.sampled_from([0, 1]), max_size=6).map(tuple)
free_elements = st.dictionaries(words, st.integers(-9, 9), max_size=5).map(FreeElement)
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
    x = A * B - A * B + B  # cancels to B
    y = FreeElement({(1,): 1})
    z = FreeElement.letter(1)
    assert x == y and y == z and x == z


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
    assert FreeElement({(0,): 0}).is_zero()
    assert (A - A).is_zero()
    assert (A + B - B).monomial_count() == 1


@given(free_elements)
def test_free_coeff_map_round_trip(element):
    assert FreeElement.from_coeff_map(element.to_coeff_map()) == element


@given(st.dictionaries(words, st.integers(-9, 9), max_size=5).map(FreeVector))
def test_free_vector_coeff_map_round_trip(vector):
    assert FreeVector.from_coeff_map(vector.to_coeff_map()) == vector


def test_free_text_forms():
    assert str(FreeElement.zero()) == "0"
    assert str(FreeElement.one()) == "I"
    assert str(2 * FreeElement.one()) == "2·I"
    assert str(A * B + B * A) == "AB + BA"
    assert str(A * B - 2 * (B * A)) == "AB - 2·BA"
    assert str(FreeVector.zero()) == "0"
    assert str(FreeVector.generator()) == "y1"
    assert str(FreeVector({(1,): 1})) == "B·y1"
    assert str(FreeVector({(0,): 1, (1, 1): 1})) == "A·y1 + BB·y1"


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
    assert Matrix.zeros(1) == Matrix([[ring_zero(Fraction(0))]])


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
    with pytest.raises(AttributeError):
        Matrix.identity(2).rows = ()
    with pytest.raises(AttributeError):
        ColumnVector([1]).entries = ()
    with pytest.raises(AttributeError, match="^FreeVector is immutable$"):
        FreeVector.generator().terms = {}


def test_free_elements_and_vectors_never_mix():
    one, y = FreeElement.one(), FreeVector.generator()
    assert one.terms == y.terms
    assert one != y and y != one
    for mixed in (lambda: one + y, lambda: y - one, lambda: y * one, lambda: y * 2):
        with pytest.raises(TypeError):
            mixed()


def test_vector_zero_and_ring_constants():
    assert vector_zero(Fraction(3)) == 0
    assert vector_zero(ColumnVector([1, 2])) == ColumnVector.zeros(2)
    assert vector_zero(FreeVector.generator()) == FreeVector.zero()
    assert ring_one(A) == FreeElement.one()
    assert ring_zero(Matrix.identity(2)) == Matrix.zeros(2)
