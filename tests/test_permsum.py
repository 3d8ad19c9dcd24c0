"""Permutation-sum evaluators against brute-force oracles."""
import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from noncomm_recur import permsum
from noncomm_recur.algebra import (
    BackendMismatchError,
    FreeElement,
    FreeVector,
    Matrix,
    apply,
    compose,
    ring_one,
    word_to_element,
    word_to_str,
)
from noncomm_recur.permsum import (
    CapExceededError,
    MultCounter,
    binom,
    count_terms,
    enumerate_words,
    perm_sum_batch,
    perm_sum_dp,
    perm_sum_naive,
    stifel_check,
)
from noncomm_recur.verify import random_matrix, random_vector

A, B = FreeElement.generators()


def brute_force_words(u, v):
    """Independent enumeration: filter the full 2^(u+v) product."""
    return sorted(w for w in itertools.product((0, 1), repeat=u + v)
                  if w.count(0) == u)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def test_count_terms_three_term_example():
    # the three-term sum with one factor of each kind plus an extra B
    assert count_terms(1, 2) == 3


def test_count_terms_trivial():
    assert count_terms(0, 0) == 1


def test_count_terms_brute_force():
    assert len(brute_force_words(3, 3)) == 20
    assert count_terms(3, 3) == 20
    for u in range(6):
        for v in range(6):
            assert count_terms(u, v) == len(brute_force_words(u, v))


def test_count_terms_rejects_negative():
    with pytest.raises(ValueError):
        count_terms(-1, 2)


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(5, 2) == 10


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_small_cases():
    assert [word_to_str(w) for w in enumerate_words(1, 1)] == ["AB", "BA"]
    assert list(enumerate_words(0, 0)) == [()]
    assert [word_to_str(w) for w in enumerate_words(1, 2)] == ["ABB", "BAB", "BBA"]


def test_enumerate_matches_brute_force_in_lex_order():
    for u in range(5):
        for v in range(5):
            assert list(enumerate_words(u, v)) == brute_force_words(u, v)


def test_enumerate_cap():
    with pytest.raises(CapExceededError) as excinfo:
        enumerate_words(16, 15)
    assert excinfo.value.cap == 30
    assert "30" in str(excinfo.value)
    with pytest.raises(CapExceededError):
        enumerate_words(3, 3, cap=5)
    assert len(list(enumerate_words(3, 3, cap=6))) == 20


# ---------------------------------------------------------------------------
# Word evaluation
# ---------------------------------------------------------------------------

def test_word_to_element():
    assert word_to_element((), A, B) == FreeElement.one()
    assert word_to_element((), Matrix.identity(2), Matrix.identity(2)) == Matrix.identity(2)
    assert word_to_element((1, 0), A, B) == B * A
    assert word_to_element((0, 1, 1), Fraction(2), Fraction(3)) == 18


def test_word_to_element_counts_multiplications():
    counter = MultCounter()
    word_to_element((), A, B, counter)
    assert counter.count == 0
    word_to_element((0,), A, B, counter)
    assert counter.count == 0
    word_to_element((0, 1, 1, 0), A, B, counter)
    assert counter.count == 3


# ---------------------------------------------------------------------------
# Naive evaluator
# ---------------------------------------------------------------------------

def test_naive_free_pair():
    assert perm_sum_naive(A, B, 1, 1) == A * B + B * A


def test_naive_scalar():
    # 2*3 + 3*2 by hand
    assert perm_sum_naive(Fraction(2), Fraction(3), 1, 1) == 12


def test_naive_single_permutation_is_a_power():
    rng = Random(7)
    m = random_matrix(rng, 3)
    power = ring_one(m)
    for u in range(5):
        assert perm_sum_naive(m, m, u, 0) == power
        power = compose(m, power)


def test_naive_multiplication_count():
    counter = MultCounter()
    perm_sum_naive(A, B, 3, 2, counter=counter)
    # 10 words of length 5, 4 multiplications each
    assert counter.count == count_terms(3, 2) * 4 == 40


# ---------------------------------------------------------------------------
# DP evaluator
# ---------------------------------------------------------------------------

def test_dp_small_cases():
    assert perm_sum_dp(A, B, 1, 2) == FreeElement(
        {(0, 1, 1): 1, (1, 1, 0): 1, (1, 0, 1): 1})
    assert perm_sum_dp(A, B, 0, 0) == FreeElement.one()


def test_dp_boundary_rows_are_single_words():
    # a sum with only one kind of factor is the single power word
    for k in range(1, 8):
        assert perm_sum_dp(A, B, 0, k) == FreeElement({(1,) * k: 1})
        assert perm_sum_dp(A, B, k, 0) == FreeElement({(0,) * k: 1})


def test_dp_equals_naive_free_up_to_ten_letters():
    for total in range(11):
        for u in range(total + 1):
            assert perm_sum_dp(A, B, u, total - u) == perm_sum_naive(A, B, u, total - u)


def test_dp_equals_naive_on_random_matrices():
    rng = Random(12)
    for _ in range(20):
        m0, m1 = random_matrix(rng, 3), random_matrix(rng, 3)
        u = rng.randint(0, 5)
        v = rng.randint(0, min(9 - u, 5))
        assert perm_sum_dp(m0, m1, u, v) == perm_sum_naive(m0, m1, u, v)
    # the documented oracle cell
    m0, m1 = random_matrix(rng, 3), random_matrix(rng, 3)
    assert perm_sum_dp(m0, m1, 4, 5) == perm_sum_naive(m0, m1, 4, 5)


def test_right_split_symmetry():
    # mirror of the left-split recursion, on the free backend
    for total in range(2, 11):
        for u in range(1, total):
            v = total - u
            mirrored = compose(perm_sum_dp(A, B, u - 1, v), A) + compose(
                perm_sum_dp(A, B, u, v - 1), B)
            assert perm_sum_dp(A, B, u, v) == mirrored


@given(st.fractions(min_value=-9, max_value=9, max_denominator=4),
       st.fractions(min_value=-9, max_value=9, max_denominator=4),
       st.integers(0, 6), st.integers(0, 6))
def test_commutative_collapse(c0, c1, u, v):
    assert perm_sum_dp(c0, c1, u, v) == count_terms(u, v) * Fraction(c0) ** u * Fraction(c1) ** v


def test_dp_multiplication_bound():
    for u, v in ((0, 0), (1, 0), (0, 3), (3, 3), (8, 8), (5, 2)):
        counter = MultCounter()
        perm_sum_dp(Fraction(2), Fraction(3), u, v, counter=counter)
        assert counter.count <= 2 * (u + 1) * (v + 1)
        assert counter.count == 2 * u * v + max(u - 1, 0) + max(v - 1, 0)


def test_batch_shares_one_table():
    counter = MultCounter()
    results = perm_sum_batch(A, B, [(2, 3), (1, 1), (0, 4)], counter=counter)
    assert results[0] == perm_sum_dp(A, B, 2, 3)
    assert results[1] == perm_sum_dp(A, B, 1, 1)
    assert results[2] == perm_sum_dp(A, B, 0, 4)
    # one shared table costs no more than the largest rectangle alone
    standalone = MultCounter()
    perm_sum_dp(A, B, 2, 3, counter=standalone)
    extra = MultCounter()
    perm_sum_dp(A, B, 0, 4, counter=extra)
    assert counter.count <= standalone.count + extra.count


# ---------------------------------------------------------------------------
# The table on vectors
# ---------------------------------------------------------------------------

VECTOR_KEYS = [(0, 0), (0, 4), (3, 0), (2, 3), (1, 1), (2, 3)]


def vector_backends():
    rng = Random(31)
    yield A, B, FreeVector({(): 1, (1,): -2})
    yield A + B, A - 2 * B, FreeVector({(0, 1): 3})
    yield random_matrix(rng, 3), random_matrix(rng, 3), random_vector(rng, 3)
    yield random_matrix(rng, 1), random_matrix(rng, 1), random_vector(rng, 1)


def test_vector_table_applies_each_sum_to_the_vector():
    for L0, L1, y in vector_backends():
        expected = [apply(P, y) for P in perm_sum_batch(L0, L1, VECTOR_KEYS)]
        assert perm_sum_batch(L0, L1, VECTOR_KEYS, vector=y) == expected
        assert perm_sum_batch(L0, L1, [], vector=y) == []


def test_vector_table_counts_each_action(monkeypatch):
    actions = []

    def counted_apply(element, vector):
        actions.append(element)
        return apply(element, vector)

    monkeypatch.setattr(permsum, "apply", counted_apply)
    for L0, L1, y in vector_backends():
        for keys in ([(0, 0)], [(0, 5)], [(4, 0)], [(3, 2)], VECTOR_KEYS):
            actions.clear()
            counter = MultCounter()
            perm_sum_batch(L0, L1, keys, counter=counter, vector=y)
            assert counter.count == len(actions)
            if len(keys) == 1:
                (u, v), = keys
                # every cell but Z(0, 0) is one action, interior cells two
                assert counter.count == 2 * u * v + u + v


def test_vector_table_rejects_a_foreign_vector():
    rng = Random(32)
    m0, m1 = random_matrix(rng, 3), random_matrix(rng, 3)
    with pytest.raises(BackendMismatchError):
        perm_sum_batch(m0, m1, [(1, 1)], vector=random_vector(rng, 2))
    with pytest.raises(BackendMismatchError):
        perm_sum_batch(m0, m1, [], vector=FreeVector.generator())
    with pytest.raises(BackendMismatchError):
        perm_sum_batch(A, B, [(1, 1)], vector=random_vector(rng, 3))


def test_mult_counter_resets():
    counter = MultCounter()
    counter.tick(5)
    assert counter.count == 5
    counter.reset()
    assert counter.count == 0


# ---------------------------------------------------------------------------
# Pascal step
# ---------------------------------------------------------------------------

def test_stifel_examples():
    assert stifel_check(4, 1)      # 4 + 6 = 10
    assert stifel_check(0, 0)      # 1 + 0 = 1
    assert stifel_check(7, 3)      # 35 + 35 = 70


@given(st.integers(0, 60), st.integers(-3, 63))
def test_stifel_everywhere(n, k):
    assert stifel_check(n, k)
