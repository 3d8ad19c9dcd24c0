"""Permutation-sum evaluators against brute-force oracles."""
import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncomm_recur import algebra, permsum
from noncomm_recur.algebra import (
    ColumnVector,
    FreeElement,
    FreeVector,
    Matrix,
    apply,
    compose,
    ring_one,
    ring_sum,
    ring_zero,
    vector_zero,
    word_to_element,
    word_to_str,
)
from noncomm_recur.permsum import (
    MultCounter,
    binom,
    count_terms,
    enumerate_words,
    perm_sum_batch,
    perm_sum_dp,
    perm_sum_naive,
    stifel_check,
)
from noncomm_recur.solver import CauchyProblem, solve_closed, solve_iterative, t_bar
from noncomm_recur.verify import random_matrix, random_vector

A, B = FreeElement.generators()


def brute_force_words(u, v):
    """Independent enumeration: filter the full 2^(u+v) product."""
    return sorted(bytes(w) for w in itertools.product((0, 1), repeat=u + v)
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


def test_binom_out_of_range_is_zero():
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(5, 2) == 10


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_small_cases():
    assert [word_to_str(w) for w in enumerate_words(1, 1)] == ["AB", "BA"]
    assert list(enumerate_words(0, 0)) == [b""]
    assert [word_to_str(w) for w in enumerate_words(1, 2)] == ["ABB", "BAB", "BBA"]


def test_enumerate_matches_brute_force_in_lex_order():
    for u in range(5):
        for v in range(5):
            assert list(enumerate_words(u, v)) == brute_force_words(u, v)


def test_enumerate_words_has_no_cap():
    # the CLI bounds the work up front; the library lists words of any length
    words = enumerate_words(16, 15)
    assert next(words) == b"\x00" * 16 + b"\x01" * 15
    assert list(enumerate_words(31, 0)) == [b"\x00" * 31]
    assert len(list(enumerate_words(3, 3))) == 20


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
    # an int scalar's table gives Fractions, P(1, 0) = L0 included
    cell = perm_sum_dp(2, 3, 1, 0)
    assert type(cell) is Fraction and cell == 2


def test_dp_boundary_rows_are_single_words():
    # a sum with only one kind of factor is the single power word
    for k in range(1, 8):
        assert perm_sum_dp(A, B, 0, k) == FreeElement({(1,) * k: 1})
        assert perm_sum_dp(A, B, k, 0) == FreeElement({(0,) * k: 1})


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
    yield A + B, FreeElement({(0,): 1, (1,): -2}), FreeVector({(0, 1): 3})
    yield random_matrix(rng, 3), random_matrix(rng, 3), random_vector(rng, 3)
    yield random_matrix(rng, 1), random_matrix(rng, 1), random_vector(rng, 1)


def test_vector_table_of_no_keys_is_empty():
    for L0, L1, y in vector_backends():
        assert perm_sum_batch(L0, L1, [], vector=y) == []


def union_actions(keys):
    """The actions of the table for ``keys``, counted cell by cell over
    the union of the keys' rectangles: none at the origin, one at each
    edge cell and two at each interior cell."""
    cells = {(i, j) for u, v in keys for i in range(u + 1) for j in range(v + 1)}
    return sum((i > 0) + (j > 0) for i, j in cells)


def test_vector_table_counts_each_action(monkeypatch):
    calls = []

    def counted(action):
        def wrapper(*args):
            calls.append(args)
            return action(*args)
        return wrapper

    def counted_linear(linear):
        # each call of the fused step f0·x + f1·y makes two actions
        def wrapper(f0, f1):
            step = linear(f0, f1)

            def counted_step(x, y):
                calls.extend([(f0, x), (f1, y)])
                return step(x, y)
            return counted_step
        return wrapper

    # The free table's edge cells act through apply, or multiply through
    # compose without a vector, one call an action, and its interior cells
    # through the fused word step, two actions a call; the dense and scalar
    # tables step numerator cells, packed or not, through neither, so there
    # the count is compared with the union of the keys' rectangles alone.
    # The ring table gets P(1, 0) = L0 and P(0, 1) = L1 free: edges from
    # the origin make no call.
    monkeypatch.setattr(permsum, "apply", counted(apply))
    monkeypatch.setattr(permsum, "compose", counted(compose))
    monkeypatch.setattr(algebra, "_word_linear", counted_linear(algebra._word_linear))
    key_sets = ([(0, 0)], [(0, 5)], [(4, 0)], [(3, 2)], VECTOR_KEYS,
                [(0, 10), (10, 0), (3, 3)], [(2, 0), (0, 2), (2, 0)])
    for L0, L1, y in vector_backends():
        for keys, vector in itertools.product(key_sets, (y, None)):
            calls.clear()
            counter = MultCounter()
            perm_sum_batch(L0, L1, keys, counter=counter, vector=vector)
            free_edges = any(u for u, _ in keys) + any(v for _, v in keys)
            assert counter.count == union_actions(keys) - (vector is None) * free_edges
            if isinstance(y, FreeVector):
                assert counter.count == len(calls)
            if len(keys) == 1:
                (u, v), = keys
                # every cell but the origin is one action, interior cells two,
                # less the ring table's free P(1, 0) and P(0, 1)
                assert counter.count == (2 * u * v + u + v if vector is not None else
                                         2 * u * v + max(u - 1, 0) + max(v - 1, 0))


def flat_entries(value):
    """A dense value's entries as a list, or a scalar as its one entry."""
    return list(value.entries) if hasattr(value, "entries") else [Fraction(value)]


def split_recursion_reference(L0, L1, keys, y=None):
    """Each key's P(u, v), or P(u, v)·y, as a flat list of entries from
    the split recursion on Fractions or floats, adding in the table's
    order: P(u, v) = L0·P(u-1, v) + L1·P(u, v-1), with L·1 = L on rings."""
    n = getattr(L0, "n", 1)
    a, b = flat_entries(L0), flat_entries(L1)
    origin = flat_entries(ring_one(L0) if y is None else y)

    def times(factor, cell):
        if cell is origin and y is None:
            return factor
        width = len(cell) // n
        return [sum(factor[i * n + k] * cell[k * width + j] for k in range(n))
                for i in range(n) for j in range(width)]

    cells = {(0, 0): origin}
    for u in range(max(u for u, _ in keys) + 1):
        for v in range(max(v for _, v in keys) + 1):
            if u and v:
                cells[u, v] = [x + z for x, z in zip(times(a, cells[u - 1, v]),
                                                     times(b, cells[u, v - 1]))]
            elif u or v:
                cells[u, v] = times(a, cells[u - 1, v]) if u else times(b, cells[u, v - 1])
    return [cells[key] for key in keys]


# Denominators that share factors, so L0, L1 and Y1 have common and
# distinct primes in their scales.
TABLE_ENTRIES = {
    True: st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 12])),
    False: st.floats(-4, 4),
}


@st.composite
def one_line_keys(draw, top):
    """Keys on one line, which the packed pass reads: some of the
    anti-diagonal u + v = K, or some of the line 2u + v = K with (0, K)
    among them, for a K of at most ``top``."""
    K = draw(st.integers(0, top))
    if draw(st.booleans()):
        return [(u, K - u) for u in draw(st.lists(st.integers(0, K), min_size=1, max_size=4))]
    return [(0, K)] + [(u, K - 2 * u) for u in draw(st.lists(st.integers(0, K // 2), max_size=4))]


@st.composite
def numerator_tables(draw):
    """(L0, L1, keys, vector or None) on exact or float matrices, n <= 4,
    or on scalars, each an ``int`` or a ``Fraction``."""
    n, exact = draw(st.integers(1, 4)), draw(st.booleans())
    entries = TABLE_ENTRIES[exact]
    scalar = draw(st.booleans())

    def coefficient():
        if scalar:
            return draw(TABLE_ENTRIES[True] | st.integers(-6, 6))
        shape = draw(st.sampled_from(["dense", "dense", "dense", "zero", "identity"]))
        if shape != "dense":
            if shape == "zero":
                return Matrix([[Fraction(0) if exact else 0.0] * n] * n)
            return Matrix.identity(n, exact)
        return Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])

    L0, L1 = coefficient(), coefficient()
    y = None
    if draw(st.booleans()):
        y = coefficient() if scalar else ColumnVector([draw(entries) for _ in range(n)])
    if draw(st.booleans()):  # half the time on one line, for the packed pass
        return L0, L1, draw(st.permutations(draw(one_line_keys(8)))), y
    # or (0, 0), a key on each edge and several keys in one row, in any order
    row, top = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    columns = draw(st.lists(st.integers(0, 4), min_size=2, max_size=3))
    extra = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=3))
    keys = [(0, 0), (row, 0), (0, top)] + [(row, v) for v in columns] + extra
    return L0, L1, draw(st.permutations(keys)), y


# Key sets whose exact table runs along the lines 2u + v: the closed
# form's keys at p = 3, 4 and 12, line 10 without its top slot 5, and the
# keys of p = 5 with one repeated.
WEIGHT_TWO_KEYS = ([(0, 2), (1, 0)], [(1, 1), (0, 3)], [(t, 11 - 2 * t) for t in range(6)],
                   [(0, 10), (2, 6)], [(1, 2), (0, 4), (1, 2), (2, 0)])
WEIGHT_TWO_TABLE = (Matrix([[Fraction(1, 2), -1], [2, Fraction(3, 2)]]),
                    Matrix([[-1, Fraction(1, 3)], [0, 1]]), ColumnVector([1, Fraction(-1, 3)]))


def weight_two_examples(test):
    """``test`` with an example per weight-two key set, on vectors and on the ring."""
    L0, L1, y = WEIGHT_TWO_TABLE
    for keys in WEIGHT_TWO_KEYS:
        for vector in (y, None):
            test = example((L0, L1, keys, vector))(test)
    return test


@settings(deadline=None)
@given(numerator_tables())
@weight_two_examples
def test_numerator_table_matches_a_fraction_reference(table):
    L0, L1, keys, y = table
    results = perm_sum_batch(L0, L1, keys, vector=y)
    expected = split_recursion_reference(L0, L1, keys, y)
    assert len(results) == len(keys)
    for result, entries in zip(results, expected):
        if not isinstance(L0, Matrix):
            assert type(result) is Fraction and [result] == entries
            continue
        assert type(result) is (Matrix if y is None else ColumnVector)
        if L0.exact:
            assert list(result.entries) == entries
            assert result._den > 0 and math.gcd(result._den, *result._nums) == 1
        else:  # the same float operations in the same order, bit for bit
            assert [x.hex() for x in result.entries] == [x.hex() for x in entries]


@st.composite
def summed_tables(draw):
    """(L0, L1, keys, vector or None) for the one-sum path: exact and float
    matrices, scalars (``int`` or ``Fraction``) and free elements, with
    keys in any order, repeated or none."""
    backend = draw(st.sampled_from(["exact", "float", "scalar", "free"]))
    n = draw(st.integers(1, 3))
    if backend == "free":
        terms = st.dictionaries(st.lists(st.integers(0, 1), max_size=2).map(tuple),
                                st.integers(-3, 3).filter(bool), max_size=2)
        L0, L1 = draw(terms.map(FreeElement)), draw(terms.map(FreeElement))
        y = draw(terms.map(FreeVector))
    elif backend == "scalar":
        L0, L1, y = (draw(TABLE_ENTRIES[True] | st.integers(-6, 6)) for _ in range(3))
    else:
        entries = TABLE_ENTRIES[backend == "exact"]
        L0, L1 = (Matrix([[draw(entries) for _ in range(n)] for _ in range(n)])
                  for _ in range(2))
        y = ColumnVector([draw(entries) for _ in range(n)])
    top = 3 if backend == "free" else 5
    if draw(st.booleans()):  # half the time on one line, for the packed pass
        keys = draw(one_line_keys(2 * top))
    else:
        keys = draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, top)), max_size=5))
    if keys:
        keys += draw(st.lists(st.sampled_from(keys), max_size=3))
    return L0, L1, draw(st.permutations(keys)), draw(st.sampled_from([y, None]))


# Exact cells with D = 2 whose keys lie on diagonals 0, 3 and 7, so the
# cell table runs them and divides each key by its own power of D before
# the keys add; (2, 1) is repeated.
CARRY_KEYS = [(3, 4), (2, 1), (0, 0), (1, 6), (2, 1)]
# Keys on the line 2u + v = 6, which the packed pass reads: key (u, 6 - 2u)
# lies on anti-diagonal 6 - u, so its share of the total carries the
# factor D^u; (2, 2) is repeated.
LINE_KEYS = [(0, 6), (1, 4), (2, 2), (2, 2), (3, 0)]
CARRY_MATRICES = (Matrix([[Fraction(1, 2), -1], [2, Fraction(3, 2)]]),
                  Matrix([[-1, Fraction(1, 2)], [0, 1]]))


@settings(deadline=None, max_examples=200)
@given(summed_tables())
@example((Fraction(1, 2), Fraction(-3, 2), CARRY_KEYS, Fraction(5, 3)))
@example((Fraction(1, 2), Fraction(-3, 2), CARRY_KEYS, None))
@example((*CARRY_MATRICES, CARRY_KEYS, ColumnVector([1, Fraction(-1, 3)])))
@example((*CARRY_MATRICES, CARRY_KEYS, None))
@example((Fraction(1, 2), Fraction(-3, 2), LINE_KEYS, Fraction(5, 3)))
@example((Fraction(1, 2), Fraction(-3, 2), LINE_KEYS, None))
@example((*CARRY_MATRICES, LINE_KEYS, ColumnVector([1, Fraction(-1, 3)])))
@example((*CARRY_MATRICES, LINE_KEYS, None))
def test_total_is_the_sum_of_the_keys(table):
    L0, L1, keys, y = table
    total = perm_sum_batch(L0, L1, keys, vector=y, total=True)
    expected = ring_sum(perm_sum_batch(L0, L1, keys, vector=y),
                        ring_zero(L0) if y is None else vector_zero(y))
    assert type(total) is type(expected)
    if isinstance(expected, Fraction):
        assert (total.numerator, total.denominator) == (
            expected.numerator, expected.denominator)
    elif not isinstance(expected, (Matrix, ColumnVector)):
        assert total == expected
    elif expected.exact:
        assert (total._nums, total._den) == (expected._nums, expected._den)
    else:  # the float keys add in the same order, bit for bit
        assert [x.hex() for x in total._nums] == [x.hex() for x in expected._nums]


@pytest.fixture
def packed_runs(monkeypatch):
    """A list that gains the arguments of each run of the packed pass."""
    runs, packed = [], permsum._packed_table

    def spy(*args):
        runs.append(args)
        return packed(*args)
    monkeypatch.setattr(permsum, "_packed_table", spy)
    return runs


def exact_tables():
    """(L0, L1, y) on exact dense and scalar backends."""
    rng = Random(37)
    yield (*CARRY_MATRICES, ColumnVector([1, Fraction(-1, 3)]))
    yield random_matrix(rng, 3), random_matrix(rng, 3), random_vector(rng, 3)
    yield Fraction(1, 2), Fraction(-3, 2), Fraction(5, 3)
    yield 2, -3, 5


def test_the_packed_pass_runs_for_keys_on_one_line(packed_runs):
    # One key, the keys of solve_closed's Y_p and one anti-diagonal lie on
    # one line and take the packed pass; key sets that span lines take the
    # cell table.  Either way the values and the counts are the same.
    one_line = ([(0, 0)], [(0, 7)], [(5, 0)], [(3, 4)], [(2, 7), (9, 0), (0, 9), (5, 4), (2, 7)],
                *([(t, p - 1 - 2 * t) for t in range(t_bar(p) + 1)] for p in range(1, 13)))
    for L0, L1, y in exact_tables():
        for keys, vector in itertools.product(
                (*one_line, [(0, 10), (10, 0), (3, 3)], CARRY_KEYS), (y, None)):
            packed_runs.clear()
            counter = MultCounter()
            results = perm_sum_batch(L0, L1, keys, counter=counter, vector=vector)
            total = perm_sum_batch(L0, L1, keys, vector=vector, total=True)
            assert len(packed_runs) == 2 * (keys in one_line)
            assert list(map(flat_entries, results)) == split_recursion_reference(
                L0, L1, keys, vector)
            assert total == ring_sum(results, ring_zero(L0) if vector is None else vector_zero(y))
            free_edges = any(u for u, _ in keys) + any(v for _, v in keys)
            assert counter.count == union_actions(keys) - (vector is None) * free_edges


def equal_entries(shape, value):
    """A scalar, or an n×n matrix (``shape`` = n) with every entry ``value``."""
    return value if shape == "scalar" else Matrix([[value] * shape for _ in range(shape)])


@pytest.mark.parametrize("shape", ["scalar", 1, 3])
def test_packed_slots_at_the_width_bound(shape):
    # With one coefficient zero and equal nonnegative entries elsewhere,
    # P(0, 40)·y or P(40, 0)·y has the largest entry of the table.  The
    # first two key sets span lines and run cell by cell; the next test
    # reads the first on one line, at the width bound of the packed slots.
    c, e = Fraction(3, 2), Fraction(5)
    y = e if shape == "scalar" else ColumnVector([e] * shape)
    for c0, c1 in ((0, c), (c, 0), (c, 2 * c)):
        L0, L1 = equal_entries(shape, c0), equal_entries(shape, c1)
        # and the summands of Y_41, each read from one line 2u + v = 40
        for keys in ([(0, 40), (40, 0), (20, 20), (7, 33), (0, 0)], [(0, 10), (10, 0), (3, 3)],
                     [(t, 40 - 2 * t) for t in range(21)]):
            for vector in (y, None):
                results = perm_sum_batch(L0, L1, keys, vector=vector)
                assert list(map(flat_entries, results)) == split_recursion_reference(
                    L0, L1, keys, vector)
        problem = CauchyProblem(L0, L1, y)
        for p in (11, 41):
            assert solve_closed(problem, p) == solve_iterative(problem, p)


@pytest.mark.parametrize("shape", ["scalar", 1, 3])
def test_packed_slots_at_the_width_bound_on_one_line(shape, packed_runs):
    # Anti-diagonal 40 in one packed pass: P(0, 40)·y or P(40, 0)·y has the
    # largest entry that the slot width admits.  (0, 0) is line 0 alone.
    c, e = Fraction(3, 2), Fraction(5)
    y = e if shape == "scalar" else ColumnVector([e] * shape)
    for c0, c1 in ((0, c), (c, 0), (c, 2 * c)):
        L0, L1 = equal_entries(shape, c0), equal_entries(shape, c1)
        for keys in ([(0, 40), (40, 0), (20, 20), (7, 33)], [(0, 0)]):
            for vector in (y, None):
                packed_runs.clear()
                results = perm_sum_batch(L0, L1, keys, vector=vector)
                assert len(packed_runs) == 1
                assert list(map(flat_entries, results)) == split_recursion_reference(
                    L0, L1, keys, vector)


def test_packed_read_takes_the_top_slot_and_rounds_below_it():
    # Diagonals 3 and 5 together span lines and run cell by cell; the next
    # test reads each alone.  Line 2u + v = 5 holds (0, 5), (1, 3) and
    # (2, 1), its top slot.  Odd diagonals of L0 = L1 = -1 hold only
    # negative cells, and the matrix cells take both signs, so a floored
    # slot or an unmasked one reads wrong.
    matrix = Matrix([[Fraction(-3, 2), 2], [1, Fraction(-1, 2)]])
    for keys, negative in (([(2, 1), (1, 2), (0, 3), (0, 5)], (1, 2)),
                           ([(0, 5), (1, 3), (2, 1)], (0, 2))):
        for L0, L1, y in ((-1, -1, 1), (matrix, matrix * matrix, ColumnVector([1, -2]))):
            for vector in (y, None):
                expected = split_recursion_reference(L0, L1, keys, vector)
                assert all(min(expected[i]) < 0 for i in negative)
                results = perm_sum_batch(L0, L1, keys, vector=vector)
                assert list(map(flat_entries, results)) == expected


def test_packed_read_of_one_line_takes_the_top_slot_and_rounds_below_it(packed_runs):
    # Anti-diagonal 3 keeps slots 0..2: (2, 1) is its top slot, (1, 2) and
    # (0, 3) lie below it.  (0, 5) alone is the one slot kept of line
    # 2u + v = 5.  The cells of odd diagonals of L0 = L1 = -1 are negative.
    matrix = Matrix([[Fraction(-3, 2), 2], [1, Fraction(-1, 2)]])
    for keys, negative in (([(2, 1), (1, 2), (0, 3)], (1, 2)), ([(0, 5)], (0,))):
        for L0, L1, y in ((-1, -1, 1), (matrix, matrix * matrix, ColumnVector([1, -2]))):
            for vector in (y, None):
                expected = split_recursion_reference(L0, L1, keys, vector)
                assert all(min(expected[i]) < 0 for i in negative)
                packed_runs.clear()
                results = perm_sum_batch(L0, L1, keys, vector=vector)
                assert len(packed_runs) == 1
                assert list(map(flat_entries, results)) == expected


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
