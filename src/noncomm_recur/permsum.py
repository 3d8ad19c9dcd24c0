"""Permutation sums of two noncommutative generators.

The central object is the sum of all distinct products containing
exactly ``u`` factors of one ring element and ``v`` factors of another;
it has ``C(u+v, u)`` terms.  Two evaluators are provided:

* :func:`perm_sum_naive` enumerates every word (:func:`enumerate_words`,
  from the positions of its ``u`` letters L0) and multiplies it out --
  the definitional trust anchor, exponential in ``u+v``;
* :func:`perm_sum_dp` exploits the left-split recursion

      P(u, v) = L0·P(u-1, v) + L1·P(u, v-1),
      P(u, 0) = L0^u,  P(0, v) = L1^v,

  over a table, so only Θ(u·v) ring multiplications are performed.

The table (:func:`perm_sum_batch`) also runs on module vectors: from
Z(0, 0) = y the same recursion Z(u, v) = L0·Z(u-1, v) + L1·Z(u, v-1)
gives Z(u, v) = P(u, v)·y with one module action per step, a
matrix-vector product instead of a matrix product on matrix backends.
The table is built row by row, keeping one row and the requested
cells, and lives for a single top-level call; there is no cross-call
caching.

The evaluators accept a :class:`MultCounter` that records the exact
number of ring multiplications (or module actions) performed, for
benchmarking.
"""
from __future__ import annotations

import math
from itertools import combinations

from .algebra import (
    apply,
    check_apply_compat,
    check_same_backend,
    compose,
    ring_one,
    ring_zero,
    word_to_element,
)

# Words longer than this are refused by the enumerator: materializing
# C(30, 15) ~ 1.55e8 words is already infeasible, so fail fast instead
# of exhausting memory or time.  The CLI can override via the
# NONCOMM_RECUR_CAP environment variable.
DEFAULT_WORD_CAP = 30


class CapExceededError(ValueError):
    """Word length u+v exceeds the enumeration cap."""

    def __init__(self, total, cap):
        super().__init__(
            f"cannot enumerate words of length {total}: "
            f"exceeds the enumeration cap of {cap} letters")
        self.total = total
        self.cap = cap


class MultCounter:
    """Monotone counter of ring multiplications during one evaluation."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def tick(self, n=1):
        self.count += n

    def reset(self):
        self.count = 0

    def __repr__(self):
        return f"MultCounter(count={self.count})"


def binom(n, k):
    """C(n, k) in exact big-integer arithmetic, 0 outside 0 <= k <= n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def count_terms(u, v):
    """Number of distinct words with u letters of one kind and v of the other."""
    _check_counts(u, v)
    return math.comb(u + v, u)


def stifel_check(n, k):
    """Whether C(n, k) + C(n, k+1) = C(n+1, k+1) holds exactly.

    Out-of-range binomials count as 0, so this is total in k (and always
    true); exposed as a test oracle for the recursion's counting step.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return binom(n, k) + binom(n, k + 1) == binom(n + 1, k + 1)


def _check_counts(u, v):
    if u < 0 or v < 0:
        raise ValueError(f"letter counts must be nonnegative, got ({u}, {v})")


def enumerate_words(u, v, cap=None):
    """All distinct words with u letters 0 and v letters 1, lexicographically.

    Returns a lazy iterator of word tuples (letter 0 sorts before 1);
    its length is ``count_terms(u, v)``.  Raises
    :class:`CapExceededError` eagerly when ``u + v`` exceeds the cap.
    """
    _check_counts(u, v)
    cap = DEFAULT_WORD_CAP if cap is None else cap
    if u + v > cap:
        raise CapExceededError(u + v, cap)
    n = u + v

    def word(zeros):
        letters = [1] * n
        for i in zeros:
            letters[i] = 0
        return tuple(letters)

    # Combinations of the positions of letter 0 come in lexicographic
    # order, and so do the words they spell.
    return map(word, combinations(range(n), u))


def perm_sum_naive(L0, L1, u, v, counter=None, cap=None):
    """Sum of all distinct products of u factors L0 and v factors L1,
    evaluated word by word: C(u+v, u) words at max(u+v-1, 0) ring
    multiplications each.
    """
    check_same_backend(L0, L1)
    words = enumerate_words(u, v, cap=cap)
    total = ring_zero(L0)
    for word in words:
        total = total + word_to_element(word, L0, L1, counter)
    return total


def perm_sum_dp(L0, L1, u, v, counter=None):
    """Permutation sum via the left-split recursion and a memo table.

    Exactly equal to :func:`perm_sum_naive` on exact backends, at
    2uv + max(u-1, 0) + max(v-1, 0) ring multiplications instead of
    C(u+v, u) word evaluations.
    """
    return perm_sum_batch(L0, L1, [(u, v)], counter=counter)[0]


def perm_sum_batch(L0, L1, keys, counter=None, vector=None):
    """Evaluate several permutation sums against one shared table.

    ``keys`` is a sequence of (u, v) pairs; the result list is aligned
    with it.  Cells are computed row by row over the union of the
    requested rectangles, so each distinct cell costs its two products
    once per call.  Only the current row and the requested cells are
    kept, so memory grows with the table's width, not its area.

    Without ``vector`` the cells are ring elements P(u, v), at
    2uv + max(u-1, 0) + max(v-1, 0) ring multiplications for one key.
    With a module ``vector`` y the cells are Z(u, v) = P(u, v)·y, built
    by the same recursion from Z(0, 0) = y with one module action per
    product, and the result holds P(u, v)·y for each key.
    """
    check_same_backend(L0, L1)
    if vector is None:
        origin, product = ring_one(L0), compose
    else:
        check_apply_compat(L0, vector)
        origin, product = vector, apply
    keys = list(keys)
    for u, v in keys:
        _check_counts(u, v)
    if not keys:
        return []

    def step(factor, cell):
        # factor·1 is factor: the ring table gets P(1, 0) and P(0, 1) free.
        if vector is None and cell is origin:
            return factor
        if counter is not None:
            counter.tick()
        return product(factor, cell)

    # Row i of the table needs columns 0..col_limit[i]; the limit is the
    # largest v requested by any key at row >= i, nonincreasing in i.
    max_u = max(u for u, _ in keys)
    col_limit = [max(v for u, v in keys if u >= i) for i in range(max_u + 1)]
    found = dict.fromkeys(keys)
    row = []
    for i in range(max_u + 1):
        above = row
        row = [origin if i == 0 else step(L0, above[0])]
        for j in range(1, col_limit[i] + 1):
            left = step(L1, row[j - 1])
            row.append(left if i == 0 else step(L0, above[j]) + left)
        for u, v in found:
            if u == i:
                found[(u, v)] = row[v]
    return [found[key] for key in keys]
