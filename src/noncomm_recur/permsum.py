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
The table is built one anti-diagonal u + v at a time, keeping one
diagonal and the requested cells, and lives for a single top-level
call; there is no cross-call caching.  ``algebra._integer_form``
supplies the cell arithmetic, the fused step a0·x + a1·y that iteration
takes, whether cells pack, and each key's value.  Where cells pack, a
diagonal is one packed integer per entry, every cell in its own slot
(Kronecker substitution), and one step advances the whole diagonal.

The evaluators accept a :class:`MultCounter` that records the exact
number of ring multiplications (or module actions) of the recursion,
for benchmarking.
"""
from __future__ import annotations

import math
from itertools import combinations

from .algebra import (
    _integer_form,
    apply,
    check_apply_compat,
    check_same_backend,
    compose,
    ring_one,
    ring_zero,
    word_to_element,
)

class MultCounter:
    """Counter of ring multiplications (or module actions): an evaluator
    adds what it did to ``count``.

    A count is of logical actions, the products that the recursion or
    the word expansion defines; a packed table makes one call for a
    whole diagonal and still counts each of its cells.
    """

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


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


def enumerate_words(u, v):
    """All distinct words with u letters 0 and v letters 1, lexicographically.

    Returns a lazy iterator of word tuples (letter 0 sorts before 1);
    its length is ``count_terms(u, v)``.  Nothing is refused by size: the
    CLI bounds the work up front with ``solver.estimate``.
    """
    _check_counts(u, v)
    n = u + v

    def word(zeros):
        letters = [1] * n
        for i in zeros:
            letters[i] = 0
        return tuple(letters)

    # Combinations of the positions of letter 0 come in lexicographic
    # order, and so do the words they spell.
    return map(word, combinations(range(n), u))


def perm_sum_naive(L0, L1, u, v, counter=None):
    """Sum of all distinct products of u factors L0 and v factors L1,
    evaluated word by word: C(u+v, u) words at max(u+v-1, 0) ring
    multiplications each.
    """
    check_same_backend(L0, L1)
    total = ring_zero(L0)
    for word in enumerate_words(u, v):
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
    with it.  The table runs over anti-diagonals k = u + v, up to the
    largest key's k, and holds one diagonal at a time: memory grows with
    the table's width, not its area.

    Without ``vector`` the cells are ring elements P(u, v).  With a
    module ``vector`` y the cells are Z(u, v) = P(u, v)·y, built by the
    same recursion from Z(0, 0) = y with module actions in place of ring
    products, and the result holds P(u, v)·y for each key.

    Where ``_integer_form`` gives n > 0 (exact dense and scalar backends),
    with D the common denominator of L0 and L1, a0 = D·L0 and a1 = D·L1,
    a cell is the numerator tuple
    W(u, v) = a0·W(u-1, v) + a1·W(u, v-1), and the diagonal k is the
    polynomial Q_k(z) = sum_u W(u, k-u)·z^u with Q_k = (z·a0 + a1)·Q_(k-1).
    At z = 2^B it is one packed integer per entry (see
    :func:`_packed_diagonals`), so one call of the fused step
    ``linear(a0, a1)`` advances every cell of a diagonal.  Each key is
    read from its slot once and becomes ``value(W(u, v), u + v)``:
    W(u, v) over d·D^(u+v), d the origin's denominator, reduced by one
    gcd; a scalar key is a ``Fraction`` even from ``int`` inputs.

    Float and free cells cannot be packed: there a diagonal holds the
    cells of the union of the keys' rectangles, each made by the same
    ``linear`` or ``product`` call as in the recursion above, so float
    results are bit for bit those of ``compose``/``apply`` and ``+``.

    ``counter``, a :class:`MultCounter`, gains in one addition the
    logical actions of the union of the keys' rectangles, whatever the
    representation: one per edge cell and two per interior cell, where
    the ring table gets P(1, 0) = L0 and P(0, 1) = L1 free.  One key
    costs 2uv + max(u-1, 0) + max(v-1, 0) ring multiplications, or
    2uv + u + v module actions.
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
    n, a0, a1, _, origin, _, product, linear, value = _integer_form(L0, L1, origin, product)
    if counter is not None:  # row 0 and column 0 are edges, the rest interior
        col = _row_ends(keys)
        actions = col[0] + len(col) - 1 + 2 * sum(col[1:])
        if vector is None:
            actions -= (len(col) > 1) + (col[0] > 0)
        counter.count += actions
    on_diagonal = {}
    for u, v in keys:
        on_diagonal.setdefault(u + v, {})[u, v] = None
    if n:
        diagonal, advance, read = _packed_diagonals(n, a0, a1, origin, linear, on_diagonal)
    else:
        diagonal, advance, read = _cell_diagonals(
            a0, a1, origin, product, linear, _row_ends(keys), vector is None)
    found = {}
    for k in range(max(on_diagonal) + 1):
        if k:
            diagonal = advance(diagonal, k)
        for u, v in on_diagonal.get(k, ()):
            found[u, v] = value(read(diagonal, u), k)
    return [found[key] for key in keys]


def _row_ends(keys):
    """The union of the keys' rectangles by rows: entry u is the last
    column of row u, the largest v of any key at a row >= u."""
    col = [-1] * (max(u for u, _ in keys) + 1)
    for u, v in keys:
        col[u] = max(col[u], v)
    for u in range(len(col) - 2, -1, -1):
        col[u] = max(col[u], col[u + 1])
    return col


def _packed_diagonals(n, a0, a1, cell, linear, on_diagonal):
    """``(start, advance, read)`` for diagonals of packed integers.

    Entry i of the diagonal k is sum_u W(u, k-u)_i·2^(u·B): slot u holds
    the cell (u, k-u) at bit offset u·B.  ``advance`` takes Q_(k-1) to
    Q_k by one step ``linear(a0, a1)(Q << B, Q)`` and drops the slots
    above the largest u that a key on a diagonal >= k reads.

    Width: with |x| the largest absolute entry of a cell and ||a|| the
    largest absolute row sum of a, |a·x| <= ||a||·|x|.  W(u, v) is the
    sum over the C(u+v, u) words of the products, so
    |W(u, v)| <= C(u+v, u)·||a0||^u·||a1||^v·|cell| <= s^k·|cell|,
    s = ||a0|| + ||a1||, k = u + v.  Up to the last diagonal K every
    slot is then at most M = max(s, 1)^K·|cell|, and B = bits(M) + 1
    gives |W| < 2^(B-1).  The slots below u then sum to less than
    2^(u·B)/2 in absolute value, so rounding Q/2^(u·B) to the nearest
    integer leaves W(u, k-u) in its low B bits, read as a signed
    B-bit number.  A vector table whose one coefficient is zero, and whose
    other coefficient and vector have equal nonnegative entries, attains
    M, so B has no spare bit.
    """
    K = max(on_diagonal)
    s = sum(max(sum(map(abs, a[i:i + n])) for i in range(0, len(a), n)) for a in (a0, a1))
    B = (max(s, 1) ** K * max(map(abs, cell))).bit_length() + 1
    # top[k]: the largest slot that a key on diagonal k or after it reads.
    top = [-1] * (K + 1)
    for k, read_here in on_diagonal.items():
        top[k] = max(u for u, _ in read_here)
    for k in range(K - 1, -1, -1):
        top[k] = max(top[k], top[k + 1])
    step = linear(a0, a1)

    def advance(Q, k):
        Q = step(tuple(x << B for x in Q), Q)
        return _signed(Q, (top[k] + 1) * B) if top[k] < k else Q

    def read(Q, u):
        if u:  # round to the nearest integer: the slots below vanish
            Q = (((x >> (u * B - 1)) + 1) >> 1 for x in Q)
        return _signed(Q, B)

    return cell, advance, read


def _signed(values, bits):
    """Each value's residue mod 2^bits in [-2^(bits-1), 2^(bits-1)): the
    slots below offset ``bits`` of a packed integer, or one slot."""
    span = 1 << bits
    half, mask = span >> 1, span - 1
    return tuple(r - span if r >= half else r for r in (x & mask for x in values))


def _cell_diagonals(a0, a1, origin, product, linear, col, ring):
    """``(start, advance, read)`` for diagonals that map u to the cell
    (u, k-u), over the cells of the union of the keys' rectangles."""
    interior = linear(a0, a1)
    # Row u's cells in the union lie on diagonals u..reach[u].
    reach = [u + last for u, last in enumerate(col)]

    def edge(factor, cell):
        # factor·1 is factor: the ring table gets P(1, 0) and P(0, 1) free.
        return factor if ring and cell is origin else product(factor, cell)

    def advance(previous, k):
        cells = {}
        for u in range(min(k, len(col) - 1) + 1):
            if reach[u] >= k:
                cells[u] = (edge(a1, previous[0]) if u == 0 else
                            edge(a0, previous[u - 1]) if u == k else
                            interior(previous[u - 1], previous[u]))
        return cells

    return {0: origin}, advance, dict.__getitem__
