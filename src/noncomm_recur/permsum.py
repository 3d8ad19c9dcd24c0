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
The table is built one line at a time, keeping the lines that the next
step reads and the requested cells, for one call only; nothing is
cached.  Float and free cells run along the anti-diagonals u + v; cells
that pack run along the lines 2u + v when every key lies on one such
line, as the summands of one Y_p do, and along anti-diagonals otherwise.
Each call groups its keys by line, with their repeats, once, and packed,
float and free cells all read that grouping.  ``algebra._integer_form``
supplies the cell arithmetic, the fused step a0·x + a1·y that iteration
takes, whether cells pack, and each key's value; a free cell of the
table's interior is one word sum built by that step, with no rescan of
its words.  Where cells pack, a line is one packed integer per entry,
every cell in its own slot (Kronecker substitution), and each line
takes one pass: one step advances it, one signed truncation drops the
slots that no later key reads, and each key on it is read by one shift
and mask and added into a sum of keys by Horner's rule, reduced once.

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
    ring_sum,
    ring_zero,
    vector_zero,
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

    Returns a lazy iterator of ``bytes`` words (letter 0 sorts before 1);
    its length is ``count_terms(u, v)``.  Nothing is refused by size: the
    CLI bounds the work up front with ``solver.estimate``.
    """
    _check_counts(u, v)
    ones = b"\x01" * (u + v)

    def word(zeros):
        letters = bytearray(ones)
        for i in zeros:
            letters[i] = 0
        return bytes(letters)

    # Combinations of the positions of letter 0 come in lexicographic
    # order, and so do the words they spell.
    return map(word, combinations(range(u + v), u))


def perm_sum_naive(L0, L1, u, v, counter=None):
    """Sum of all distinct products of u factors L0 and v factors L1,
    evaluated word by word: C(u+v, u) words at max(u+v-1, 0) ring
    multiplications each.
    """
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


def perm_sum_batch(L0, L1, keys, counter=None, vector=None, *, total=False):
    """Evaluate several permutation sums against one shared table.

    ``keys`` is a sequence of (u, v) pairs; the result list is aligned
    with it, or ``total=True`` returns the sum of the keys' values, each
    repeat counted (zero if none).  The table runs over lines, up to the
    last line of a key, and holds at most two lines at a time: memory
    grows with the table's width, not its area.  The keys are grouped by
    line, with their repeats, once per call, for either kind of cell below.

    Without ``vector`` the cells are ring elements P(u, v).  With a
    module ``vector`` y the cells are Z(u, v) = P(u, v)·y, built by the
    same recursion from Z(0, 0) = y with module actions in place of ring
    products, and the result holds P(u, v)·y for each key.

    Where ``_integer_form`` gives n > 0 (exact dense and scalar backends),
    with D the common denominator of L0 and L1, a0 = D·L0 and a1 = D·L1,
    a cell is the numerator tuple
    W(u, v) = a0·W(u-1, v) + a1·W(u, v-1), and the line m = w·u + v of
    weight w is the polynomial G_m(z) = sum_u W(u, m - w·u)·z^u with
    G_m = z·a0·G_(m-w) + a1·G_(m-1).  The weight is 2 when every key lies
    on the line 2u + v = K, K = max(u + v), as the keys (t, p-1-2t) of
    ``solver.solve_closed`` do, and 1, the anti-diagonals, otherwise.  At
    z = 2^B a line is one packed integer per entry (see
    :func:`_packed_table`), and each line is one pass: one call of the
    fused step ``linear(a0, a1)``, one signed truncation to the slots
    that later keys read, and one shift and mask per key, fused with its
    add into a total.  A key becomes ``value(W(u, v), u + v)``: W(u, v)
    over d·D^(u+v), d the origin's denominator, reduced by one gcd; a
    scalar key is a ``Fraction`` even from ``int`` inputs.  A total is one
    ``value`` of the sum of W(u, v)·D^(K-u-v), gathered line by line by
    Horner's rule in D, each repeat counted.

    Float and free cells cannot be packed: diagonal k holds the cells of
    the union of the keys' rectangles, those rows u whose last column in
    the union (see :func:`_row_ends`) reaches k - u.  An interior cell is
    one call of the fused step ``linear(a0, a1)``, which on the free
    backend builds one word sum from both products' concatenations, and
    an edge cell one ``product`` call.  A total is one ``ring_sum``, so
    float results are bit for bit those of ``compose``/``apply`` and ``+``.

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
        return (ring_zero(L0) if vector is None else vector_zero(vector)) if total else []
    n, a0, a1, D, origin, _, product, linear, value = _integer_form(L0, L1, origin, product)
    K = max([u + v for u, v in keys])  # packed cells run on lines 2u + v if every key does
    w = 2 if n and all([2 * u + v == K for u, v in keys]) else 1
    on_line = {}  # w·u + v -> {u: repeats}
    for u, v in keys:
        here = on_line.setdefault(w * u + v, {})
        here[u] = here.get(u, 0) + 1
    if counter is not None or not n:
        col = _row_ends(keys)
    if counter is not None:  # row 0 and column 0 are edges, the rest interior
        actions = col[0] + len(col) - 1 + 2 * sum(col[1:])
        if vector is None:
            actions -= (len(col) > 1) + (col[0] > 0)
        counter.count += actions
    if n:
        return _packed_table(n, a0, a1, D, origin, linear, value, keys, on_line, w, total)
    step, cells, found = linear(a0, a1), {0: origin}, {}
    for k in range(K + 1):
        if k:  # row u's cells in the union lie on diagonals u..u + col[u]
            previous = cells
            cells = {u: step(previous[u - 1], previous[u])
                     for u in range(1, min(k, len(col))) if u + col[u] >= k}
            # the edges: the ring table gets P(1, 0) = L0 and P(0, 1) = L1 free
            if col[0] >= k:
                cells[0] = a1 if vector is None and k == 1 else product(a1, previous[0])
            if k < len(col):
                cells[k] = a0 if vector is None and k == 1 else product(a0, previous[k - 1])
        for u in on_line.get(k, ()):
            found[u, k - u] = value(cells[u], k)
    found = [found[key] for key in keys]
    if not total:
        return found
    return ring_sum(found, ring_zero(L0) if vector is None else vector_zero(vector))


def _row_ends(keys):
    """The union of the keys' rectangles by rows: entry u is the last
    column of row u, the largest v of any key at a row >= u."""
    col = [-1] * (max(u for u, _ in keys) + 1)
    for u, v in keys:
        col[u] = max(col[u], v)
    for u in range(len(col) - 2, -1, -1):
        col[u] = max(col[u], col[u + 1])
    return col


def _packed_table(n, a0, a1, D, cell, linear, value, keys, on_line, w, total):
    """The keys' values in key order, or their total, from packed
    integers, one pass per line; ``on_line`` maps line -> {u: repeats}.

    Line m of weight w holds the cells (u, m - w·u); ``perm_sum_batch``
    picks w.  Entry i of line m is G_m = sum_u W(u, m - w·u)_i·2^(u·B):
    slot u holds its cell at bit offset u·B.  W(u, v) takes W(u-1, v)
    from slot u - 1 of line m - w and W(u, v-1) from slot u of line
    m - 1, so one step ``linear(a0, a1)(G_(m-w) << B, G_(m-1))`` makes
    G_m, with G_(-1) = 0.  Line m keeps slots 0..min(top[m], m // w),
    top[m] the largest u that a key on a line >= m reads: the signed
    residue ((q + h) & (2^b - 1)) - h, h = 2^(b-1), b = (top[m]+1)·B.
    The keys of ``solver.solve_closed``, one per slot of the last line,
    keep every slot.

    Width: with |x| the largest absolute entry of a cell and ||a|| the
    largest absolute row sum of a, |a·x| <= ||a||·|x|.  W(u, v) is the
    sum over the C(u+v, u) words of the products, so
    |W(u, v)| <= C(u+v, u)·||a0||^u·||a1||^v·|cell| <= s^(u+v)·|cell|,
    s = ||a0|| + ||a1||.  A cell kept on line m has u + v <= m <= K, K
    the last line, which is the largest u + v of a key, so every kept
    slot is at most M = max(s, 1)^K·|cell|, and B = bits(M) + 1 gives
    |W| < 2^(B-1).  The slots below any u then sum to less than
    2^(u·B)/2 in absolute value, so the signed residue above is exactly
    the slots kept.  For the same reason slot u of q + H, H the sum of
    2^(B-1)·2^(u·B) over the slots that keys read, is the base-2^B digit
    W(u, m - w·u) + 2^(B-1): one shift and mask read a key.  A vector
    table whose one coefficient is zero, and whose other coefficient and
    vector have equal nonnegative entries, attains M, so B has no spare
    bit.  A total gathers each key's W(u, v)·D^(K-u-v) as it reads it,
    by Horner's rule in D from line to line.
    """
    K = max(on_line)
    s = sum([max([sum(map(abs, a[i:i + n])) for i in range(0, n * n, n)]) for a in (a0, a1)])
    B = (max(s, 1) ** K * max(map(abs, cell))).bit_length() + 1
    top = [-1] * (K + 2)
    for m in range(K, -1, -1):
        here = on_line.get(m)
        top[m] = max(top[m + 1], max(here)) if here else top[m + 1]
    h, mask = 1 << B - 1, (1 << B) - 1
    H = h * ((1 << (top[0] + 1) * B) - 1) // mask  # h in each slot up to the highest key
    step, lines, acc, scale, found = linear(a0, a1), ((0,) * len(cell), cell), [0] * len(cell), 1, {}
    for m in range(K + 1):
        if m:
            Q, scale = step(tuple([q << B for q in lines[-w]]), lines[-1]), scale * D
            if top[m] < m // w:
                hm, mm = 1 << (top[m] + 1) * B - 1, (1 << (top[m] + 1) * B) - 1
                Q = tuple([((q + hm) & mm) - hm for q in Q])
            lines = lines[-1], Q
        here = on_line.get(m)
        if not here:
            continue
        X = [q + H for q in lines[-1]]
        for u, repeats in here.items():
            if total:  # Horner in D: acc is the sum of W(u, v)·D^(K-u-v)
                c, shift = repeats * D ** ((w - 1) * u), u * B
                acc = [a * scale + c * ((x >> shift & mask) - h) for a, x in zip(acc, X)]
                scale = 1
            else:
                found[u, m - w * u] = value(
                    tuple([(x >> u * B & mask) - h for x in X]), m - (w - 1) * u)
    return value(tuple(acc), K) if total else [found[key] for key in keys]
