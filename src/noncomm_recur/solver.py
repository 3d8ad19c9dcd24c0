"""Solvers for Y_{p+2} = L0 Y_p + L1 Y_{p+1} with Y_0 = 0, Y_1 given.

Three routes to the same answer:

* :func:`solve_iterative` -- direct iteration of the recurrence, the
  ground-truth oracle for everything else; exact dense and scalar
  problems step on integer numerators and reduce once;
  :func:`solve_iterative_upto` returns every Y_k up to p from the same
  pass, each reduced once;
* :func:`solve_closed` -- the closed form

      Y_p = sum_{t=0}^{tbar(p)} {L0^(t) L1^(p-1-2t)} Y_1,

  where ``{...}`` is the permutation sum of ``permsum`` and
  ``tbar(p) = floor((p-1)/2)``; valid for any noncommutative pair of
  coefficients; the summands are added by one ``algebra.ring_sum``;
* the scalar reduction for commuting rational coefficients:
  :func:`solve_scalar_roots` (characteristic roots m^2 - c1 m - c0 = 0)
  and :func:`solve_scalar_sum` (exact binomial sum), plus the two
  binomial identities connecting them, exposed as
  :func:`verify_identity_21` and :func:`verify_identity_23`.

Exact backends give exact equality between all routes; the
characteristic-root route falls back to complex doubles when the
discriminant has no rational square root.  :func:`estimate` puts each
route's cost in one unit, bit operations, for the CLI's one cap.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil, comb, isfinite, isqrt, log2

from .algebra import (FreeElement, _integer_form, _kind, apply, check_apply_compat,
                      check_same_backend, ring_sum, vector_zero)
from .permsum import binom, perm_sum_batch

# A complex-double evaluation must come out real to this relative slack
# before the imaginary part is discarded.
IMAG_REL_TOL = 1e-9


class InvalidCoefficientError(ValueError):
    """The characteristic-equation route requires c0 != 0."""


class NotARationalSquareError(ValueError):
    """An exact square root was required but the value has none."""

    def __init__(self, value):
        super().__init__(f"{value} is not the square of a rational")


class NonRealResultError(ArithmeticError):
    """Complex-double evaluation failed to produce a real value."""


class DoubleRangeError(ArithmeticError):
    """y_p lies beyond the range of the complex-double evaluation."""

    def __init__(self, p):
        super().__init__(
            f"y_{p} exceeds the range of double precision on the characteristic-root "
            f"route; scalar-sum computes it exactly")


def t_bar(p):
    """Upper summation limit floor((p-1)/2) of the closed form.

    Returns -1 at p = 0, signalling the empty sum (Y_0 = 0).
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    return (p - 1) // 2


@dataclass(frozen=True)
class CauchyProblem:
    """A coefficient pair (L0, L1) with initial vector Y_1 (Y_0 is zero)."""

    L0: object
    L1: object
    y1bar: object

    def __post_init__(self):
        check_same_backend(self.L0, self.L1)
        check_apply_compat(self.L0, self.y1bar)

    def zero_vector(self):
        return vector_zero(self.y1bar)


def _iteration(problem):
    """``(value, numerators)``: Y_k = value(N_k, k - 1), N_k over d·D^(k-1)
    reduced once, where ``numerators`` yields N_1, N_2, ... on demand.

    It takes the closed-form table's fused step (``algebra._integer_form``)
    in the other order, N_(k+2) = D·a0·N_k + a1·N_(k+1) in one call, from
    N_1 = Y1's cell and N_2 = a1·N_1.  On the free backend D = d = 1:
    Y_(k+2) = L0·Y_k + L1·Y_(k+1)."""
    _, a0, a1, D, cell, _, mul, linear, value = _integer_form(
        problem.L0, problem.L1, problem.y1bar, apply)
    step = linear(a0 if D == 1 else tuple(D * x for x in a0), a1)  # free: D = 1, a0 = L0

    def numerators():
        previous = cell
        yield previous
        current = mul(a1, previous)
        while True:
            yield current
            previous, current = current, step(previous, current)
    return value, numerators()


def solve_iterative(problem, p):
    """Y_p by direct iteration from Y_0 = 0, Y_1 = y1bar (the oracle):
    p - 1 steps of :func:`_iteration`, and Y_p reduced once."""
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if p < 2:
        return problem.y1bar if p else problem.zero_vector()
    value, numerators = _iteration(problem)
    return value(next(islice(numerators, p - 1, None)), p - 1)


def solve_iterative_upto(problem, max_p):
    """[Y_0, ..., Y_max_p] from one pass of the iteration, each Y_k equal
    to ``solve_iterative(problem, k)`` and reduced once."""
    if max_p < 0:
        raise ValueError(f"max_p must be nonnegative, got {max_p}")
    values = [problem.zero_vector(), problem.y1bar][:max_p + 1]
    value, numerators = _iteration(problem)
    values.extend(value(cell, k) for k, cell in enumerate(islice(numerators, 1, max_p), 1))
    return values


def solve_closed(problem, p):
    """Y_p by the permutation-sum closed form.

    The summands {L0^(t) L1^(p-1-2t)}·Y_1 for all t come from one
    permutation-sum table run on vectors from Z(0, 0) = Y_1, so a single
    solve costs O(p^2) module actions (matrix-vector products on matrix
    backends) and holds one anti-diagonal of the table at a time; one
    ``ring_sum`` adds them.  p = 0 has no keys, so the sum is empty: the
    zero vector.
    """
    keys = [(t, p - 1 - 2 * t) for t in range(t_bar(p) + 1)]
    return ring_sum(perm_sum_batch(problem.L0, problem.L1, keys, vector=problem.y1bar),
                    problem.zero_vector())


# ---------------------------------------------------------------------------
# Scalar reduction (commuting rational coefficients)
# ---------------------------------------------------------------------------

def rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None.

    Works on the reduced numerator and denominator with integer square
    roots, so detection is exact.
    """
    value = Fraction(value)
    if value < 0:
        return None
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None


@dataclass(frozen=True)
class ScalarRoots:
    """Roots of m^2 - c1 m - c0 = 0: the discriminant ``delta`` =
    c1^2 + 4 c0, the roots ``m1`` (the + branch) and ``m2``, and ``exact``.

    When delta is the square of a rational both roots are exact
    ``Fraction``s and ``exact`` is True; otherwise they are complex doubles.
    """

    delta: Fraction
    m1: object
    m2: object
    exact: bool = True


def characteristic_roots(c0, c1):
    """Solve the characteristic equation for the scalar recurrence.

    Requires c0 != 0; roots are exact when the discriminant is a
    rational square, complex doubles otherwise.
    """
    c0 = Fraction(c0)
    c1 = Fraction(c1)
    if c0 == 0:
        raise InvalidCoefficientError("characteristic-root solver requires c0 != 0")
    delta = c1 * c1 + 4 * c0
    root = rational_sqrt(delta)
    if root is not None:
        return ScalarRoots(delta, (c1 + root) / 2, (c1 - root) / 2, exact=True)
    s = cmath.sqrt(complex(delta))
    return ScalarRoots(delta, (complex(c1) + s) / 2, (complex(c1) - s) / 2, exact=False)


def _as_real(value, p):
    if not isfinite(value.real):
        raise DoubleRangeError(p)
    magnitude = abs(value)
    if abs(value.imag) > IMAG_REL_TOL * max(1.0, magnitude):
        raise NonRealResultError(
            f"expected a real result, got {value!r}")
    return value.real


def solve_scalar_roots(c0, c1, y1bar, p):
    """y_p via the characteristic roots.

    delta != 0: (m1^p - m2^p) / (m1 - m2) * y1bar;
    delta == 0: p * m1^(p-1) * y1bar.

    Exact ``Fraction`` when the roots are rational, otherwise a float
    whose complex residue must vanish within 1e-9 relative; a value
    beyond the range of a double raises :class:`DoubleRangeError`.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    roots = characteristic_roots(c0, c1)
    y1bar = Fraction(y1bar)
    if roots.delta == 0:
        # c0 != 0 forces c1 != 0 here, so m1 = c1/2 is invertible.
        return p * roots.m1 ** (p - 1) * y1bar
    if roots.exact:
        return (roots.m1 ** p - roots.m2 ** p) / (roots.m1 - roots.m2) * y1bar
    try:
        value = (roots.m1 ** p - roots.m2 ** p) / (roots.m1 - roots.m2) * complex(y1bar)
    except OverflowError:
        raise DoubleRangeError(p) from None
    return _as_real(value, p)


def solve_scalar_sum(c0, c1, y1bar, p):
    """y_p as the exact binomial sum over the closed form's t index.

    sum_{t=0}^{tbar(p)} C(p-t-1, t) c0^t c1^(p-1-2t) * y1bar, with the
    convention 0^0 = 1 so c1 = 0 (and c0 = 0) are admissible.

    With c0 = a/b, c1 = c/d, n = p-1 and T = tbar(p) the sum is
    c^(n-2T) / (b^T d^n) * sum_t C(n-t, t) (a d^2)^t (b c^2)^(T-t).  That
    integer sum runs by Horner's rule, each term made from the one before
    by narrow products and one exact division: O(p) wide-by-narrow steps.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    c0, c1, y1bar = Fraction(c0), Fraction(c1), Fraction(y1bar)
    n, top = p - 1, t_bar(p)
    if top < 0:
        return Fraction(0)
    a, b, c, d = c0.numerator, c0.denominator, c1.numerator, c1.denominator
    x, y = a * d * d, b * c * c
    total = term = 1  # the t = 0 term C(n, 0)·x^0
    for t in range(top):  # C(n-t-1, t+1)/C(n-t, t) = (n-2t)(n-2t-1)/((t+1)(n-t)), exactly
        term = term * (x * (n - 2 * t) * (n - 2 * t - 1)) // ((t + 1) * (n - t))
        total = total * y + term
    return Fraction(total * c ** (n - 2 * top), b ** top * d ** n) * y1bar


# ---------------------------------------------------------------------------
# Binomial identities behind the scalar reduction
# ---------------------------------------------------------------------------

def verify_identity_21(z, n):
    """Check sum_k C(n-k, k) z^k against its closed form, exactly.

    The closed form is
    2^(-n-1) (1+4z)^(-1/2) [(1+sqrt(1+4z))^(n+1) - (1-sqrt(1+4z))^(n+1)];
    1 + 4z must be the square of a nonzero rational so both sides are
    exact rationals.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    z = Fraction(z)
    square = 1 + 4 * z
    root = rational_sqrt(square)
    if root is None:
        raise NotARationalSquareError(square)
    if root == 0:
        raise ValueError("1 + 4z = 0, and the closed form divides by sqrt(1 + 4z)")
    lhs = sum(binom(n - k, k) * z ** k for k in range(n // 2 + 1))
    rhs = (Fraction(1, 2 ** (n + 1)) / root
           * ((1 + root) ** (n + 1) - (1 - root) ** (n + 1)))
    return lhs == rhs


def verify_identity_23(n):
    """Check sum_k (-1/4)^k C(n-k, k) = (n+1) 2^(-n), exactly."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    lhs = sum(Fraction(-1, 4) ** k * binom(n - k, k) for k in range(n // 2 + 1))
    return lhs == Fraction(n + 1, 2 ** n)


# ---------------------------------------------------------------------------
# Cost estimates
# ---------------------------------------------------------------------------

# A command estimated above this many bit operations is refused up front;
# the README's "Work cap" section times the largest admitted runs.
WORK_CAP = 5 * 10 ** 9
# An entry product counts at least this many bit operations: a fused
# float-2x2.json step took 1.8-2.4 µs, a 2x2 step on 4096-bit integers
# 3.6-3.7 µs and on 64-bit ones 1.8-2.9 µs (Python 3.11, shared 2-vCPU machine).
ENTRY_FLOOR_BITS = 2 ** 12
# Printing a w-bit integer counts w²/PRINT_DIVISOR: int to str took 1.6 s
# at 10^6 bits and 6.6 s at 2·10^6, where solves near the cap run at 0.3
# to 2 ns per estimated bit operation.
PRINT_DIVISOR = 1000


def estimate(method, problem, p):
    """Estimated bit operations to compute Y_p by ``method`` and print it.

    Iterative and scalar-sum take p steps of n² entry products, closed
    ⌊(p+1)²/4⌋ cells of 2n², scalar-roots 2·bits(p) powers.  With
    ``p = (u, v)``, "bench" fills the dp tables up to (u, v),
    (u+1)(u+2)/2·(v+1)(v+2)/2 cells of 2n³, and "naive" multiplies out the
    C(u+v, u) words of the cell (u, v), max(u+v-1, 0) ring products of n³
    each.  Each product counts the width of its entries, at least
    ENTRY_FLOOR_BITS, or on the free backend 64 bits a letter and one for
    the coefficient of each term it makes.  "enumerate" lists C(u+v, u)
    words at ENTRY_FLOOR_BITS and 64 bits a letter each, and its longest
    word ENTRY_FLOOR_BITS a letter once more; it needs no problem.  A free
    cell past WORK_CAP returns the part that grows with (u, v) and n alone
    before any term is counted; every other size is cheap at any p.
    """
    if method == "enumerate":  # C(u+v, k) >= 2^k, past the cap from k = 64 on
        k, letters = min(p), sum(p)
        words = comb(letters, k) if k < 64 else 2 ** 64
        # A word is built and printed whole, about 70 bytes a letter at once
        # (10^7 letters held 713 MB), so one word stays near 10^6 letters.
        return words * (ENTRY_FLOOR_BITS + 64 * letters) + ENTRY_FLOOR_BITS * letters
    n = getattr(problem.L0, "n", 1)
    cells = method in ("bench", "naive")
    if method == "bench":
        u, v = p
        count, products = (u + 1) * (u + 2) // 2 * ((v + 1) * (v + 2) // 2), 2 * n ** 3
    elif method == "naive":
        u, v = p
        count, products = comb(u + v, u) * max(u + v - 1, 0), n ** 3
    else:
        count, products = {"closed": ((p + 1) ** 2 // 4, 2 * n * n),
                           "scalar-roots": (p.bit_length(), 2)}.get(method, (p, n * n))
    work = count * products * ENTRY_FLOOR_BITS
    if not getattr(problem.L0, "exact", True):
        return work
    if _kind(problem.L0) is FreeElement:
        c0, c1 = (len(x.terms) for x in (problem.L0, problem.L1))
        if cells:  # a word's product has at most c0^u·c1^v terms, each count at least 1
            if work > WORK_CAP:  # where c0^u·c1^v may be too large to compute
                return work
            c0, c1, words = max(c0, 1), max(c1, 1), comb(u + v, u)
            terms, copies = c0 ** u * c1 ** v, 0
            term_bits = 64 * (term_bounds(problem, u + v + 1)[2] + 1)
            if method == "bench":  # C(u+v, u) words bound the cell, and a product of it
                terms *= words * max(c0, c1)
            else:  # each add copies the running total, j·terms after j words
                copies = words * (words + 1) // 2 * terms * term_bits
            return count * products * max(ENTRY_FLOOR_BITS, terms * term_bits) + copies
        # The products make at most (c0 + c1)·total terms; printing copies
        # Y_p's a_p terms, and the closed form's one sum of its keys as many.
        last, total, letters = term_bounds(problem, p)
        copies = 2 if method == "closed" else 1
        return work + ((c0 + c1) * total + copies * last) * 64 * (letters + 1)
    if method != "scalar-roots":  # a ring cell P(u, v) is no wider than Y_2(u+v)
        width = entry_width(problem, 2 * sum(p) if cells else p)
    else:  # y_p = y1·sum_k m1^k·m2^(p-1-k) over the roots m_i = a_i/b_i has at
        # most p·|y1|·h^(p-1) over (b1·b2)^(p-1), h = max(|a1|·b2, |a2|·b1, b1·b2)
        c0, c1, y1 = Fraction(problem.L0), Fraction(problem.L1), Fraction(problem.y1bar)
        if (root := rational_sqrt(c1 * c1 + 4 * c0)) is None:
            return work  # complex roots: doubles
        (a1, b1), (a2, b2) = (((c1 + s * root) / 2).as_integer_ratio() for s in (1, -1))
        h = max(abs(a1) * b2, abs(a2) * b1, b1 * b2)
        width = (max(y1.numerator.bit_length(), y1.denominator.bit_length()) + p.bit_length()
                 + ceil(max(p - 1, 0) * Fraction(log2(h))))
    printing = 0 if cells else 2 * n * width * width // PRINT_DIVISOR
    return count * products * max(ENTRY_FLOOR_BITS, width) + printing


def entry_width(problem, steps):
    """bits(Y1) + steps·g on an exact dense or scalar problem: it bounds the
    stored numerators and denominators of Y_k, k <= steps.

    In the integer form (``algebra._integer_form``), a_i = D·L_i and
    Y1 = N_1/d, Y_k = N_k/(d·D^(k-1)) where N_k = D·a0·N_(k-2) + a1·N_(k-1).
    Its largest entry grows at most c-fold a step, c = max(√(2n·D·|a0|),
    2n·|a1|, 1) with |x| the largest entry, so g = max(bits(D), ⌈log2 c⌉).
    A ring cell P(u, v) is at most (2n·|a0|)^u·(2n·|a1|)^v over D^(u+v),
    and 2n·|a0| <= c², so it is within the bound at steps = 2(u + v)."""
    n, a0, a1, D, cell, d, *_ = _integer_form(problem.L0, problem.L1, problem.y1bar, apply)
    a0, a1 = max(map(abs, a0)), max(map(abs, a1))
    # (x - 1).bit_length() is ⌈log2 x⌉ for x >= 1; at x = 0 it is 1 <= bits(D)
    growth = max(D.bit_length(), ((2 * n * D * a0 - 1).bit_length() + 1) // 2,
                 (2 * n * a1 - 1).bit_length())
    return max(x.bit_length() for x in (*cell, d)) + steps * growth


def term_bounds(problem, p):
    """(a_p, a_1 + ... + a_p, letters) on the free backend, where a_0 = 0,
    a_1 = |Y1|, a_{k+2} = |L0|·a_k + |L1|·a_{k+1} and |x| counts the terms
    of x.  a_k bounds the terms of Y_k (exactly for the generators), the
    sum those of the closed form's table, and ``letters`` every word.  a_k
    stays at most a_1 when |L0| + |L1| < 2 or Y1 = 0, and otherwise grows
    geometrically, so the sum stops past WORK_CAP within a hundred steps."""
    c0, c1 = len(problem.L0.terms), len(problem.L1.terms)
    last = total = len(problem.y1bar.terms)
    if c0 + c1 < 2 or not last:
        total *= p
    else:
        previous = 0
        for _ in range(p - 1):
            if total > WORK_CAP:
                break
            previous, last = last, c0 * previous + c1 * last
            total += last
    longest = max((len(word) for x in (problem.L0, problem.L1) for word in x.terms), default=0)
    return last, total, max(map(len, problem.y1bar.terms), default=0) + max(p - 1, 0) * longest
