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
  coefficients; the summands are added by the table, reduced once;
* the scalar reduction for commuting rational coefficients:
  :func:`solve_scalar_roots` (characteristic roots m^2 - c1 m - c0 = 0)
  and :func:`solve_scalar_sum` (exact binomial sum), plus the two
  binomial identities connecting them, exposed as
  :func:`verify_identity_21` and :func:`verify_identity_23`.

Exact backends give exact equality between all routes; the
characteristic-root route falls back to real doubles when the
discriminant has no rational square root.  :data:`ROUTES` is the one
table of the routes the CLI serves, and :func:`estimate` puts each
route's cost in one unit, bit operations, for the CLI's one cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import atan2, ceil, comb, cos, expm1, inf, isfinite, isqrt, log1p, log2, sin, sqrt

from .algebra import (FreeElement, _integer_form, _kind, apply, check_apply_compat,
                      check_same_backend, vector_zero)
from .permsum import binom, perm_sum_batch


class InvalidCoefficientError(ValueError):
    """The characteristic-equation route requires c0 != 0."""


class NotARationalSquareError(ValueError):
    """An exact square root was required but the value has none."""

    def __init__(self, value):
        super().__init__(f"{value} is not the square of a rational")


class DoubleRangeError(ArithmeticError):
    """y_p, or with ``roots`` the characteristic roots it is computed
    from, lies beyond the range of the double evaluation."""

    def __init__(self, p, roots=False):
        super().__init__(
            f"the characteristic roots of these coefficients lie beyond double precision; "
            f"scalar-sum computes y_{p} exactly" if roots else
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
    if not p:
        return problem.zero_vector()
    value, numerators = _iteration(problem)
    return value(next(islice(numerators, p - 1, None)), p - 1)


def solve_iterative_upto(problem, max_p):
    """[Y_0, ..., Y_max_p] from one pass of the iteration, each Y_k equal
    to ``solve_iterative(problem, k)`` and reduced once."""
    if max_p < 0:
        raise ValueError(f"max_p must be nonnegative, got {max_p}")
    value, numerators = _iteration(problem)
    return [problem.zero_vector(),
            *(value(cell, k) for k, cell in enumerate(islice(numerators, max_p)))]


def solve_closed(problem, p):
    """Y_p by the permutation-sum closed form.

    The summands {L0^(t) L1^(p-1-2t)}·Y_1 for all t come from one
    permutation-sum table run on vectors from Z(0, 0) = Y_1, so a single
    solve costs O(p^2) module actions (matrix-vector products on matrix
    backends).  The keys lie on one line 2u + v = p - 1, so exact cells
    run along such lines, two at a time, and the table adds the keys,
    reduced once.  p = 0 has no keys, so the sum is empty: the zero vector.
    """
    keys = [(t, p - 1 - 2 * t) for t in range(t_bar(p) + 1)]
    return perm_sum_batch(problem.L0, problem.L1, keys, vector=problem.y1bar, total=True)


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
    ``Fraction``s and ``exact`` is True; otherwise they are doubles, real
    when delta > 0 and complex conjugates when delta < 0.
    """

    delta: Fraction
    m1: object
    m2: object
    exact: bool = True


def characteristic_roots(c0, c1):
    """Solve the characteristic equation for the scalar recurrence.

    Requires c0 != 0; roots are exact when the discriminant is a
    rational square, doubles otherwise.
    """
    c0 = Fraction(c0)
    c1 = Fraction(c1)
    if c0 == 0:
        raise InvalidCoefficientError("characteristic-root solver requires c0 != 0")
    delta = c1 * c1 + 4 * c0
    root = rational_sqrt(delta)
    if root is not None:
        return ScalarRoots(delta, (c1 + root) / 2, (c1 - root) / 2, exact=True)
    s = sqrt(abs(delta))
    if delta > 0:
        return ScalarRoots(delta, (float(c1) + s) / 2, (float(c1) - s) / 2, exact=False)
    return ScalarRoots(delta, complex(c1 / 2, s / 2), complex(c1 / 2, -s / 2), exact=False)


def solve_scalar_roots(c0, c1, y1bar, p):
    """y_p via the characteristic roots.

    delta > 0: (m1^p - m2^p) / (m1 - m2) * y1bar on exact roots; float roots,
    which cancel there near |m1| = |m2|, take m^(p-1)·(1 - q^p)/(1 - q)·y1bar,
    m the larger (the positive at c1 = 0) and q the ratio of the roots, with
    1 - q^p and 1 - q from expm1 of L = log1p(-(1 - |q|)), the log of |q|;
    delta == 0: p * m1^(p-1) * y1bar;
    delta < 0, roots r·e^(±iθ) with r = √(-c0): r^(p-1) * sin(pθ) / sin θ * y1bar,
    θ taken from |c1| where |c1| >= √(-delta), so it keeps its relative
    accuracy near a repeated root, and as π/2 - φ elsewhere.

    Exact ``Fraction`` when the roots are rational, otherwise a float
    computed in real doubles; a value beyond the range of a double, or
    coefficients whose float roots overflow, underflow or coincide, raise
    :class:`DoubleRangeError`, which names the reason that applies.
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    c0, c1, y1bar = Fraction(c0), Fraction(c1), Fraction(y1bar)
    try:
        roots = characteristic_roots(c0, c1)
        r = sqrt(-c0) if roots.delta < 0 else None  # the complex roots' modulus
    except OverflowError:
        raise DoubleRangeError(p, roots=True) from None
    if roots.delta == 0:
        # c0 != 0 forces c1 != 0 here, so m1 = c1/2 is invertible.
        return p * roots.m1 ** (p - 1) * y1bar
    if r == 0.0:  # a modulus that underflows
        raise DoubleRangeError(p, roots=True)
    try:
        if roots.exact:
            value = (roots.m1 ** p - roots.m2 ** p) / (roots.m1 - roots.m2) * y1bar
        elif roots.delta > 0:  # without m1^p - m2^p, which cancels near |m1| = |m2|
            m = roots.m1 if c1 >= 0 else roots.m2  # the larger; a tie as doubles takes c1's sign
            t = (sqrt(roots.delta) if c0 < 0 else abs(c1)) / abs(m)  # 1 - |q|, q = m'/m
            L = log1p(-t) if t < 1 else -inf  # t rounds to 1 where q^p is below rounding
            odd = c0 > 0 and p % 2  # q < 0 for c0 > 0, so q^p = -exp(pL) at odd p
            value = (m ** (p - 1) * (2 + expm1(p * L) if odd else -expm1(p * L))
                     / (2 + expm1(L) if c0 > 0 else -expm1(L)) if p else 0.0) * y1bar
        elif abs(roots.m1.real) >= roots.m1.imag:
            # θ <= π/4, small near a repeated root: taken directly it keeps
            # its relative accuracy, which π/2 - φ would not.  θ is that of
            # |c1|, and y_p(-c1) = (-1)^(p-1)·y_p(c1).
            theta = atan2(roots.m1.imag, abs(roots.m1.real))
            value = r ** (p - 1) * sin(p * theta) / sin(theta)
            value = (0.0 - value if roots.m1.real < 0 and p % 2 == 0 else value) * y1bar
        else:
            # θ = π/2 - φ, so sin(pθ) = sin(p·π/2 - pφ) takes p·π/2 exactly
            # by p mod 4, and y_p = 0 comes out exact at c1 = 0 (φ = 0);
            # 0.0 - sin(x) is +0.0 there, where -sin(x) would be -0.0.
            phi = atan2(roots.m1.real, roots.m1.imag)
            x = p * phi
            sin_p_theta = (0.0 - sin(x), cos(x), sin(x), -cos(x))[p % 4]
            value = r ** (p - 1) * sin_p_theta / cos(phi) * y1bar
    except OverflowError:
        raise DoubleRangeError(p) from None
    except ZeroDivisionError:  # float roots that underflow, or whose ratio rounds to 1
        raise DoubleRangeError(p, roots=True) from None
    if not (roots.exact or isfinite(value)):
        raise DoubleRangeError(p)
    return value


def solve_scalar_sum(c0, c1, y1bar, p):
    """y_p as the exact binomial sum over the closed form's t index.

    sum_{t=0}^{tbar(p)} C(p-t-1, t) c0^t c1^(p-1-2t) * y1bar, with the
    convention 0^0 = 1 so c1 = 0 (and c0 = 0) are admissible.

    With c0 = a/b, c1 = c/d, n = p-1 and T = tbar(p) the sum is
    c^(n-2T) / (b^T d^n) * sum_t C(n-t, t) (a d^2)^t (b c^2)^(T-t).  That
    integer sum runs by Horner's rule, each term made from the one before
    by narrow products and one exact division: O(p) wide-by-narrow steps.
    """
    n, top = p - 1, t_bar(p)
    c0, c1, y1bar = Fraction(c0), Fraction(c1), Fraction(y1bar)
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
# Routes and cost estimates
# ---------------------------------------------------------------------------

def _on_scalars(solve):
    return lambda problem, p: solve(problem.L0, problem.L1, problem.y1bar, p)


# Every route by its ``solve --method`` name, for the CLI, ``estimate`` and
# the tests: (solve(problem, p), whether it needs the scalar backend,
# price(p, n)), the (steps, entry products a step) that ``estimate`` counts
# for Y_p on n×n coefficients.
ROUTES = {
    "closed": (solve_closed, False, lambda p, n: ((p + 1) ** 2 // 4, 2 * n * n)),
    "iterative": (solve_iterative, False, lambda p, n: (p, n * n)),
    "scalar-roots": (_on_scalars(solve_scalar_roots), True, lambda p, n: (p.bit_length(), 2)),
    "scalar-sum": (_on_scalars(solve_scalar_sum), True, lambda p, n: (p, n * n)),
}
# bench's cells priced as the routes are, at p = (u, v): "bench" fills the dp
# tables up to (u, v), (u+1)(u+2)/2·(v+1)(v+2)/2 cells of two ring products,
# and "naive" multiplies out the C(u+v, u) words of the cell (u, v).
CELLS = {
    "bench": lambda p, n: (comb(p[0] + 2, 2) * comb(p[1] + 2, 2), 2 * n ** 3),
    "naive": lambda p, n: (comb(sum(p), p[0]) * max(sum(p) - 1, 0), n ** 3),
}

# A command estimated above this many bit operations is refused up front;
# the README's "Work cap" section times the largest admitted runs.
WORK_CAP = 5 * 10 ** 9
# An entry product counts at least this many bit operations: a fused
# float-2x2.json step took 1.1 µs, a 2x2 step on 4096-bit integers 2.1 µs
# and on 64-bit ones 1.0 µs (Python 3.11, shared 2-vCPU machine).
ENTRY_FLOOR_BITS = 2 ** 12
# Printing a w-bit integer counts w²/PRINT_DIVISOR: int to str took 1.6 s
# at 10^6 bits and 6.6 s at 2·10^6, where solves near the cap run at 0.3
# to 2 ns per estimated bit operation.
PRINT_DIVISOR = 1000


def estimate(method, problem, p):
    """Estimated bit operations to compute Y_p by ``method`` and print it:
    count · products · max(ENTRY_FLOOR_BITS, width) + extra.

    (count, products) is the route's price in :data:`ROUTES`, or with
    p = (u, v) the cells' in :data:`CELLS`.  Floats and irrational roots
    set neither ``width`` nor ``extra``.  Exact values take
    :func:`entry_width`, or scalar-roots y_p's width over rational roots,
    and a route adds printing, w²/PRINT_DIVISOR for each of 2n integers.
    On the free backend every term made counts 64 bits a letter and one
    for its coefficient: a route puts the terms of :func:`term_bounds` in
    ``extra``, and a cell's width is its C(u+v, u) words of at most
    c0^u·c1^v terms (bench) or one word's product (naive, whose sum copies
    its running total on each add), left at the floor where that alone
    passes WORK_CAP.  "enumerate" lists C(u+v, u) words at ENTRY_FLOOR_BITS
    and 64 bits a letter each, and its longest word ENTRY_FLOOR_BITS a
    letter once more; it needs no problem.
    """
    if method == "enumerate":  # C(u+v, k) >= 2^k, past the cap from k = 64 on
        k, letters = min(p), sum(p)
        words = comb(letters, k) if k < 64 else 2 ** 64
        # A word is built and printed whole, about 70 bytes a letter at once
        # (10^7 letters held 713 MB), so one word stays near 10^6 letters.
        return words * (ENTRY_FLOOR_BITS + 64 * letters) + ENTRY_FLOOR_BITS * letters
    n = getattr(problem.L0, "n", 1)
    count, products = CELLS[method](p, n) if method in CELLS else ROUTES[method][2](p, n)
    width = extra = 0
    exact = getattr(problem.L0, "exact", True)
    if exact and _kind(problem.L0) is FreeElement:
        c0, c1 = (len(x.terms) for x in (problem.L0, problem.L1))
        if method not in CELLS:  # printing copies Y_p's terms, and so does closed's one sum
            last, total, letters = term_bounds(problem, p)
            extra = ((c0 + c1) * total + (1 + (method == "closed")) * last) * 64 * (letters + 1)
        elif count * products * ENTRY_FLOOR_BITS <= WORK_CAP:  # else c0^u·c1^v may be huge
            (u, v), c0, c1, words = p, max(c0, 1), max(c1, 1), comb(sum(p), p[0])
            width = c0 ** u * c1 ** v * 64 * (term_bounds(problem, u + v + 1)[2] + 1)
            extra = 0 if method == "bench" else words * (words + 1) // 2 * width
            width *= words * max(c0, c1) if method == "bench" else 1
    elif exact and method != "scalar-roots":  # a ring cell P(u, v) is no wider than Y_2(u+v)
        width = entry_width(problem, 2 * sum(p) if method in CELLS else p)
    elif exact:  # y_p = y1·sum_k m1^k·m2^(p-1-k) over the roots m_i = a_i/b_i has at
        # most p·|y1|·h^(p-1) over (b1·b2)^(p-1), h = max(|a1|·b2, |a2|·b1, b1·b2)
        c0, c1, y1 = Fraction(problem.L0), Fraction(problem.L1), Fraction(problem.y1bar)
        if (root := rational_sqrt(c1 * c1 + 4 * c0)) is not None:
            (a1, b1), (a2, b2) = (((c1 + s * root) / 2).as_integer_ratio() for s in (1, -1))
            h = max(abs(a1) * b2, abs(a2) * b1, b1 * b2)
            width = (max(y1.numerator.bit_length(), y1.denominator.bit_length()) + p.bit_length()
                     + ceil(max(p - 1, 0) * Fraction(log2(h))))
    if method not in CELLS:  # printing; floats, doubles and free routes leave width at 0
        extra += 2 * n * width * width // PRINT_DIVISOR
    return count * products * max(ENTRY_FLOOR_BITS, width) + extra


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
