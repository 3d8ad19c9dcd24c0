"""Solvers for Y_{p+2} = L0 Y_p + L1 Y_{p+1} with Y_0 = 0, Y_1 given.

Three routes to the same answer:

* :func:`solve_iterative` -- direct iteration of the recurrence, the
  ground-truth oracle for everything else;
* :func:`solve_closed` -- the closed form

      Y_p = sum_{t=0}^{tbar(p)} {L0^(t) L1^(p-1-2t)} Y_1,

  where ``{...}`` is the permutation sum of ``permsum`` and
  ``tbar(p) = floor((p-1)/2)``; valid for any noncommutative pair of
  coefficients;
* the scalar reduction for commuting rational coefficients:
  :func:`solve_scalar_roots` (characteristic roots m^2 - c1 m - c0 = 0)
  and :func:`solve_scalar_sum` (exact binomial sum), plus the two
  binomial identities connecting them, exposed as
  :func:`verify_identity_21` and :func:`verify_identity_23`.

Exact backends give exact equality between all routes; the
characteristic-root route falls back to complex doubles when the
discriminant has no rational square root.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, isqrt

from .algebra import apply, check_apply_compat, check_same_backend, vector_zero
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
        self.value = value


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


def solve_iterative(problem, p):
    """Y_p by direct iteration from Y_0 = 0, Y_1 = y1bar (the oracle)."""
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    previous = problem.zero_vector()
    if p == 0:
        return previous
    current = problem.y1bar
    for _ in range(p - 1):
        previous, current = current, (
            apply(problem.L0, previous) + apply(problem.L1, current))
    return current


def solve_closed(problem, p):
    """Y_p by the permutation-sum closed form.

    The summands {L0^(t) L1^(p-1-2t)}·Y_1 for all t come from one
    permutation-sum table run on vectors from Z(0, 0) = Y_1, so a single
    solve costs O(p^2) module actions (matrix-vector products on matrix
    backends) and holds one rolling row of the table.  p = 0 yields the
    empty sum, i.e. the zero vector.
    """
    limit = t_bar(p)
    if limit < 0:
        return problem.zero_vector()
    keys = [(t, p - 1 - 2 * t) for t in range(limit + 1)]
    return sum(perm_sum_batch(problem.L0, problem.L1, keys, vector=problem.y1bar),
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
    """Roots of m^2 - c1 m - c0 = 0 with discriminant delta = c1^2 + 4 c0.

    ``m1`` carries the + branch.  When delta is the square of a rational
    both roots are exact ``Fraction``s and ``exact`` is True; otherwise
    they are complex doubles.
    """

    c0: Fraction
    c1: Fraction
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
        return ScalarRoots(c0, c1, delta, (c1 + root) / 2, (c1 - root) / 2, exact=True)
    s = cmath.sqrt(complex(delta))
    return ScalarRoots(c0, c1, delta,
                       (complex(c1) + s) / 2, (complex(c1) - s) / 2, exact=False)


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
    """
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    c0 = Fraction(c0)
    c1 = Fraction(c1)
    total = Fraction(0)
    for t in range(t_bar(p) + 1):
        total += binom(p - t - 1, t) * c0 ** t * c1 ** (p - 1 - 2 * t)
    return total * Fraction(y1bar)


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
    if root is None or root == 0:
        raise NotARationalSquareError(square)
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
