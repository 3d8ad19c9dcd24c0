"""Named verification suites: closed form vs oracle, scalar coherence,
identity checks.

Each suite yields its counterexamples and returns a one-line summary of
what was checked; :func:`_suite` makes it return a :class:`SuiteResult`
whose ``detail`` holds either that summary or, on failure, the first
counterexample in full.  The CLI's ``verify`` subcommand drives
:func:`run_all`; the acceptance tests call the suites directly with
their own parameters.

All randomized suites draw from an explicit ``random.Random(seed)`` so
failures reproduce.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .algebra import ColumnVector, FreeElement, FreeVector, Matrix
from .permsum import (
    MultCounter,
    binom,
    count_terms,
    perm_sum_dp,
    perm_sum_naive,
    stifel_check,
)
from .solver import (
    CauchyProblem,
    solve_closed,
    solve_iterative_upto,
    solve_scalar_roots,
    solve_scalar_sum,
    t_bar,
    verify_identity_21,
    verify_identity_23,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


# ---------------------------------------------------------------------------
# Random generators (shared with the test suite)
# ---------------------------------------------------------------------------

def random_fraction(rng, max_abs=4, denominators=(1, 1, 1, 2)):
    """Small random rational; denominators mostly 1 to keep products light."""
    return Fraction(rng.randint(-max_abs, max_abs), rng.choice(denominators))


def random_matrix(rng, n):
    return Matrix([[random_fraction(rng) for _ in range(n)] for _ in range(n)])


def random_vector(rng, n):
    return ColumnVector([random_fraction(rng) for _ in range(n)])


def random_matrix_problem(rng, n=3):
    return CauchyProblem(random_matrix(rng, n), random_matrix(rng, n),
                         random_vector(rng, n))


def free_problem():
    """Formal generators A, B with the formal initial vector."""
    A, B = FreeElement.generators()
    return CauchyProblem(A, B, FreeVector.generator())


def random_square_delta_pair(rng):
    """(c0, c1) with c0 != 0 and discriminant a nonzero rational square.

    Built from two distinct nonzero rational roots, so the discriminant
    is their squared difference.
    """
    while True:
        m1 = random_fraction(rng, max_abs=5, denominators=(1, 1, 2, 3))
        m2 = random_fraction(rng, max_abs=5, denominators=(1, 1, 2, 3))
        if m1 != 0 and m2 != 0 and m1 != m2:
            return -m1 * m2, m1 + m2


def random_negative_delta_pair(rng):
    """(c0, c1) with discriminant strictly negative.

    Avoids c1 = 0 and c0 = -c1^2, the two rational-angle cases whose
    exact solutions hit zero and would make a purely relative float
    comparison meaningless.
    """
    while True:
        c1 = random_fraction(rng, max_abs=3, denominators=(1, 1, 2))
        bump = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
        c0 = -(c1 * c1 + bump) / 4
        if c1 != 0 and c0 != -c1 * c1:
            return c0, c1


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def _suite(name):
    """A suite from a generator that yields counterexample strings and
    returns its pass summary: the first counterexample fails the suite."""
    def make(counterexamples):
        @functools.wraps(counterexamples)
        def suite(*args, **kwargs):
            found = counterexamples(*args, **kwargs)
            try:
                return SuiteResult(name, False, next(found))
            except StopIteration as done:
                return SuiteResult(name, True, done.value)
        return suite
    return make


def _mismatches(problem, max_p):
    """(p, closed, iterative) for each p <= max_p where closed form and oracle differ."""
    for p, iterative in enumerate(solve_iterative_upto(problem, max_p)):
        closed = solve_closed(problem, p)
        if closed != iterative:
            yield p, closed, iterative


@_suite("free-theorem1")
def check_free_theorem1(max_p=16):
    """Closed form equals the iteration oracle, monomial for monomial."""
    for p, closed, iterative in _mismatches(free_problem(), max_p):
        yield f"p={p}: closed={closed} but iterative={iterative}"
    return f"closed = iterative on the free backend for p <= {max_p}"


@_suite("matrix-oracle")
def check_matrix_oracle(seed=42, problems=20, max_p=16, n=3):
    """Seeded random rational matrix problems, exact closed/iterative match."""
    rng = Random(seed)
    for index in range(problems):
        problem = random_matrix_problem(rng, n)
        for p, closed, iterative in _mismatches(problem, max_p):
            yield (f"problem #{index} (seed {seed}), p={p}: "
                   f"L0={problem.L0} L1={problem.L1} Y1={problem.y1bar}: "
                   f"closed={closed} but iterative={iterative}")
    return f"{problems} random {n}x{n} rational problems, p <= {max_p}, seed {seed}"


@_suite("scalar-coherence")
def check_scalar_coherence(seed=42, pairs=100, max_p=30, complex_pairs=20,
                           rel_tol=1e-9):
    """Root formula = binomial sum = 1x1 iteration, exactly; complex branch
    agrees with the exact sum within ``rel_tol`` relative."""
    rng = Random(seed)
    for index in range(pairs):
        c0, c1 = random_square_delta_pair(rng)
        y1 = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
        # iterate on the 1x1 matrix backend, the smallest genuine module
        problem = CauchyProblem(Matrix([[c0]]), Matrix([[c1]]), ColumnVector([y1]))
        for p, iterative in enumerate(solve_iterative_upto(problem, max_p)):
            by_roots = solve_scalar_roots(c0, c1, y1, p)
            by_sum = solve_scalar_sum(c0, c1, y1, p)
            by_iteration = iterative.entries[0]
            if not (by_roots == by_sum == by_iteration):
                yield (f"pair #{index} (seed {seed}) c0={c0} c1={c1} y1={y1}, p={p}: "
                       f"roots={by_roots} sum={by_sum} iterative={by_iteration}")
    for index in range(complex_pairs):
        c0, c1 = random_negative_delta_pair(rng)
        y1 = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
        for p in range(max_p + 1):
            approx = solve_scalar_roots(c0, c1, y1, p)
            exact = solve_scalar_sum(c0, c1, y1, p)
            if not abs(approx - float(exact)) <= rel_tol * (abs(float(exact)) if exact else 1):
                yield (f"complex pair #{index} (seed {seed}) c0={c0} c1={c1} y1={y1}, "
                       f"p={p}: float={approx!r} exact={exact} (= {float(exact)!r})")
    return (f"{pairs} square-discriminant pairs and {complex_pairs} negative-discriminant "
            f"pairs, p <= {max_p}, seed {seed}")


@_suite("degenerate-delta0")
def check_degenerate_roots(max_p=30):
    """Repeated-root branch: p * m1^(p-1) * y1, matching iteration exactly."""
    values = [Fraction(v) for v in (1, -1, 2, -2, 3, -3)] + [Fraction(4, 3)]
    for c1 in values:
        c0 = -c1 * c1 / 4
        m1 = c1 / 2
        for y1 in (Fraction(1), Fraction(3, 2)):
            problem = CauchyProblem(c0, c1, y1)
            for p, by_iteration in enumerate(solve_iterative_upto(problem, max_p)):
                by_roots = solve_scalar_roots(c0, c1, y1, p)
                expected = p * m1 ** (p - 1) * y1
                if not (by_roots == expected == by_iteration):
                    yield (f"c1={c1} c0={c0} y1={y1}, p={p}: roots={by_roots} "
                           f"p*m1^(p-1)*y1={expected} iterative={by_iteration}")
    return f"c1 in {{+-1, +-2, +-3, 4/3}}, p <= {max_p}"


@_suite("identities")
def check_identities(stifel_max_n=40, symmetry_max_p=40, id21_max_n=20,
                     id23_max_n=30):
    """Binomial identity suites: Pascal step, index symmetry, the two
    closed-form identities."""
    for n in range(stifel_max_n + 1):
        for k in range(-1, n + 1):
            if not stifel_check(n, k):
                yield f"Pascal step fails at n={n}, k={k}"
    for p in range(symmetry_max_p + 1):
        for t in range(t_bar(p) + 1):
            if binom(p - t - 1, t) != binom(p - t - 1, p - 1 - 2 * t):
                yield (f"index symmetry fails at p={p}, t={t}: "
                       f"C({p - t - 1},{t}) != C({p - t - 1},{p - 1 - 2 * t})")
    for z in (0, 2, 6, 12, 20):
        for n in range(id21_max_n + 1):
            if not verify_identity_21(Fraction(z), n):
                yield f"square-root identity fails at z={z}, n={n}"
    for n in range(id23_max_n + 1):
        if not verify_identity_23(n):
            yield f"repeated-root identity fails at n={n}"
    return (f"Pascal n <= {stifel_max_n}; symmetry p <= {symmetry_max_p}; "
            f"sqrt identity z in {{0,2,6,12,20}}, n <= {id21_max_n}; "
            f"alternating identity n <= {id23_max_n}")


@_suite("permsum-structure")
def check_permsum_structure(max_total=12):
    """On the free backend the DP sum has exactly C(u+v, u) monomials,
    all with coefficient 1, and equals the naive enumeration."""
    A, B = FreeElement.generators()
    for total in range(max_total + 1):
        for u in range(total + 1):
            v = total - u
            dp = perm_sum_dp(A, B, u, v)
            expected = count_terms(u, v)
            if len(dp.terms) != expected:
                yield (f"(u,v)=({u},{v}): {len(dp.terms)} monomials, "
                       f"expected C({total},{u}) = {expected}")
            if any(c != 1 for c in dp.terms.values()):
                yield f"(u,v)=({u},{v}): non-unit coefficient in {dp}"
            if dp != perm_sum_naive(A, B, u, v):
                yield f"(u,v)=({u},{v}): dp={dp} differs from naive enumeration"
    return f"all (u,v) with u+v <= {max_total} on the free backend"


@_suite("mult-counts")
def check_mult_counts(u=8, v=8):
    """Instrumentation contract: naive costs one evaluation per word,
    DP stays within 2(u+1)(v+1) ring multiplications."""
    c0, c1 = Fraction(2), Fraction(3)
    words = count_terms(u, v)
    naive_counter = MultCounter()
    perm_sum_naive(c0, c1, u, v, counter=naive_counter)
    expected_naive = words * max(u + v - 1, 0)
    if naive_counter.count != expected_naive:
        yield (f"naive at ({u},{v}): {naive_counter.count} multiplications, "
               f"expected {words} words x {max(u + v - 1, 0)} = {expected_naive}")
    dp_counter = MultCounter()
    perm_sum_dp(c0, c1, u, v, counter=dp_counter)
    bound = 2 * (u + 1) * (v + 1)
    if dp_counter.count > bound:
        yield f"dp at ({u},{v}): {dp_counter.count} multiplications exceeds the bound {bound}"
    return (f"naive = {words} words ({naive_counter.count} mults), "
            f"dp = {dp_counter.count} mults <= {bound} at ({u},{v})")


def run_all():
    """Every suite at its default sizes, in a stable order."""
    return [
        check_free_theorem1(),
        check_matrix_oracle(),
        check_scalar_coherence(),
        check_degenerate_roots(),
        check_identities(),
        check_permsum_structure(),
        check_mult_counts(),
    ]
