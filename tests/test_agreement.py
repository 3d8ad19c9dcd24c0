"""Every route against iteration and every table against the naive sum, on
every backend.  A route, table check or backend is one list entry below."""
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncomm_recur.algebra import (ColumnVector, FreeElement, FreeVector, Matrix, apply,
                                   word_to_str)
from noncomm_recur.permsum import perm_sum_batch, perm_sum_naive
from noncomm_recur.problems import load_problem, loads_problem
from noncomm_recur import solver
from noncomm_recur.solver import CauchyProblem, rational_sqrt, solve_iterative, solve_iterative_upto
from noncomm_recur.verify import free_problem, random_matrix_problem

A, B = FreeElement.generators()
PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


@st.composite
def matrix_problems(draw, entries, max_n):
    n = draw(st.integers(1, max_n))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    return CauchyProblem(Matrix(draw(square)), Matrix(draw(square)),
                         ColumnVector(draw(st.lists(entries, min_size=n, max_size=n))))


scalars = st.integers(-6, 6) | st.fractions(min_value=-6, max_value=6, max_denominator=3)
free_sums = st.dictionaries(st.lists(st.integers(0, 1), max_size=2).map(tuple),
                            st.integers(-3, 3).filter(bool), max_size=2)

# One entry a backend: its problems, and the largest p drawn for them.
# Entries stay small to keep the examples fast; float entries are
# quarters, exact in binary.
BACKENDS = [
    (matrix_problems(st.fractions(min_value=-4, max_value=4, max_denominator=2), max_n=4), 30),
    (matrix_problems(st.integers(-8, 8).map(lambda k: k / 4), max_n=3), 20),
    (st.builds(CauchyProblem, scalars, scalars, scalars), 40),
    (st.builds(CauchyProblem, free_sums.map(FreeElement), free_sums.map(FreeElement),
               free_sums.map(FreeVector)), 9),
]


def agree(got, want):
    """Exact equality, or on floats closeness within 1e-9 of the largest entry."""
    if isinstance(want, (Matrix, ColumnVector)) and not want.exact:
        return got.isclose(want, abs_tol=1e-9 * max(1.0, *map(abs, want.entries)))
    return got == want


def pinned(*cases):
    """``@example(case)`` for each case, so that a seeded batch pins as a list."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


def seeded_problems(seed, sizes):
    """``random_matrix_problem`` of each size, drawn in turn from one ``Random(seed)``."""
    rng = Random(seed)
    return [random_matrix_problem(rng, n) for n in sizes]


def is_scalar(problem):
    return isinstance(problem.L0, (int, Fraction))


def has_rational_roots(problem):
    c0, c1 = problem.L0, problem.L1
    return is_scalar(problem) and c0 != 0 and rational_sqrt(c1 * c1 + 4 * c0) is not None


# Test-only limits on the routes, by name: iteration is the oracle; the
# closed form's table has O(p^2) cells, so it sits out the large-p pins of
# the linear routes, and so does the one-pass iteration, which reduces every
# Y_k on the way; the roots are compared exactly, so only where they are
# rational.
LIMITS = {
    "iterative": lambda problem, p: False,
    "closed": lambda problem, p: p <= 40,
    "iterative-upto": lambda problem, p: p <= 40,
    "scalar-roots": lambda problem, p: has_rational_roots(problem),
}

# One entry a route: its name, whether it needs the scalar backend, and its
# Y_p; every route of ``solver.ROUTES``, and the one-pass iteration.
ROUTES = [
    *((name, scalar, solve) for name, (solve, scalar, _) in solver.ROUTES.items()),
    ("iterative-upto", False, lambda problem, p: solve_iterative_upto(problem, p)[p]),
]


def applies(name, scalar, problem, p):
    return (is_scalar(problem) or not scalar) and LIMITS.get(name, lambda *_: True)(problem, p)


@st.composite
def problems_and_ps(draw):
    problems, max_p = draw(st.sampled_from(BACKENDS))
    return draw(problems), [draw(st.integers(0, max_p))]


@settings(max_examples=100, deadline=None)
@given(problems_and_ps())
@pinned(
    (free_problem(), range(13)),
    *((problem, range(13)) for problem in seeded_problems(21, [3] * 10)),
    # large p: Fibonacci, and the roots 3/2 and -1/3
    (load_problem(PROBLEMS_DIR / "fibonacci.json").problem, [5000, 20000]),
    (CauchyProblem(Fraction(1, 2), Fraction(7, 6), 1), [3000]),
    # a zero discriminant, c0 = -c1^2/4: the roots' p·m^(p-1) branch
    *((CauchyProblem(-c1 * c1 / 4, c1, 1), range(31))
      for c1 in (Fraction(1), Fraction(-2), Fraction(3), Fraction(4, 3))),
    *((load_problem(path).problem, range(21)) for path in sorted(PROBLEMS_DIR.glob("*.json"))
      if "float" not in path.name),
)
def test_every_route_agrees_with_iteration(case):
    problem, ps = case
    for p in ps:
        want = solve_iterative(problem, p)
        for name, scalar, solve in ROUTES:
            if applies(name, scalar, problem, p):
                assert agree(solve(problem, p), want), f"{name} at p = {p}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BACKENDS).flatmap(lambda backend: backend[0]))
@pinned(free_problem(), *seeded_problems(5, [1, 3]), CauchyProblem(1, 1, 1),
        load_problem(PROBLEMS_DIR / "float-2x2.json").problem)
def test_one_pass_is_iteration_at_every_p(problem):
    values = solve_iterative_upto(problem, 12)
    assert len(values) == 13 and len(set(map(type, values))) == 1  # Y_1 too is a Fraction
    for p, value in enumerate(values):  # exact ==: floats bit for bit
        want = solve_iterative(problem, p)
        assert type(value) is type(want) and value == want, p
        if isinstance(want, (Matrix, ColumnVector)):
            assert (value._nums, value._den) == (want._nums, want._den), p
    assert solve_iterative_upto(problem, 0) == [problem.zero_vector()]
    assert solve_iterative_upto(problem, 1) == [problem.zero_vector(), problem.y1bar]


# One entry a check: the table's results for (problem, keys), and what one
# of them must be, given the naive sum P(u, v) of its key.
TABLE_CHECKS = [
    (lambda problem, keys: perm_sum_batch(problem.L0, problem.L1, keys),
     lambda problem, P: P),
    (lambda problem, keys: perm_sum_batch(problem.L0, problem.L1, keys, vector=problem.y1bar),
     lambda problem, P: apply(P, problem.y1bar)),
]

VECTOR_KEYS = [(0, 0), (0, 4), (3, 0), (2, 3), (1, 1), (2, 3)]


@settings(max_examples=30, deadline=None)
@given(st.tuples(st.one_of([problems for problems, _ in BACKENDS]),
                 st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                          min_size=1, max_size=4)))
@pinned(
    (free_problem(), [(u, total - u) for total in range(11) for u in range(total + 1)]),
    (seeded_problems(12, [3])[0], [(4, 5)]),
    (CauchyProblem(A, B, FreeVector({(): 1, (1,): -2})), VECTOR_KEYS),
    (CauchyProblem(A + B, FreeElement({(0,): 1, (1,): -2}), FreeVector({(0, 1): 3})),
     VECTOR_KEYS),
    *((problem, VECTOR_KEYS) for problem in seeded_problems(31, [3, 1])),
)
def test_every_table_equals_the_naive_sum(case):
    problem, keys = case
    naive = [perm_sum_naive(problem.L0, problem.L1, u, v) for u, v in keys]
    for table, expected in TABLE_CHECKS:
        results = table(problem, keys)
        assert len(results) == len(keys)
        for (u, v), got, P in zip(keys, results, naive):
            assert agree(got, expected(problem, P)), (u, v)


# A word sum's keys by the way it was built: a caller's tuples, a caller's
# bytes, the trusted constructor, and the word text of a problem file.
WORD_KEYS = st.dictionaries(st.lists(st.integers(0, 1), max_size=3).map(tuple),
                            st.integers(-3, 3), max_size=3)


def builds(cls, terms):
    as_bytes = {bytes(word): coeff for word, coeff in terms.items()}
    return [cls(terms), cls(as_bytes), cls._new(as_bytes),
            cls.from_coeff_map({word_to_str(word): c for word, c in terms.items()})]


def assert_one_word_sum(values):
    """Every value is keyed by ``bytes`` alone, and all are equal, hashes too:
    a stray tuple key would hold its word twice and compare unequal."""
    for value in values:
        assert {type(word) for word in value.terms} <= {bytes}
    assert all(value == values[0] and hash(value) == hash(values[0]) for value in values)


@settings(max_examples=60, deadline=None)
@given(WORD_KEYS, WORD_KEYS, WORD_KEYS)
@example({(0,): 1}, {(0, 1): 1, (1, 0): -1}, {(): 1})
def test_word_sums_are_bytes_keyed_however_they_are_built(l0, l1, y1):
    forms = [builds(FreeElement, l0), builds(FreeElement, l1), builds(FreeVector, y1)]
    for values in forms:
        assert_one_word_sum(values)
    text = {name: {word_to_str(w): c for w, c in terms.items()}
            for name, terms in (("L0", l0), ("L1", l1), ("Y1", y1))}
    problems = [CauchyProblem(*(values[i] for values in forms)) for i in range(4)]
    problems.append(loads_problem(json.dumps({"backend": "free", **text})).problem)
    for problem in problems:
        assert_one_word_sum([problem.L0, *forms[0]])
        assert_one_word_sum([problem.y1bar, *forms[2]])
    # the table, fused steps by _new, and the naive sum, by the public + and *
    for u, v in ((0, 0), (1, 0), (1, 2), (2, 1)):
        assert_one_word_sum([*(perm_sum_batch(problem.L0, problem.L1, [(u, v)])[0]
                               for problem in problems),
                             perm_sum_naive(problems[0].L0, problems[0].L1, u, v)])
    for p in range(5):
        assert_one_word_sum([*(solve_iterative_upto(problem, 4)[p] for problem in problems),
                             *(solver.solve_closed(problem, p) for problem in problems)])
