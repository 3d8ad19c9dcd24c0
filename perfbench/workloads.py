"""The four seeded workloads of the benchmark.

Each workload has a ``setup`` that turns a seed into a list of ops, a
``run`` that performs one op through the package's public functions,
and a ``check`` that compares the op's result with a reference computed
during set-up.  Set-up writes every generated problem as problem-file
text and parses it with ``problems.loads_problem``, so the package only
ever sees those inputs; the references are computed from the generated
values, not from the parsed ones.

The benchmark has its own input generator and its own exact reference,
:func:`exact_solution`, which shares no code with the package.  Where
the issue of a workload names a package route as the reference
(``solve_iterative``, ``solve_scalar_roots``, ``perm_sum_dp``), set-up
computes that route too and the op fails if the two references differ.

Every workload fixes the multiset of op sizes (dimensions, p, word
lengths) and lets the seed choose the entries and the order, so that
runs with different seeds do comparable work.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from noncomm_recur import permsum, problems, solver, verify

# Entry distribution of the generated matrices: the one the test suite's
# random problems use (numerators in [-4, 4], denominators mostly 1).
MAX_ABS = 4
DENOMINATORS = (1, 1, 1, 2)

# Steps over which the entry growth of a large-p problem is estimated.
GROWTH_PROBE_P = 150
# Seed of the large-p base problems, the same for every run.
LARGE_P_BASE_SEED = 2007


@dataclass
class Op:
    """One operation: the call to make and the value it must return."""

    label: str
    args: tuple
    expected: object = None
    error: str | None = None  # set when two set-up references disagree


@dataclass
class Setup:
    ops: list
    problem_texts: int
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Inputs and the independent reference
# ---------------------------------------------------------------------------

def random_fraction(rng):
    return Fraction(rng.randint(-MAX_ABS, MAX_ABS), rng.choice(DENOMINATORS))


def random_matrix(rng, n):
    return [[random_fraction(rng) for _ in range(n)] for _ in range(n)]


def random_vector(rng, n):
    return [random_fraction(rng) for _ in range(n)]


def matrix_problem_text(L0, L1, y1, label):
    """Problem-file text of a rational-matrix problem."""
    return json.dumps({
        "backend": "rational-matrix",
        "label": label,
        "n": len(y1),
        "L0": [[str(x) for x in row] for row in L0],
        "L1": [[str(x) for x in row] for row in L1],
        "Y1": [str(x) for x in y1],
    })


def scalar_problem_text(c0, c1, y1, label):
    return json.dumps({"backend": "scalar", "label": label,
                       "L0": str(c0), "L1": str(c1), "Y1": str(y1)})


def exact_solution(L0, L1, y1, p):
    """Y_p of Y_{k+2} = L0 Y_k + L1 Y_{k+1}, Y_0 = 0, Y_1 = y1, exactly.

    ``L0``, ``L1`` are square lists of ``Fraction`` rows and ``y1`` a
    list.  With d the common denominator of L0 and L1 and e that of y1,
    Z_k = d^k e Y_k is an integer vector with
    Z_{k+2} = d A0 Z_k + A1 Z_{k+1}, where A0 = d L0 and A1 = d L1, so
    the loop runs on plain integers and reduces once at the end.
    """
    n = len(y1)
    if p == 0:
        return [Fraction(0)] * n
    d = math.lcm(*(x.denominator for M in (L0, L1) for row in M for x in row))
    e = math.lcm(*(x.denominator for x in y1))
    dA0 = [[int(x * d) * d for x in row] for row in L0]
    A1 = [[int(x * d) for x in row] for row in L1]
    previous = [0] * n
    current = [int(x * e) * d for x in y1]
    for _ in range(p - 1):
        previous, current = current, [
            sum(a * z for a, z in zip(r0, previous)) + sum(b * z for b, z in zip(r1, current))
            for r0, r1 in zip(dA0, A1)]
    denominator = d ** p * e
    return [Fraction(z, denominator) for z in current]


def entry_bits(values):
    """Largest numerator or denominator bit length among Fractions."""
    return max(max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values)


def interleave(groups, rng):
    """Shuffle each group, then merge so every group is spread evenly.

    Any stretch of the merged list then holds the groups in about their
    overall proportions, so a run that stops part-way through a cycle
    still does a representative mix.
    """
    keyed = []
    for g, items in enumerate(groups):
        items = list(items)
        rng.shuffle(items)
        keyed.extend(((k + 0.5) / len(items), g, item) for k, item in enumerate(items))
    keyed.sort(key=lambda entry: entry[:2])
    return [item for _, _, item in keyed]


def spread(lo, hi, count):
    """``count`` integers evenly spaced over [lo, hi]."""
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * k // (count - 1) for k in range(count)]


# ---------------------------------------------------------------------------
# closed-matrix: solver.solve_closed on one rational problem per op
# ---------------------------------------------------------------------------

def closed_matrix_setup(seed, params):
    rng = Random(seed)
    groups = []
    for n, count, p_lo, p_hi in params["groups"]:
        groups.append([(n, p) for p in spread(p_lo, p_hi, count)])
    ops = []
    for index, (n, p) in enumerate(interleave(groups, rng)):
        L0, L1, y1 = random_matrix(rng, n), random_matrix(rng, n), random_vector(rng, n)
        label = f"closed-matrix #{index} n={n} p={p}"
        problem = problems.loads_problem(matrix_problem_text(L0, L1, y1, label)).problem
        expected = exact_solution(L0, L1, y1, p)
        anchor = list(solver.solve_iterative(problem, p).entries)
        error = None if anchor == expected else "solve_iterative disagrees with the exact recurrence"
        ops.append(Op(label, (problem, p), expected, error))
    return Setup(ops, len(ops), {"groups [n, count, p_lo, p_hi]": params["groups"]})


def closed_matrix_run(op):
    problem, p = op.args
    return solver.solve_closed(problem, p)


def vector_check(op, result):
    got = list(result.entries)
    if got != op.expected:
        wrong = [i for i, (a, b) in enumerate(zip(got, op.expected)) if a != b]
        return f"entries {wrong or 'count'} differ from the reference"
    return None


# ---------------------------------------------------------------------------
# oracle-sweep: verify.check_matrix_oracle on one seeded problem per op
# ---------------------------------------------------------------------------

def oracle_sweep_setup(seed, params):
    rng = Random(seed)
    n = params["n"]
    groups = [[max_p] * params["per_max_p"] for max_p in params["max_p"]]
    ops = []
    for index, max_p in enumerate(interleave(groups, rng)):
        op_seed = rng.randrange(2 ** 31)
        # The suite draws its problem from Random(op_seed); draw the same
        # problem here and certify the suite's oracle, solve_iterative, on
        # it for every p the suite checks.  passed=True then means the
        # closed form matched a certified oracle.
        problem = verify.random_matrix_problem(Random(op_seed), n)
        L0 = [list(row) for row in problem.L0.rows]
        L1 = [list(row) for row in problem.L1.rows]
        y1 = list(problem.y1bar.entries)
        label = f"oracle-sweep #{index} seed={op_seed} max_p={max_p}"
        parsed = problems.loads_problem(matrix_problem_text(L0, L1, y1, label)).problem
        error = None
        for p in range(max_p + 1):
            if list(solver.solve_iterative(parsed, p).entries) != exact_solution(L0, L1, y1, p):
                error = f"solve_iterative disagrees with the exact recurrence at p={p}"
                break
        ops.append(Op(label, (op_seed, max_p, n), True, error))
    return Setup(ops, len(ops), {"n": n, "max_p": params["max_p"],
                                 "ops per max_p": params["per_max_p"]})


def oracle_sweep_run(op):
    op_seed, max_p, n = op.args
    return verify.check_matrix_oracle(seed=op_seed, problems=1, max_p=max_p, n=n)


def oracle_sweep_check(op, result):
    return None if result.passed else f"suite failed: {result.detail}"


# ---------------------------------------------------------------------------
# free-permsum: permsum.perm_sum_naive on the free generators
# ---------------------------------------------------------------------------

FREE_PROBLEM_TEXT = json.dumps({"backend": "free", "label": "free generators"})


def free_permsum_setup(seed, params):
    rng = Random(seed)
    generators = problems.loads_problem(FREE_PROBLEM_TEXT).problem
    A, B = generators.L0, generators.L1
    pairs = []
    for small, large in params["pairs"]:
        for _ in range(params["per_pair"]):
            pairs.append((small, large) if rng.random() < 0.5 else (large, small))
    rng.shuffle(pairs)
    ops = []
    for index, (u, v) in enumerate(pairs):
        # Words with u letters A and v letters B, each exactly once: the
        # permutation sum is determined by this set alone.
        expected = {"".join("A" if i in zeros else "B" for i in range(u + v)): 1
                    for zeros in itertools.combinations(range(u + v), u)}
        dp = permsum.perm_sum_dp(A, B, u, v).to_coeff_map()
        error = None if dp == expected else "perm_sum_dp disagrees with the word set"
        ops.append(Op(f"free-permsum #{index} (u,v)=({u},{v})", (A, B, u, v), expected, error))
    return Setup(ops, 1, {"pairs {min(u,v), max(u,v)}": params["pairs"],
                          "ops per pair": params["per_pair"]})


def free_permsum_run(op):
    A, B, u, v = op.args
    return permsum.perm_sum_naive(A, B, u, v)


def free_permsum_check(op, result):
    got = result.to_coeff_map()
    if got != op.expected:
        u, v = op.args[2:]
        return (f"{len(got)} monomials, expected the C({u + v},{u}) = "
                f"{len(op.expected)} words each with coefficient 1")
    return None


# ---------------------------------------------------------------------------
# large-p: solve_iterative and solve_scalar_sum where entries are large
# ---------------------------------------------------------------------------

def large_p_setup(seed, params):
    # Entry growth, and with it the cost of an op, varies a lot between
    # random problems.  So the base problems come from a fixed seed, and
    # the run's seed applies a signed permutation to each (see
    # signed_permutation) and chooses the order: every seed then meets
    # the same entry sizes and does the same amount of work.
    base_rng = Random(LARGE_P_BASE_SEED)
    rng = Random(seed)
    lo, hi = params["growth_bits_per_step"]
    groups = []
    for kind, count, p_lo, p_hi in params["groups"]:
        group = []
        for p in spread(p_lo, p_hi, count):
            group.append((kind, p, _growth_in_band(base_rng, kind, lo, hi)))
        groups.append(group)
    ops = []
    for index, (kind, p, base) in enumerate(interleave(groups, rng)):
        L0, L1, y1 = signed_permutation(rng, *base)
        label = f"large-p #{index} {kind} p={p}"
        expected = exact_solution(L0, L1, y1, p)
        if kind == "scalar":
            text = scalar_problem_text(L0[0][0], L1[0][0], y1[0], label)
            problem = problems.loads_problem(text).problem
            roots = solver.solve_scalar_roots(problem.L0, problem.L1, problem.y1bar, p)
            error = None if roots == expected[0] else \
                "solve_scalar_roots disagrees with the exact recurrence"
            ops.append(Op(label, ("scalar", problem, p), expected[0], error))
        else:
            problem = problems.loads_problem(matrix_problem_text(L0, L1, y1, label)).problem
            ops.append(Op(label, ("matrix", problem, p), expected))
    return Setup(ops, len(ops), {"groups [kind, count, p_lo, p_hi]": params["groups"],
                                 "growth bits per step": params["growth_bits_per_step"],
                                 "base seed": LARGE_P_BASE_SEED})


def _growth_in_band(rng, kind, lo, hi):
    """Draw (L0, L1, y1) until the entry growth per step lies in [lo, hi]."""
    while True:
        if kind == "scalar":
            c0, c1, y1 = _square_discriminant_pair(rng)
            L0, L1, y = [[c0]], [[c1]], [y1]
        else:
            n = int(kind.split("x")[0])
            L0, L1, y = random_matrix(rng, n), random_matrix(rng, n), random_vector(rng, n)
        probe = exact_solution(L0, L1, y, GROWTH_PROBE_P)
        if any(probe) and lo <= entry_bits(probe) / GROWTH_PROBE_P <= hi:
            return L0, L1, y


def signed_permutation(rng, L0, L1, y1):
    """Conjugate L0, L1 by a random signed permutation D P and map y1 to D P y1.

    Y_p maps to D P Y_p, so every entry the solver meets keeps its size
    and only moves and changes sign.  For a scalar pair the same holds
    for c1 -> -c1, under which y_p -> (-1)^(p-1) y_p.
    """
    n = len(y1)
    if n == 1:
        flip, sign = rng.choice((1, -1)), rng.choice((1, -1))
        return L0, [[flip * L1[0][0]]], [sign * y1[0]]
    order = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]

    def conjugate(M):
        return [[signs[i] * signs[j] * M[order[i]][order[j]] for j in range(n)]
                for i in range(n)]

    return conjugate(L0), conjugate(L1), [signs[i] * y1[order[i]] for i in range(n)]


def _square_discriminant_pair(rng):
    """(c0, c1, y1) whose characteristic roots are distinct nonzero rationals."""
    while True:
        m1 = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        m2 = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
        if m1 and m2 and m1 != m2:
            return -m1 * m2, m1 + m2, Fraction(rng.randint(1, 5), rng.choice((1, 2)))


def large_p_run(op):
    kind, problem, p = op.args
    if kind == "scalar":
        return solver.solve_scalar_sum(problem.L0, problem.L1, problem.y1bar, p)
    return solver.solve_iterative(problem, p)


def large_p_check(op, result):
    if op.args[0] == "scalar":
        return None if result == op.expected else "differs from the reference"
    return vector_check(op, result)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run: object
    check: object
    params: dict  # size name -> parameters


WORKLOADS = {
    "closed-matrix": Workload(
        "closed-matrix", closed_matrix_setup, closed_matrix_run, vector_check, {
            "full": {"groups": [[3, 30, 20, 40], [8, 6, 20, 22]]},
            "tiny": {"groups": [[3, 5, 4, 8], [8, 1, 3, 3]]},
        }),
    "oracle-sweep": Workload(
        "oracle-sweep", oracle_sweep_setup, oracle_sweep_run, oracle_sweep_check, {
            "full": {"n": 3, "max_p": [16, 17, 18, 19, 20], "per_max_p": 8},
            "tiny": {"n": 3, "max_p": [3, 4], "per_max_p": 2},
        }),
    "free-permsum": Workload(
        "free-permsum", free_permsum_setup, free_permsum_run, free_permsum_check, {
            "full": {"pairs": [[5, 5], [4, 7], [5, 6], [4, 8], [6, 6]], "per_pair": 2},
            "tiny": {"pairs": [[2, 3], [3, 3]], "per_pair": 2},
        }),
    "large-p": Workload(
        "large-p", large_p_setup, large_p_run, large_p_check, {
            "full": {"groups": [["scalar", 8, 1000, 2000], ["2x2", 8, 1000, 2000],
                                ["3x3", 8, 1000, 1500]],
                     "growth_bits_per_step": [2.0, 2.6]},
            "tiny": {"groups": [["scalar", 2, 20, 40], ["2x2", 2, 20, 40],
                                ["3x3", 2, 20, 30]],
                     "growth_bits_per_step": [0.5, 6.0]},
        }),
}
