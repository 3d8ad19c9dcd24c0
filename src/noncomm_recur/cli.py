"""Command-line front end.

Subcommands:

* ``solve``      -- load a problem file, compute Y_p by the chosen method;
* ``enumerate``  -- list the words of a permutation sum in lexicographic
                    order;
* ``verify``     -- run the verification suites and report pass/fail;
* ``bench``      -- compare naive and DP evaluation with exact
                    multiplication counts and wall times.

Exit codes: 0 success; 1 verification failure; 2 unreadable or malformed
problem file; 3 method/backend mismatch or a cap exceeded (words, table
cells, then monomials: the cell cap also bounds every free-backend solve
and weighs bench cells by matrix size; every other solve meets a cap on
its estimated bit operations); 4 solver error, double overflow
or out of memory; 141 the reader closed stdout.  Commands raise, and
``main`` alone maps each failure to its code and one stderr line.
Results go to stdout.

The enumeration cap (default 30 letters) can be overridden with the
``NONCOMM_RECUR_CAP`` environment variable.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from random import Random

from .algebra import BackendMismatchError, word_to_str
from .permsum import (
    CapExceededError,
    DEFAULT_WORD_CAP,
    MultCounter,
    count_terms,
    enumerate_words,
    perm_sum_dp,
    perm_sum_naive,
)
from .problems import ProblemFileError, load_problem
from .solver import (
    solve_closed,
    solve_iterative,
    solve_scalar_roots,
    solve_scalar_sum,
)
from . import verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_SOLVER = 4
EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for death by SIGPIPE

EMPTY_WORD_TOKEN = "<empty>"

CAP_ENV_VAR = "NONCOMM_RECUR_CAP"

# A free-backend solve, or verify's free suite up to --max-p, is refused
# when Y_p may have more monomials than this: the generators give F_p of
# them, so p = 30 (832,040) runs and p = 31 does not.
FREE_MONOMIAL_CAP = 10 ** 6

# A closed-form solve is refused when its permutation-sum table has more
# cells than this, (p+1)^2 // 4 of them (p = 1999 runs, p = 2000 does not);
# so is every free-backend solve, whose iteration copies about as many
# letters, a cell weighing the longest word of its coefficients; and so is
# a bench grid whose dp tables have more cells in total, an n×n cell
# counting (n/2)^3 times.  These size checks run first, so the monomial
# bounds only ever see small inputs.
CLOSED_TABLE_CAP = 10 ** 6

# A scalar or dense solve up to Y_p is refused when its estimated work has
# more bit operations than this: p steps of n^2 entry products, an entry of
# Y_p having at most bits(Y1) + p·g bits, where g is the longest numerator
# or denominator in L0 and L1 plus log2(2n) bits for the sums.  An entry
# product counts at least ENTRY_FLOOR_BITS, the interpreter's cost per
# product, so a float entry counts exactly that: about 20 µs a step for
# float-2x2.json, as much as a 2x2 product on 4096-bit integers.
SOLVE_WORK_CAP = 5 * 10 ** 9
ENTRY_FLOOR_BITS = 2 ** 12


class _Exit(Exception):
    """``_Exit(code, message)``: ``main`` prints message to stderr and returns code."""


def _nonneg_int(text, least=0):
    if (value := int(text)) < least:
        raise argparse.ArgumentTypeError(
            f"must be {'positive' if least else 'nonnegative'}, got {value}")
    return value


def _positive_int(text):
    return _nonneg_int(text, least=1)


def _env_cap():
    raw = os.environ.get(CAP_ENV_VAR, str(DEFAULT_WORD_CAP))
    try:
        return int(raw)
    except ValueError:
        raise _Exit(EXIT_USAGE, f"invalid {CAP_ENV_VAR}={raw!r}: expected an integer") from None


def _refusal(verb, what, cap, unit, advice=""):
    return _Exit(EXIT_USAGE, f"refusing to {verb}: {what} more than {cap} {unit}{advice}")


def _free_monomial_bound(problem, p):
    """a_p, where a_0 = 0, a_1 = |Y1| and a_{k+2} = |L0|·a_k + |L1|·a_{k+1},
    |x| counting the terms of x: it bounds the monomials of Y_p on the free
    backend, exactly for the generators.  It takes p big-integer steps, so
    callers bound p first."""
    c0, c1 = len(problem.L0.terms), len(problem.L1.terms)
    a, b = 0, len(problem.y1bar.terms)
    for _ in range(p):
        a, b = b, c0 * a + c1 * b
    return a


def _free_table_too_large(problem, u, v):
    """Whether C(u+v, u)·|L0|^u·|L1|^v, with |x| the term count of x taken
    as at least 1, exceeds FREE_MONOMIAL_CAP: it bounds the monomials of
    every cell of bench's table up to (u, v) on the free backend.  Callers
    bound the grid first."""
    c0, c1 = (max(len(x.terms), 1) for x in (problem.L0, problem.L1))
    return math.comb(u + v, u) * c0 ** u * c1 ** v > FREE_MONOMIAL_CAP


def _check_solve_size(verb, problem, p, free):
    """Refuse a solve up to Y_p whose closed-form table is too large, which
    on the free backend bounds iteration too, a cell counting as many
    times as the longest word of L0, L1 and Y1 has letters (at least 1);
    then a free Y_p that may have too many monomials."""
    weight = max([1, *(len(word) for x in (problem.L0, problem.L1, problem.y1bar)
                       for word in x.terms)]) if free else 1
    if (p + 1) ** 2 // 4 * weight > CLOSED_TABLE_CAP:
        counting = f", a cell counting {weight} times" if weight > 1 else ""
        raise _refusal(verb, f"the closed form's table for Y_{p} has", CLOSED_TABLE_CAP, "cells",
                       f"{counting}; on the free backend --method iterative copies as many "
                       "letters" if free else "; use --method iterative")
    if free and _free_monomial_bound(problem, p) > FREE_MONOMIAL_CAP:
        raise _refusal(verb, f"Y_{p} may have", FREE_MONOMIAL_CAP, "monomials",
                       " on the free backend")


def _check_solve_work(problem, p):
    """Refuse a scalar or dense solve up to Y_p whose estimated work, see
    SOLVE_WORK_CAP, is above that cap."""
    n, width = getattr(problem.L0, "n", 1), ENTRY_FLOOR_BITS
    if getattr(problem.L0, "exact", True):
        def bits(*values):
            return max(max(x.numerator.bit_length(), x.denominator.bit_length())
                       for value in values for x in getattr(value, "entries", (value,)))
        growth = bits(problem.L0, problem.L1) + (2 * n - 1).bit_length()
        width = max(width, bits(problem.y1bar) + p * growth)
    if p * n * n * width > SOLVE_WORK_CAP:
        raise _refusal("solve", f"the steps up to Y_{p} take", SOLVE_WORK_CAP,
                       "bit operations", f" (estimated from {n}×{n} products on entries "
                       f"of up to {width} bits)")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args):
    doc = load_problem(args.input)
    if args.method.startswith("scalar") and doc.backend != "scalar":
        raise _Exit(EXIT_USAGE, f"method {args.method} requires the scalar backend, "
                                f"but {args.input} uses {doc.backend}")
    problem, p, free = doc.problem, args.p, doc.backend == "free"
    if free or args.method == "closed":
        _check_solve_size("solve", problem, p, free)
    if not free:
        _check_solve_work(problem, p)
    try:
        if args.method == "closed":
            result = solve_closed(problem, p)
        elif args.method == "iterative":
            result = solve_iterative(problem, p)
        elif args.method == "scalar-roots":
            result = solve_scalar_roots(problem.L0, problem.L1, problem.y1bar, p)
        else:
            result = solve_scalar_sum(problem.L0, problem.L1, problem.y1bar, p)
    except (BackendMismatchError, ValueError, ArithmeticError) as exc:
        raise _Exit(EXIT_SOLVER, f"solver error: {exc}") from exc
    if doc.backend == "float-matrix" and not all(map(math.isfinite, result.entries)):
        raise _Exit(EXIT_SOLVER, f"solver error: Y_{p} exceeds the range of double precision")
    # Print the exact result in full; problem files keep the int/str digit limit.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        print(result)
    finally:
        sys.set_int_max_str_digits(limit)
    return EXIT_OK


def cmd_enumerate(args):
    total = 0
    for word in enumerate_words(args.u, args.v, cap=_env_cap()):
        print(word_to_str(word) if word else EMPTY_WORD_TOKEN)
        total += 1
    print(f"count={total}")
    return EXIT_OK


def cmd_verify(args):
    _check_solve_size("verify", verify.free_problem(), args.max_p, free=True)
    failed = False
    for result in verify.run_all(max_p=args.max_p, seed=args.seed):
        if result.passed:
            print(f"{result.name:<20} pass  {result.detail}".rstrip())
        else:
            print(f"{result.name:<20} FAIL\n  counterexample: {result.detail}")
            failed = True
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _bench_row(strategy, evaluate, L0, L1, u, v, **options):
    counter, start = MultCounter(), time.perf_counter_ns()
    evaluate(L0, L1, u, v, counter=counter, **options)
    elapsed = time.perf_counter_ns() - start
    print(f"{strategy}\t{u}\t{v}\t{counter.count}\t{elapsed}")


def cmd_bench(args):
    cap = _env_cap()
    doc = None if args.input is None else load_problem(args.input)
    n = args.n if doc is None else getattr(doc.problem.L0, "n", 1)
    # Cell (u, v) fills (u+1)(v+1) table cells; summed over the grid, that
    # factors.  An n×n cell costs (n/2)^3 times a 2×2 one, for n >= 2.
    u_sum, v_sum = ((k + 1) * (k + 2) // 2 for k in (args.u, args.v))
    if u_sum * v_sum * max(n, 2) ** 3 > 8 * CLOSED_TABLE_CAP:
        weight = f", a {n}×{n} cell counting ({n}/2)^3 times" if n > 2 else ""
        raise _refusal("bench", f"the dp tables of the grid up to ({args.u},{args.v}) have",
                       CLOSED_TABLE_CAP, "cells", weight)
    if doc is None:
        rng = Random(args.seed)
        L0, L1 = verify.random_matrix(rng, n), verify.random_matrix(rng, n)
    else:
        L0, L1 = doc.problem.L0, doc.problem.L1
        if doc.backend == "free" and _free_table_too_large(doc.problem, args.u, args.v):
            raise _refusal("bench", f"cell ({args.u},{args.v}) may have", FREE_MONOMIAL_CAP,
                           "monomials", " on the free backend")

    print("# strategy\tu\tv\tmults\tns")
    for u in range(args.u + 1):
        for v in range(args.v + 1):
            words = count_terms(u, v)
            if words > args.naive_budget or u + v > cap:
                reason = (f"{words} words exceeds budget {args.naive_budget}"
                          if words > args.naive_budget
                          else f"{u + v} letters exceeds cap {cap}")
                print(f"naive ({u},{v}) skipped: {reason}", file=sys.stderr)
                print(f"naive\t{u}\t{v}\t-\t-")
            else:
                _bench_row("naive", perm_sum_naive, L0, L1, u, v, cap=cap)
            _bench_row("dp", perm_sum_dp, L0, L1, u, v)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="noncomm-recur",
        description="Exact solver for second-order linear recurrences with "
                    "noncommutative constant coefficients.",
        epilog="exit codes: 0 ok, 1 verification failure, 2 unreadable or "
               "malformed problem file, 3 method/backend mismatch or cap exceeded "
               "(words, table cells or monomials), 4 solver error, double "
               "overflow or out of memory, 141 reader closed stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute Y_p from a problem file")
    solve.add_argument("--input", required=True, help="problem file (JSON)")
    solve.add_argument("--p", type=_nonneg_int, required=True, help="target index")
    solve.add_argument("--method", default="closed",
                       choices=("closed", "iterative", "scalar-roots", "scalar-sum"),
                       help="evaluation route (scalar-* need the scalar backend)")
    solve.set_defaults(func=cmd_solve)

    enum = sub.add_parser("enumerate",
                          help="list the words of a permutation sum")
    enum.add_argument("--u", type=_nonneg_int, required=True,
                      help="number of 'A' letters")
    enum.add_argument("--v", type=_nonneg_int, required=True,
                      help="number of 'B' letters")
    enum.set_defaults(func=cmd_enumerate)

    ver = sub.add_parser("verify", help="run the verification suites")
    ver.add_argument("--max-p", type=_nonneg_int, default=16,
                     help="index bound for the equivalence suites (default 16)")
    ver.add_argument("--seed", type=int, default=42,
                     help="seed for the randomized suites (default 42)")
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench",
                           help="compare naive and DP evaluation costs")
    bench.add_argument("--u", type=_nonneg_int, default=8, help="max u (default 8)")
    bench.add_argument("--v", type=_nonneg_int, default=8, help="max v (default 8)")
    bench.add_argument("--input", default=None,
                       help="take L0, L1 from this problem file")
    bench.add_argument("--n", type=_positive_int, default=2,
                       help="dimension of the default random matrices (default 2)")
    bench.add_argument("--seed", type=int, default=42,
                       help="seed for the default random matrices (default 42)")
    bench.add_argument("--naive-budget", type=_nonneg_int, default=1_000_000,
                       help="skip naive cells with more words than this "
                            "(default 1000000)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at shutdown
        return code
    except BrokenPipeError:
        # Send the unflushed rest to devnull so that shutdown prints nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except _Exit as exc:
        code, message = exc.args
    except ProblemFileError as exc:
        code, message = EXIT_PARSE, str(exc)
    except CapExceededError as exc:
        code, message = EXIT_USAGE, str(exc)
    except MemoryError:
        code, message = EXIT_SOLVER, f"{args.command}: out of memory"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
