"""Command-line front end.

Subcommands:

* ``solve``      -- load a problem file, compute Y_p by the chosen method;
* ``enumerate``  -- list the words of a permutation sum in lexicographic
                    order;
* ``verify``     -- run the verification suites and report pass/fail;
* ``bench``      -- compare naive and DP evaluation with exact
                    multiplication counts and wall times.

Exit codes: 0 success; 1 verification failure; 2 problem-file parse
failure; 3 method/backend mismatch, enumeration cap exceeded or a free
solve or verify too large; 4 solver error, running out of memory
included.  Results go to stdout, diagnostics to stderr.

The enumeration cap (default 30 letters) can be overridden with the
``NONCOMM_RECUR_CAP`` environment variable.
"""
from __future__ import annotations

import argparse
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
    InvalidCoefficientError,
    NonRealResultError,
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

EMPTY_WORD_TOKEN = "<empty>"

CAP_ENV_VAR = "NONCOMM_RECUR_CAP"

_SCALAR_METHODS = ("scalar-roots", "scalar-sum")

# A free-backend solve, or verify's free suite up to --max-p, is refused
# when Y_p may have more monomials than this: the generators give F_p of
# them, so p = 30 (832,040) runs and p = 31 does not.
FREE_MONOMIAL_CAP = 10 ** 6


def _nonneg_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _fail(code, message):
    print(message, file=sys.stderr)
    return code


def _env_cap():
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_WORD_CAP, None
    try:
        return int(raw), None
    except ValueError:
        return None, f"invalid {CAP_ENV_VAR}={raw!r}: expected an integer"


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _free_monomial_bound(problem, p):
    """min(a_p, FREE_MONOMIAL_CAP + 1), where a_0 = 0, a_1 = |Y1| and
    a_{k+2} = |L0|·a_k + |L1|·a_{k+1}, |x| counting the terms of x.

    a_p bounds the monomials of Y_p on the free backend, exactly for the
    generators.  Saturating at the cap keeps the pair (a_k, a_{k+1})
    within finitely many states, and it settles into a cycle of length
    one or two within O(log cap) steps; the loop stops at the first
    repeated state and reads a_p off the cycle, so any p answers at once.
    """
    c0, c1 = len(problem.L0.terms), len(problem.L1.terms)
    limit = FREE_MONOMIAL_CAP + 1
    state = (0, min(len(problem.y1bar.terms), limit))
    states, seen = [], {}
    while len(states) < p and state not in seen:
        seen[state] = len(states)
        states.append(state)
        state = (state[1], min(limit, c0 * state[0] + c1 * state[1]))
    if len(states) < p:
        first = seen[state]
        state = states[first + (p - first) % (len(states) - first)]
    return state[0]


def _load(path):
    """(problem file, None) for ``path``, or (None, message for exit 2)."""
    try:
        return load_problem(path), None
    except FileNotFoundError:
        return None, f"cannot read {path}: no such file"
    except ProblemFileError as exc:
        return None, str(exc)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args):
    doc, error = _load(args.input)
    if error:
        return _fail(EXIT_PARSE, error)
    if args.method in _SCALAR_METHODS and doc.backend != "scalar":
        return _fail(EXIT_USAGE,
                     f"method {args.method} requires the scalar backend, "
                     f"but {args.input} uses {doc.backend}")
    problem = doc.problem
    if doc.backend == "free" and _free_monomial_bound(problem, args.p) > FREE_MONOMIAL_CAP:
        return _fail(EXIT_USAGE,
                     f"refusing to solve: Y_{args.p} may have more than "
                     f"{FREE_MONOMIAL_CAP} monomials on the free backend")
    try:
        if args.method == "closed":
            result = solve_closed(problem, args.p)
        elif args.method == "iterative":
            result = solve_iterative(problem, args.p)
        elif args.method == "scalar-roots":
            result = solve_scalar_roots(problem.L0, problem.L1, problem.y1bar, args.p)
        else:
            result = solve_scalar_sum(problem.L0, problem.L1, problem.y1bar, args.p)
    except (InvalidCoefficientError, NonRealResultError, BackendMismatchError,
            ValueError, ArithmeticError) as exc:
        return _fail(EXIT_SOLVER, f"solver error: {exc}")
    except MemoryError:
        return _fail(EXIT_SOLVER, f"solver error: out of memory computing Y_{args.p}")
    print(result)
    return EXIT_OK


def cmd_enumerate(args):
    cap, error = _env_cap()
    if error:
        return _fail(EXIT_USAGE, error)
    try:
        words = enumerate_words(args.u, args.v, cap=cap)
    except CapExceededError as exc:
        return _fail(EXIT_USAGE, str(exc))
    total = 0
    for word in words:
        print(word_to_str(word) if word else EMPTY_WORD_TOKEN)
        total += 1
    print(f"count={total}")
    return EXIT_OK


def cmd_verify(args):
    if _free_monomial_bound(verify.free_problem(), args.max_p) > FREE_MONOMIAL_CAP:
        return _fail(EXIT_USAGE,
                     f"refusing to verify: Y_{args.max_p} may have more than "
                     f"{FREE_MONOMIAL_CAP} monomials on the free backend")
    results = verify.run_all(max_p=args.max_p, seed=args.seed)
    failed = False
    for result in results:
        status = "pass" if result.passed else "FAIL"
        print(f"{result.name:<20} {status}  {result.detail if result.passed else ''}".rstrip())
        if not result.passed:
            print(f"  counterexample: {result.detail}")
            failed = True
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def cmd_bench(args):
    cap, error = _env_cap()
    if error:
        return _fail(EXIT_USAGE, error)
    if args.input is not None:
        doc, error = _load(args.input)
        if error:
            return _fail(EXIT_PARSE, error)
        L0, L1 = doc.problem.L0, doc.problem.L1
    else:
        rng = Random(args.seed)
        L0 = verify.random_matrix(rng, args.n)
        L1 = verify.random_matrix(rng, args.n)

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
                counter = MultCounter()
                start = time.perf_counter_ns()
                perm_sum_naive(L0, L1, u, v, counter=counter, cap=cap)
                elapsed = time.perf_counter_ns() - start
                print(f"naive\t{u}\t{v}\t{counter.count}\t{elapsed}")
            counter = MultCounter()
            start = time.perf_counter_ns()
            perm_sum_dp(L0, L1, u, v, counter=counter)
            elapsed = time.perf_counter_ns() - start
            print(f"dp\t{u}\t{v}\t{counter.count}\t{elapsed}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="noncomm-recur",
        description="Exact solver for second-order linear recurrences with "
                    "noncommutative constant coefficients.",
        epilog="exit codes: 0 ok, 1 verification failure, 2 parse failure, "
               "3 method/backend mismatch or cap exceeded (words or monomials), "
               "4 solver error")
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
    bench.add_argument("--naive-budget", type=int, default=1_000_000,
                       help="skip naive cells with more words than this "
                            "(default 1000000)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
