"""Command-line front end.

Subcommands:

* ``solve``      -- load a problem file, compute Y_p by the chosen method,
                    a route of the one table ``solver.ROUTES``;
* ``enumerate``  -- list the words of a permutation sum in lexicographic
                    order;
* ``verify``     -- run the seven fixed verification suites and report
                    pass/fail;
* ``bench``      -- compare naive and DP evaluation with exact
                    multiplication counts and wall times, on L0 and L1
                    from a problem file or two fixed random 2x2 matrices.

Exit codes: 0 success; 1 verification failure; 2 unreadable or malformed
problem file, or a bad argument (argparse); 3 method/backend mismatch or
estimated work above the cap (``solver.estimate``, one estimate per
route, enumeration and bench cell; ``verify`` runs one fixed
configuration and meets no cap); 4 solver error, double overflow or out
of memory; 141 the reader closed stdout.  Commands raise, and ``main``
alone maps each failure to its code and one stderr line.  Results go to
stdout.  ``bench`` skips the naive cells that the cap leaves no room
for, costliest first.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import time
from random import Random

from .algebra import BackendMismatchError, word_to_str
from .permsum import MultCounter, enumerate_words, perm_sum_dp, perm_sum_naive
from .problems import ProblemFileError, load_problem
from .solver import ROUTES, WORK_CAP, estimate, rational_sqrt
from . import verify

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
EXIT_SOLVER = 4
EXIT_BROKEN_PIPE = 128 + 13  # what a shell reports for death by SIGPIPE

EMPTY_WORD_TOKEN = "<empty>"


class _Exit(Exception):
    """``_Exit(code, message)``: ``main`` prints message to stderr and returns code."""


def _nonneg_int(text):
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _approx(value):
    """A positive integer to four digits, as 1.234e+45, however large."""
    shift = max(int(math.log10(value)) - 100, 0)  # a float holds up to 1e308
    mantissa, exponent = f"{value // 10 ** shift:.3e}".split("e")
    return f"{mantissa}e{int(exponent) + shift:+03d}"


def _check_work(what, work, alternatives=()):
    """Refuse ``what`` when its estimated ``work`` (see ``solver.estimate``)
    is above WORK_CAP, naming the cheapest of the (work, route)
    ``alternatives`` that the cap admits."""
    if work <= WORK_CAP:
        return
    fits = sorted(alt for alt in alternatives if alt[0] <= WORK_CAP)
    advice = f"; --method {fits[0][1]} is estimated at {_approx(fits[0][0])}" if fits else ""
    raise _Exit(EXIT_USAGE, f"refusing to {what}: an estimated {_approx(work)} bit operations, "
                            f"above the cap of {_approx(WORK_CAP)}{advice}")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args):
    doc = load_problem(args.input)
    solve, scalar_only, _ = ROUTES[args.method]
    if scalar_only and doc.backend != "scalar":
        raise _Exit(EXIT_USAGE, f"method {args.method} requires the scalar backend, "
                                f"but {args.input} uses {doc.backend}")
    problem, p = doc.problem, args.p
    # The advice names only routes that run here and answer exactly: the
    # characteristic roots need c0 != 0, and irrational ones are doubles.
    c0, c1 = problem.L0, problem.L1
    _check_work(f"solve Y_{p} by {args.method}", estimate(args.method, problem, p),
                [(estimate(name, problem, p), name) for name, (_, scalar, _) in ROUTES.items()
                 if name != args.method and (doc.backend == "scalar" or not scalar)
                 and not (name == "scalar-roots"
                          and (c0 == 0 or rational_sqrt(c1 * c1 + 4 * c0) is None))])
    try:
        result = solve(problem, p)
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
    _check_work(f"enumerate the words of ({args.u},{args.v})",
                estimate("enumerate", None, (args.u, args.v)))
    total = 0
    for word in enumerate_words(args.u, args.v):
        print(word_to_str(word) if word else EMPTY_WORD_TOKEN)
        total += 1
    print(f"count={total}")
    return EXIT_OK


def cmd_verify(args):
    failed = False
    for result in verify.run_all():
        if result.passed:
            print(f"{result.name:<20} pass  {result.detail}".rstrip())
        else:
            print(f"{result.name:<20} FAIL\n  counterexample: {result.detail}")
            failed = True
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


def _bench_row(strategy, evaluate, L0, L1, u, v):
    counter, start = MultCounter(), time.perf_counter_ns()
    evaluate(L0, L1, u, v, counter=counter)
    elapsed = time.perf_counter_ns() - start
    print(f"{strategy}\t{u}\t{v}\t{counter.count}\t{elapsed}")


def cmd_bench(args):
    problem = (verify.random_matrix_problem(Random(42), 2) if args.input is None
               else load_problem(args.input).problem)
    spent = estimate("bench", problem, (args.u, args.v))
    _check_work(f"bench the dp tables up to ({args.u},{args.v})", spent)
    # The naive cells run cheapest first while they and the dp tables stay
    # within the cap; the costlier rest are skipped.
    naive = {(u, v): estimate("naive", problem, (u, v))
             for u in range(args.u + 1) for v in range(args.v + 1)}
    admitted = set()
    for cell in sorted(naive, key=naive.get):
        if (spent := spent + naive[cell]) > WORK_CAP:
            break
        admitted.add(cell)
    L0, L1 = problem.L0, problem.L1

    print("# strategy\tu\tv\tmults\tns")
    for u in range(args.u + 1):
        for v in range(args.v + 1):
            if (u, v) in admitted:
                _bench_row("naive", perm_sum_naive, L0, L1, u, v)
            else:
                print(f"naive ({u},{v}) skipped: an estimated {_approx(naive[(u, v)])} bit "
                      f"operations, more than the cap of {_approx(WORK_CAP)} leaves after "
                      f"the dp tables and the cheaper naive cells", file=sys.stderr)
                print(f"naive\t{u}\t{v}\t-\t-")
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
               "malformed problem file or bad argument, 3 method/backend "
               "mismatch or estimated work above the cap (verify has none; "
               "bench skips the naive cells past it), 4 "
               "solver error, double overflow or out of memory, 141 reader "
               "closed stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute Y_p from a problem file")
    solve.add_argument("--input", required=True, help="problem file (JSON)")
    solve.add_argument("--p", type=_nonneg_int, required=True, help="target index")
    solve.add_argument("--method", default="closed", choices=ROUTES,
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
    ver.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench",
                           help="compare naive and DP evaluation costs")
    bench.add_argument("--u", type=_nonneg_int, default=8, help="max u (default 8)")
    bench.add_argument("--v", type=_nonneg_int, default=8, help="max v (default 8)")
    bench.add_argument("--input", default=None,
                       help="take L0, L1 from this problem file (default: two "
                            "random 2x2 rational matrices, seed 42)")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # escape '·' where stdout cannot encode it
        sys.stdout.reconfigure(errors="backslashreplace")
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
    except MemoryError:
        code, message = EXIT_SOLVER, f"{args.command}: out of memory"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
