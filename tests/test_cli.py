"""CLI behavior: output formats and the documented exit-code mapping."""
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noncomm_recur
from noncomm_recur.algebra import FreeElement, FreeVector
from noncomm_recur.cli import FREE_MONOMIAL_CAP, _free_monomial_bound, main
from noncomm_recur.permsum import perm_sum_dp
from noncomm_recur.problems import load_problem
from noncomm_recur.solver import CauchyProblem, solve_closed, solve_iterative

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"
EXACT_BUNDLED = [p for p in sorted(PROBLEMS_DIR.glob("*.json"))
                 if "float" not in p.name]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_fibonacci_closed(capsys):
    code, out, _ = run(capsys, "solve", "--input",
                       str(PROBLEMS_DIR / "fibonacci.json"), "--p", "10",
                       "--method", "closed")
    assert code == 0
    assert out == "55\n"


def test_solve_p0_prints_zero_vector(capsys):
    code, out, _ = run(capsys, "solve", "--input",
                       str(PROBLEMS_DIR / "rational-2x2.json"), "--p", "0")
    assert code == 0
    assert out == "[0, 0]\n"
    code, out, _ = run(capsys, "solve", "--input",
                       str(PROBLEMS_DIR / "fibonacci.json"), "--p", "0")
    assert (code, out) == (0, "0\n")


def test_solve_free_p2(capsys):
    code, out, _ = run(capsys, "solve", "--input",
                       str(PROBLEMS_DIR / "free-generators.json"), "--p", "2",
                       "--method", "closed")
    assert code == 0
    assert out == "B·y1\n"


def test_solve_scalar_sum_method(capsys):
    code, out, _ = run(capsys, "solve", "--input",
                       str(PROBLEMS_DIR / "scalar-split-roots.json"), "--p", "3",
                       "--method", "scalar-sum")
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, "solve", "--input",
                       str(PROBLEMS_DIR / "scalar-split-roots.json"), "--p", "3",
                       "--method", "scalar-roots")
    assert (code, out) == (0, "3\n")


@pytest.mark.parametrize("path", EXACT_BUNDLED, ids=lambda p: p.name)
def test_closed_and_iterative_agree_on_bundled_files(capsys, path):
    for p in range(21):
        code_c, out_c, _ = run(capsys, "solve", "--input", str(path),
                               "--p", str(p), "--method", "closed")
        code_i, out_i, _ = run(capsys, "solve", "--input", str(path),
                               "--p", str(p), "--method", "iterative")
        assert code_c == code_i == 0
        assert out_c == out_i


def test_solve_method_backend_mismatch_exits_3(capsys):
    code, out, err = run(capsys, "solve", "--input",
                         str(PROBLEMS_DIR / "rational-2x2.json"), "--p", "3",
                         "--method", "scalar-sum")
    assert code == 3
    assert out == ""
    assert "scalar" in err


def test_solve_parse_failure_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"backend": "scalar", "L0": 0.5, "L1": "1", "Y1": "1"}')
    code, out, err = run(capsys, "solve", "--input", str(bad), "--p", "1")
    assert code == 2
    assert "L0" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "solve", "--input", str(missing), "--p", "1")
    assert code == 2


LONG_INT = "1" * 4301  # one digit past Python's default int/str limit

UNREADABLE_INPUTS = {
    "directory": None,
    "not-utf8": b'{"backend": "scalar", "L0": "\xff"}',
    "json-int-too-long": f'{{"backend": "scalar", "L0": {LONG_INT}, "L1": 1, "Y1": 1}}',
    "rational-too-long": f'{{"backend": "scalar", "L0": "1/{LONG_INT}", "L1": 1, "Y1": 1}}',
    "missing": None,
    "deep-nesting": "[" * 100000,
    "non-finite-float": '{"backend": "float-matrix", "n": 1, "L0": [[NaN]], "L1": [[1e999]], '
                        '"Y1": [1]}',
    "float-past-double": f'{{"backend": "float-matrix", "n": 1, "L0": [[1{"0" * 400}]], '
                         f'"L1": [[1]], "Y1": [1]}}',
}


@pytest.mark.parametrize("case", UNREADABLE_INPUTS)
@pytest.mark.parametrize("command", [["solve", "--p", "1"], ["bench", "--u", "1", "--v", "1"]],
                         ids=["solve", "bench"])
def test_unreadable_input_exits_2(tmp_path, capsys, case, command):
    path = tmp_path / case
    content = UNREADABLE_INPUTS[case]
    if case == "directory":
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        path.write_text(content)
    code, out, err = run(capsys, *command, "--input", str(path))
    assert (code, out) == (2, "")
    assert case in err and "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_solve_prints_results_past_the_int_str_digit_limit(capsys):
    # F_21000 has 4389 digits, more than the default limit of 4300
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "solve", "--input", str(PROBLEMS_DIR / "fibonacci.json"),
                         "--p", "21000", "--method", "iterative")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    a, b = 0, 1
    for _ in range(21000):
        a, b = b, a + b
    sys.set_int_max_str_digits(0)
    try:
        assert out == f"{a}\n" and len(out) == 4390
    finally:
        sys.set_int_max_str_digits(limit)


def test_solve_solver_error_exits_4(tmp_path, capsys):
    degenerate = tmp_path / "c0-zero.json"
    degenerate.write_text(json.dumps(
        {"backend": "scalar", "L0": "0", "L1": "1", "Y1": "1"}))
    code, _, err = run(capsys, "solve", "--input", str(degenerate), "--p", "3",
                       "--method", "scalar-roots")
    assert code == 4
    assert "c0" in err


@pytest.mark.parametrize("y1, p", [(10 ** 300, 1440), (1, 2000)])
def test_solve_scalar_roots_beyond_double_range_exits_4(tmp_path, capsys, y1, p):
    # golden-ratio roots: the first overflows to inf, the second raises in
    # complex exponentiation; both must fail cleanly instead of printing inf
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"backend": "scalar", "L0": "1", "L1": "1", "Y1": str(y1)}))
    code, out, err = run(capsys, "solve", "--input", str(path), "--p", str(p),
                         "--method", "scalar-roots")
    assert (code, out) == (4, "")
    assert "double precision" in err and "scalar-sum" in err
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", str(p),
                       "--method", "scalar-sum")
    assert code == 0 and out.strip().isdigit()


def test_solve_out_of_memory_exits_4(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module

    def exhausted(problem, p):
        raise MemoryError

    monkeypatch.setattr(cli_module, "solve_closed", exhausted)
    code, out, err = run(capsys, "solve", "--input",
                         str(PROBLEMS_DIR / "rational-2x2.json"), "--p", "10")
    assert (code, out) == (4, "")
    assert "out of memory" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("method", ["closed", "iterative"])
def test_solve_float_overflow_exits_4(tmp_path, capsys, method):
    # y_p = 1e200^(p-1) for p >= 2 is finite at p = 2 and overflows at p = 3
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(
        {"backend": "float-matrix", "n": 1, "L0": [[0]], "L1": [[1e200]], "Y1": [1]}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "2", "--method", method)
    assert (code, out) == (0, "[1e+200]\n")
    code, out, err = run(capsys, "solve", "--input", str(path), "--p", "3", "--method", method)
    assert (code, out) == (4, "")
    assert "double precision" in err and len(err.splitlines()) == 1
    # the bundled 2x2 file leaves double range between p = 600 and p = 1300
    bundled = str(PROBLEMS_DIR / "float-2x2.json")
    code, out, _ = run(capsys, "solve", "--input", bundled, "--p", "1300", "--method", "iterative")
    assert code == 4
    code, out, _ = run(capsys, "solve", "--input", bundled, "--p", "600", "--method", "iterative")
    assert code == 0 and "e+154" in out


def test_solve_closed_table_too_large_exits_3(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    monkeypatch.setattr(cli_module, "solve_closed", lambda problem, p: 0)
    fibonacci = str(PROBLEMS_DIR / "fibonacci.json")
    # (p+1)^2 // 4 cells: p = 1999 fills the cap exactly, p = 2000 passes it
    code, out, _ = run(capsys, "solve", "--input", fibonacci, "--p", "1999")
    assert (code, out) == (0, "0\n")
    for p in ("2000", "100000000"):
        code, out, err = run(capsys, "solve", "--input", fibonacci, "--p", p)
        assert (code, out) == (3, "")
        assert "iterative" in err and len(err.splitlines()) == 1
    code, out, _ = run(capsys, "solve", "--input", fibonacci, "--p", "2000",
                       "--method", "iterative")
    assert code == 0 and out.strip().isdigit()


@pytest.mark.parametrize("name, p, method", [
    ("fibonacci.json", "10000000", "iterative"),
    ("fibonacci.json", "10000000", "scalar-sum"),
    ("scalar-split-roots.json", "100000000", "scalar-roots"),
    ("float-2x2.json", "100000000", "iterative"),
    ("rational-2x2.json", "1000000000", "iterative"),
])
def test_solve_work_above_the_cap_exits_3(capsys, monkeypatch, name, p, method):
    import noncomm_recur.cli as cli_module
    for solver in ("solve_iterative", "solve_scalar_sum", "solve_scalar_roots"):
        monkeypatch.setattr(cli_module, solver, None)  # refused before the solver runs
    code, out, err = run(capsys, "solve", "--input", str(PROBLEMS_DIR / name), "--p", p,
                         "--method", method)
    assert (code, out) == (3, "")
    assert f"Y_{p}" in err and "5000000000 bit operations" in err
    assert len(err.splitlines()) == 1


def test_solve_work_cap_boundaries(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    fibonacci, float_2x2 = (str(PROBLEMS_DIR / name) for name in ("fibonacci.json",
                                                                  "float-2x2.json"))
    code, out, _ = run(capsys, "solve", "--input", fibonacci, "--p", "21000",
                       "--method", "scalar-sum")
    assert code == 0 and len(out) == 4390
    monkeypatch.setattr(cli_module, "solve_iterative", lambda problem, p: problem.y1bar)
    # fibonacci: p steps of one product on 1 + 2p bits; float 2x2: p steps
    # of four products at the 4096-bit floor
    for path, last in ((fibonacci, 49999), (float_2x2, 305175)):
        code, out, _ = run(capsys, "solve", "--input", path, "--p", str(last),
                           "--method", "iterative")
        assert code == 0 and out == f"{load_problem(path).problem.y1bar}\n"
        code, out, err = run(capsys, "solve", "--input", path, "--p", str(last + 1),
                             "--method", "iterative")
        assert (code, out) == (3, "") and "bit operations" in err


def test_solve_closed_table_cap_covers_the_free_backend(tmp_path, capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    monkeypatch.setattr(cli_module, "solve_closed", None)  # refused before the solver runs
    # with L0 = 0, Y_p is the single word B^(p-1), so the monomial guard lets any p pass
    path = tmp_path / "l0-zero.json"
    path.write_text(json.dumps({"backend": "free", "L0": {}, "L1": {"B": 1}}))
    assert _free_monomial_bound(load_problem(path).problem, 1999) == 1
    code, out, err = run(capsys, "solve", "--input", str(path), "--p", "100000000")
    assert (code, out) == (3, "")
    assert "iterative" in err and len(err.splitlines()) == 1


def test_solve_free_iteration_is_bounded_by_the_table_size(tmp_path, capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    # Y_p is the single word B^(p-1), but iterating copies words of up to
    # p-1 letters at each of p steps, about as many letters as the table has cells
    path = tmp_path / "l0-zero.json"
    path.write_text(json.dumps({"backend": "free", "L0": {}, "L1": {"B": 1}}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "1999",
                       "--method", "iterative")
    assert (code, out) == (0, f"{'B' * 1998}·y1\n")
    monkeypatch.setattr(cli_module, "solve_iterative", None)  # refused before the solver runs
    for p in ("2000", "1000000000"):
        code, out, err = run(capsys, "solve", "--input", str(path), "--p", p,
                             "--method", "iterative")
        assert (code, out) == (3, "")
        assert "1000000 cells" in err and "iterative" in err and len(err.splitlines()) == 1


def test_solve_free_table_cells_weigh_the_longest_word(tmp_path, capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    # Y_p is the single word B^(1000(p-1)): iterating copies about 1000
    # letters per table cell, so the check counts each cell 1000 times
    path = tmp_path / "long-word.json"
    path.write_text(json.dumps({"backend": "free", "L0": {}, "L1": {"B" * 1000: 1}}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "20",
                       "--method", "iterative")
    assert (code, out) == (0, f"{'B' * 19000}·y1\n")
    for method in ("closed", "iterative"):
        monkeypatch.setattr(cli_module, f"solve_{method}", None)  # refused before it runs
        code, out, err = run(capsys, "solve", "--input", str(path), "--p", "100",
                             "--method", method)
        assert (code, out) == (3, "")
        assert "1000000 cells, a cell counting 1000 times" in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("p", ["31", "40", "1999", "1000000000"])
@pytest.mark.parametrize("method", ["closed", "iterative"])
def test_solve_free_too_many_monomials_exits_3(capsys, p, method):
    code, out, err = run(capsys, "solve", "--input",
                         str(PROBLEMS_DIR / "free-generators.json"), "--p", p,
                         "--method", method)
    assert (code, out) == (3, "")
    # past the table cap the size check refuses first, before any bound is computed
    assert ("1000000 cells" if p == "1000000000" else "1000000 monomials") in err


def test_free_monomial_bound_is_fibonacci_for_the_generators():
    problem = load_problem(PROBLEMS_DIR / "free-generators.json").problem
    fib = [0, 1]
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    assert [_free_monomial_bound(problem, p) for p in range(31)] == fib[:31]
    assert fib[30] == 832040 <= FREE_MONOMIAL_CAP < fib[31]
    assert _free_monomial_bound(problem, 31) > FREE_MONOMIAL_CAP


def test_free_bound_allows_a_zero_coefficient(tmp_path, capsys):
    # with L1 = 0, Y_p is 0 for even p and the single word A^((p-1)/2) for odd p
    path = tmp_path / "l1-zero.json"
    path.write_text(json.dumps({"backend": "free", "L0": {"AA": 2}, "L1": {}}))
    for method in ("closed", "iterative"):
        code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "80",
                           "--method", method)
        assert (code, out) == (0, "0\n")
        code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "41",
                           "--method", method)
        assert (code, out) == (0, f"{2 ** 20}·{'A' * 40}·y1\n")
    # the term count stays at most 1 however large p is, so no monomial refusal
    problem = load_problem(path).problem
    assert _free_monomial_bound(problem, 1999) == 1
    assert _free_monomial_bound(problem, 1998) == 0


short_words = st.lists(st.integers(0, 1), max_size=2).map(tuple)
small_sums = st.dictionaries(short_words, st.integers(-2, 2), max_size=3)


@settings(max_examples=100, deadline=None)
@given(small_sums, small_sums, small_sums, st.integers(0, 8))
def test_free_monomial_bounds_hold_on_random_problems(l0, l1, y1, p):
    problem = CauchyProblem(FreeElement(l0), FreeElement(l1), FreeVector(y1))
    bound = _free_monomial_bound(problem, p)
    assert len(solve_iterative(problem, p).terms) <= bound
    assert len(solve_closed(problem, p).terms) <= bound
    # bench's bound on every cell, each term count taken as at least 1
    c0, c1 = (max(len(x.terms), 1) for x in (problem.L0, problem.L1))
    for u in range(5):
        for v in range(5):
            cell = perm_sum_dp(problem.L0, problem.L1, u, v)
            assert len(cell.terms) <= math.comb(u + v, u) * c0 ** u * c1 ** v


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

def test_enumerate_pair(capsys):
    code, out, _ = run(capsys, "enumerate", "--u", "1", "--v", "1")
    assert code == 0
    assert out == "AB\nBA\ncount=2\n"


def test_enumerate_empty_word(capsys):
    code, out, _ = run(capsys, "enumerate", "--u", "0", "--v", "0")
    assert code == 0
    assert out == "<empty>\ncount=1\n"


def test_enumerate_three_terms(capsys):
    code, out, _ = run(capsys, "enumerate", "--u", "1", "--v", "2")
    assert code == 0
    assert out == "ABB\nBAB\nBBA\ncount=3\n"


def test_enumerate_cap_exit_3(capsys):
    code, _, err = run(capsys, "enumerate", "--u", "16", "--v", "15")
    assert code == 3
    assert "30" in err


def test_enumerate_into_a_closed_pipe_exits_141():
    # the reader takes one line and goes away, as `| head -1` does
    env = dict(os.environ, PYTHONPATH=str(Path(noncomm_recur.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "noncomm_recur.cli", "enumerate", "--u", "10", "--v", "10"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"AAAAAAAAAABBBBBBBBBB\n"
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (141, b"")


def test_enumerate_env_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("NONCOMM_RECUR_CAP", "5")
    code, _, err = run(capsys, "enumerate", "--u", "3", "--v", "3")
    assert code == 3
    assert "5" in err
    monkeypatch.setenv("NONCOMM_RECUR_CAP", "6")
    code, out, _ = run(capsys, "enumerate", "--u", "3", "--v", "3")
    assert code == 0
    assert out.endswith("count=20\n")
    monkeypatch.setenv("NONCOMM_RECUR_CAP", "not-a-number")
    code, _, err = run(capsys, "enumerate", "--u", "1", "--v", "1")
    assert code == 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_run_passes(capsys):
    code, out, _ = run(capsys, "verify", "--max-p", "6", "--seed", "42")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(" pass" in l for l in lines)
    assert any(l.startswith("free-theorem1") for l in lines)
    assert any(l.startswith("matrix-oracle") for l in lines)


def test_verify_max_p_above_the_monomial_cap_exits_3(capsys, monkeypatch):
    import noncomm_recur.verify as verify_module
    monkeypatch.setattr(verify_module, "run_all", None)  # refused before any suite runs
    code, out, err = run(capsys, "verify", "--max-p", "31")
    assert (code, out) == (3, "")
    assert "1000000 monomials" in err


def test_verify_detects_corrupted_solver(capsys, monkeypatch):
    # simulate a broken build: closed form returns Y_{p+1} instead of Y_p
    import noncomm_recur.verify as verify_module
    good = verify_module.solve_closed
    monkeypatch.setattr(verify_module, "solve_closed",
                        lambda problem, p: good(problem, p + 1))
    code, out, _ = run(capsys, "verify", "--max-p", "6", "--seed", "42")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out
    assert "free-theorem1" in out.splitlines()[0]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def parse_rows(out):
    rows = {}
    for line in out.splitlines():
        if line.startswith("#"):
            continue
        strategy, u, v, mults, ns = line.split("\t")
        rows[(strategy, int(u), int(v))] = (mults, ns)
    return rows


def test_bench_counts(capsys):
    code, out, _ = run(capsys, "bench", "--u", "3", "--v", "3", "--input",
                       str(PROBLEMS_DIR / "fibonacci.json"))
    assert code == 0
    rows = parse_rows(out)
    # single one-letter word: no multiplications for either strategy
    assert rows[("naive", 1, 0)][0] == "0"
    assert rows[("dp", 1, 0)][0] == "0"
    # C(6,3) = 20 words of length 6, 5 mults each
    assert rows[("naive", 3, 3)][0] == "100"
    assert int(rows[("dp", 3, 3)][0]) <= 2 * 4 * 4
    assert all(ns == "-" or int(ns) >= 0 for _, ns in rows.values())


def test_bench_budget_skips_naive(capsys):
    code, out, err = run(capsys, "bench", "--u", "3", "--v", "3",
                         "--naive-budget", "10", "--input",
                         str(PROBLEMS_DIR / "fibonacci.json"))
    assert code == 0
    rows = parse_rows(out)
    assert rows[("naive", 3, 3)] == ("-", "-")     # 20 words > budget 10
    assert rows[("naive", 1, 1)][0] == "2"         # 2 words of length 2
    assert "skipped" in err
    assert rows[("dp", 3, 3)][0] != "-"


def test_bench_free_table_too_large_exits_3(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    monkeypatch.setattr(cli_module, "perm_sum_dp", None)  # refused before any cell runs
    free = str(PROBLEMS_DIR / "free-generators.json")
    # the grid check runs first, so only grids inside it reach the monomial bound
    for size, refused in (("12", "monomials"), ("40", "monomials"), ("1000000000", "cells")):
        code, out, err = run(capsys, "bench", "--u", size, "--v", size, "--input", free)
        assert (code, out) == (3, "")
        assert f"1000000 {refused}" in err and len(err.splitlines()) == 1
    monkeypatch.undo()
    # C(22, 11) = 705432 words at (11, 11) stays under the cap; run a small grid
    assert not cli_module._free_table_too_large(load_problem(free).problem, 11, 11)
    code, out, _ = run(capsys, "bench", "--u", "3", "--v", "3", "--input", free)
    assert code == 0
    assert parse_rows(out)[("naive", 3, 3)][0] == "100"


def test_bench_grid_too_large_exits_3(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    monkeypatch.setattr(cli_module, "perm_sum_dp", None)  # refused before any cell runs
    fibonacci = str(PROBLEMS_DIR / "fibonacci.json")
    # the grid up to (u, v) fills (u+1)(u+2)/2 · (v+1)(v+2)/2 table cells:
    # 990 · 990 at (43, 43) and 1035 · 990 at (44, 43)
    for grid in (("--u", "44", "--v", "43", "--input", fibonacci),
                 ("--u", "100000", "--v", "100000", "--input", fibonacci),
                 ("--u", "43", "--v", "44")):
        code, out, err = run(capsys, "bench", *grid, "--naive-budget", "0")
        assert (code, out) == (3, "")
        assert "1000000 cells" in err and len(err.splitlines()) == 1
    monkeypatch.setattr(cli_module, "perm_sum_dp", lambda *args, **kwargs: None)
    code, out, _ = run(capsys, "bench", "--u", "43", "--v", "43", "--naive-budget", "0",
                       "--input", fibonacci)
    assert code == 0 and ("dp", 43, 43) in parse_rows(out)


def test_bench_large_n_is_refused_before_building_matrices(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    import noncomm_recur.verify as verify_module
    monkeypatch.setattr(verify_module, "random_matrix", None)  # refused before any matrix is built
    # an n×n cell counts (n/2)^3 times: 3 · 500^3 cells at (1, 0), 1 · 100.5^3 at (0, 0)
    for grid in (("--n", "1000", "--u", "1", "--v", "0"), ("--n", "201", "--u", "0", "--v", "0")):
        code, out, err = run(capsys, "bench", *grid)
        assert (code, out) == (3, "")
        assert "1000000 cells" in err and len(err.splitlines()) == 1
    # 100^3 cells at (0, 0) with n = 200 meets the cap exactly
    monkeypatch.setattr(verify_module, "random_matrix", lambda rng, n: None)
    for name in ("perm_sum_naive", "perm_sum_dp"):
        monkeypatch.setattr(cli_module, name, lambda *args, **kwargs: None)
    code, out, _ = run(capsys, "bench", "--n", "200", "--u", "0", "--v", "0")
    assert code == 0 and ("dp", 0, 0) in parse_rows(out)


def test_bench_negative_naive_budget_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--naive-budget", "-1", "--u", "1", "--v", "1"])
    assert excinfo.value.code == 2
    assert "--naive-budget" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bench_nonpositive_n_is_a_usage_error(capsys, n):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--n", n, "--u", "1", "--v", "1"])
    assert excinfo.value.code == 2
    assert "--n" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every command, bundled and corrupted inputs
# ---------------------------------------------------------------------------

BUNDLED = sorted(PROBLEMS_DIR.glob("*.json"))

# valid entries for some backend, and the odd values a problem file can hold
ENTRIES = st.integers(-3, 3) | st.sampled_from(["1/2", "-2", 0.5]) | st.sampled_from(
    [10 ** 400, float("nan"), float("inf"), "1/0", "x", True, None, []])


@st.composite
def problem_texts(draw):
    """(text, is free): a bundled problem file, maybe cut short, or a
    generated one of the right shape with valid or odd entries."""
    kind = draw(st.sampled_from(["bundled", "truncated", "generated"]))
    if kind != "generated":
        text = draw(st.sampled_from(BUNDLED)).read_text()
        if kind == "truncated":
            text = text[:draw(st.integers(0, len(text) - 1))]
        return text, '"free"' in text
    backend = draw(st.sampled_from(["rational-matrix", "float-matrix", "scalar", "free", "x"]))
    n = draw(st.integers(1, 2))
    if backend == "free":
        value = vector = st.dictionaries(st.text("AB", max_size=2), ENTRIES, max_size=2)
    elif backend == "scalar" or backend == "x":
        value = vector = ENTRIES
    else:
        vector = st.lists(ENTRIES, min_size=n, max_size=n)
        value = st.lists(vector, min_size=n, max_size=n)
    data = {"backend": backend, "n": n, "L0": draw(value), "L1": draw(value), "Y1": draw(vector)}
    return json.dumps(data), backend == "free"


@st.composite
def cli_runs(draw):
    """(argv, problem file text or None, NONCOMM_RECUR_CAP or None)."""
    text, free = draw(problem_texts())
    command = draw(st.sampled_from(["solve", "bench", "enumerate", "verify"]))
    cap = draw(st.sampled_from([None, "3", "-1", "x"]))
    ints = lambda low, high: str(draw(st.integers(low, high)))
    if command == "solve":
        method = draw(st.sampled_from(["closed", "iterative", "scalar-roots", "scalar-sum"]))
        # a free Y_p grows exponentially in p, so keep p small there, or past
        # the table cap, where every method is refused at once; a closed solve
        # of a one-term file at p in 1000-1999 takes seconds, so not between.
        # Elsewhere keep p small, or past the work cap, refused just as fast.
        p = (st.integers(-1, 8) | st.integers(2000, 10 ** 9) if free
             else st.integers(-1, 60) | st.integers(10 ** 7, 10 ** 9))
        return ["solve", "--p", str(draw(p)), "--method", method], text, cap
    if command == "bench":
        argv = ["bench", "--u", ints(0, 4), "--v", ints(0, 4), "--naive-budget", ints(-1, 100)]
        if draw(st.booleans()):
            return argv, text, cap
        n = draw(st.integers(-1, 2) | st.integers(200, 10 ** 6))  # from 201 up, refused at once
        return argv + ["--n", str(n)], None, cap
    if command == "enumerate":
        return ["enumerate", "--u", ints(0, 5), "--v", ints(0, 5)], None, cap
    return ["verify", "--max-p", ints(31, 10 ** 9), "--seed", ints(0, 9)], None, cap


@settings(max_examples=500, deadline=None)
@given(run_=cli_runs())
def test_no_command_exits_1_or_prints_a_traceback(run_):
    argv, text, cap = run_
    out, err = io.StringIO(), io.StringIO()
    env = {} if cap is None else {"NONCOMM_RECUR_CAP": cap}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if text is not None:
            path = Path(tmp) / "problem.json"
            path.write_text(text)
            argv = argv + ["--input", str(path)]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected an argument: a pass
            assert exc.code == 2
            return
    assert code != 1
    assert "Traceback" not in err.getvalue()
    assert len([line for line in err.getvalue().splitlines() if " skipped: " not in line]) <= 1
