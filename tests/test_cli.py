"""CLI behavior: output formats and the documented exit-code mapping."""
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import noncomm_recur
from noncomm_recur.cli import main
from noncomm_recur.problems import load_problem
from noncomm_recur.solver import term_bounds

PROBLEMS_DIR = Path(__file__).resolve().parent.parent / "problems"


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


def test_refusal_at_c0_zero_names_no_roots_route(tmp_path, capsys):
    # scalar-roots is the cheapest estimate here but exits 4 at c0 = 0, so
    # a refusal names the cheapest other route under the cap, if any
    path = tmp_path / "c0-zero.json"
    path.write_text(json.dumps({"backend": "scalar", "L0": "0", "L1": "2", "Y1": "1"}))
    for p, method, advice in (("100000", "iterative", None), ("3000", "closed", "iterative")):
        code, out, err = run(capsys, "solve", "--input", str(path), "--p", p, "--method", method)
        assert (code, out) == (3, "")
        assert "scalar-roots" not in err and ("--method" in err) == (advice is not None)
        if advice is not None:
            assert f"--method {advice} is estimated" in err
            code, out, _ = run(capsys, "solve", "--input", str(path), "--p", p,
                               "--method", advice)
            assert (code, out) == (0, f"{2 ** (int(p) - 1)}\n")


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
    monkeypatch.setattr(cli_module, "solve_closed", None)  # refused before the solver runs
    fibonacci = str(PROBLEMS_DIR / "fibonacci.json")
    for p in ("1562", "100000000"):
        code, out, err = run(capsys, "solve", "--input", fibonacci, "--p", p)
        assert (code, out) == (3, "")
        # the refusal names the cheapest route under the cap: complex roots, at the floor
        assert f"Y_{p} by closed" in err and "above the cap of 5.000e+09" in err
        assert "--method scalar-roots" in err and len(err.splitlines()) == 1
    code, out, err = run(capsys, "solve", "--input", fibonacci, "--p", "1562")
    assert "an estimated 5.003e+09 bit operations" in err
    code, out, _ = run(capsys, "solve", "--input", fibonacci, "--p", "2000",
                       "--method", "iterative")
    assert code == 0 and out.strip().isdigit()


@pytest.mark.parametrize("name, p, method", [
    ("fibonacci.json", "10000000", "iterative"),
    ("fibonacci.json", "10000000", "scalar-sum"),
    ("scalar-split-roots.json", "100000000", "scalar-roots"),
    ("float-2x2.json", "100000000", "iterative"),
    ("rational-2x2.json", "1000000000", "iterative"),
    # every route of the file is estimated, to name the cheapest under the cap
    *((name, str(10 ** 30), "closed") for name in sorted(
        path.name for path in PROBLEMS_DIR.glob("*.json"))),
])
def test_solve_work_above_the_cap_exits_3(capsys, monkeypatch, name, p, method):
    import noncomm_recur.cli as cli_module
    for solver in ("solve_iterative", "solve_scalar_sum", "solve_scalar_roots", "solve_closed"):
        monkeypatch.setattr(cli_module, solver, None)  # refused before the solver runs
    start = time.perf_counter()
    code, out, err = run(capsys, "solve", "--input", str(PROBLEMS_DIR / name), "--p", p,
                         "--method", method)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (3, "")
    assert f"Y_{p} by {method}" in err and "above the cap of 5.000e+09" in err
    assert len(err.splitlines()) == 1


def test_solve_refusal_estimate_grows_with_p(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    monkeypatch.setattr(cli_module, "solve_iterative", None)  # refused before the solver runs
    path = str(PROBLEMS_DIR / "rational-3x3.json")
    # p steps of nine products at the width of Y_p, which grows with p,
    # plus printing: doubling p more than doubles the estimate
    for p, work in (("100000", "6.329e+11"), ("200000", "2.532e+12")):
        code, out, err = run(capsys, "solve", "--input", path, "--p", p, "--method", "iterative")
        assert (code, out) == (3, "")
        assert f"an estimated {work} bit operations" in err


def test_solve_work_cap_boundaries(capsys):
    code, out, _ = run(capsys, "solve", "--input", str(PROBLEMS_DIR / "fibonacci.json"),
                       "--p", "21000", "--method", "scalar-sum")
    assert code == 0 and len(out) == 4390
    # scalar-roots takes O(log p) powers of the roots 2 and -1: Y_p has
    # p + 21 bits, so printing it, 2·(p + 21)^2 // 1000, is the cost
    p = 10 ** 6
    code, out, err = run(capsys, "solve", "--input", str(PROBLEMS_DIR / "scalar-split-roots.json"),
                         "--p", str(p), "--method", "scalar-roots")
    assert (code, err) == (0, "")
    low = (pow(2, p, 3 * 10 ** 20) - 1) // 3  # y_p = (2^p - 1)/3 mod 10^20
    assert len(out) == 301031 and out.endswith(f"{low:020d}\n")


# Free problems written for the boundary table, beside the bundled files
FREE_FILES = {
    "l0-zero.json": {"L0": {}, "L1": {"B": 1}},  # Y_p is the single word B^(p-1)
    "long-word.json": {"L0": {}, "L1": {"B" * 1000: 1}},  # Y_p is B^(1000(p-1))
}


@pytest.mark.parametrize("name, method, last", [
    # (p+1)^2 // 4 cells of two products at the 4096-bit floor, plus printing
    # 2·(1 + p)^2 // 1000: p = 1561 costs 609961·8192 + 4879 = 4996805391,
    # p = 1562 costs 610742·8192 + 4885 = 5003203349, past the 5·10^9 cap
    ("fibonacci.json", "closed", 1561),
    # p steps of one product on 1 + p bits (g = 1: D = 1, and
    # c = max(√2, 2, 1) = 2), plus printing 2·(1 + p)^2 // 1000:
    # 70639·70640 + 9980019 = 4999918979 and 70640·70641 + 9980301 = 5000060541
    ("fibonacci.json", "iterative", 70639),
    # p steps of four products at the 4096-bit floor, 305175·16384 = 4999987200
    ("float-2x2.json", "iterative", 305175),
    # (p+1)^2 // 4 cells at two floors, and p products plus 2 copies (the
    # sum of the keys and the printing) of one term of p - 1 letters,
    # 64·p bits a term:
    # p = 1537: 591361·8192 + (1537 + 2)·64·1537 = 4995817664
    # p = 1538: 592130·8192 + (1538 + 2)·64·1538 = 5002314240
    ("l0-zero.json", "closed", 1537),
    # p steps at the floor, and p products plus one copy of a term of 64·p bits:
    # p = 8806: 8806·4096 + 8807·64·8806 = 4999553664
    # p = 8807: 8807·4096 + 8808·64·8807 = 5000685056
    ("l0-zero.json", "iterative", 8806),
    # a term has 1000(p-1) letters and one coefficient, 64·(1000p - 999) bits:
    # p = 274: 18906·8192 + (274 + 2)·64·273001 = 4977167616
    # p = 275: 19044·8192 + (275 + 2)·64·274001 = 5013498176
    ("long-word.json", "closed", 274),
    # p = 279: 279·4096 + 280·64·278001 = 4982920704
    # p = 280: 280·4096 + 281·64·279001 = 5018700864
    ("long-word.json", "iterative", 279),
    # F_p terms of p - 1 letters and a coefficient, 64·p bits each:
    # p = 28: 210·8192 + (2·832039 + 2·317811)·64·28 = 4122782720
    # p = 29: 225·8192 + (2·1346268 + 2·514229)·64·29 = 6908008064
    ("free-generators.json", "closed", 28),
    # p = 28: 28·4096 + (2·832039 + 317811)·64·28 = 3551659776
    # p = 29: 29·4096 + (2·1346268 + 514229)·64·29 = 5951874624
    ("free-generators.json", "iterative", 28),
])
def test_solve_admits_the_last_p_under_the_cap(tmp_path, capsys, monkeypatch, name, method, last):
    import noncomm_recur.cli as cli_module
    path = PROBLEMS_DIR / name
    if name in FREE_FILES:
        path = tmp_path / name
        path.write_text(json.dumps({"backend": "free", **FREE_FILES[name]}))
    monkeypatch.setattr(cli_module, f"solve_{method}", lambda problem, p: problem.y1bar)
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", str(last), "--method", method)
    assert (code, out) == (0, f"{load_problem(path).problem.y1bar}\n")
    monkeypatch.setattr(cli_module, f"solve_{method}", None)  # refused before it runs
    for p in (last + 1, 10 ** 9):
        code, out, err = run(capsys, "solve", "--input", str(path), "--p", str(p),
                             "--method", method)
        assert (code, out) == (3, "")
        assert f"Y_{p} by {method}: an estimated" in err and len(err.splitlines()) == 1


def test_solve_free_iteration_is_bounded_by_the_table_size(tmp_path, capsys):
    # Y_p is the single word B^(p-1), so a_p stays at 1, but iterating
    # copies words of up to p-1 letters at each of p steps
    path = tmp_path / "l0-zero.json"
    path.write_text(json.dumps({"backend": "free", **FREE_FILES["l0-zero.json"]}))
    assert term_bounds(load_problem(path).problem, 1999)[0] == 1
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "1999",
                       "--method", "iterative")
    assert (code, out) == (0, f"{'B' * 1998}·y1\n")


def test_solve_free_table_cells_weigh_the_longest_word(tmp_path, capsys):
    path = tmp_path / "long-word.json"
    path.write_text(json.dumps({"backend": "free", **FREE_FILES["long-word.json"]}))
    code, out, _ = run(capsys, "solve", "--input", str(path), "--p", "20",
                       "--method", "iterative")
    assert (code, out) == (0, f"{'B' * 19000}·y1\n")


def test_solve_escapes_what_stdout_cannot_encode():
    # exit 1 means a failed suite, so an ascii stdout must not end in a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(noncomm_recur.__file__).parent.parent),
               PYTHONIOENCODING="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "noncomm_recur.cli", "solve", "--input",
         str(PROBLEMS_DIR / "free-generators.json"), "--p", "2"],
        capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"B\\xb7y1\n", b"")


@pytest.mark.parametrize("p", ["31", "40", "1999", "1000000000"])
@pytest.mark.parametrize("method", ["closed", "iterative"])
def test_solve_free_too_many_monomials_exits_3(capsys, p, method):
    code, out, err = run(capsys, "solve", "--input",
                         str(PROBLEMS_DIR / "free-generators.json"), "--p", p,
                         "--method", method)
    assert (code, out) == (3, "")
    assert f"Y_{p} by {method}" in err and len(err.splitlines()) == 1


def test_free_monomial_bound_is_fibonacci_for_the_generators():
    problem = load_problem(PROBLEMS_DIR / "free-generators.json").problem
    fib = [0, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    assert [term_bounds(problem, p)[0] for p in range(1, 31)] == fib[1:31]
    assert [term_bounds(problem, p)[1] for p in range(1, 31)] == [f - 1 for f in fib[3:33]]


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
    # the term count stays at most 1 however large p is
    problem = load_problem(path).problem
    assert term_bounds(problem, 1999)[:2] == (1, 1999)


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


def test_enumerate_cap_exit_3(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    code, out, _ = run(capsys, "enumerate", "--u", "31", "--v", "0")
    assert (code, out) == (0, f"{'A' * 31}\ncount=1\n")
    # C(u+v, u) words at 4096 + 64 bits a letter each, and 4096 bits a
    # letter of the longest word: (11, 11) costs 705432·5504 + 4096·22 =
    # 3882787840, and (12, 11) and (11, 12) 1352078·5568 + 4096·23 =
    # 7528464512; one word of n letters costs 4096 + 4160·n, 4999999616
    # at n = 1201922 and 5000003776 at n = 1201923
    monkeypatch.setattr(cli_module, "enumerate_words", lambda u, v: iter([]))
    for u, v in (("11", "11"), ("1201922", "0"), ("0", "1201922")):
        code, out, _ = run(capsys, "enumerate", "--u", u, "--v", v)
        assert (code, out) == (0, "count=0\n")
    monkeypatch.setattr(cli_module, "enumerate_words", None)  # refused before it runs
    huge = str(10 ** 30)
    for u, v in (("12", "11"), ("11", "12"), ("15", "15"), ("1201923", "0"), ("0", "1201923"),
                 (huge, "3"), (huge, huge)):
        code, out, err = run(capsys, "enumerate", "--u", u, "--v", v)
        assert (code, out) == (3, "")
        assert f"words of ({u},{v})" in err and "above the cap of 5.000e+09" in err
        assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "enumerate", "--u", "12", "--v", "11")
    assert "an estimated 7.528e+09 bit operations" in err


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


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_OUTPUT = """\
free-theorem1        pass  closed = iterative on the free backend for p <= 16
matrix-oracle        pass  20 random 3x3 rational problems, p <= 16, seed 42
scalar-coherence     pass  100 square-discriminant pairs and 20 negative-discriminant pairs, p <= 30, seed 42
degenerate-delta0    pass  c1 in {+-1, +-2, +-3, 4/3}, p <= 30
identities           pass  Pascal n <= 40; symmetry p <= 40; sqrt identity z in {0,2,6,12,20}, n <= 20; alternating identity n <= 30
permsum-structure    pass  all (u,v) with u+v <= 12 on the free backend
mult-counts          pass  naive = 12870 words (193050 mults), dp = 142 mults <= 162 at (8,8)
"""


def test_verify_small_run_passes(capsys):
    assert run(capsys, "verify") == (0, VERIFY_OUTPUT, "")


def test_verify_detects_corrupted_solver(capsys, monkeypatch):
    # simulate a broken build: closed form returns Y_{p+1} instead of Y_p
    import noncomm_recur.verify as verify_module
    good = verify_module.solve_closed
    monkeypatch.setattr(verify_module, "solve_closed",
                        lambda problem, p: good(problem, p + 1))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out
    assert "free-theorem1" in out.splitlines()[0]


def test_verify_detects_a_shifted_oracle(capsys, monkeypatch):
    # simulate a broken one-pass oracle: Y_1..Y_{max_p+1} instead of Y_0..Y_max_p
    import noncomm_recur.verify as verify_module
    good = verify_module.solve_iterative_upto
    monkeypatch.setattr(verify_module, "solve_iterative_upto",
                        lambda problem, max_p: good(problem, max_p + 1)[1:])
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "FAIL" in out
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


def test_bench_budget_skips_naive(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    from noncomm_recur.verify import random_matrix_problem
    calls = []
    for name in ("perm_sum_naive", "perm_sum_dp"):
        monkeypatch.setattr(cli_module, name,
                            lambda L0, L1, u, v, counter: calls.append((L0, L1, u, v)))
    # without --input, L0 and L1 are the fixed seed-42 2x2 pair, and the
    # default 8x8 grid skips the six costliest naive cells
    code, out, err = run(capsys, "bench")
    default = random_matrix_problem(Random(42), 2)
    assert code == 0 and len(calls) == 2 * 81 - 6
    assert all((L0, L1) == (default.L0, default.L1) for L0, L1, _, _ in calls)
    assert [line.split(" skipped")[0] for line in err.splitlines()] == [
        f"naive {cell}" for cell in ("(6,8)", "(7,7)", "(7,8)", "(8,6)", "(8,7)", "(8,8)")]
    fibonacci = str(PROBLEMS_DIR / "fibonacci.json")
    # a naive cell is C(u+v, u)·(u+v-1) products at the 4096-bit floor.  Up
    # to (8, 8) the dp tables take 45·45·8192 = 16588800 and the naive cells
    # 2628763648, all within the cap.  Up to (8, 9) the dp tables take
    # 20275200 and the naive cells 5366136832; without the costliest,
    # (8, 9) at 24310·16·4096 = 1593180160, the sum is 3793231872.
    code, out, err = run(capsys, "bench", "--u", "8", "--v", "8", "--input", fibonacci)
    rows = parse_rows(out)
    assert (code, err) == (0, "")
    assert all(rows[("naive", u, v)][0] == "0" for u in range(9) for v in range(9))
    code, out, err = run(capsys, "bench", "--u", "8", "--v", "9", "--input", fibonacci)
    rows = parse_rows(out)
    assert code == 0 and rows[("naive", 8, 9)] == ("-", "-")
    assert all(rows[("naive", u, v)][0] == "0" for u in range(9) for v in range(10)
               if (u, v) != (8, 9))
    assert all(rows[("dp", u, v)][0] != "-" for u in range(9) for v in range(10))
    assert err.startswith("naive (8,9) skipped: an estimated 1.593e+09 bit operations")
    assert len(err.splitlines()) == 1


def test_bench_free_table_too_large_exits_3(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    monkeypatch.setattr(cli_module, "perm_sum_dp", None)  # refused before any cell runs
    free = str(PROBLEMS_DIR / "free-generators.json")
    # cells (u+1)(u+2)/2·(v+1)(v+2)/2 of two products, each making C(u+v, u)
    # terms of u + v letters and a coefficient: (7, 6) costs
    # 36·28·2·1716·64·14 = 3099672576, (7, 7) 36·36·2·3432·64·15 = 8539914240
    for u, v in (("7", "7"), ("12", "12"), ("40", "40"), ("1000000000", "1000000000")):
        code, out, err = run(capsys, "bench", "--u", u, "--v", v, "--input", free)
        assert (code, out) == (3, "")
        assert f"up to ({u},{v})" in err and len(err.splitlines()) == 1
    for name in ("perm_sum_naive", "perm_sum_dp"):
        monkeypatch.setattr(cli_module, name, lambda *args, **kwargs: None)
    # the naive cell (7, 6) makes 1716·12 products at the floor and copies its
    # running total, 1716·1717/2 terms of 14·64 bits: 1404319488 in all,
    # more than the cap leaves after the dp tables and the other naive cells,
    # 5·10^9 - 3099672576 - 1087105280
    code, out, err = run(capsys, "bench", "--u", "7", "--v", "6", "--input", free)
    rows = parse_rows(out)
    assert code == 0 and ("dp", 7, 6) in rows and rows[("naive", 7, 6)] == ("-", "-")
    assert err.startswith("naive (7,6) skipped: an estimated 1.404e+09 bit operations")
    assert len(err.splitlines()) == 1
    monkeypatch.undo()
    code, out, _ = run(capsys, "bench", "--u", "3", "--v", "3", "--input", free)
    assert code == 0
    assert parse_rows(out)[("naive", 3, 3)][0] == "100"


def test_bench_grid_too_large_exits_3(capsys, monkeypatch):
    import noncomm_recur.cli as cli_module
    for name in ("perm_sum_naive", "perm_sum_dp"):
        monkeypatch.setattr(cli_module, name, None)  # refused before any cell runs
    fibonacci = str(PROBLEMS_DIR / "fibonacci.json")
    # the grid up to (u, v) fills (u+1)(u+2)/2 · (v+1)(v+2)/2 table cells of
    # two products at the 4096-bit floor, 2n^3 of them for n×n matrices:
    # 780·780·8192 = 4984012800 at (38, 38) and 820·780·8192 = 5239603200 at
    # (39, 38); 276·276·65536 = 4992270336 at (22, 22) with the default 2x2
    # matrices and 276·300·65536 = 5426380800 at (22, 23)
    for grid in (("--u", "39", "--v", "38", "--input", fibonacci),
                 ("--u", "100000", "--v", "100000", "--input", fibonacci),
                 ("--u", "22", "--v", "23")):
        code, out, err = run(capsys, "bench", *grid)
        assert (code, out) == (3, "")
        assert "above the cap of 5.000e+09" in err and len(err.splitlines()) == 1
    # the dp tables leave the naive cells little room: the costliest are skipped
    for name in ("perm_sum_naive", "perm_sum_dp"):
        monkeypatch.setattr(cli_module, name, lambda *args, **kwargs: None)
    for grid in (("--u", "38", "--v", "38", "--input", fibonacci), ("--u", "22", "--v", "22")):
        code, out, err = run(capsys, "bench", *grid)
        u, v = int(grid[1]), int(grid[3])
        rows = parse_rows(out)
        assert code == 0 and ("dp", u, v) in rows and rows[("naive", u, v)] == ("-", "-")
        assert f"naive ({u},{v}) skipped: " in err


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
    """(argv, problem file text or None)."""
    text, free = draw(problem_texts())
    command = draw(st.sampled_from(["solve", "bench", "enumerate"]))
    if command == "solve":
        method = draw(st.sampled_from(["closed", "iterative", "scalar-roots", "scalar-sum"]))
        # Keep p small, or so large that the part of the estimate that grows
        # with p alone refuses every method at once: from 1221000 free steps
        # at the floor, past 5·10^9/4096, and from 10^7 dense or scalar ones,
        # past 5·10^9/(4096·n^2) whatever the entries.  Between, a free file
        # with zero coefficients or a float file iterates for seconds.
        p = (st.integers(-1, 8) | st.integers(1221000, 10 ** 30) if free
             else st.integers(-1, 60) | st.integers(10 ** 7, 10 ** 30))
        return ["solve", "--p", str(draw(p)), "--method", method], text
    if command == "bench":
        # from 1104 on one side the grid has 611065 cells or more, past
        # 5·10^9/8192 at any n, so it is refused at once
        side = lambda: str(draw(st.integers(0, 4) | st.integers(1104, 10 ** 30)))
        return ["bench", "--u", side(), "--v", side()], draw(st.sampled_from([text, None]))
    # from 1201923 letters one word alone is past the cap, 4096 + 4160·n
    side = lambda: str(draw(st.integers(-1, 5) | st.integers(1201923, 10 ** 30)))
    return ["enumerate", "--u", side(), "--v", side()], None


@settings(max_examples=500, deadline=None)
@given(run_=cli_runs())
def test_no_command_exits_1_or_prints_a_traceback(run_):
    argv, text = run_
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
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
