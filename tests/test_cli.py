"""CLI behavior: output formats and the documented exit-code mapping."""
import json
from pathlib import Path

import pytest

from noncomm_recur.cli import FREE_MONOMIAL_CAP, _free_monomial_bound, main
from noncomm_recur.problems import load_problem

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


def test_solve_deeply_nested_file_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, out, err = run(capsys, "solve", "--input", str(deep), "--p", "1")
    assert (code, out) == (2, "")
    assert "deep.json" in err


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
                         str(PROBLEMS_DIR / "rational-2x2.json"), "--p", "100000000")
    assert (code, out) == (4, "")
    assert "out of memory" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("p", ["31", "40", "1000000000"])
@pytest.mark.parametrize("method", ["closed", "iterative"])
def test_solve_free_too_many_monomials_exits_3(capsys, p, method):
    code, out, err = run(capsys, "solve", "--input",
                         str(PROBLEMS_DIR / "free-generators.json"), "--p", p,
                         "--method", method)
    assert (code, out) == (3, "")
    assert "1000000 monomials" in err


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
    # the term count stays 1 however large p is, so no refusal
    problem = load_problem(path).problem
    assert _free_monomial_bound(problem, 10 ** 9 + 1) == 1
    assert _free_monomial_bound(problem, 10 ** 9) == 0


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


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bench_nonpositive_n_is_a_usage_error(capsys, n):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--n", n, "--u", "1", "--v", "1"])
    assert excinfo.value.code == 2
    assert "--n" in capsys.readouterr().err
