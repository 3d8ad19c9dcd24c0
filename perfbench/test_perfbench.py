"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Every workload runs at its tiny size, so the whole file takes seconds.
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_package()

import workloads  # noqa: E402  (needs the package on the path)
from noncomm_recur import algebra, permsum, solver  # noqa: E402

# Metrics that count work rather than time it: these must repeat exactly.
COUNT_METRICS = [name for name, unit in run.PER_LAYER
                 if unit in ("count", "bits") or name == "permsum.cells.useful_ratio"]


def tiny(name, trace, seed=3):
    return run.run_workload(name, seed, seconds=0.01, trace=trace, size="tiny")


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_every_metric_emitted_and_no_failures(name):
    for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        result = tiny(name, trace)
        assert [(metric, entry["unit"]) for metric, entry in result["metrics"].items()] \
            == list(expected)
        assert all(isinstance(entry["value"], (int, float))
                   for entry in result["metrics"].values())
        assert result["fail_ratio"] == 0, result["failures"]
        assert result["correct"] and result["attempted"] >= 1
    assert result["details"]["traced_ops"] == result["context"]["ops_in_cycle"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_for_a_seed(name):
    first, second = tiny(name, 1), tiny(name, 1)
    assert COUNT_METRICS
    for metric in COUNT_METRICS:
        assert first["metrics"][metric]["value"] == second["metrics"][metric]["value"], metric


def test_counts_track_the_work_done():
    result = tiny("free-permsum", 1)["metrics"]
    ops = workloads.WORKLOADS["free-permsum"].setup(3, workloads.WORKLOADS["free-permsum"]
                                                    .params["tiny"]).ops
    words = sum(len(op.expected) for op in ops)
    assert result["permsum.words.enumerated"]["value"] == words
    assert result["algebra.word_to_element.calls"]["value"] == words
    assert result["algebra.monomials.max"]["value"] == max(len(op.expected) for op in ops)
    closed = tiny("closed-matrix", 1)["metrics"]
    assert closed["permsum.cells.useful_ratio"]["value"] == 1.0
    assert tiny("oracle-sweep", 1)["metrics"]["permsum.cells.useful_ratio"]["value"] < 1.0


def test_tracer_restores_the_package():
    def patched():
        return solver.solve_closed, permsum.compose, algebra.Matrix.__dict__["__add__"]

    originals = patched()
    tiny("closed-matrix", 1)
    assert patched() == originals


def test_wrong_result_is_a_failure(monkeypatch):
    monkeypatch.setattr(solver, "solve_closed", lambda problem, p: problem.zero_vector())
    result = tiny("closed-matrix", 0)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_raising_op_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("broken")

    monkeypatch.setattr(solver, "solve_scalar_sum", broken)
    result = tiny("large-p", 0)
    assert 0 < result["failed"] < result["attempted"]
    assert "ArithmeticError" in result["failures"][0]


def test_exact_solution_matches_hand_computed_fibonacci():
    one = workloads.Fraction(1)
    assert workloads.exact_solution([[one]], [[one]], [one], 10) == [55]
    half = workloads.Fraction(1, 2)
    # Y_2 = L1 Y_1, Y_3 = L0 Y_1 + L1 Y_2 with L0 = [[1/2]], L1 = [[2]], Y_1 = [3].
    assert workloads.exact_solution([[half]], [[2 * one]], [3 * one], 3) == [3 * half + 12]


def test_signed_permutation_keeps_entry_sizes():
    rng = workloads.Random(5)
    base = (workloads.random_matrix(rng, 3), workloads.random_matrix(rng, 3),
            workloads.random_vector(rng, 3))
    moved = workloads.signed_permutation(rng, *base)
    assert moved != base

    def sizes(problem):
        return sorted(abs(x) for x in workloads.exact_solution(*problem, 30))

    assert sizes(moved) == sizes(base)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(list(workloads.WORKLOADS))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, bench)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-matrix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
    assert not (bench / "out").exists()
