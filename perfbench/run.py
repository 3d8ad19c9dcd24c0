#!/usr/bin/env python3
"""Benchmark of the noncomm-recur solver.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload closed-matrix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One process, one caller, a closed loop: each op starts when the previous
one has returned.  The workload's inputs come from ``--seed``; set-up
builds them, writes them as problem-file text, parses them back and
computes the references.  Every op's result is compared with its
reference after the timed phase.

``--trace 0`` measures the end-to-end metrics with the package
unpatched.  ``--trace 1`` runs one pass over the workload's ops without
tracing and one with the tracer of ``tracer.py`` installed, and reports
the per-layer metrics; it runs a fixed number of ops, so its counts
repeat exactly for a seed, and it ignores ``--seconds``.

Output: a readable report, one JSON line with the full result and the
run context, and as the last line a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The result is
also written to ``perfbench/out/``.  Exit status: 0 when every op
matched its reference, 1 when an op failed, 2 when the package sources
are not found.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# Seed for routine runs.  Seed 7919 is held out: leave it unused while a
# change is written and confirm a claimed gain on it at the end.
DEFAULT_SEED = 1

# Set-up runs this many times per run and reports the median.
SETUP_REPEATS = 5
# The timed phase runs at least this many ops, so that at least ten
# samples lie above the p90.
MIN_OPS = 120

END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("algebra.compose.calls", "count"),
    ("algebra.compose.self_ms", "ms"),
    ("algebra.entry_bits.max", "bits"),
    ("algebra.apply.calls", "count"),
    ("algebra.apply.self_ms", "ms"),
    ("algebra.add.calls", "count"),
    ("algebra.add.self_ms", "ms"),
    ("algebra.monomials.max", "count"),
    ("algebra.word_to_element.calls", "count"),
    ("algebra.word_to_element.self_ms", "ms"),
    ("permsum.words.enumerated", "count"),
    ("permsum.perm_sum_naive.self_ms", "ms"),
    ("permsum.perm_sum_batch.calls", "count"),
    ("permsum.perm_sum_batch.self_ms", "ms"),
    ("permsum.cells.computed", "count"),
    ("permsum.cells.useful_ratio", "ratio"),
    ("solver.solve_closed.self_ms", "ms"),
    ("solver.solve_iterative.self_ms", "ms"),
    ("solver.solve_scalar_sum.self_ms", "ms"),
    ("verify.check_matrix_oracle.self_ms", "ms"),
    ("problems.loads_problem.ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class PackageNotFound(RuntimeError):
    pass


def import_package():
    """Import ``noncomm_recur`` from this checkout's ``src/`` and nowhere else."""
    package_dir = SRC_DIR / "noncomm_recur"
    if not (package_dir / "__init__.py").is_file():
        raise PackageNotFound(f"package sources not found under {SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    import noncomm_recur
    if Path(noncomm_recur.__file__).resolve().parent != package_dir.resolve():
        raise PackageNotFound(f"noncomm_recur was imported from {noncomm_recur.__file__}")


# ---------------------------------------------------------------------------
# Run context
# ---------------------------------------------------------------------------

def git_revision():
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_context(name, seed, trace, size, setup):
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "size": size,
        "revision": git_revision(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "ops_in_cycle": len(setup.ops),
        "problem_texts": setup.problem_texts,
        "params": setup.params,
    }


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def timed_loop(run_op, ops, seconds, min_ops):
    """Call ``run_op(index, op)`` on the ops in order, cycling, until
    ``seconds`` have passed, at least ``min_ops`` ops have run and the
    last cycle is complete.

    The calibration kernel is timed before each op and after the last
    one.  Returns the op times, the kernel times, the (op, result) pairs
    and the wall time of the phase.
    """
    clock = time.perf_counter
    durations, kernel_times, outcomes = [], [], []
    start = clock()
    index = 0
    while True:
        kernel_times.append(calibration.timed_kernel())
        op = ops[index % len(ops)]
        began = clock()
        try:
            result = run_op(index, op)
        except Exception as exc:  # counted as a failed op
            result = exc
        ended = clock()
        durations.append(ended - began)
        outcomes.append((op, result))
        index += 1
        if index % len(ops) == 0 and index >= min_ops and ended - start >= seconds:
            kernel_times.append(calibration.timed_kernel())
            return durations, kernel_times, outcomes, ended - start


def check_outcomes(workload, outcomes):
    """Messages for the ops that raised or disagree with their reference."""
    failures = []
    for op, result in outcomes:
        if op.error is not None:
            message = op.error
        elif isinstance(result, Exception):
            message = f"raised {type(result).__name__}: {result}"
        else:
            message = workload.check(op, result)
        if message is not None:
            failures.append(f"{op.label}: {message}")
    return failures


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_setup(workload, seed, params):
    """Set up once; return the setup and its time scaled to reference speed."""
    before = [calibration.timed_kernel() for _ in range(3)]
    began = time.perf_counter()
    setup = workload.setup(seed, params)
    raw = time.perf_counter() - began
    after = [calibration.timed_kernel() for _ in range(3)]
    return setup, raw, calibration.scaled([raw], [statistics.median(before),
                                                  statistics.median(after)])[0]


def run_untraced(workload, seed, seconds, params):
    for _ in range(3):
        calibration.kernel()
    raw_setup, scaled_setup = [], []
    for _ in range(SETUP_REPEATS):
        setup, raw, scaled = timed_setup(workload, seed, params)
        raw_setup.append(raw)
        scaled_setup.append(scaled)
    # Keep the inputs and references out of the collector's way, so that
    # op times do not depend on the size of the benchmark's own heap.
    gc.collect()
    gc.freeze()
    try:
        durations, kernel_times, outcomes, elapsed = timed_loop(
            lambda index, op: workload.run(op), setup.ops, seconds, MIN_OPS)
    finally:
        gc.unfreeze()
    failures = check_outcomes(workload, outcomes)
    ms = [t * 1000 for t in calibration.scaled(durations, kernel_times)]
    raw_ms = [t * 1000 for t in durations]
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8]
    values = {
        "ops_per_s": len(ms) / (sum(ms) / 1000),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": p90,
        "setup_s": statistics.median(scaled_setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    details = {
        "samples": len(ms),
        "above_p90": sum(1 for t in ms if t > p90),
        "timed_s": elapsed,
        "kernel_ms_median": statistics.median(kernel_times) * 1000,
        "raw": {
            "ops_per_s": len(raw_ms) / (sum(raw_ms) / 1000),
            "op_ms.p50": statistics.median(raw_ms),
            "op_ms.p90": statistics.quantiles(raw_ms, n=10, method="inclusive")[8],
            "setup_s": statistics.median(raw_setup),
        },
    }
    return setup, values, len(outcomes), failures, details


def run_traced(workload, seed, params):
    """One cycle of ops untraced, then set-up and the same cycle traced.

    The overhead ratio compares the two cycles' op times, each scaled by
    the calibration kernel, so that a change of machine speed between
    them does not show as overhead.
    """
    import tracer as tracing

    setup = workload.setup(seed, params)
    ops = setup.ops
    gc.collect()
    gc.freeze()
    try:
        durations, kernel_times, outcomes, _ = timed_loop(
            lambda index, op: workload.run(op), ops, 0, len(ops))
        untraced_s = sum(calibration.scaled(durations, kernel_times))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.run_op(tracing.SETUP_OP, workload.setup, seed, params)
            tracer.reset_counters()
            durations, kernel_times, traced, _ = timed_loop(
                lambda index, op: tracer.run_op(index, workload.run, op), ops, 0, len(ops))
        finally:
            tracer.uninstall()
        traced_s = sum(calibration.scaled(durations, kernel_times))
    finally:
        gc.unfreeze()
    failures = check_outcomes(workload, outcomes + traced)
    layer = tracer.layer_metrics()
    values = layer_values(layer, traced_s / untraced_s)
    details = {"traced_ops": layer["ops"], "untraced_s": untraced_s, "traced_s": traced_s,
               "self_ms_by_function": layer["by_name"]}
    return setup, values, len(outcomes) + len(traced), failures, details, tracer.dump()


def layer_values(layer, overhead_ratio):
    by_name = layer["by_name"]

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_ms(name):
        return by_name.get(name, {}).get("self_ms", 0.0)

    values = {
        "algebra.entry_bits.max": layer["entry_bits_max"],
        "algebra.monomials.max": layer["monomials_max"],
        "permsum.words.enumerated": layer["words_enumerated"],
        "permsum.cells.computed": layer["cells_computed"],
        "permsum.cells.useful_ratio": layer["cells_useful_ratio"],
        "problems.loads_problem.ms": layer["loads_problem_ms"],
        "trace.op_ms": layer["op_ms"],
        "trace.accounted_ratio": layer["accounted_ratio"],
        "trace.overhead_ratio": overhead_ratio,
    }
    for metric, _ in PER_LAYER:
        if metric in values:
            continue
        function, kind = metric.rsplit(".", 1)
        values[metric] = calls(function) if kind == "calls" else self_ms(function)
    return values


def run_workload(name, seed, seconds, trace, size="full"):
    """Run one workload and return its result as a JSON-ready dict."""
    import workloads

    workload = workloads.WORKLOADS[name]
    params = workload.params[size]
    dump = None
    if trace:
        setup, values, attempted, failures, details, dump = run_traced(workload, seed, params)
        units = PER_LAYER
    else:
        setup, values, attempted, failures, details = run_untraced(
            workload, seed, seconds, params)
        units = END_TO_END
    return {
        "context": run_context(name, seed, trace, size, setup),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
        "details": details,
        "failures": failures[:5],
        "trace": dump,
    }


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def report(result):
    context = result["context"]
    print(f"workload {context['workload']}  seed {context['seed']}  trace {context['trace']}  "
          f"revision {context['revision'][:12]}  {context['python']}  nproc {context['nproc']}")
    print(f"  params {json.dumps(context['params'])}  ops per cycle {context['ops_in_cycle']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:>14.4f} {entry['unit']}")
    print(f"  {'fail_ratio':36s} {result['fail_ratio']:>14.4f} "
          f"failed/attempted ({result['failed']}/{result['attempted']})")
    details = result["details"]
    if "samples" in details:
        print(f"  samples {details['samples']}, above p90 {details['above_p90']}, "
              f"timed {details['timed_s']:.2f} s, calibration kernel "
              f"{details['kernel_ms_median']:.3f} ms (reference "
              f"{calibration.REFERENCE_S * 1000:.3f} ms)")
        print("  unscaled " + ", ".join(f"{k} {v:.4f}" for k, v in details["raw"].items()))
    for failure in result["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


def write_result(result):
    context = result["context"]
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{context['workload']}-seed{context['seed']}-trace{context['trace']}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed: 1 for routine runs, 7919 held out for claims")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        import_package()
    except PackageNotFound as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, workloads.WORKLOADS)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        report(result)
        write_result(result)
        print(json.dumps({key: value for key, value in result.items() if key != "trace"}))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['context']['workload']}/{metric}": entry
                   for r in results for metric, entry in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
