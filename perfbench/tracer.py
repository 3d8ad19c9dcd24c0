"""Tracing for the benchmark's traced run, installed from outside the package.

:class:`Tracer` replaces the public functions of the package's modules,
and the ``__add__`` of its four value classes, with timing wrappers, in
every ``noncomm_recur`` module namespace that holds them, and puts the
originals back on :meth:`Tracer.uninstall`.  The untraced run never
installs it, so it calls the code unpatched.

Calls into the boundary functions of ``solver``, ``permsum``, ``verify``
and ``problems`` (names starting with ``solve_``, ``perm_sum_``,
``check_``, ``run_all``, ``load`` or ``dump``) each record a span: name,
start, end, parent span and op id.  Every other wrapped call -- all of
``algebra``, which runs millions of times, and small helpers such as
``permsum.binom`` -- is aggregated into a call count, total time and self
time under its nearest enclosing span.  Self time is a call's duration
minus the time of the wrapped calls inside it.  The wrapper's own
bookkeeping is counted in nobody's self time, so the self times of the
layers plus that bookkeeping make up the op time.

Everything stays in memory until :meth:`Tracer.dump` at the end of the
run.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict
from fractions import Fraction

import noncomm_recur
from noncomm_recur import algebra

MODULES = ("algebra", "permsum", "solver", "verify", "problems")
SPAN_PREFIXES = ("solve_", "perm_sum_", "check_", "run_all", "load", "dump")
ADD_CLASSES = ("Matrix", "ColumnVector", "FreeElement", "FreeVector")
ROOT = -1  # parent of the op spans the benchmark opens
SETUP_OP = "setup"


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, parent, op, start_ns, end_ns, self_ns)
        self.aggregates = {}   # (span id, name) -> [calls, total_ns, self_ns]
        self.frames = [[0]]    # child time of each open wrapped call
        self.open_spans = [ROOT]
        self.op = None
        self.entry_bits_max = 0
        self.monomials_max = 0
        self.words_enumerated = 0
        self.cells_computed = 0
        self.cells_needed = 0
        self._op_cells = set()
        self._restore = []

    # -- installation --------------------------------------------------------

    def install(self):
        replacements = {}
        for short in MODULES:
            module = sys.modules[f"noncomm_recur.{short}"]
            for attr, value in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                if short != "algebra" and attr.startswith(SPAN_PREFIXES):
                    wrapper = self._span_wrapper(name, value)
                else:
                    wrapper = self._aggregate_wrapper(name, value, observe=short == "algebra")
                replacements[id(value)] = wrapper
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module is noncomm_recur
                                      or module_name.startswith("noncomm_recur.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))
        for cls_name in ADD_CLASSES:
            cls = getattr(algebra, cls_name)
            original = cls.__dict__["__add__"]
            setattr(cls, "__add__", self._aggregate_wrapper("algebra.add", original, observe=True))
            self._restore.append((cls, "__add__", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- ops -----------------------------------------------------------------

    def run_op(self, op_id, fn, *args):
        """Run ``fn(*args)`` as op ``op_id`` inside a root span ``bench.op``."""
        self.op = op_id
        self._op_cells = set()
        try:
            return self._span_wrapper("bench.op", fn)(*args)
        finally:
            self.cells_needed += len(self._op_cells)
            self.op = None

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn):
        clock = time.perf_counter_ns
        spans, frames, open_spans = self.spans, self.frames, self.open_spans
        on_enter = self._count_cells if name == "permsum.perm_sum_batch" else None

        def wrapped(*args, **kwargs):
            entered = clock()
            frame = [0]
            frames.append(frame)
            span_id = len(spans)
            spans.append(None)
            parent = open_spans[-1]
            open_spans.append(span_id)
            if on_enter is not None:
                args, kwargs = on_enter(args, kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                open_spans.pop()
                spans[span_id] = (span_id, name, parent, self.op, start, end,
                                  end - start - frame[0])
                frames[-1][0] += clock() - entered

        return wrapped

    def _aggregate_wrapper(self, name, fn, observe):
        clock = time.perf_counter_ns
        aggregates, frames, open_spans = self.aggregates, self.frames, self.open_spans
        count_words = name == "permsum.enumerate_words"

        def wrapped(*args, **kwargs):
            entered = clock()
            frame = [0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                key = (open_spans[-1], name)
                totals = aggregates.get(key)
                if totals is None:
                    totals = aggregates[key] = [0, 0, 0]
                totals[0] += 1
                totals[1] += end - start
                totals[2] += end - start - frame[0]
            if observe:
                self._observe(result)
            elif count_words:
                result = self._counted(result)
            frames[-1][0] += clock() - entered
            return result

        return wrapped

    # -- counters ------------------------------------------------------------

    def _observe(self, value):
        if isinstance(value, algebra.Matrix):
            if value.exact:
                self._bits(x for row in value.rows for x in row)
        elif isinstance(value, algebra.ColumnVector):
            if value.exact:
                self._bits(value.entries)
        elif isinstance(value, (algebra.FreeElement, algebra.FreeVector)):
            if len(value.terms) > self.monomials_max:
                self.monomials_max = len(value.terms)
        elif isinstance(value, Fraction):
            self._bits((value,))

    def _bits(self, values):
        bits = max((max(x.numerator.bit_length(), x.denominator.bit_length())
                    for x in values), default=0)
        if bits > self.entry_bits_max:
            self.entry_bits_max = bits

    def _counted(self, words):
        for word in words:
            self.words_enumerated += 1
            yield word

    def _count_cells(self, args, kwargs):
        """Count the cells of the table perm_sum_batch fills, the union of
        the rectangles [0, u] x [0, v] of its keys; pass the keys on as a
        list so that an iterator is not consumed twice."""
        if "keys" in kwargs:
            keys = kwargs["keys"] = list(kwargs["keys"])
        else:
            keys = list(args[2])
            args = args[:2] + (keys,) + args[3:]
        cells = {(i, j) for u, v in keys for i in range(u + 1) for j in range(v + 1)}
        self.cells_computed += len(cells)
        self._op_cells |= cells
        return args, kwargs

    def reset_counters(self):
        """Zero the value counters, so that they cover only what follows."""
        self.entry_bits_max = self.monomials_max = self.words_enumerated = 0
        self.cells_computed = self.cells_needed = 0

    # -- results -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer totals over the traced ops (set-up excluded)."""
        op_of = {span[0]: span[3] for span in self.spans}
        op_of[ROOT] = None
        self_ns = defaultdict(int)
        calls = defaultdict(int)
        op_ns = 0
        ops = 0
        loads_ns = 0
        for _, name, _, op, start, end, own in self.spans:
            if op == SETUP_OP:
                if name == "problems.loads_problem":
                    loads_ns += end - start
                continue
            if name == "bench.op":
                op_ns += end - start
                ops += 1
                continue
            self_ns[name] += own
            calls[name] += 1
        for (parent, name), (count, _, own) in self.aggregates.items():
            if op_of[parent] == SETUP_OP:
                continue
            self_ns[name] += own
            calls[name] += count
        accounted = sum(self_ns.values())
        ms = 1e-6
        return {
            "by_name": {name: {"calls": calls[name], "self_ms": self_ns[name] * ms}
                        for name in sorted(calls)},
            "ops": ops,
            "op_ms": op_ns * ms,
            "accounted_ratio": accounted / op_ns if op_ns else 0.0,
            "loads_problem_ms": loads_ns * ms,
            "entry_bits_max": self.entry_bits_max,
            "monomials_max": self.monomials_max,
            "words_enumerated": self.words_enumerated,
            "cells_computed": self.cells_computed,
            "cells_useful_ratio": (self.cells_needed / self.cells_computed
                                   if self.cells_computed else 0.0),
        }

    def dump(self):
        """Spans and aggregates as JSON-ready lists."""
        return {
            "spans": [dict(zip(("id", "name", "parent", "op", "start_ns", "end_ns",
                                "self_ns"), span)) for span in self.spans],
            "aggregates": [{"span": parent, "name": name, "calls": c,
                            "total_ns": total, "self_ns": own}
                           for (parent, name), (c, total, own) in self.aggregates.items()],
        }
