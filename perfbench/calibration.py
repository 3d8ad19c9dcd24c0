"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core changes from second to second
with the load of its neighbours; a plain Python loop can take twice as
long at one moment as at the next, and process CPU time swings just as
much as wall time.  Timings of the package are therefore scaled by the
speed of the machine measured right next to them.

:func:`kernel` is fixed work owned by the benchmark, never by the
package, so no change to the package can change it.  It mixes the
operations the package spends its time in: ``Fraction`` matrix products,
copying and merging word-keyed dicts, and products of large integers.
The benchmark times it before every op, and :func:`scaled` turns a raw
time into the time it would have taken at the moment the kernel took
:data:`REFERENCE_S` (its typical time on the machine the baselines were
measured on).

The package's ops feel a slowdown of the machine a little less than
the kernel does: on a shared 2-vCPU machine, op times varied as about
the :data:`SENSITIVITY` power of the kernel time (fitted over 20-second
stretches of all four workloads, with the exponent chosen to minimise
the spread between stretches).  Scaling by the full ratio would
over-correct.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Typical time of one kernel() call on the baseline machine.
REFERENCE_S = 0.003
# Exponent of the kernel-time ratio applied to op times.
SENSITIVITY = 0.8

_MATRIX = [[Fraction(1, 2), Fraction(-1), Fraction(3, 2)],
           [Fraction(2), Fraction(0), Fraction(-1, 2)],
           [Fraction(1), Fraction(1, 2), Fraction(1)]]
_WORDS = [tuple((k >> bit) & 1 for bit in range(12)) for k in range(300)]
_BIG = 3 ** 3000


def kernel():
    product = _MATRIX
    for _ in range(12):
        cols = list(zip(*product))
        product = [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in _MATRIX]
    terms = {}
    for word in _WORDS:
        terms = dict(terms)
        terms[word] = terms.get(word, 0) + 1
    power = 1
    for _ in range(14):
        power *= _BIG
    return product, terms, power


def timed_kernel():
    began = time.perf_counter()
    kernel()
    return time.perf_counter() - began


def scaled(raw_times, kernel_times):
    """Scale ``raw_times[i]`` to the reference speed of the machine.

    ``kernel_times`` has one more entry than ``raw_times``: entry i was
    measured just before raw time i and entry i + 1 just after it.  The
    speed around raw time i is the median of the kernel times i - 1 to
    i + 1 (that is, before, after, and before the previous one), which
    follows changes of speed within a second or two while ignoring a
    single disturbed kernel call.  The factor is (REFERENCE_S / that
    median) ** SENSITIVITY.
    """
    out = []
    for i, raw in enumerate(raw_times):
        around = statistics.median(kernel_times[max(0, i - 1):i + 2])
        out.append(raw * (REFERENCE_S / around) ** SENSITIVITY)
    return out
