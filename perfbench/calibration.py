"""Host-speed calibration: a fixed slice of work, timed between the ops.

The benchmark runs on a few cores of a shared host.  The CPU time of the
same job list moves by more than half from one minute to the next there,
with the load other tenants put on the same physical cores, and the CPU
time of a fixed slice of interpreter work moves with it (correlation 0.95
to 0.98 over two-minute windows on the optimize and cli job lists).  The
worker therefore runs slices of ``work()`` after each op, never inside
one, and records their CPU time.  run.py divides each op's time by the
host's slowdown around it (``op_slowdowns``), so that times read as CPU
time on a host that runs one slice in ``REFERENCE_S``.

``work()`` calls nothing in the engine, so no change to the engine moves
it; it does the kind of work the engine does, products of sparse
polynomials held in dicts and short numpy evaluations.

Set-up (interpreter start and imports) follows the host's speed less than
``work()`` does.  It is scaled instead by the CPU time the same
interpreter took to start and import numpy, which the engine imports
first and cannot change, over ``NUMPY_REFERENCE_S``; that halves the
spread of set-up times over 30 starts (coefficient of variation 16 % to
9 %).
"""
from __future__ import annotations

import math
import time

import numpy as np

# CPU time of the process.  The job list runs on one thread, so it is the
# time the op computed; wall time on a shared host also counts the time the
# host gave the CPU to other tenants.
CLOCK = time.process_time

# Scales, not targets: about the CPU time of one slice of work(), and of
# interpreter start to numpy imported, on a 2-vCPU share of an Intel Xeon
# host at its faster times.
REFERENCE_S = 1.0e-3
NUMPY_REFERENCE_S = 0.1
# Slices run after an op take about this share of the op's own time, and
# are at least MIN_SLICES, so that the host's speed is sampled evenly over
# the round and around every op.
SHARE = 0.03
MIN_SLICES = 3
# An op is scaled by the slices run after it and after WINDOW ops on each
# side of it: the slices after a short op alone are too few, and the
# host's speed changes over seconds.
WINDOW = 3

_LINEAR = {(1, 0, 0, 0): 0.3 + 0.1j, (0, 1, 0, 0): 0.2 - 0.4j,
           (0, 0, 1, 0): 0.5 + 0.0j, (0, 0, 0, 1): -0.1 + 0.2j}
_GRID = np.linspace(0.0, 1.0, 16)


def work() -> float:
    """One slice: a sixth power of a four-mode linear form, and 40 short
    trigonometric sums."""
    acc = {(0, 0, 0, 0): 1.0 + 0.0j}
    for _ in range(6):
        out: dict = {}
        for e1, c1 in acc.items():
            for e2, c2 in _LINEAR.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        acc = out
    total = abs(sum(acc.values()))
    for k in range(40):
        total += float(np.cos(_GRID * k).sum())
    return total


def after_op(op_seconds: float) -> tuple[float, int]:
    """Runs the slices that follow an op; returns their CPU time and count."""
    slices = max(MIN_SLICES, math.ceil(SHARE * op_seconds / REFERENCE_S))
    seconds = 0.0
    for _ in range(slices):
        t0 = CLOCK()
        work()
        seconds += CLOCK() - t0
    return seconds, slices


def slowdown(op_slices: list, first: int = 0, stop: int | None = None) -> float:
    """Mean slice time over REFERENCE_S, above 1 on a slower host, pooled
    over ``op_slices[first:stop]`` (the ``after_op`` results of a round)."""
    window = op_slices[first:stop]
    return sum(s for s, _ in window) / sum(n for _, n in window) / REFERENCE_S


def op_slowdowns(op_slices: list) -> list[float]:
    """The slowdown around each op of a round."""
    return [slowdown(op_slices, max(0, i - WINDOW), i + WINDOW + 1)
            for i in range(len(op_slices))]
