"""The benchmark's fixed reference computation.

The host this benchmark was tuned on drifts in speed by up to 2x over
minutes, and the drift is invisible to the guest: a process's CPU time
grows with its wall time, and neither run-queue wait nor steal time moves.
A fixed computation of the same mix as the package (small numpy matrices,
float math, frozen dataclasses) slows down in step with it: over 100 s
of interleaved runs, the spread of an ``inscribe_at_param`` time divided
by the reference time measured just before it was 0.014, against 0.19 for
the raw median.  Each timed call is therefore preceded by a reference, and
the gated latencies are medians of call time over reference time.

This module imports only the standard library and numpy, never inconic, so
that it stays the same when the package changes.  Run as a script it is
the reference for a CLI invocation: a fresh interpreter that imports numpy
and computes for a while, like ``python -m inconic``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROCESS_REPEATS = 1000   # about 0.1 s of computation in the reference process


@dataclass(frozen=True)
class _Pt:
    x: float
    y: float


def reference() -> float:
    acc = 0.0
    for i in range(4):
        m = np.array([[1.0 + i, 0.5, 0.25], [0.5, 2.0, 0.125], [0.25, 0.125, 3.0 + i]])
        acc += float(np.linalg.det(m)) + float(np.linalg.norm(np.linalg.inv(m)))
        p = _Pt(math.cos(i), math.sin(i))
        acc += math.hypot(p.x, p.y) + sum(k * 0.5 for k in range(20))
    return acc


if __name__ == "__main__":
    for _ in range(PROCESS_REPEATS):
        reference()
