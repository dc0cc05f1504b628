"""Reference kernel and drift correction.

The machine this benchmark runs on is shared, so the speed at which the
same Python code runs drifts by tens of percent within seconds.  Between
operations the benchmark runs a fixed reference kernel whose work never
changes, made of the kinds of work cctsim spends its time on:

* a pure-Python float loop of math calls and arithmetic, and
* small complex numpy products: kron, matmul, reshape and vdot on 2x2 to
  12x12 arrays.

It imports nothing from cctsim.  An operation's wall time is scaled by
NOMINAL_S / (the kernel's time measured next to it), which removes the
machine's speed at that moment and keeps the program's.

NOMINAL_S is the median kernel time over quiet runs on the reference
machine (see README.md).  It only sets the scale of corrected figures, so
it must stay the same between a parent commit and a change.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_S = 1.0e-3

# About a third of the time goes to the loop and two thirds to numpy: of
# the mixes tried, the one whose ratio to each workload's operations held
# steadiest (see README.md).
_LOOP = 1_300
_ROUNDS = 11
_c, _s = math.cos(0.3), math.sin(0.3)
_ROT = np.array([[_c, -1j * _s], [-1j * _s, _c]], dtype=np.complex128)
_CYCLE = np.array([[0, 0, 1j], [1, 0, 0], [0, -1, 0]], dtype=np.complex128)
_VEC = np.full(12, 1 / math.sqrt(12), dtype=np.complex128)


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    x = 0.0
    for i in range(1, _LOOP + 1):
        s = math.sin(i * 1e-3)
        x = (x + 25 * math.log1p(-s * s * 0.3)) * 0.999
    norm = 0.0
    for _ in range(_ROUNDS):
        # A 12x12 unitary applied to a unit vector: the norm stays 1.
        op = np.kron(_ROT, np.kron(_ROT.conj(), _CYCLE))
        out = (op @ _VEC).reshape(2, 6)
        out = np.array(out, dtype=np.complex128).reshape(-1)
        norm = float(np.vdot(out, out).real)
    elapsed = time.perf_counter() - start
    if not (x < 0.0 and abs(norm - 1.0) < 1e-9):
        raise RuntimeError("reference kernel produced an impossible value")
    return elapsed


def settled_kernel() -> float:
    """Median of 30 kernel times after one discarded warm-up run."""
    reference_kernel()
    return statistics.median(reference_kernel() for _ in range(30))
