"""The fixed, stdlib-only reference kernel.

Wall time on a shared machine drifts by tens of percent within minutes,
and the drift hits the kernel and the program alike.  The kernel does the
kind of work the program does (products of sparse polynomials whose
monomials are sorted tuples of (symbol, exponent) pairs, with Fraction
coefficients, then integer gcds) on fixed inputs.  A request's time divided
by the kernel's time measured next to it is a steadier figure, in "ref"
units.  The kernel must never change: that would rescale every _ref metric.

Two ways to time it:

* ``timed_kernel``: in this process, for requests served in process;
* ``timed_process``: a fresh interpreter that runs it once (``python3
  refkernel.py``), for work that is a process itself (the cli workload's
  requests, the benchmark's set-up).  Process start drifts less than
  Python compute, so only a process tracks a process.

Importing this module runs nothing, so it adds no kernel time to the
process that imports it.
"""

import os
import sys
import time
from fractions import Fraction
from math import gcd

_SYMBOLS = ("x", "y", "p", "q")


def _mono(*exps):
    return tuple((s, e) for s, e in zip(_SYMBOLS, exps) if e)


_A = {_mono(i % 3, j % 4, (i + j) % 2, (i * j) % 3): Fraction(7 * i - 3 * j + 1, j + 2)
      for i in range(12) for j in range(10)}
_B = {_mono((j + 1) % 3, (i + 2) % 4, (i + j + 3) % 2, ((j + 1) * (i + 2)) % 3):
      Fraction(2 * j + 1, i + 5) for i in range(9) for j in range(8)}


def _mono_mul(m1, m2):
    exps = dict(m1)
    for s, e in m2:
        exps[s] = exps.get(s, 0) + e
    return tuple(sorted(exps.items()))


def kernel():
    """One fixed unit of work; returns a checksum."""
    prod = {}
    for m1, c1 in _A.items():
        for m2, c2 in _B.items():
            m = _mono_mul(m1, m2)
            prod[m] = prod.get(m, 0) + c1 * c2
    g = 0
    for c in prod.values():
        g = gcd(g, c.numerator)
    return len(prod) + g


# kernel()'s result; the kernel is fixed, so this is too
CHECKSUM = 373


def timed_kernel():
    """Seconds for one kernel call in this process."""
    start = time.perf_counter()
    if kernel() != CHECKSUM:
        raise RuntimeError("reference kernel gave a different result")
    return time.perf_counter() - start


def timed_process():
    """Seconds for a fresh interpreter to start, run the kernel once and
    exit; it inherits this process's environment."""
    import subprocess  # here, so the child does not pay for it

    # No timeout: with one, Popen.wait polls with sleeps of up to 50 ms and
    # the measured time snaps to the polling steps.
    start = time.perf_counter()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True)
    return time.perf_counter() - start


if __name__ == "__main__":
    sys.exit(0 if kernel() == CHECKSUM else "reference kernel gave a different result")
