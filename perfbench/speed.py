"""Machine-speed probe: a fixed kernel timed between operations.

On a shared virtual machine the speed of all code can change by 1.5x or
more within seconds, as other tenants load the host.  The benchmark runs
``probe()`` before every operation and every set-up round, and reports each
timing in *reference seconds*: measured seconds scaled by
``REF_PROBE_S / probe time``, where the probe time is the mean of the probes
run just before and just after.  That is the time the operation would take
on a machine where the probe takes ``REF_PROBE_S``.

The kernel depends on nothing in stftpr, so a change to stftpr moves the
operation's time and not the probe's.  It mixes the kinds of work stftpr's
operations do: interpreter loops, many calls into numpy on tiny arrays,
FFTs, small complex SVDs, and dict and string churn.  In the weights below
its slowdown tracked that of the workloads' operations more closely than
any one of those parts alone.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe time at the faster of the speeds seen on a 2-core Xeon
# (Sapphire Rapids) virtual machine, so reference seconds read near real ones
REF_PROBE_S = 0.003

_rng = np.random.default_rng(0)
_VEC = _rng.standard_normal(4096)
_MAT = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_TINY = np.arange(3.0)


def probe() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(6000):
        total += i * i
    for _ in range(7):
        np.fft.fft(_VEC)
    for _ in range(500):
        np.abs(_TINY).sum()
        np.dot(_TINY, _TINY)
    for _ in range(20):
        np.linalg.svd(_MAT)
    table = {}
    for i in range(1600):
        table[i % 97] = (i, str(i))
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor turning seconds measured between two probes into reference seconds."""
    return REF_PROBE_S / (0.5 * (before + after))
