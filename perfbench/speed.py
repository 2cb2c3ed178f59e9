"""The machine's speed, measured beside the work, so that times can be
scaled to one reference speed.

The 2-core virtual machine the bounds were set on runs for minutes at a
time up to 1.6 times slower than usual (NOTES.md, "Time and noise").  How
much slower depends on the code: arithmetic in the interpreter, dict and
frozenset work and scattered memory reads each slow by their own factor,
and hylo's queries slow about as much as the three together.  ``probe``
times one fixed mix of the three, which no change to hylo can touch;
``scale`` turns a time measured between two probes into the time it would
take on a machine where the mix takes ``REFERENCE_MS``.
"""

from __future__ import annotations

import time
from array import array

# The mix's usual best time on that machine, so scaled times read close to
# its unslowed wall times.
REFERENCE_MS = 6.0

_TABLE = array("q", range(1 << 19))  # 4 MiB, read at scattered places


def _arithmetic():
    s = 0
    for i in range(40_000):
        s += i * i % 7
    return s


def _containers():
    def depth(t, k):
        return len(t) if k == 0 else depth(t[1:], k - 1) + 1

    d = {}
    for i in range(1500):
        fs = frozenset((i % 13, i % 7, i % 5))
        d[fs] = d.get(fs, 0) + len(fs)
        t = tuple(sorted(fs))
        d[t] = depth(t + t, 4)
    return len(d)


def _scattered():
    n, i, s = len(_TABLE), 12345, 0
    for _ in range(6000):
        i = (i * 1103515245 + 12345) % n
        s += _TABLE[i]
    return s + len({frozenset((j % 97, j % 1000)) for j in range(0, 10_500, 7)})


def probe() -> float:
    """Milliseconds the mix takes now: the best of three runs."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _arithmetic()
        _containers()
        _scattered()
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def scale(before: float, after: float) -> float:
    """Factor for a time measured between two probes."""
    return REFERENCE_MS / ((before + after) / 2.0)
