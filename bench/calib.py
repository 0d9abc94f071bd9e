"""Machine-speed calibration for the benchmark's timings.

On the shared 2-vCPU box this benchmark was written on, the same
pure-Python work takes anywhere from 0.7x to 1.1x of its usual time, in
phases that last from under a second to about twenty seconds, and each
vCPU drifts on its own (other tenants share the physical cores).  Left
raw, a 30-second run's throughput moved by 8-40% between runs of the same
code.

So the benchmark pins itself and its children to one CPU, and before and
after every timed op (or census batch), and inside long ops while the
child is stopped (run.spawn), it times this fixed kernel there.
An op's seconds are scaled by REFERENCE_S over the median kernel time
around it and its neighbours: the result is the op's time at the
reference speed.  The kernel does not use extpack, so a change to the
library cannot move the scale.
"""

from __future__ import annotations

import random
import statistics
import time

#: kernel seconds at the reference speed (about its median on that box)
REFERENCE_S = 0.015

_N = 16000


def _pairs() -> list[tuple[int, int]]:
    rng = random.Random(20261017)
    return [(rng.randrange(_N), rng.randrange(_N)) for _ in range(2 * _N)]


_PAIRS = _pairs()


def _kernel() -> int:
    """Union-find with path halving plus dict counting: the same kind of
    interpreter work as the library's complex code."""
    parent = list(range(_N))
    for a, b in _PAIRS:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
    sizes: dict[int, int] = {}
    for x in range(_N):
        r = x
        while parent[r] != r:
            r = parent[r]
        sizes[r] = sizes.get(r, 0) + 1
    return len(sizes)


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(raw: list[float], kernel: list[tuple[float, ...]], window: int) -> list[float]:
    """raw[i] at the reference speed, where kernel[i] holds the kernel times
    taken around (and during) op i.  The speed of op i is the median over
    ops i - window .. i + window, which follows the drift but not the
    kernel's own jitter."""
    out = []
    for i, seconds in enumerate(raw):
        near = kernel[max(0, i - window):i + window + 1]
        out.append(seconds * REFERENCE_S / statistics.median(k for pair in near for k in pair))
    return out
