"""A fixed reference job, timed next to every operation.

On a shared 2-vCPU virtual machine the CPU's speed drifts by up to ±30%
over tens of seconds: the same `describe` took 0.65 s in one 10-s window
and 1.40 s a minute later, with CPU time equal to wall time. A run's wall
times then say more about the neighbours than about the program. The job
below runs the same kinds of work as the program, on data fixed here:
dict and integer updates, a string-keyed graph with successor lists and a
sort, per-element reads of a numpy array through a method call with
tuple-keyed lookups, a bit list packed with numpy, and vectorized binning
and sorting. Dividing an operation's wall time by the job's wall time
measured just before and just after it cancels most of the drift. The job
never calls the program, so a change to the program cannot change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Fixed pseudo-random data made without numpy.random, which the workloads
# other than the codec never load.
_BITS = ((np.arange(40_000, dtype=np.uint64) * 2654435761 >> 13) & 1).astype(np.uint8)
_FLOATS = np.sin(np.arange(150_000, dtype=np.float64) * 12.9898)
_MIDPOINTS = np.linspace(-1.0, 1.0, 63)
_CODES = {(v, n): v for n in range(1, 9) for v in range(1 << n)}


class _Cursor:
    def __init__(self, bits: np.ndarray):
        self.bits = bits
        self.pos = 0

    def next(self) -> int:
        bit = int(self.bits[self.pos])
        self.pos += 1
        return bit


def reference_job() -> float:
    """Run the job once; returns its wall seconds (about 0.1 s)."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(50_000):
        k = (i * 7919) % 10007
        table[k] = table.get(k, 0) + i
    for _ in range(2):
        nodes = [(f"n{i}", i % 7, (f"n{i - 1}",) if i else ()) for i in range(5_000)]
        kind = {n: k for n, k, _ in nodes}
        succ: dict[str, list[str]] = {n: [] for n, _, _ in nodes}
        for n, _, preds in nodes:
            for p in preds:
                succ[p].append(n)
        sorted(kind, key=lambda n: (kind[n], n))
    cursor = _Cursor(_BITS)
    code = length = 0
    for _ in range(_BITS.size):
        code = (code << 1) | cursor.next()
        length += 1
        if length >= 3 and (code, length) in _CODES:
            code = length = 0
    bits: list[int] = []
    for value in range(8_000):
        for i in range(5, -1, -1):
            bits.append((value >> i) & 1)
    np.packbits(np.array(bits, dtype=np.uint8))
    for _ in range(4):  # small arrays, many passes: little added to the peak RSS
        labels = np.searchsorted(_MIDPOINTS, _FLOATS)
        np.bincount(labels, weights=_FLOATS, minlength=64)
    np.argsort(np.abs(_FLOATS), kind="stable")
    return perf_counter() - start
