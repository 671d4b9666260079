"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the same computation takes up to twice as long in a busy
phase as in a quiet one, and such phases last from seconds to minutes,
longer than one benchmark run.  Each child times this kernel a few times
just before and just after the workload; ``run.py`` divides the children's
total workload time by their total kernel time and scales the quotient by
its ``REFERENCE_KERNEL_S``.  The kernel uses only NumPy and the interpreter,
never ``trimkf``, so a change to the program moves the workload's time and
not the kernel's.

Its parts mirror the kinds of work the workloads do: interpreter-bound
dictionary updates, the Lorenz-96 tendency on small (36 x 200) and large
(36 x 2000) blocks, and sorting 1e5 numbers.
"""

from __future__ import annotations

import os
import time

import numpy as np

_RNG = np.random.default_rng(20240)
_SMALL = _RNG.standard_normal((36, 200))
_LARGE = _RNG.standard_normal((36, 2000))
_SORT = _RNG.standard_normal(100_000)


def _tendency(y: np.ndarray) -> np.ndarray:
    return (np.roll(y, -1, 0) - np.roll(y, 2, 0)) * np.roll(y, 1, 0) - y + 8.0


def kernel() -> float:
    """Run the reference work once; return its checksum."""
    table: dict[int, float] = {}
    for i in range(100_000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
    small = _SMALL
    for _ in range(400):
        small = small + 0.001 * _tendency(small)
    large = _LARGE
    for _ in range(60):
        large = large + 0.001 * _tendency(large)
    for _ in range(24):
        ordered = np.sort(_SORT)
    return sum(table.values()) + float(small.sum() + large.sum() + ordered[0])


def samples(count: int, processes: int = 1) -> list[float]:
    """Wall seconds of each of ``count`` rounds of ``kernel()``.

    In one round ``processes`` processes (this one and forked copies) each
    run the kernel at once, so a workload that keeps several cores busy is
    compared with a kernel that does too.
    """
    out = []
    for _ in range(count):
        t0 = time.perf_counter()
        pids = []
        for _ in range(processes - 1):
            pid = os.fork()
            if pid == 0:
                try:
                    kernel()
                finally:
                    os._exit(0)
            pids.append(pid)
        kernel()
        for pid in pids:
            os.waitpid(pid, 0)
        out.append(time.perf_counter() - t0)
    return out
