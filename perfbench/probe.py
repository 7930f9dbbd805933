"""Host-speed probes: fixed mixes of interpreter, small-NumPy and streaming work.

A probe runs between timed operations.  Its median CPU time over a window
tracks how fast the host is at that moment; the benchmark scales its
figures by ``NOMINAL_NS[kind] / median``, which takes most of the host's
drift out of run-to-run comparisons.  The probes never import the program
under test, so no change to the program can move them.

Host drift does not slow every kind of work alike: between two quiet
periods an hour apart, interpreter-bound work and ``cc`` ran about 1.7x
faster in the second, the memory-bound C kernels of ``kernels-large`` only
about 1.3x.  So each workload gets a probe with its own mix: ``glue``
(interpreter and small arrays, like ``kernels-small`` and the service) and
``stream`` (``glue`` plus streaming over 1 MB arrays, like the large C
kernels).
"""

from __future__ import annotations

import time

import numpy as np

#: median probe time per kind on the reference host (2-vCPU VM, CPython
#: 3.11, NumPy 2.4).  Corrected figures read as if measured at this speed.
NOMINAL_NS = {"glue": 64_000, "stream": 426_000}

_VECTOR = np.linspace(0.0, 1.0, 256, dtype=np.float32)
_TABLE = {index: index * 3 for index in range(64)}
_LARGE = np.linspace(0.0, 1.0, 1 << 18, dtype=np.float32)
_LARGE_OUT = np.empty_like(_LARGE)


def _work() -> float:
    total = 0
    for index in range(400):
        total += _TABLE[index & 63] ^ index
    buffer = _VECTOR.copy()
    for _ in range(8):
        buffer = buffer * np.float32(1.0001) + _VECTOR
    return float(buffer.sum()) + total


def _stream() -> None:
    for _ in range(4):
        np.multiply(_LARGE, np.float32(1.0001), out=_LARGE_OUT)
        np.add(_LARGE_OUT, _LARGE, out=_LARGE_OUT)


def probe_ns(kind: str = "glue") -> int:
    """Thread CPU time of one probe, in ns (waits for the CPU are excluded).

    The first pass only brings the probe's code and data back into cache,
    so that what the program under test left in the caches cannot move
    the timed second pass.
    """
    passes = (_work, _stream) if kind == "stream" else (_work,)
    for work in passes:
        work()
    start = time.thread_time_ns()
    for work in passes:
        work()
    return time.thread_time_ns() - start
