"""Host-speed reference: the benchmark's timings in reference seconds.

The benchmark runs on shared hosts whose speed drifts by tens of percent,
over seconds and over minutes: other tenants contend for the cores, caches
and memory, while CPU time stays equal to wall time.  Identical passes of
`search` took 6.2 s to 10.9 s within minutes of each other on a 2-vCPU VM.
No statistic over one run removes a drift that lasts longer than the run.

So the benchmark times a fixed reference kernel of its own next to every
call of the program, and reports each call's latency scaled by
`REF_S / kernel time`: the latency on a host where the kernel takes
`REF_S` seconds.  The kernel does not touch the program, so a change to
the program moves the scaled times in full, while a slower host slows
the call and the kernel together, and the two largely cancel.  The
kernel mixes the three kinds of work the workloads do: pure-Python
integer and dict work (enumeration, compression, parsing), small dense
eigen-solves (the n <= 64 path of `lambda1`) and sparse matrix-vector
products (the power iteration).  The cyclic garbage collector is off
while it runs, so that collections the program's garbage triggers stay
in the program's calls.

Runs always report the raw times too, beside the scaled ones.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np
import scipy.sparse as sps

# The kernel's time on the reference host (2 vCPU Xeon VM at 2.0 GHz,
# Python 3.11, numpy and scipy with OpenBLAS): about its median there.
REF_S = 0.035

_rng = np.random.default_rng(20160520)
_dense = _rng.standard_normal((24, 24))
_dense = _dense + _dense.T
# About 10 MB of matrix: more than a core's L2 cache, as the matrices of
# the large `lambda1` solves are, so that contention for the shared cache
# and memory slows the kernel as it slows them.  Eight random columns a
# row, built in CSR form directly: no larger temporary arrays raise the
# process's peak memory.
_order = 100_000
_sparse = sps.csr_matrix(
    (np.ones(8 * _order),
     _rng.integers(0, _order, size=8 * _order, dtype=np.int32),
     np.arange(0, 8 * _order + 1, 8, dtype=np.int32)),
    shape=(_order, _order))
_start = np.ones(_order) / np.sqrt(_order)


def _kernel() -> float:
    table: dict[int, int] = {}
    for i in range(17_000):
        key = (i * 2654435761) & 4095
        table[key] = table.get(key, 0) ^ i
    top = 0.0
    for _ in range(80):
        top += np.linalg.eigvalsh(_dense)[-1]
    y = _sparse @ _start
    return top + np.linalg.norm(y) + len(table)


def sample() -> float:
    """Seconds the reference kernel takes now: three times the median of
    three runs of a third of it, so that one interrupted run does not
    count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
        return 3.0 * sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between kernel samples `before` and `after`,
    in reference seconds."""
    return seconds * REF_S * 2.0 / (before + after)
