"""One-shot report: time each row of ROADMAP.md's baseline table once.

    python3 bench/baseline.py

Prints every row's measured figure next to the figure the roadmap
records, so "reproduces the baseline table within noise" can be checked
by eye.  Single runs, not gated and not part of BENCHMARK.json: several
rows (search at n = 32, `hamming --d 27`, `verify_partition` at
n = 5,461) are too slow for the gated workloads.  Takes about a minute.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from cubespectra import cli, core, search, spectral  # noqa: E402

import oracle  # noqa: E402


def timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return perf_counter() - start, out


def row(name: str, measured: str, roadmap: str) -> None:
    print(f"{name:<60} {measured:<40} roadmap: {roadmap}")


def stacked_eigvalsh(fams) -> tuple[float, float, np.ndarray]:
    """Build the adjacency matrices of equal-size families as one stack
    and solve them in one call; returns (build s, solve s, values)."""
    start = perf_counter()
    n = len(fams[0])
    mats = np.zeros((len(fams), n, n))
    for k, fam in enumerate(fams):
        members = np.array(fam.sorted_members(), dtype=np.int64)
        rows, cols = oracle.edges(fam.d, members)
        mats[k, rows, cols] = 1.0
    build = perf_counter() - start
    start = perf_counter()
    values = np.linalg.eigvalsh(mats)[:, -1]
    return build, perf_counter() - start, values


def main() -> int:
    times, counts = [], []
    for n in (20, 24, 28, 32):
        dt, res = timed(search.max_lambda1, n, n - 1)
        times.append(f"{dt:.2f}")
        counts.append(f"{res.search_space_size:,}")
    row("max_lambda1(n, n-1), n = 20/24/28/32", " / ".join(times) + " s",
        "0.24 / 0.71 / 3.2 / 10.6 s")
    row("  families", " / ".join(counts), "155 / 433 / 1,180 / 3,140")

    enum = [timed(lambda m: list(search.enumerate_compressed(m, m - 1)), n)
            for n in (28, 32)]
    row("enumeration only, n = 28 / 32",
        f"{enum[0][0]:.2f} / {enum[1][0]:.2f} s", "1.5 / 6.0 s")

    fams28 = enum[0][1]
    solves = [timed(spectral.lambda1, fam, 1e-10) for fam in fams28]
    its = [res.iterations for _, res in solves]
    row("lambda1 per family inside the search, n = 28",
        f"{sum(dt for dt, _ in solves):.2f} s total, {min(its)}-{max(its)} it",
        "1.33 s total, 10-86 iterations")
    build, solve, values = stacked_eigvalsh(fams28)
    gap = max(abs(v - res.lambda1) for v, (_, res) in zip(values, solves))
    row("stacked eigvalsh on the same matrices",
        f"{solve:.3f} s (+{build:.2f} s build), max diff {gap:.1e}",
        "0.085 s (+0.24 s build), max diff 9e-15")

    init = core.initial_segment(50_000, 16)
    dt, res = timed(spectral.lambda1, init, 1e-10)
    row("lambda1, init segment 50,000 in Q16",
        f"{dt:.2f} s, {res.iterations} it, error {res.error_bound:.1e}",
        "0.80 s, 115 iterations, error 1.7e-8")
    ball = core.hamming_ball(20, 6)
    dt, res = timed(spectral.lambda1, ball, 1e-10)
    row(f"lambda1, ball(20, 6), n = {len(ball):,}",
        f"{dt:.2f} s, error {res.error_bound:.1e}", "1.06 s, error 2.9e-9")
    lanczos = []
    for fam in (init, ball):
        members = np.array(fam.sorted_members(), dtype=np.int64)
        dt, _ = timed(oracle.sparse_lambda1, fam.d, members)
        lanczos.append(f"{dt:.2f}")
    row("eigsh (Lanczos, tol=0), both cases, no certification",
        " / ".join(lanczos) + " s", "0.20 / 0.09 s with certification")

    dt_py, edges = timed(core.induced_edges, init)
    members = np.array(init.sorted_members(), dtype=np.int64)
    dt_np, (rows, _) = timed(oracle.edges, 16, members)
    row("induced_edges, n = 50,000: Python vs searchsorted",
        f"{dt_py:.3f} vs {dt_np:.3f} s ({len(edges)} = {len(rows) // 2} edges)",
        "0.30 vs 0.048 s")

    dt, _ = timed(spectral.walk_trace_bound, core.initial_segment(1024, 10), 2)
    row("walk_trace_bound, init 1024 in Q10, k = 2", f"{dt:.2f} s", "5.2 s")
    dt, counts = timed(spectral.count_p2_c4, core.initial_segment(2048, 11))
    row("count_p2_c4, init 2048 in Q11", f"{dt:.2f} s ({counts.c4:,} 4-cycles)",
        "0.63 s (28,160 4-cycles)")

    fam = core.initial_segment(5461, 14)
    eps = search.epsilon_preset_sqrt(fam.d, len(fam))
    dt_build, cert = timed(search.build_partition, fam, eps)
    dt_verify, report = timed(search.verify_partition, cert, fam)
    row("build / verify_partition, init 5,461 in Q14, sec51 epsilon",
        f"{dt_build:.2f} / {dt_verify:.2f} s, verified {report.all_passed}",
        "0.17 / 3.7 s")

    with contextlib.redirect_stdout(io.StringIO()):
        dt, code = timed(cli.run, ["hamming", "--d", "27", "--i", "3",
                                   "--bounds"])
    row("cubespectra hamming --d 27 --i 3 --bounds", f"{dt:.2f} s, exit {code}",
        "8.0 s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
