"""Seeded inputs for the benchmark workloads.

`pass_ops(workload, seed, p, directory)` writes the input files of pass p
into `directory` and returns that pass's operations.  An operation is a
dict with the CLI `argv`, a `check` spec the reference checker reads,
and, for pipelines, `save`: the output field to write to a file that a
later operation of the same pass reads.  The same (workload, seed, p)
always gives the same argv and byte-identical files.

This module does not import `cubespectra`: the file formats are written
here from their specification (a `d=<int>` header, then one vertex per
line as a binary string whose j-th character is bit j-1), so the program
under test sees only generated files.
"""

from __future__ import annotations

import math
import os
import random
from itertools import combinations
from math import comb

WORKLOADS = ("search", "certify", "partition")

# search: every N in this range once per pass, in a seeded order.
SEARCH_NS = tuple(range(8, 29))

# certify: sizes come from one draw u per pass.  Passes run in cycles of
# STRATA; within a cycle, pass p draws u near the middle of stratum
# sigma(p mod STRATA) of [0, 1), for a seeded permutation sigma and a
# seeded jitter of JITTER stratum widths, so every cycle covers the whole
# size range and runs stop only at the end of a cycle.  Costly inputs
# are coupled (the largest segment and ball go with the cheapest
# `hamming` call; see also BOUNDS_BUDGET), which keeps the work per pass
# nearly constant.
CERTIFY_STRATA = 3
JITTER = 0.3
CERTIFY_DIM = 16
INIT_RANGE = (30_000, 60_000)
HAMMING_DS = (22, 23, 24)
HAMMING_RADIUS = 3


def _ball_size(d: int, i: int) -> int:
    return sum(comb(d, j) for j in range(i + 1))


def _balls(lo: int, hi: int, dims, radii) -> tuple[tuple[int, int], ...]:
    found = [(d, i) for d in dims for i in radii if lo <= _ball_size(d, i) <= hi]
    return tuple(sorted(found, key=lambda di: (_ball_size(*di), di)))


def _bounds_cost(n: int, d: int) -> int:
    """`bounds` runs in about n^2 d steps: the walk-trace bound rebuilds
    O(n d) adjacency lists once per vertex."""
    return n * n * d


# Hamming balls with n >= 10^4 for `lambda1`, and with 300..600 vertices
# (radius 3 or 4, so the level bound applies) for `bounds`, the latter
# ordered by cost.  The `bounds` initial segment takes the size that
# brings the pair's cost to BOUNDS_BUDGET: 300 vertices beside the
# costliest ball, up to ~560 beside the cheapest.
LARGE_BALLS = _balls(10_000, 40_000, range(14, 27), range(2, 8))
SMALL_BALLS = tuple(sorted(
    _balls(300, 600, range(8, 20), (3, 4)),
    key=lambda di: _bounds_cost(_ball_size(*di), di[0])))
BOUNDS_BUDGET = (_bounds_cost(_ball_size(*SMALL_BALLS[-1]), SMALL_BALLS[-1][0])
                 + _bounds_cost(300, CERTIFY_DIM))

# partition: a random family compressed by the program, then partitioned
# and counted; a fixed ball for the deep partition; a random vector.
PARTITION_DIM = 16
PARTITION_SIZE = (2_400, 2_600)
SEC52_BALL = (24, 3)
VECTOR_DIM = 12
VECTOR_SUPPORT = (256, 512)

# The tail latency is read at a fixed level per workload, and a run
# makes enough calls to leave at least ten samples beyond that level.
TAIL_LEVEL = {"search": 0.75, "certify": 0.66, "partition": 0.88}


def samples_beyond(level: float, count: int) -> int:
    return count - math.ceil(round(level * count, 9))


def min_samples(workload: str) -> int:
    """Calls needed so that >= 10 samples lie beyond the tail level."""
    count = 1
    while samples_beyond(TAIL_LEVEL[workload], count) < 10:
        count += 1
    return count


def binary_line(mask: int, d: int) -> str:
    return "".join("1" if mask >> j & 1 else "0" for j in range(d))


def family_text(d: int, members) -> str:
    lines = [f"d={d}"] + [binary_line(v, d) for v in sorted(members)]
    return "\n".join(lines) + "\n"


def vector_text(d: int, weights: dict[int, float]) -> str:
    lines = [f"d={d}"] + [f"{binary_line(v, d)} {weights[v]!r}"
                          for v in sorted(weights)]
    return "\n".join(lines) + "\n"


def ball_members(d: int, i: int) -> list[int]:
    out = []
    for r in range(i + 1):
        for combo in combinations(range(d), r):
            mask = 0
            for b in combo:
                mask |= 1 << b
            out.append(mask)
    return sorted(out)


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _rng(stream: str, seed: int, p: int) -> random.Random:
    return random.Random(f"{stream}:{seed}:{p}")


def cycle(workload: str) -> int:
    """Passes a run completes together before it may stop."""
    return CERTIFY_STRATA if workload == "certify" else 1


def certify_draw(seed: int, p: int) -> float:
    """The pass's stratified draw u in [0, 1)."""
    strata = list(range(CERTIFY_STRATA))
    _rng("certify", seed, p // CERTIFY_STRATA).shuffle(strata)
    jitter = JITTER * (_rng("certify-u", seed, p).random() - 0.5)
    return (strata[p % CERTIFY_STRATA] + 0.5 + jitter) / CERTIFY_STRATA


def _pick(options, u: float):
    return options[min(int(u * len(options)), len(options) - 1)]


def _search_ops(seed, p, directory):
    ns = list(SEARCH_NS)
    _rng("search", seed, p).shuffle(ns)
    return [{"argv": ["search", "--n", str(n), "--d", str(n - 1)],
             "check": {"kind": "search", "n": n}} for n in ns]


def _certify_ops(seed, p, directory):
    u = certify_draw(seed, p)
    lo, hi = INIT_RANGE
    n_init = lo + int(u * (hi - lo))
    big_d, big_i = _pick(LARGE_BALLS, u)
    small_d, small_i = _pick(SMALL_BALLS, u)
    rest = BOUNDS_BUDGET - _bounds_cost(_ball_size(small_d, small_i), small_d)
    n_small = math.isqrt(rest // CERTIFY_DIM)
    ham_d = _pick(HAMMING_DS, 1.0 - u)
    d = CERTIFY_DIM
    init = _write(directory, "init.fam", family_text(d, range(n_init)))
    ball = _write(directory, "ball.fam",
                  family_text(big_d, ball_members(big_d, big_i)))
    small_init = _write(directory, "small_init.fam",
                        family_text(d, range(n_small)))
    small_ball = _write(directory, "small_ball.fam",
                        family_text(small_d, ball_members(small_d, small_i)))
    ops = [
        {"argv": ["lambda1", "--family", init],
         "check": {"kind": "lambda1", "shape": "init", "d": d, "n": n_init}},
        {"argv": ["lambda1", "--family", ball],
         "check": {"kind": "lambda1", "shape": "ball", "d": big_d, "i": big_i}},
        {"argv": ["bounds", "--family", small_init],
         "check": {"kind": "bounds", "shape": "init", "d": d, "n": n_small}},
        {"argv": ["bounds", "--family", small_ball],
         "check": {"kind": "bounds", "shape": "ball", "d": small_d,
                   "i": small_i}},
        {"argv": ["hamming", "--d", str(ham_d), "--i", str(HAMMING_RADIUS),
                  "--bounds"],
         "check": {"kind": "hamming", "d": ham_d, "i": HAMMING_RADIUS}},
    ]
    _rng("certify-order", seed, p).shuffle(ops)
    return ops


def _partition_ops(seed, p, directory):
    rng = _rng("partition", seed, p)
    lo, hi = PARTITION_SIZE
    n = rng.randint(lo, hi)
    d = PARTITION_DIM
    members = rng.sample(range(1 << d), n)
    raw = _write(directory, "random.fam", family_text(d, members))
    compressed = os.path.join(directory, "compressed.fam")
    bd, bi = SEC52_BALL
    ball = _write(directory, "ball.fam", family_text(bd, ball_members(bd, bi)))
    lo, hi = VECTOR_SUPPORT
    support = rng.sample(range(1 << VECTOR_DIM), rng.randint(lo, hi))
    weights = {v: rng.gauss(0.0, 1.0) for v in support}
    vec = _write(directory, "random.vec", vector_text(VECTOR_DIM, weights))
    return [
        {"argv": ["compress", "--in", raw, "--kind", "family"],
         "check": {"kind": "compress-family", "input": raw, "n": n, "d": d},
         "save": {"field": "output", "path": compressed}},
        {"argv": ["partition", "--family", compressed, "--preset", "sec51",
                  "--verify"],
         "check": {"kind": "partition"}},
        {"argv": ["count-cubes", "--family", compressed, "--dprime", "2"],
         "check": {"kind": "count-cubes", "family": compressed, "dprime": 2}},
        {"argv": ["count-cubes", "--family", compressed, "--dprime", "3"],
         "check": {"kind": "count-cubes", "family": compressed, "dprime": 3}},
        {"argv": ["partition", "--family", ball, "--preset", "sec52",
                  "--verify"],
         "check": {"kind": "partition"}},
        {"argv": ["compress", "--in", vec, "--kind", "vector"],
         "check": {"kind": "compress-vector", "input": vec}},
    ]


_BUILDERS = {"search": _search_ops, "certify": _certify_ops,
             "partition": _partition_ops}


def pass_ops(workload: str, seed: int, p: int, directory: str) -> list[dict]:
    """Write pass p's inputs into `directory` and return its operations."""
    os.makedirs(directory, exist_ok=True)
    return _BUILDERS[workload](seed, p, directory)
