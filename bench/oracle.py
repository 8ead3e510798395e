"""Reference checks for every benchmark operation, independent of the
program: nothing here imports `cubespectra` or its tests.

`check(op, call, cache)` returns (ok, reason, uncertified) for one CLI
call.  Costly references (eigenvalues of input families, brute-force
subcube counts) are memoised in `cache`, a dict keyed by the input's
content, which `run.py` keeps on disk per workload and seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations

import numpy as np

import gen

EIG_SLACK = 1e-9
DEFAULT_TOL = 1e-10


class Mismatch(Exception):
    """An output disagrees with its reference."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# Families and their spectra.


def parse_family(text: str) -> tuple[int, np.ndarray]:
    lines = [s.split("#", 1)[0].strip() for s in text.splitlines()]
    lines = [s for s in lines if s]
    _require(bool(lines) and lines[0].startswith("d="), "no d= header")
    d = int(lines[0][2:])
    masks = []
    for line in lines[1:]:
        _require(len(line) == d and set(line) <= {"0", "1"},
                 f"bad vertex line {line!r}")
        masks.append(int(line[::-1], 2))
    members = np.array(sorted(masks), dtype=np.int64)
    _require(len(set(masks)) == len(masks), "duplicate vertex")
    return d, members


def parse_vector(text: str) -> tuple[int, dict[int, float]]:
    lines = [s.split("#", 1)[0].strip() for s in text.splitlines()]
    lines = [s for s in lines if s]
    _require(bool(lines) and lines[0].startswith("d="), "no d= header")
    d = int(lines[0][2:])
    weights = {}
    for line in lines[1:]:
        bits, weight = line.split()
        _require(len(bits) == d, f"bad vertex line {line!r}")
        weights[int(bits[::-1], 2)] = float(weight)
    return d, weights


def parse_vertex(text: str) -> int:
    """'{1,3}' -> 0b101."""
    inner = text.strip()[1:-1]
    return sum(1 << (int(j) - 1) for j in inner.split(",") if j)


def edges(d: int, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j) of members at Hamming distance 1, both ways."""
    rows, cols = [], []
    n = len(members)
    for b in range(d):
        nbr = members ^ (1 << b)
        idx = np.searchsorted(members, nbr)
        ok = idx < n
        ok[ok] = members[idx[ok]] == nbr[ok]
        rows.append(np.nonzero(ok)[0])
        cols.append(idx[ok])
    return np.concatenate(rows), np.concatenate(cols)


def dense_lambda1(d: int, members: np.ndarray) -> float:
    n = len(members)
    mat = np.zeros((n, n))
    rows, cols = edges(d, members)
    mat[rows, cols] = 1.0
    return float(np.linalg.eigvalsh(mat)[-1])


def sparse_lambda1(d: int, members: np.ndarray) -> float:
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    n = len(members)
    rows, cols = edges(d, members)
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    vals = eigsh(mat, k=1, which="LA", v0=np.ones(n), tol=0,
                 return_eigenvectors=False)
    return float(vals[0])


def ball_lambda1(d: int, i: int) -> float:
    """Top eigenvalue of the ball's level-reduced symmetric tridiagonal."""
    off = [math.sqrt(j * (d - j + 1)) for j in range(1, i + 1)]
    mat = np.diag(off, 1) + np.diag(off, -1)
    return float(np.linalg.eigvalsh(mat)[-1]) if i else 0.0


def _family_members(spec: dict) -> np.ndarray:
    if spec["shape"] == "init":
        return np.arange(spec["n"], dtype=np.int64)
    return np.array(gen.ball_members(spec["d"], spec["i"]), dtype=np.int64)


def _cached(cache: dict, key: str, compute):
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def is_compressed(d: int, members: np.ndarray) -> bool:
    """Down-closed and stable under every shift of an element to a
    smaller free index."""
    isin = np.zeros(1 << d, dtype=bool)
    isin[members] = True
    for hi in range(d):
        has_hi = (members >> hi) & 1 == 1
        if not isin[members[has_hi] ^ (1 << hi)].all():
            return False
        for lo in range(hi):
            sel = members[has_hi & ((members >> lo) & 1 == 0)]
            if not isin[(sel ^ (1 << hi)) | (1 << lo)].all():
                return False
    return True


def brute_force_subcubes(d: int, members: np.ndarray, k: int) -> int:
    """Count (base, direction set) pairs whose 2^k corners all lie in the
    family, over every direction set of size k."""
    isin = np.zeros(1 << d, dtype=bool)
    isin[members] = True
    total = 0
    for dirs in combinations(range(d), k):
        dmask = sum(1 << b for b in dirs)
        bases = members[(members & dmask) == 0]
        ok = np.ones(len(bases), dtype=bool)
        for r in range(1, k + 1):
            for sub in combinations(dirs, r):
                ok &= isin[bases | sum(1 << b for b in sub)]
        total += int(ok.sum())
    return total


def rayleigh(d: int, weights: dict[int, float]) -> float:
    """<A(Q_d) w, w> over the whole cube."""
    w = np.zeros(1 << d)
    for v, x in weights.items():
        w[v] = x
    idx = np.arange(1 << d)
    total = 0.0
    for b in range(d):
        low = idx[(idx >> b) & 1 == 0]
        total += 2.0 * float(np.dot(w[low], w[low | (1 << b)]))
    return total


# ---------------------------------------------------------------------------
# Per-command checks.  Each returns True when the call reports an
# interval that claims convergence but is wider than the requested tol.


def _check_search(spec, rec, cache):
    n = spec["n"]
    _require(rec["complete"] is True, "search not complete")
    best = rec["best_lambda1"]
    _require(bool(rec["maximizers"]), "no maximizers")
    for fam in rec["maximizers"]:
        members = np.array(sorted(parse_vertex(v) for v in fam), dtype=np.int64)
        _require(len(set(members.tolist())) == n, "maximizer has wrong size")
        value = dense_lambda1(n - 1, members)
        _require(abs(value - best) <= EIG_SLACK,
                 f"best {best!r} != eigvalsh {value!r} of a maximizer")
    segment = _cached(cache, f"dense-init:{n - 1}:{n}", lambda: dense_lambda1(
        n - 1, np.arange(n, dtype=np.int64)))
    _require(best >= segment - EIG_SLACK, "below the initial segment")
    _require(best >= math.sqrt(n - 1) - EIG_SLACK, "below the star")
    return False


def _tol(argv: list[str]) -> float:
    return float(argv[argv.index("--tol") + 1]) if "--tol" in argv else DEFAULT_TOL


def _check_lambda1(spec, rec, cache, argv):
    if spec["shape"] == "ball":
        ref = ball_lambda1(spec["d"], spec["i"])
        n = sum(math.comb(spec["d"], j) for j in range(spec["i"] + 1))
    else:
        n = spec["n"]
        ref = _cached(cache, f"sparse-init:{spec['d']}:{n}", lambda: sparse_lambda1(
            spec["d"], _family_members(spec)))
    _require(rec["n"] == n and rec["d"] == spec["d"], "wrong n or d")
    err = rec["error_bound"]
    _require(math.isfinite(err) and err >= 0, f"bad error bound {err!r}")
    _require(abs(rec["lambda1"] - ref) <= err + EIG_SLACK,
             f"lambda1 {rec['lambda1']!r} vs reference {ref!r} (+-{err!r})")
    return bool(rec["diagnostics"]["converged"] and err > _tol(argv))


def _check_bounds(spec, rec, cache):
    members = _family_members(spec)
    size = spec["n"] if spec["shape"] == "init" else f"r{spec['i']}"
    key = f"dense-{spec['shape']}:{spec['d']}:{size}"
    ref = _cached(cache, key, lambda: dense_lambda1(spec["d"], members))
    uppers = dict(rec["classic"])
    uppers["walk_trace_k2"] = rec["walk_trace_k2"]
    if "level_bound" in rec:
        uppers["level_bound"] = rec["level_bound"]
    for name, value in uppers.items():
        _require(value >= ref - EIG_SLACK, f"{name} {value!r} < lambda1 {ref!r}")
    _require(rec["walk_counts"]["bounds_hold"] is True, "bounds_hold is false")
    _require(abs(rec["lambda1"] - ref) <= 1e-6, "lambda1 disagrees")
    return False


def _check_hamming(spec, rec, cache):
    exact = ball_lambda1(spec["d"], spec["i"])
    err = rec["error_bound"]
    _require(abs(rec["lambda1"] - exact) <= err + EIG_SLACK, "lambda1 disagrees")
    chain = [rec["walk_lower_bound"], exact, rec["upper_bound"],
             rec["level_bound"]]
    _require(all(a <= b + EIG_SLACK for a, b in zip(chain, chain[1:])),
             f"walk <= exact <= upper <= level fails: {chain!r}")
    return False


def _check_compress_family(spec, rec, cache):
    with open(spec["input"], encoding="utf-8") as fh:
        d_in, before = parse_family(fh.read())
    d, members = parse_family(rec["output"])
    _require(d == d_in == spec["d"], "dimension changed")
    _require(rec["size"] == spec["n"] == len(members) == len(before),
             "size not preserved")
    _require(is_compressed(d, members), "output is not compressed")
    return False


def _check_compress_vector(spec, rec, cache):
    with open(spec["input"], encoding="utf-8") as fh:
        d, before = parse_vector(fh.read())
    d_out, after = parse_vector(rec["output"])
    _require(d_out == d, "dimension changed")
    _require(sorted(before.values()) == sorted(after.values()),
             "weight multiset changed")
    r0, r1 = rayleigh(d, before), rayleigh(d, after)
    _require(r1 >= r0 - 1e-9 * max(1.0, abs(r0)),
             f"Rayleigh quotient fell from {r0!r} to {r1!r}")
    return False


def _check_partition(spec, rec, cache):
    _require(rec["verified"] is True, "partition not verified")
    return False


def _check_count_cubes(spec, rec, cache):
    with open(spec["family"], encoding="utf-8") as fh:
        text = fh.read()
    key = f"cubes:{hashlib.sha256(text.encode()).hexdigest()}:{spec['dprime']}"
    d, members = parse_family(text)
    want = _cached(cache, key, lambda: brute_force_subcubes(
        d, members, spec["dprime"]))
    _require(rec["count"] == want, f"count {rec['count']} != {want}")
    return False


def check(op: dict, call: dict, cache: dict) -> tuple[bool, str, bool]:
    """(ok, reason, uncertified) for one call against its reference."""
    if call["error"] is not None:
        return False, f"raised {call['error']}", False
    if call["code"] != 0:
        return False, f"exit {call['code']}: {call['stderr'].strip()}", False
    spec = op["check"]
    try:
        rec = json.loads(call["output"])
        kind = spec["kind"]
        if kind == "lambda1":
            uncertified = _check_lambda1(spec, rec, cache, op["argv"])
        else:
            uncertified = _CHECKS[kind](spec, rec, cache)
    except (Mismatch, KeyError, ValueError, TypeError, OSError) as exc:
        return False, f"{type(exc).__name__}: {exc}", False
    return True, "", uncertified


_CHECKS = {
    "search": _check_search,
    "bounds": _check_bounds,
    "hamming": _check_hamming,
    "compress-family": _check_compress_family,
    "compress-vector": _check_compress_vector,
    "partition": _check_partition,
    "count-cubes": _check_count_cubes,
}
