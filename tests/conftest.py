"""Shared brute-force oracles for the test suite.

Everything here recomputes quantities from first principles (set
definitions, dense eigensolvers, pair scans) so the library paths under
test are checked against independent routes.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np
from hypothesis import settings

from cubespectra.core import VertexFamily, binary_string_to_mask

# Every property runs the same examples on every run, with no example
# database and no per-example deadline; each test sets its max_examples.
settings.register_profile("cubespectra", deadline=None, database=None,
                          derandomize=True)
settings.load_profile("cubespectra")


def set_binary_less(s: set, t: set) -> bool:
    """The definitional binary order on index sets: S < T iff the largest
    element of the symmetric difference lies in T."""
    if s == t:
        return False
    return max(s ^ t) in t


def mask_to_set(mask: int) -> set:
    return {j + 1 for j in range(64) if mask >> j & 1}


def cube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u ^ (1 << b)) for u in range(1 << d) for b in range(d)
            if u < u ^ (1 << b)]


def brute_edges(members, d: int) -> list[tuple[int, int]]:
    """Edge list by scanning all pairs for Hamming distance 1."""
    ms = sorted(members)
    return [(u, v) for u, v in itertools.combinations(ms, 2)
            if (u ^ v).bit_count() == 1]


def brute_lambda1(members, d: int) -> float:
    """Spectral radius via a dense symmetric eigensolver."""
    ms = sorted(members)
    if not ms:
        return 0.0
    index = {v: k for k, v in enumerate(ms)}
    mat = np.zeros((len(ms), len(ms)))
    for u, v in brute_edges(ms, d):
        mat[index[u], index[v]] = mat[index[v], index[u]] = 1.0
    return float(np.linalg.eigvalsh(mat)[-1])


def brute_count_subcubes(members, d: int, d_prime: int) -> int:
    """Subcube count by trying every (corner, direction set) pair."""
    members = set(members)
    if d_prime == 0:
        return len(members)
    count = 0
    for dirs in itertools.combinations(range(d), d_prime):
        dir_mask = 0
        for b in dirs:
            dir_mask |= 1 << b
        for base in members:
            if base & dir_mask:
                continue
            if all(base | sub in members for sub in _submasks(dir_mask)):
                count += 1
    return count


def down_set_count(n: int, k: int) -> int:
    """sum over v < n of C(|v|, k): the k-subcube count of the initial
    segment of size n, a down-set, from the digits of n down.  The v that
    agree with n above one of its digits 2^e, where p digits of n are
    set, and have 0 at e hold those p elements and any subset of the e
    below, so by Vandermonde they add sum_i C(p, k - i) C(e, i) 2^(e - i)."""
    total, p = 0, 0
    for e in range(n.bit_length() - 1, -1, -1):
        if n >> e & 1:
            total += sum(comb(p, k - i) * comb(e, i) << (e - i)
                         for i in range(min(k, e) + 1))
            p += 1
    return total


def down_closure(masks) -> frozenset[int]:
    """Every subset of every given mask."""
    return frozenset(sub for mask in masks for sub in _submasks(mask))


def _submasks(mask: int):
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def brute_is_compressed(members, d: int) -> bool:
    """Definitional check: down-closed and stable under every swap of a
    larger element for a smaller absent one."""
    members = set(members)
    for s in members:
        for b in range(d):
            if s >> b & 1:
                if s ^ (1 << b) not in members:
                    return False
                for a in range(b):
                    if not s >> a & 1 and (s ^ (1 << b)) | (1 << a) not in members:
                        return False
    return True


def brute_vector_is_compressed(weights, d: int) -> bool:
    """Definitional check on a weight dict, an absent vertex weighing 0:
    no vertex outweighs its shadow S - {b} or a swap S - {b} + {a},
    a < b, a not in S."""
    w = lambda s: weights.get(s, 0.0)
    for s in range(1 << d):
        for b in range(d):
            if s >> b & 1:
                if w(s) > w(s ^ (1 << b)):
                    return False
                for a in range(b):
                    if not s >> a & 1 and w(s) > w((s ^ (1 << b)) | (1 << a)):
                        return False
    return True


@functools.cache
def brute_down_set(v: int) -> int:
    """The closure of {v} under every shadow S - {b} and every swap
    S - {b} + {a}, a < b, a not in S, as an int with bit s set iff s is
    in it: the least family holding v that the definition calls
    compressed.  Each shadow and swap of v is smaller than v, so the
    recursion ends."""
    bits = 1 << v
    for b in range(v.bit_length()):
        if v >> b & 1:
            bits |= brute_down_set(v ^ 1 << b)
            for a in range(b):
                if not v >> a & 1:
                    bits |= brute_down_set(v ^ 1 << b | 1 << a)
    return bits


def all_subsets_of_cube(d: int, n: int):
    """All n-subsets of V(Q_d) as tuples of masks."""
    return itertools.combinations(range(1 << d), n)


def ball_size(d: int, i: int) -> int:
    return sum(comb(d, j) for j in range(i + 1))


def parse_family_by_line(text: str) -> VertexFamily:
    """Reference family-file reader: strip comments and blank lines, then
    decode and check one vertex line at a time."""
    lines = [s for s in (l.split("#", 1)[0].strip() for l in text.splitlines())
             if s]
    if not lines or not lines[0].startswith("d="):
        raise ValueError("family file must start with a 'd=<int>' line")
    d = int(lines[0][2:])
    members: set[int] = set()
    for line in lines[1:]:
        mask = binary_string_to_mask(line, d)
        if mask in members:
            raise ValueError(f"duplicate vertex line {line!r}")
        members.add(mask)
    return VertexFamily(d, frozenset(members))
