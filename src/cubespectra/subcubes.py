"""Exact subcube counting and the initial-segment bounds.

`count_subcubes` counts a down-set F as sum over T in F of C(|T|, d'):
every subcube has a unique top corner, and in a down-set every corner
lies below it.  Other families go through a level join: a subcube (b, D),
b + S for S in D, lies in F iff (b, D - x) and (b + x, D - x) do, x = max D.
`initial_count` computes the count for the initial segment of the binary
order, which maximizes it among families of the same size, via the
binary-decomposition recursion T(n) = T(r) + T(m) + T'(m) where r is the
top power of two in n and m = n - r.  Two closed-form relaxations cap
the recursion: (n / 2^k) C(log2 n, k) and the coarser
(n / 2^k) C(log2 n + 1, k), using the real-argument binomial.  Each
takes the binomial first, and builds 2^k only where it is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, log2

from .core import VertexFamily


@dataclass(frozen=True)
class SubcubeCount:
    d_prime: int
    count: int


def count_subcubes(fam: VertexFamily, d_prime: int) -> SubcubeCount:
    """Exact number of d_prime-dimensional subcubes inside the family.

    A down-set F has sum_{T in F} C(|T|, d_prime): each subcube has a unique
    top corner, and every corner lies below it.  Else see `_level_join`."""
    if not 0 <= d_prime <= fam.d:
        raise ValueError(f"subcube dimension {d_prime} out of range 0..{fam.d}")
    members = fam.members
    for t in members:
        m = t
        while m and t ^ (m & -m) in members:
            m &= m - 1
        if m:                       # the shadow t - (m & -m) is missing
            return SubcubeCount(d_prime, _level_join(members, fam.d, d_prime))
    return SubcubeCount(d_prime, sum(comb(t.bit_count(), d_prime) for t in members))


def _level_join(members: frozenset[int], d: int, d_prime: int) -> int:
    """Count (b, D), packed as b | D << d, level by level: each arises once,
    from (b, D - x) and (b + x, D - x) of the level below, x = max D."""
    bits = [1 << i for i in range(d)]
    level, count = members, len(members)
    for _ in range(d_prime):
        found = [key | x << d for key in level
                 for x in bits[(key >> d).bit_length():]
                 if not key & x and key | x in level]
        level, count = set(found), len(found)
    return count


@lru_cache(maxsize=None)
def _initial_count(n: int, d_prime: int) -> int:
    if d_prime == 0:
        return n
    if n == 0:
        return 0
    if n & (n - 1) == 0:            # power of two: a cube of dimension log2 n
        k = n.bit_length() - 1
        if d_prime > k:
            return 0
        return comb(k, d_prime) * (n >> d_prime)
    r = 1 << (n.bit_length() - 1)   # top binary digit
    m = n - r
    return (_initial_count(r, d_prime) + _initial_count(m, d_prime)
            + _initial_count(m, d_prime - 1))


def initial_count(n: int, d_prime: int) -> SubcubeCount:
    """Subcube count of the initial segment of size n, exact integers."""
    if n < 0 or d_prime < 0:
        raise ValueError("n and d_prime must be nonnegative")
    return SubcubeCount(d_prime, _initial_count(n, d_prime))


def generalized_binomial(x: float, k: int) -> float:
    """C(x, k) for real x: product form, clamped to 0 when x < k so the
    bounds vanish below threshold."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if x < k:
        return 0.0
    return raw_generalized_binomial(x, k)


def raw_generalized_binomial(x: float, k: int) -> float:
    """C(x, k) without the clamp, the analytic product form."""
    value = 1.0
    for t in range(k):
        value *= (x - t) / (k - t)
    return value


def subcube_bound_smooth(n: int, d_prime: int) -> float:
    """(n / 2^k) C(log2 n, k): tight at powers of two, valid for every
    family of n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    binomial = generalized_binomial(log2(n), d_prime)
    return n / 2**d_prime * binomial if binomial else 0.0


def subcube_bound_integer(n: int, d_prime: int) -> float:
    """(n / 2^k) C(log2 n + 1, k): the coarser ceiling-dimension bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    binomial = generalized_binomial(log2(n) + 1.0, d_prime)
    return n / 2**d_prime * binomial if binomial else 0.0


def recursion_step_slack(alpha: float, beta: float, k: int) -> float:
    """The merge inequality's slack at one recursion step:

        (2+a) C(log(2+a)+b, k) - (1+a) C(log(1+a)+b, k)
            - C(b, k) - 2 C(b, k-1)

    Nonnegative for a > 0, b >= k-1; a cheap numeric audit of the
    closed-form bound's inductive step.
    """
    return ((2 + alpha) * raw_generalized_binomial(log2(2 + alpha) + beta, k)
            - (1 + alpha) * raw_generalized_binomial(log2(1 + alpha) + beta, k)
            - raw_generalized_binomial(beta, k)
            - 2 * raw_generalized_binomial(beta, k - 1))
