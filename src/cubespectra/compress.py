"""Compression operators on weight vectors and vertex families.

A (U,V)-compression conditionally swaps the weights of partner vertices
S and S xor (U|V): the side containing V receives the larger weight, the
side containing U the smaller.  The weight multiset, support size, and
norm are all preserved; the induced-subgraph Rayleigh quotient never
decreases for the steps used here (singleton down-steps and single-swap
steps toward smaller indices).

A vector or family is *compressed* when it is a fixpoint of every
down-step (U={i}, V=empty) and every swap step (U={hi}, V={lo}, lo < hi).
`fully_compress` iterates a deterministic schedule of exactly these
steps until nothing moves.  The per-coordinate binary rearrangement is
a separate operation: compressed objects (Hamming balls, say) need not
be fixpoints of it, so it cannot join the fixpoint schedule.

Whether a vector or family is compressed is decided by d local steps
(`_local_steps`): the down-step ({1}, empty) and the adjacent swap steps
({e}, {e-1}), e = 2..d.  A family is decided member by member, in at
most |S| lookups each: member S *passes* when its prerequisites
(`_prerequisites`), S - {1} if 1 is in S and each adjacent shift
S - {e} + {e-1}, e-1 not in S, are members.  Every member of F passes
exactly when F is compressed.  Down-closure: S - {e} lies in F for every
member S holding e, by induction on e.  For e = 1 it is checked.  If
e-1 is not in S, shift e to e-1, then drop e-1 from that member; if e-1
is in S, drop e-1, then shift e to e-1 in S - {e-1}.  Each drop is the
case e-1.  For a swap S - {hi} + {lo}, lo < hi, hi in S, lo not in S,
induct on hi - lo, an adjacent shift at 1: if hi-1 is not in S, shift
hi to hi-1, then hi-1 to lo; if hi-1 is in S, shift hi-1 to lo, then hi
to hi-1.  Each move is a shorter swap of a member, and the two give
S - {hi} + {lo} (the shifting argument of Frankl, 1987).  A member
that passes still passes in a larger family, so a compressed F plus a
vertex whose prerequisites lie in F is compressed: the search grows
families so.

A weight vector is decided the same way on its support, in O(|supp| d)
lookups.  The moves of both inductions chain, and <= is transitive on
finite weights, so w is compressed exactly when no w(S) exceeds the
weight of a prerequisite of S, an absent vertex weighing 0.  So a
positive w(S) needs its prerequisites present with at least its weight,
and a negative w(T) needs its successors (`_successors`, the vertices
whose prerequisites hold T) present with at most its weight.
`fully_compress` sweeps while the test fails, so its last sweep is
never a silent one.

When 2^d <= 2nd (`core.dense_fits`, the rule by which `core.flip_csr`
picks its direct-address table), an n-member family is held as one
Python int of 2^d bits, bit s set iff s is a member.  With P_b the int
whose bit s is set iff s contains coordinate b + 1, the (U,V)-step with
u = 2^(hi-1) and v = 2^(lo-1) or 0 moves the members
bits & P_hi & ~P_lo & ~(bits << (u - v)) down by u - v: a few operations
on whole ints, in place of a Python scan of the members.  The member
test asks whether a local step has a mover.  Larger d keep the member
sets, and the set `_movers` and `compress_family_uv` stay the reference
for both.

A weight vector of n >= `_RANK_FLOOR` weights with `dense_fits(d, n)`
is held as the rank of its weight on every slot of Q_d, 0 for an absent
slot.  A (U,V)-step gathers its pairs, the slots holding V and not U and
the slots u - v above them, and swaps the pairs whose upper slot
outranks the lower; the local test asks whether a local step has such
a pair.  The result is the dict that `_swap_weights` leaves, up to key
order, which no sum depends on: `rayleigh` and `norm_squared` are
correctly rounded (`math.fsum`).  Below the floor the dict is faster:
at d = 6-10 and n = 16-32 `fully_compress` on the array took 1.1-2.6
times as long, and the two cross at n = 44-54; from n = 56 on the array
took 0.79-0.98 times as long at every d measured.  `_Weights` and
`_swap_weights` stay for smaller and sparser vectors and are the
reference for the array.

Termination is certified by an explicit potential: sum over vertices of
(bitmask value) * (rank of the weight held there).  Each state (bitmap,
member set, weight dict, rank array) has the local test `fails()`,
`potential()`, `result()` and `step(u, v)`, which applies a step in
place and returns the drop it caused, 0 when nothing moved.  Each
changing step's drop is asserted positive, and once per sweep the
running potential is checked against the state's.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import MAX_DIM, VertexFamily, dense_fits, vertex_str


@dataclass(frozen=True)
class WeightVector:
    """A finite real weight per vertex of Q_d, sparse: absent vertices
    weigh 0.

    Exact zeros are dropped at construction, so `support()` is the set of
    vertices carrying nonzero weight; NaN and infinite weights raise
    `ValueError`, since compression needs weights totally ordered.  Treat
    instances as immutable.
    """

    d: int
    weights: dict[int, float]

    def __post_init__(self):
        if not 1 <= self.d <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {self.d}")
        full = (1 << self.d) - 1
        clean = {}
        for v, w in self.weights.items():
            if v & ~full:
                raise ValueError(f"vertex {vertex_str(v)} outside Q_{self.d}")
            if w != 0.0:
                w = float(w)
                if not math.isfinite(w):
                    raise ValueError(f"weight of {vertex_str(v)} must be "
                                     f"finite, got {w!r}")
                clean[v] = w
        object.__setattr__(self, "weights", clean)

    def weight(self, mask: int) -> float:
        return self.weights.get(mask, 0.0)

    def support(self) -> frozenset[int]:
        return frozenset(self.weights)

    def support_size(self) -> int:
        return len(self.weights)

    def norm_squared(self) -> float:
        return math.fsum(w * w for w in self.weights.values())

    def items(self):
        return sorted(self.weights.items())


@dataclass(frozen=True)
class CompressionStep:
    """One applied (U,V)-step; `target` records whether the step acted on
    a set or a vector."""

    kind = "uv"
    u: int
    v: int
    target: str

    def describe(self) -> str:
        return f"C_{{{vertex_str(self.u)},{vertex_str(self.v)}}}"

    def to_json(self) -> dict:
        return {"kind": self.kind, "U": vertex_str(self.u),
                "V": vertex_str(self.v), "target": self.target}


def _swap_weights(weights: dict[int, float], u: int, v: int) -> list:
    """Apply the (U,V)-step to `weights` in place, dropping exact zeros,
    and return the swapped pairs of weights, larger first."""
    union = u | v
    swapped = []
    for hi in dict.fromkeys(s ^ union if s & union == u else s
                            for s in weights if s & union in (u, v)):
        lo = hi ^ union             # hi contains V and avoids U
        w_hi, w_lo = weights.get(hi, 0.0), weights.get(lo, 0.0)
        if w_lo > w_hi:
            for s, w in ((hi, w_lo), (lo, w_hi)):
                if w:
                    weights[s] = w
                else:
                    del weights[s]
            swapped.append((w_lo, w_hi))
    return swapped


def compress_vector_uv(vec: WeightVector, u: int, v: int) -> WeightVector:
    """Apply the (U,V)-compression to a weight vector.

    Requires U and V disjoint.  Ties are left in place, which makes the
    operator idempotent and keeps the termination potential strict.
    """
    if u & v:
        raise ValueError("U and V must be disjoint")
    if u | v == 0:
        return vec
    weights = dict(vec.weights)
    _swap_weights(weights, u, v)
    return WeightVector(vec.d, weights)


def _movers(members: set[int], u: int, v: int) -> list[int]:
    """Apply the (U,V)-step to `members` in place and return the movers:
    the members that contained U, avoided V and lacked their partner
    S xor (U|V)."""
    union = u | v
    movers = [s for s in members if s & union == u and s ^ union not in members]
    members.difference_update(movers)
    members.update(s ^ union for s in movers)
    return movers


def compress_family_uv(fam: VertexFamily, u: int, v: int) -> VertexFamily:
    """The same map on the indicator vector, read back as a set."""
    if u & v:
        raise ValueError("U and V must be disjoint")
    if u | v == 0:
        return fam
    members = set(fam.members)
    _movers(members, u, v)
    return VertexFamily(fam.d, frozenset(members))


def _half_slot(rank: int, coord_bit: int, with_coord: bool) -> int:
    """The rank-th smallest mask (binary order) of one half of the cube.

    The half is {S : coord in S} or its complement; ranks spread over the
    d-1 free bit positions around the fixed coordinate bit.
    """
    low = rank & (coord_bit - 1)
    high = (rank & ~(coord_bit - 1)) << 1
    mask = high | low
    if with_coord:
        mask |= coord_bit
    return mask


def _rearrange_half(weights: dict[int, float], d: int, coord_bit: int,
                    with_coord: bool) -> dict[int, float]:
    vals = [w for s, w in weights.items()
            if bool(s & coord_bit) == with_coord]
    vals.sort(reverse=True)
    positives = [w for w in vals if w > 0]
    negatives = [w for w in vals if w < 0]
    out = {}
    for r, w in enumerate(positives):
        out[_half_slot(r, coord_bit, with_coord)] = w
    half_size = 1 << (d - 1)
    # negatives fill the tail of the half, still decreasing in binary order
    for t, w in enumerate(negatives):
        r = half_size - len(negatives) + t
        out[_half_slot(r, coord_bit, with_coord)] = w
    return out


def binary_compression(vec: WeightVector, i: int) -> WeightVector:
    """Rearrange weights to be decreasing in binary order within each of
    the two halves {S : i in S} and {S : i not in S}."""
    if not 1 <= i <= vec.d:
        raise ValueError(f"coordinate {i} out of range 1..{vec.d}")
    bit = 1 << (i - 1)
    new = _rearrange_half(vec.weights, vec.d, bit, True)
    new.update(_rearrange_half(vec.weights, vec.d, bit, False))
    return WeightVector(vec.d, new)


def binary_compression_family(fam: VertexFamily, i: int) -> VertexFamily:
    """Binary rearrangement of an indicator: each half's members become an
    initial segment of that half."""
    ones = WeightVector(fam.d, dict.fromkeys(fam.members, 1.0))
    return VertexFamily(fam.d, binary_compression(ones, i).support())


def rayleigh(vec: WeightVector) -> float:
    """<A(Q_d) w, w>: twice the sum of weight products over cube edges,
    correctly rounded, so the same for every key order."""
    weights = vec.weights
    bits = [1 << b for b in range(vec.d)]
    return math.fsum(2.0 * w * weights[s | bit] for s, w in weights.items()
                     for bit in bits if not s & bit and s | bit in weights)


@functools.cache      # every sweep and every failing `is_compressed` reads it
def _uv_steps(d: int) -> tuple[tuple[int, int], ...]:
    """The fixpoint step set: all singleton down-steps, then all swap
    steps toward the smaller index, in a fixed deterministic order."""
    downs = tuple((1 << (i - 1), 0) for i in range(1, d + 1))
    return downs + tuple((1 << (hi - 1), 1 << (lo - 1))
                         for lo in range(1, d + 1) for hi in range(lo + 1, d + 1))


@functools.cache      # every local test reads it
def _local_steps(d: int) -> tuple[tuple[int, int], ...]:
    """The d steps of the local test, all in `_uv_steps(d)`: the
    down-step ({1}, empty), then the adjacent swap steps ({e}, {e-1}),
    e = 2..d.  A state passes them exactly when it is compressed (module
    docstring)."""
    return tuple((1 << b, 1 << b >> 1) for b in range(d))


def _prerequisites(s: int) -> tuple[int, ...]:
    """s's partners under the local steps that move s, in increasing
    coordinate: s - {1} when 1 is in s, and each adjacent shift
    s - {e} + {e-1}, e in s, e-1 not in s.  At most |s| of them."""
    pre = []
    m = s & ~(s << 1)                   # e in s, and e = 1 or e-1 not in s
    while m:
        low = m & -m
        pre.append(s ^ low ^ low >> 1)
        m ^= low
    return tuple(pre)


def _successors(s: int, d: int) -> tuple[int, ...]:
    """The vertices of Q_d whose `_prerequisites` include s: s + {1} when
    1 is not in s, and each reverse adjacent shift s - {e-1} + {e}, e-1
    in s, e not in s."""
    out = []
    m = ~s & (s << 1 | 1) & ((1 << d) - 1)  # e not in s, e = 1 or e-1 in s
    while m:
        low = m & -m
        out.append(s ^ low ^ low >> 1)
        m ^= low
    return tuple(out)


class _Bitmap:
    """A family of Q_d as one int `bits`, bit s set iff s is a member,
    used when `dense_fits(d, n)`.  `has[b]` has bit s set iff s contains
    coordinate b + 1, and `lacks[b]` iff it does not, within 2^d bits.
    A (U,V)-step is then a few operations on whole ints: the movers are
    the members with U, without V, whose partner s - u + v is absent,
    and each lowers the potential, the sum of the members, by u - v."""

    __slots__ = ("d", "bits", "has", "lacks")
    target = "family"

    def __init__(self, fam: VertexFamily):
        d = self.d = fam.d
        digits = bytearray(b"0") * (1 << d)     # bit 0 first
        for s in fam.members:
            digits[s] = 49                        # "1"
        self.bits = int(digits[::-1], 2)
        # has[b] = has[b+1] ^ has[b+1] >> 2^b: the period halves, from
        # has[d-1], whose upper half of the 2^d bits is set
        has = [((1 << (1 << d - 1)) - 1) << (1 << d - 1)]
        for b in range(d - 2, -1, -1):
            has.append(has[-1] ^ has[-1] >> (1 << b))
        has.reverse()
        self.has = has
        self.lacks = [p >> (1 << b) for b, p in enumerate(has)]

    def fails(self) -> bool:
        """The member test of the module docstring on every member at
        once: some local step has a mover."""
        return any(self._movers(u, v) for u, v in _local_steps(self.d))

    def _movers(self, u: int, v: int) -> int:
        """The members that the (U,V)-step moves, as bits."""
        cand = self.bits & self.has[u.bit_length() - 1]
        if v:
            cand &= self.lacks[v.bit_length() - 1]
        return cand ^ (cand & self.bits << (u - v))     # partner absent

    def step(self, u: int, v: int) -> int:
        movers = self._movers(u, v)
        if movers:
            self.bits ^= movers ^ movers >> (u - v)
        return (u - v) * movers.bit_count()

    def potential(self) -> int:
        return sum((self.bits & has).bit_count() << b
                   for b, has in enumerate(self.has))

    def result(self) -> VertexFamily:
        """The family, read from the binary digits of `bits`."""
        digits = format(self.bits, "b")[::-1]     # bit 0 first
        out = []
        s = digits.find("1")
        while s >= 0:
            out.append(s)
            s = digits.find("1", s + 1)
        return VertexFamily(self.d, frozenset(out))


class _Members:
    """A family as a set of members, used when 2^d > 2nd; its potential
    is the sum of the members."""

    target = "family"

    def __init__(self, fam: VertexFamily):
        self.d, self.members = fam.d, set(fam.members)

    def fails(self) -> bool:
        members = self.members
        return not all(members.issuperset(_prerequisites(s)) for s in members)

    def step(self, u: int, v: int) -> int:
        return (u - v) * len(_movers(self.members, u, v))

    def potential(self) -> int:
        return sum(self.members)

    def result(self) -> VertexFamily:
        return VertexFamily(self.d, frozenset(self.members))


class _Weights:
    """A weight vector as a dict, with the rank of each value it holds.

    A step only permutes the weights, an absent vertex weighing 0, so the
    ranks are fixed here.  Every slot's charge of the rank of 0 is the
    same for every arrangement, so 0 is ranked 0 and the potential sums
    the support only.  A swap moves the larger weight of a pair to the
    mask smaller by u - v, lowering the potential by u - v times the gap
    of their ranks."""

    target = "vector"

    def __init__(self, vec: WeightVector):
        self.d, self.weights = vec.d, dict(vec.weights)
        values = sorted({0.0, *self.weights.values()})
        zero = values.index(0.0)
        self.rank = {w: r - zero for r, w in enumerate(values)}

    def fails(self) -> bool:
        """The vector test of the module docstring, on the support: some
        w(S) exceeds the weight of a prerequisite of S."""
        get = self.weights.get
        for s, w in self.weights.items():
            if w > 0:
                if any(get(t, 0.0) < w for t in _prerequisites(s)):
                    return True
            elif any(get(t, 0.0) > w for t in _successors(s, self.d)):
                return True
        return False

    def step(self, u: int, v: int) -> int:
        return (u - v) * sum(self.rank[big] - self.rank[small] for big, small
                             in _swap_weights(self.weights, u, v))

    def potential(self) -> int:
        return sum(s * self.rank[w] for s, w in self.weights.items())

    def result(self) -> WeightVector:
        return WeightVector(self.d, self.weights)


def _pair_slots(d: int, u: int, v: int) -> np.ndarray:
    """The slots of Q_d holding V and not U, ascending, for singletons
    or empty U and V: the side of each (U,V)-pair that takes the larger
    weight, its partner lying u - v above it."""
    a = np.arange(1 << d - (u | v).bit_count())
    for bit in sorted((u, v)):          # a 0 at each bit, the lower first
        a += a & -bit
    a += v
    return a


def _rank_dot(slots: np.ndarray, ranks: np.ndarray, d: int) -> int:
    """The exact sum of slots * ranks, for n slots below 2^d and ranks
    of at most n in absolute value: each term is below n 2^d, so int64
    holds the sum while n^2 2^d < 2^63, and Python ints add it beyond."""
    n = len(slots)
    if n * n << d < 1 << 63:
        return int(np.dot(slots, ranks))
    return sum(map(operator.mul, slots.tolist(), ranks.tolist()))


class _Ranks:
    """A weight vector as the rank array of the module docstring, used
    when `dense_fits(d, n)` and n >= `_RANK_FLOOR`.  Its ranks are
    `_Weights`', so its drops and potential are too.  `values[r + zero]`
    is the weight of rank r."""

    __slots__ = ("d", "rank", "values", "zero")
    target = "vector"

    def __init__(self, vec: WeightVector):
        d = self.d = vec.d
        n = len(vec.weights)
        slots = np.fromiter(vec.weights, np.intp, n)
        values, at = np.unique(np.fromiter(vec.weights.values(), float, n),
                               return_inverse=True)
        zero = self.zero = int(np.searchsorted(values, 0.0))   # negatives
        self.values = np.insert(values, zero, 0.0)
        self.rank = np.zeros(1 << d, np.int64)
        self.rank[slots] = at - zero + (at >= zero)

    def fails(self) -> bool:
        """The vector test of the module docstring on every slot at once:
        a local step has a pair out of order."""
        rank, d = self.rank, self.d
        for u, v in _local_steps(d):
            a = _pair_slots(d, u, v)
            if (rank[u - v:].take(a) > rank.take(a)).any():
                return True
        return False

    def step(self, u: int, v: int) -> int:
        rank = self.rank
        a = _pair_slots(self.d, u, v)
        lo, hi = rank.take(a), rank[u - v:].take(a)
        moved = hi > lo
        if not moved.any():
            return 0
        a, lo, hi = a[moved], lo[moved], hi[moved]
        rank[a], rank[a + (u - v)] = hi, lo
        return (u - v) * int((hi - lo).sum())

    def potential(self) -> int:
        slots = np.flatnonzero(self.rank)
        return _rank_dot(slots, self.rank[slots], self.d)

    def result(self) -> WeightVector:
        slots = np.flatnonzero(self.rank)
        weights = self.values[self.rank[slots] + self.zero]
        return WeightVector(self.d, dict(zip(slots.tolist(), weights.tolist())))


# Below this support the dict is faster (module docstring)
_RANK_FLOOR = 56


def _state(x):
    """The private state, of the module docstring, that compresses x."""
    if isinstance(x, VertexFamily):
        return _Bitmap(x) if dense_fits(x.d, len(x)) else _Members(x)
    if isinstance(x, WeightVector):
        n = len(x.weights)
        dense = n >= _RANK_FLOOR and dense_fits(x.d, n)
        return _Ranks(x) if dense else _Weights(x)
    raise TypeError(f"expected VertexFamily or WeightVector, got {type(x)}")


def is_compressed(x) -> tuple[bool, CompressionStep | None]:
    """True iff x is a fixpoint of every down-step and swap step.

    On False, also returns the first violating step, swap steps first, so
    a shift violation like {{2}} reports C_{2,1}.  A step that moves
    nothing is a no-op, so the first step that reports a drop is the
    answer.  A family's verdict is kept on the family object, so a
    later call on that object runs no test.
    """
    if not isinstance(x, VertexFamily):
        return _verdict(x)
    verdict = x.__dict__.get("_compressed")
    if verdict is None:
        verdict = _verdict(x)
        object.__setattr__(x, "_compressed", verdict)
    return verdict


def _verdict(x) -> tuple[bool, CompressionStep | None]:
    state = _state(x)
    if not state.fails():
        return True, None
    steps = _uv_steps(x.d)              # d down-steps, then swap steps
    return False, next(CompressionStep(u, v, state.target)
                       for u, v in steps[x.d:] + steps[:x.d]
                       if state.step(u, v))


def fully_compress(x):
    """Iterate every down-step and swap step to a joint fixpoint.

    Returns (compressed object, list of steps that changed it).  The
    schedule sweeps singleton down-steps in increasing coordinate, then
    swap steps in lexicographic order, while the object fails its local
    test, so no sweep is silent.  The potential of the module docstring
    certifies termination: every sweep lowers it strictly.
    """
    state = _state(x)
    log: list[CompressionStep] = []
    while state.fails():
        pot = start = state.potential()
        for u, v in _uv_steps(x.d):
            drop = state.step(u, v)
            if drop:
                assert drop > 0, "compression potential failed to drop"
                pot -= drop
                log.append(CompressionStep(u, v, state.target))
        assert pot == state.potential(), "compression potential out of step"
        assert pot < start, "a sweep of a state that fails moved nothing"
    return state.result(), log


# ---------------------------------------------------------------------------
# Vector file format: first line "d=<int>", then "<binary-string> <weight>".


def parse_vector(text: str) -> WeightVector:
    from .core import _header_dim, binary_string_to_mask

    lines = [s for s in (l.split("#", 1)[0].strip() for l in text.splitlines()) if s]
    d = _header_dim(lines, "vector")
    weights: dict[int, float] = {}
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"expected '<binary> <weight>', got {line!r}")
        mask = binary_string_to_mask(parts[0], d)
        if mask in weights:
            raise ValueError(f"duplicate vertex line {line!r}")
        weights[mask] = float(parts[1])
    return WeightVector(d, weights)


def format_vector(vec: WeightVector) -> str:
    from .core import mask_to_binary_string

    lines = [f"d={vec.d}"]
    lines += [f"{mask_to_binary_string(s, vec.d)} {w!r}" for s, w in vec.items()]
    return "\n".join(lines) + "\n"


def read_vector(path) -> WeightVector:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector(fh.read())

