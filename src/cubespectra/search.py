"""Exhaustive extremal search over compressed families, and the
heavy-vertex partition certificates.

The compression reduction says the maximum of lambda1 over all n-vertex
induced subgraphs of Q_d is attained on a compressed family, so the
search enumerates exactly those.  A compressed family listed in binary
order has every prefix compressed (removing the binary-maximal member
preserves down-closure and shift-stability), so the enumeration is an
orderly DFS: grow the family one vertex at a time, in increasing binary
order, keeping only extensions whose prerequisites, the shadow at
coordinate 1 and the adjacent shifts, are already present: the
member-local test that `is_compressed` applies to every member, which
suffices because a compressed family plus a vertex that passes it is
compressed (`compress`'s module docstring).
Members join in increasing order, so each candidate w is tested once,
when its largest prerequisite joins: by then every other prerequisite
of w is settled for the whole subtree.  That trigger is w - 1 for odd w
and w - lowbit(w)/2 for even w > 0, so a joining u triggers at most two
candidates, u + 1 for even u and u + lowbit(u) for u without the element
above its least.  A candidate that passes stays open in every descendant
until a member above it joins, and one that fails never joins there.
The vertices that can join at all form a universe: those whose down-set
has at most n members, numbered in increasing order (members of a
compressed n-family use elements at most n-1, which bounds it too).  A
family is then a row of two uint64 bitsets over the universe, its
absent and its open vertices, and the DFS expands blocks of rows of one
depth at once, on an explicit stack, so its memory stays bounded at any
depth; the last depth gives (F, U) boolean member matrices over the
universe, and only a family that is certified becomes an array of masks.

A certified family is an interval [lo, hi] for its lambda1 (`lambda1`'s
`SpectralResult.interval()`).  Families rank by lo; the maximizers are
the families whose hi reaches the best lo, so two families tie when their
intervals overlap, and the runner-ups are the next `top_k` families that
are not maximizers.

The maximization screens, then certifies.  Q_d is bipartite, so
A = [[0, B], [B^T, 0]] with the even members as B's rows, and lambda1^2
is the top eigenvalue of B B^T.  `_screen` gives each family an upper
bound u: the square root of the Collatz-Wielandt ratio
max_v (B B^T x)_v / x_v over the even members, at the integer x >= 1
reached by SCREEN_STEPS unnormalised steps x <- B B^T x from the ones
(below 2**60, `_screen`), rounded up past lambda1 by a relative
1 + (n + 3) eps/2.  The steps run on the walk's member rows:
one B over the universe vertices that a block uses, masked per row, in
products small enough for one BLAS thread.  `lambda1` then certifies
families in order of decreasing u, and stops at the first family with
u + w below the best lo and u below the lowest reported lo,
w = max(tol, `lambda1`'s rounding floor at u).  The stop is exact: no lo
exceeds lambda1, so none exceeds u, and `lambda1` returns a hi of at
most lo + w unless it reaches its step cap.  No family left uncertified
can therefore be a maximizer or a runner-up: the result is the one that
certifying every family gives.

The partition machinery decomposes a compressed family into blocks of
small internal degree plus disjoint star-ball neighbourhoods around
"heavy" centers, where heaviness is measured by surviving iterated
epsilon*d-degree cores.  `verify_partition` re-checks every finite
assertion of that construction and reports witnesses for failures.  Both
run on arrays over the family's one `CubeGraph`, which `cube_graph`
keeps on the family object: a certificate's sets are ascending uint64
arrays or boolean masks over the family's `vertices`, a round's shell
is one grid of bit-ors looked up with `searchsorted`, and the
decompositions of every vertex of a round are counted at once.  The
family's member test runs once per family object too: `is_compressed`
keeps its verdict there, and the verifier passes the family itself
where a covered set is the whole family.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from math import inf, log, sqrt

import numpy as np

from .compress import _prerequisites, is_compressed
from .core import (MAX_DIM, VertexFamily, _found, _sorted_masks, cube_graph,
                   star_family, vertex_str)
from .spectral import DEFAULT_TOL, _bipartite_dense, lambda1, star_value

# Steps on B B^T before the screen's Collatz-Wielandt ratio: more steps
# leave fewer families to `lambda1`, and no count, 0 included, alters a
# result.  At n = 8..28 and 48 (d = n - 1) and at (n, d) = (56, 10), 4
# send as few families to `lambda1` as 6 (96, 5, 5); 3 send 7 at (56, 10).
SCREEN_STEPS = 4

# Bound on m k n for each (m x k) (k x n) product of the screen: rows of
# SCREEN_PRODUCT // (E O) families (at least one) on E even and O odd
# columns.  OpenBLAS runs a dgemm of at most 2**18 on one thread; on a
# 2-core host a (1180 x 38) (38 x 38) product took 4.1-8.0 ms on two
# threads and 0.09 ms on one.
SCREEN_PRODUCT = 1 << 18

# Bound on one step of `_walk`: a block of WALK_WORDS // (n W) rows (at
# least one), each family of at most n - 1 members, has at most n - 1
# children per row of 2W uint64 words, so at most 2 WALK_WORDS words.
WALK_WORDS = 1 << 17

_ALL = np.uint64((1 << 64) - 1)


# ---------------------------------------------------------------------------
# Enumeration of compressed families.


def _universe(n: int, top: int):
    """The vertices below `top` whose down-set, their closure under
    `_prerequisites` and so the least compressed family holding them,
    has at most n members: every vertex that can be a member of a
    compressed n-family below `top`, in increasing order.  Returns them
    with, for each vertex w > 0, the position of its trigger and its
    down-set without w, as one int with bit i for position i.

    The trigger of w is its largest prerequisite (`_prerequisites`):
    w - 1 when w is odd, w - lowbit(w)/2 when w is even.  It is smaller
    than w, so the triggers form a tree on the vertices, rooted at 0.  A
    down-set holds its trigger's, so the vertices are closed under
    triggers: a heap from 0 through each vertex's at most two trigger
    children, u + 1 for even u and u + lowbit(u) for u without the
    element above its least, pops them all in increasing order, and pops
    every prerequisite of a vertex before the vertex."""
    index: dict[int, int] = {}
    downs: list[int] = []
    triggers: list[int] = []
    needs: list[int] = []
    heap = [0]
    while heap:
        w = heappop(heap)
        need = 0
        try:
            for p in _prerequisites(w):
                need |= downs[index[p]]
        except KeyError:          # that prerequisite's down-set is too large
            continue
        if need.bit_count() >= n:   # w's down-set is one larger
            continue
        low = w & -w
        if w:
            triggers.append(index[w - 1 if w & 1 else w - (low >> 1)])
            needs.append(need)
        index[w] = len(downs)
        downs.append(need | 1 << len(downs))
        if not w & 1 and w | 1 < top:
            heappush(heap, w | 1)
        if w and not w & low << 1 and w + low < top:
            heappush(heap, w + low)
    return list(index), triggers, needs


def _walk_tables(n: int, top: int):
    """The universe of `_universe(n, top)` as a uint64 array, its word
    count W, and the (U, 3, 2W) table of one step of `_walk` through
    each vertex u.  Row 0 is a mask: it takes u out of the absent
    vertices and drops the open vertices up to u.  Rows 1 and 2 hold each
    vertex w that u triggers, odd w first: w's down-set without w in the
    absent half, w alone in the open half, or zeros where u triggers no
    w."""
    verts, triggers, needs = _universe(n, top)
    size = len(verts)
    words = -(-size // 64)
    pos = np.arange(size)
    word = pos >> 6
    one = np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64))
    verts = np.array(verts, dtype=np.uint64)
    table = np.zeros((size, 3, 2 * words), dtype=np.uint64)
    table[:, 0, :words] = _ALL
    table[pos, 0, word] = ~one
    table[:, 0, words:] = np.where(np.arange(words) > word[:, None], _ALL, 0)
    table[pos, 0, words + word] = ~((one << np.uint64(1)) - np.uint64(1))
    trig = (np.array(triggers, dtype=np.intp),
            2 - (verts[1:] & np.uint64(1)).astype(np.intp))
    table[trig + (slice(0, words),)] = np.frombuffer(
        b"".join(m.to_bytes(8 * words, "little") for m in needs),
        dtype="<u8").reshape(-1, words)
    table[trig + (words + word[1:],)] = one[1:]
    return verts, words, table


def _walk(n: int, cap_dim: int):
    """Yield the compressed families of size n with elements <= cap_dim
    in blocks, each an (F, U) boolean member matrix over the universe
    with the universe's U ascending vertices: each family once, all of
    them in the lex order of their members (`enumerate_compressed`).

    A row is one family, held as two bitsets over the universe
    (`_walk_tables`), each W uint64 words: the absent vertices, the
    complement of its members, and the open ones, those above its last
    member that may join it next.  The root is {0} with 1 open.  A row's
    children are its open vertices u, in increasing order: the child
    through u is the row with u a member and its open vertices above u,
    plus each vertex w that u triggers whose down-set, w aside, lies in
    the child.  Members join in increasing order, so when w's largest
    prerequisite u joins every other one is settled for the whole
    subtree: w is tested once, there, and stays open until a member
    above it joins.

    The walk is depth-first over blocks of at most
    WALK_WORDS // (n W) rows of one depth: an explicit stack keeps, per
    depth, the rows not yet expanded, each block's children come out of
    one `nonzero` over its unpacked open bits in lex order, and the
    children of a block of the last inner depth are the leaves: its
    unpacked members with one more column set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cap_dim < 1 or n > 2**cap_dim:
        raise ValueError(
            f"cap_dim={cap_dim} too small for a compressed family of size {n}"
        )
    if n == 1:
        yield np.ones((1, 1), dtype=bool), np.zeros(1, dtype=np.uint64)
        return
    verts, words, table = _walk_tables(n, 1 << min(cap_dim, n - 1))
    size = max(1, WALK_WORDS // (n * words))
    root = np.zeros((1, 2 * words), dtype=np.uint64)
    root[0, :words] = _ALL
    root[0, 0] = ~np.uint64(1)          # 0 is a member
    root[0, words] = 2                   # 1 is open
    stack = [root]
    while stack:
        block, stack[-1] = stack[-1][:size], stack[-1][size:]
        if not len(block):
            stack.pop()
            continue
        free, low = block[:, words:], 0
        if words > 1:           # unpack only the words that hold open bits
            live = np.flatnonzero(free.any(axis=0))
            if not len(live):
                continue
            free, low = free[:, live[0]:live[-1] + 1], live[0]
        bits = np.unpackbits(free.view(np.uint8), axis=1, bitorder="little")
        parent, u = np.divmod(bits.view(bool).ravel().nonzero()[0],
                              bits.shape[1])
        if low:
            u += 64 * low
        if len(stack) == n - 1:
            have = np.unpackbits((~block[:, :words]).view(np.uint8), axis=1,
                                 count=len(verts), bitorder="little")
            leaves = have.view(bool)[parent]
            leaves[np.arange(len(u)), u] = True
            yield leaves, verts
            continue
        step = table[u]
        child = block[parent]
        child &= step[:, 0]
        trig = step[:, 1:]
        fail = (trig[:, :, :words] & child[:, None, :words]).any(
            axis=2, keepdims=True)
        child[:, words:] |= np.where(fail, 0, trig[:, :, words:]).sum(axis=1)
        stack.append(child)


def enumerate_compressed(n: int, cap_dim: int):
    """Yield the sorted members of every compressed family of size n with
    elements <= cap_dim, each family exactly once, in the lex order of
    the sorted members (`_walk`)."""
    for rows, verts in _walk(n, cap_dim):
        yield from map(tuple, verts[rows.nonzero()[1]].reshape(-1, n).tolist())


# ---------------------------------------------------------------------------
# Extremal search.


@dataclass(frozen=True)
class SearchResult:
    n: int
    d: int
    best_lambda1: float
    maximizers: tuple[VertexFamily, ...]
    runner_ups: tuple[tuple[float, VertexFamily], ...]
    search_space_size: int
    restricted: bool
    complete: bool

    @property
    def maximizer(self) -> VertexFamily:
        return self.maximizers[0]


def _screen(rows: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Each family's Collatz-Wielandt bound on lambda1, rounded up past
    lambda1; `rows` is an (F, U) boolean member matrix over the ascending
    vertices `verts`, each row a compressed family (`_walk`).

    lambda1^2 is the top eigenvalue of B B^T on the even side, and
    max_v (B B^T x)_v / x_v bounds it for any positive x.  A compressed
    family is down-closed, so connected: for n >= 2 every even member has
    a neighbour, so B B^T, an integer matrix, has at least 1 on its
    diagonal there, and steps from the ones keep x an integer of at least
    1 on those rows with no normalisation.  A step grows x by at most
    B B^T's largest row sum, min(d, n - 1)^2 <= 2**12, so the
    SCREEN_STEPS + 1 = 5 products stay below 2**60, and exact below 2**48
    at n <= 28; more steps divide x by its row maximum every 32.  A
    one-vertex family has no edge and gets u = 0.

    The columns some row uses split by parity, and `a` is B on all of
    them (`_bipartite_dense`).  With se and so a row's even and odd
    members as 0/1 floats, a step x <- se (((x a) so) a^T) is a step on
    that row's own B B^T: x is 0 off its even members, and so drops
    the odd columns it lacks.  Each product takes SCREEN_PRODUCT // (E O)
    rows at most, and each mask applies in place to a product's output."""
    used = np.flatnonzero(rows.any(axis=0))
    a, odd = _bipartite_dense(verts[used])
    if not odd.any():       # no family, or the one-vertex family
        return np.zeros(len(rows))
    evens, odds = used[~odd], used[odd]
    at = np.ascontiguousarray(a.T)
    size = max(1, SCREEN_PRODUCT // a.size)
    ratios = []
    for start in range(0, len(rows), size):
        block = rows[start:start + size]
        se, so = block[:, evens].astype(float), block[:, odds].astype(float)
        y = se
        for step in range(SCREEN_STEPS + 1):
            x = y if step % 32 < 31 else y / y.max(axis=1, keepdims=True)
            t = x @ a
            t *= so
            y = t @ at
            y *= se
        np.divide(y, x, out=y, where=x > 0)
        ratios.append(y.max(axis=1))
    # Rounding, in eps = 2**-52, to first order; x is any positive vector,
    # so only y and the ratio count.  A product with a 0/1 entry of `a`,
    # se or so is exact, and an exact zero adds no error, so each entry of
    # x a and of (x a so) a^T is a sum, in whatever order the GEMM takes,
    # of at most e and o nonnegative terms of the row's own B (e + o = n
    # members): at most e - 1 and o - 1 roundings, none below 2**53.  With
    # the division's one rounding each ratio is within (n - 1) eps/2 of
    # exact.  The square root halves that and rounds once:
    # sqrt(ratio) >= lambda1 (1 - (n + 1) eps/4).  With eps/2 for the
    # product below, that is (n + 3) eps/4, and 1 + (n + 3) eps/2 leaves
    # as much again for second-order terms.
    n = int(rows[0].sum())
    round_up = 1 + (n + 3) * np.finfo(float).eps / 2
    return np.sqrt(np.concatenate(ratios)) * round_up


def _split(ranked, top_k: int):
    """Maximizers and runner-ups of (lo, hi, ...) rows in rank order:
    a maximizer's interval reaches the best lower end, and the runner-ups
    are the first `top_k` other rows."""
    best = ranked[0][0]
    return ([r for r in ranked if r[1] >= best],
            [r for r in ranked if r[1] < best][:top_k])


def max_lambda1(n: int, d: int, tol: float = DEFAULT_TOL, top_k: int = 3,
                max_families: int | None = None) -> SearchResult:
    """Maximize lambda1 over compressed n-families inside Q_d.

    By the compression reduction this equals the maximum over all
    n-subsets of Q_d.  When d < n-1 some compressed families of size n
    do not fit in Q_d and the result is flagged `restricted` (it is
    still the exact maximum for Q_d itself).

    Each certified family is a `lambda1` interval [lo, hi], and families
    rank by lo.  The maximizers are the families whose hi reaches the
    best lo (intervals that overlap tie); the runner-ups are the next
    `top_k` non-maximizers with their lo.  `lambda1` certifies families
    in order of decreasing screen bound u (`_screen`: the square root of
    a Collatz-Wielandt bound on B B^T over the even members, rounded up
    past lambda1) until u + max(`tol`, rounding floor) falls below the
    best lo and u below the lowest reported lo, so the result is the one
    that certifying every family would give.  A budget `max_families`
    stops the enumeration after that many families (at least 1).
    """
    if not 1 <= d <= MAX_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {d}")
    if n > 2**d:
        raise ValueError(f"no family of size {n} fits in Q_{d}")
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if max_families is not None and max_families < 1:
        raise ValueError(f"search budget must be >= 1, got {max_families}")
    restricted = d < n - 1
    cap_dim = min(d, max(n - 1, 1))
    blocks, count, complete = [], 0, True
    for block, verts in _walk(n, cap_dim):
        blocks.append(block)
        count += len(block)
        if max_families is not None and count > max_families:
            blocks[-1] = block[:len(block) - count + max_families]
            count, complete = max_families, False
            break
    bounds = np.concatenate([_screen(rows, verts) for rows in blocks])
    starts = list(accumulate(map(len, blocks), initial=0))

    def by_rank(row):   # lower end descending, then members
        return -row[0], row[2]

    # lambda1's gap is at most max(tol, 4 (K + 10) 2**-53 lo), K < 2n, lo <= u
    rounding = (8 * n + 40) * 2.0**-53
    ranked = []   # (lo, hi, members, family) in rank order
    # families come in lex order, so a stable sort on -u breaks ties of u
    # by members
    for i in np.argsort(-bounds, kind="stable").tolist():
        u = float(bounds[i])
        if ranked:
            maxima, runners = _split(ranked, top_k)
            floor = min(r[0] for r in maxima + runners)
            w = max(tol, rounding * u)
            if len(runners) == top_k and u + w < ranked[0][0] and u < floor:
                break
        k = bisect_right(starts, i) - 1
        members = verts[blocks[k][i - starts[k]]]
        fam = VertexFamily._of_sorted(cap_dim, members)
        insort(ranked, (*lambda1(fam, tol).interval(),
                        tuple(members.tolist()), fam), key=by_rank)
    maxima, runners = _split(ranked, top_k)
    best = ranked[0][0]
    maximizers = tuple(VertexFamily._of_sorted(d, r[3].vertices)
                       for r in maxima)
    runner_ups = tuple((r[0], VertexFamily._of_sorted(d, r[3].vertices))
                       for r in runners)
    return SearchResult(n, d, best, maximizers, runner_ups, count,
                        restricted, complete)


def verify_star_regime(n_range, d: int) -> list[dict]:
    """Compare the compressed-search maximum to the star value sqrt(n-1)
    for each n; records the crossover rather than asserting it."""
    rows = []
    for n in n_range:
        if n > d:
            raise ValueError(f"star regime needs n <= d, got n={n}, d={d}")
        res = max_lambda1(n, d)
        star_members = star_family(d, n - 1).members
        star_is_max = any(f.members == star_members for f in res.maximizers)
        rows.append({
            "n": n,
            "best_lambda1": res.best_lambda1,
            "star_value": star_value(n),
            "star_is_maximizer": star_is_max,
            "star_unique_maximizer": star_is_max and len(res.maximizers) == 1,
            "num_maximizers": len(res.maximizers),
            "winner": res.maximizer.sorted_members(),
        })
    return rows


# ---------------------------------------------------------------------------
# Heavy-vertex partition certificates.


def epsilon_preset_sqrt(d: int, n: int) -> float:
    """sqrt(2 (n/d) / d) = sqrt(2n)/d: the single-round heavy-vertex
    threshold; its square times d^2/2 dominates n, so core iteration
    must die out."""
    return sqrt(2.0 * n) / d


def epsilon_preset_log_ratio(d: int, i: int, alpha: float = 1.0) -> float:
    """alpha / log(d/i): the threshold used when the radius grows."""
    if not 0 < i < d:
        raise ValueError("need 0 < i < d")
    return alpha / log(d / i)


def epsilon_preset_fixed_radius(d: int, i: int) -> float:
    """2 i d^(-1/(i+1)): the threshold for constant radius."""
    if i < 1:
        raise ValueError("need i >= 1")
    return 2.0 * i * d ** (-1.0 / (i + 1))


@dataclass
class PartitionCertificate:
    """The block-and-star-ball decomposition of a compressed family.

    cores[k] is the k-times-iterated heavy set (vertices that keep at
    least epsilon*d neighbours among survivors), caps[k] the element
    ceiling of round k, shells[k] the vertices swept in as neighbours of
    earlier blocks, centers[k] the fresh ball centers, covered[k]
    everything placed so far.  star_balls[(k, S)] collects S with its
    shell neighbours at each later round.  `degenerate` marks inputs
    where the core chain stabilizes without emptying, in which case a
    trivial single block is returned and the partition-degree guarantee
    is void.
    """

    d: int
    epsilon: float
    depth: int
    degenerate: bool
    cores: tuple[frozenset[int], ...]
    caps: tuple[int, ...]
    shells: tuple[frozenset[int], ...]
    centers: tuple[frozenset[int], ...]
    covered: tuple[frozenset[int], ...]
    star_balls: dict[tuple[int, int], frozenset[int]]

    def blocks(self) -> list[frozenset[int]]:
        return [self.shells[k] | self.centers[k] for k in range(self.depth + 1)]


def _mask(verts: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Boolean mask over the ascending `verts` of the entries in `masks`;
    a mask outside `verts` has no entry, so it is dropped."""
    pos, found = _found(verts, masks)
    out = np.zeros(len(verts), dtype=bool)
    out[pos[found]] = True
    return out


def _members_within(verts: np.ndarray, cap: int) -> int:
    """How many of the ascending masks `verts` have no element above
    `cap`: they are a prefix."""
    top = np.uint64((1 << min(cap, 64)) - 1)
    return int(np.searchsorted(verts, top, side="right"))


def _round(verts: np.ndarray, d: int, previous: np.ndarray, low: int,
           cap: int, covered: np.ndarray):
    """Shell and centers of a round k >= 1, as boolean masks over the
    ascending family masks `verts`.  The shell is every member S + {e}
    with S a vertex of round k - 1 (`previous`, an ascending array) and
    e not in S an element above m_{k-1} = `low`: one grid of bit-ors, one
    `searchsorted`.  The centers are the members with no element above
    m_k = `cap` outside the shell and outside `covered`, round k - 1's
    covered set as a mask over `verts`."""
    bits = np.left_shift(np.uint64(1), np.arange(low, d, dtype=np.uint64))
    grown = previous[:, None] | bits
    shell = _mask(verts, grown[grown != previous[:, None]])
    center = np.arange(len(verts)) < _members_within(verts, cap)
    return shell, center & ~covered & ~shell


def build_partition(fam: VertexFamily, epsilon: float) -> PartitionCertificate:
    """Construct the heavy-vertex partition of a compressed family.

    The construction runs on the family's `CubeGraph`: the cores peel
    boolean masks over its sorted vertices, each round's shell and
    centers are masks found with one `searchsorted` (`_round`), and a
    star ball takes the later shells' vertices at the right Hamming
    distance from its center with one `bitwise_count` per shell."""
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    ok, violation = is_compressed(fam)
    if not ok:
        raise ValueError(f"family is not compressed: violates {violation.describe()}")
    d, members = fam.d, fam.members
    g = cube_graph(fam)
    verts = g.vertices
    threshold = epsilon * d

    cores = [frozenset(members)]
    degenerate = len(members) == 0
    live = np.ones(len(members), dtype=bool)
    while live.any():
        survivors = live & (g.neighbour_sums(live) >= threshold)
        if (survivors == live).all():
            # self-sustaining heavy core: the chain never empties, the
            # construction's hypotheses fail; fall back to one block
            degenerate = True
            break
        if not survivors.any():
            break
        live = survivors
        cores.append(frozenset(verts[live].tolist()))

    if degenerate:
        cores = cores[:1]
    depth = len(cores) - 1

    deepest = cores[depth] if cores[depth] else members
    caps = [max([t for t in range(1, d + 1) if (1 << (t - 1)) in deepest],
                default=1)]
    rounds = [(np.zeros(len(verts), dtype=bool),
               np.arange(len(verts)) < _members_within(verts, caps[0]))]
    covered = [rounds[0][1]]

    for k in range(1, depth + 1):
        probe = sum(1 << caps[j] for j in range(k))   # elements m_j + 1
        core = cores[depth - k]
        caps.append(max([t for t in range(caps[k - 1] + 2, d + 1)
                         if probe | (1 << (t - 1)) in core],
                        default=caps[k - 1] + 1))
        shell, center = _round(verts, d, verts[np.logical_or(*rounds[-1])],
                               caps[k - 1], caps[k], covered[-1])
        rounds.append((shell, center))
        covered.append(covered[-1] | shell | center)

    star_balls = {}
    for k in range(depth):
        later = [(j, verts[rounds[k + j][0]]) for j in range(1, depth - k + 1)]
        for s in verts[rounds[k][1]].tolist():
            near = [shell[np.bitwise_count(shell ^ np.uint64(s)) == j]
                    for j, shell in later]
            star_balls[(k, s)] = frozenset([s, *np.concatenate(near).tolist()])

    def sets(part_masks):
        return tuple(frozenset(verts[m].tolist()) for m in part_masks)

    return PartitionCertificate(
        d, epsilon, depth, degenerate, tuple(cores), tuple(caps),
        sets(s for s, _ in rounds), sets(c for _, c in rounds), sets(covered),
        star_balls,
    )


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class PartitionReport:
    parts: tuple[CheckOutcome, ...]       # Proposition parts 1-4
    assertions: tuple[CheckOutcome, ...]  # the seven finite assertions

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.parts) and all(
            c.passed for c in self.assertions
        )

    def failures(self) -> list[CheckOutcome]:
        return [c for c in list(self.parts) + list(self.assertions) if not c.passed]


# _ABOVE[f]: the mask of the elements above f, for f = 0..64
_ABOVE = np.array([((1 << 64) - 1) >> f << f for f in range(65)],
                  dtype=np.uint64)


def _next_extras(owner: np.ndarray, rest: np.ndarray, floor: np.ndarray):
    """Every way to take one more extra e from row i: an element of
    rest[i] above floor[i].  Returns owner[i], rest[i] - {e} and e for
    each way, taking the least element left from every row at once."""
    left = rest & _ABOVE[np.minimum(floor, 64)]
    ways = [(owner[:0], rest[:0], floor[:0])]
    while (keep := left != 0).any():
        owner, rest, left = owner[keep], rest[keep], left[keep]
        low = left ^ (left & (left - np.uint64(1)))    # the least element left
        e = np.bitwise_count(low - np.uint64(1)).astype(np.int64) + 1
        ways.append((owner, rest ^ low, e))
        left = left ^ low
    return tuple(map(np.concatenate, zip(*ways)))


def _representation_counts(verts: np.ndarray, k: int, caps,
                           centers) -> np.ndarray:
    """For each of the masks `verts`, its number of decompositions
    S = T + extras with T a center of a round j <= k (`centers[j]`, an
    ascending array) and the k - j extras, in ascending order, above the
    caps m_j, ..., m_{k-1}, one each.  The extras are elements of S, so
    the choices of every S are made together, one extra per step, each
    above its cap and the extra before it (`_next_extras`), and every
    S - extras is looked up in centers[j] with one `searchsorted`."""
    counts = np.zeros(len(verts), dtype=np.int64)
    for j in range(k + 1):
        if not len(centers[j]):
            continue
        owner, rest = np.arange(len(verts)), verts
        last = np.zeros(len(verts), dtype=np.int64)     # the previous extra
        for cap in caps[j:k]:
            owner, rest, last = _next_extras(owner, rest,
                                             np.maximum(last, cap))
        counts += np.bincount(owner[_found(centers[j], rest)[1]],
                              minlength=len(verts))
    return counts


def _first_difference(a: np.ndarray, b: np.ndarray) -> int | None:
    """The least vertex in exactly one of the ascending arrays `a` and
    `b`, each without repeats, or None when they are equal."""
    if np.array_equal(a, b):
        return None
    return int(min([*a[~_found(b, a)[1]][:1].tolist(),
                    *b[~_found(a, b)[1]][:1].tolist()]))


def _reads(parts: list[np.ndarray]):
    """The ascending arrays `parts` read one after another: every vertex
    read, the index of its part, and for each read the position of the
    last earlier read of the same vertex, -1 for a first read."""
    flat = np.concatenate([np.zeros(0, dtype=np.uint64), *parts])
    part = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    order = np.argsort(flat, kind="stable")
    same = flat[order[1:]] == flat[order[:-1]]
    before = np.full(len(flat), -1)
    before[order[1:][same]] = order[:-1][same]
    return flat, part, before


def _first(name: str, witnesses) -> CheckOutcome:
    """The check `name` passes when `witnesses` yields nothing, and fails
    with the first witness otherwise."""
    for witness in witnesses:
        return CheckOutcome(name, False, witness)
    return CheckOutcome(name, True)


def verify_partition(cert: PartitionCertificate, fam: VertexFamily) -> PartitionReport:
    """Re-check every finite assertion of the partition construction.

    Proposition parts: (1) star balls pairwise disjoint, (2) the blocks
    C_k + D_k are the defining partition of the vertex set, (3) block
    edges and star-ball edges cover E(G) exactly, (4) every block has
    maximum degree at most epsilon*d.  The seven construction assertions
    are checked alongside; the seventh is part 1.  Each check yields its
    witnesses and fails with the first one.  Part 2 re-derives the shells
    and centers from the certificate's own caps, so a vertex moved
    between blocks or covered sets is caught with a witness.

    The checks run on arrays: each set of the certificate becomes an
    ascending uint64 array once, at the top, looked up in the family's
    `vertices` with `searchsorted`.  The family's `CubeGraph` is the one
    `build_partition` built on the same family object, and its member
    test ran there too: `covered_sets_compressed` passes `fam` itself
    where covered[k] is the family, so its verdict is reused.
    """
    d, depth = cert.d, cert.depth
    g = cube_graph(fam)
    verts = fam.vertices
    rows = np.repeat(np.arange(len(verts)), np.diff(g.indptr))
    limit = cert.epsilon * d
    cores, shells, centers, covered, block_sets = (
        [_sorted_masks(part) for part in parts] for parts in
        (cert.cores, cert.shells, cert.centers, cert.covered, cert.blocks()))
    keys = sorted(cert.star_balls)
    balls = [_sorted_masks(cert.star_balls[key]) for key in keys]

    def edge_str(e) -> str:
        ends = verts[[rows[e], g.indices[e]]].tolist()
        return "-".join(map(vertex_str, ends))

    # a certificate vertex outside the family has no row, so no edges
    blocks = [_mask(verts, b) for b in block_sets]
    degrees = [int(g.neighbour_sums(b)[b].max(initial=0)) for b in blocks]

    def ball_overlaps():
        flat, part, before = _reads(balls)
        outside = ~_found(verts, flat)[1]
        for p in np.flatnonzero(outside | (before >= 0))[:1]:
            v, key = vertex_str(int(flat[p])), keys[part[p]]
            if outside[p]:
                yield f"{v} in ball {key} is not a vertex"
            else:
                yield f"{v} lies in balls {keys[part[before[p]]]} and {key}"

    def block_mismatches():
        flat, part, before = _reads(block_sets)
        for p in np.flatnonzero(before >= 0)[:1]:
            yield (f"{vertex_str(int(flat[p]))} lies in blocks "
                   f"{part[before[p]]} and {part[p]}")
        # past this point no vertex lies in two blocks
        if (stray := _first_difference(np.sort(flat), verts)) is not None:
            yield f"block union mismatch at {vertex_str(stray)}"
        if len(shells[0]):
            yield "round 0 has a nonempty shell"
        elif not np.array_equal(centers[0],
                                verts[:_members_within(verts, cert.caps[0])]):
            yield "round 0 centers are not the low-element vertices"
        for k in range(1, depth + 1):
            shell, center = _round(verts, d, block_sets[k - 1], cert.caps[k - 1],
                                   cert.caps[k], _mask(verts, covered[k - 1]))
            for name, got, given in (("shell", shell, shells[k]),
                                     ("centers", center, centers[k])):
                bad = _first_difference(verts[got], given)
                if bad is not None:
                    yield f"round {k} {name} mismatch at {vertex_str(bad)}"
        for k, cov in enumerate(covered):
            placed = np.sort(flat[part <= k])
            if (stray := _first_difference(cov, placed)) is not None:
                yield f"covered[{k}] mismatch at {vertex_str(stray)}"

    def edge_mismatches():
        # parts hold only family edges, so a mismatch is an uncovered edge
        hit = np.zeros(len(rows), dtype=bool)
        for part in [*blocks, *(_mask(verts, ball) for ball in balls)]:
            hit |= part[rows] & part[g.indices]
        for e in np.flatnonzero((g.indices > rows) & ~hit)[:1]:
            yield f"edge {edge_str(e)} mismatch"

    def heavy_blocks():
        for k, deg in enumerate(degrees):
            if deg > limit:
                yield f"block {k} has internal degree {deg} > {limit:.3f}"

    def ambiguous_vertices():
        for k, block in enumerate(block_sets):
            counts = _representation_counts(block, k, cert.caps, centers)
            for p in np.flatnonzero(counts != 1)[:1]:
                yield (f"{vertex_str(int(block[p]))} in round {k} has "
                       f"{counts[p]} decompositions")

    def uncompressed_covers():
        for k in range(depth + 1):
            same = d == fam.d and np.array_equal(covered[k], verts)
            ok, violation = is_compressed(
                fam if same else VertexFamily(d, cert.covered[k]))
            if not ok:
                yield f"covered[{k}] violates {violation.describe()}"

    def edges_to_later_rounds():
        for k in range(depth + 1):
            later = _mask(verts, centers[k + 1] if k < depth else verts[:0])
            if k + 2 <= depth:
                later |= blocks[k + 2]
            leaving = _mask(verts, covered[k])[rows] & later[g.indices]
            for e in np.flatnonzero(leaving):
                yield f"edge {edge_str(e)} leaves covered[{k}]"

    def blocks_in_earlier_rounds():
        for k, block in enumerate(block_sets[1:], start=1):
            for v in block[_found(covered[k - 1], block)[1]][:1].tolist():
                yield f"{vertex_str(v)} in round {k} and covered[{k-1}]"

    def loose_caps():
        for k, deg in enumerate(degrees):
            if not deg <= cert.caps[k] <= limit:
                yield (f"round {k}: degree {deg}, cap {cert.caps[k]}, "
                       f"threshold {limit:.3f}")

    def uncovered_cores():
        for k in range(depth + 1):
            core = cores[depth - k]
            for v in core[~_found(covered[k], core)[1]][:1].tolist():
                yield (f"core {depth - k} vertex {vertex_str(v)} "
                       f"not covered by round {k}")
        if not np.array_equal(covered[depth], verts):
            yield "final covered set is not all of V(G)"

    part1 = _first("star_balls_disjoint", ball_overlaps())
    parts = (part1,
             _first("blocks_partition_vertices", block_mismatches()),
             _first("edges_covered_exactly", edge_mismatches()),
             _first("block_degree_bounded", heavy_blocks()))
    assertions = (_first("unique_representation", ambiguous_vertices()),
                  _first("covered_sets_compressed", uncompressed_covers()),
                  _first("no_edges_to_later_rounds", edges_to_later_rounds()),
                  _first("blocks_avoid_earlier_rounds", blocks_in_earlier_rounds()),
                  _first("caps_bound_degree", loose_caps()),
                  _first("cores_covered", uncovered_cores()),
                  part1)
    return PartitionReport(parts, assertions)
