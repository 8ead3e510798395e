"""Exhaustive extremal search over compressed families, and the
heavy-vertex partition certificates.

The compression reduction says the maximum of lambda1 over all n-vertex
induced subgraphs of Q_d is attained on a compressed family, so the
search enumerates exactly those.  A compressed family listed in binary
order has every prefix compressed (removing the binary-maximal member
preserves down-closure and shift-stability), so the enumeration is an
orderly DFS: grow the family one vertex at a time, in increasing binary
order, keeping only extensions whose lower shadow and adjacent shifts
are already present: the member-local test that `is_compressed` applies
to every member, which suffices because a compressed family plus a
vertex that passes it is compressed (`compress`'s module docstring).
Each member offers one extension, its first non-member above its largest
element, and a new member changes only two offers, so the DFS runs on an
explicit stack of offers, at any depth, and yields each family as its
sorted members.  Members of a compressed n-family use elements at most
n-1, which bounds the offers.  An offer that fails remembers the absent
prerequisite that rejected it, and fails again at once while that one is
still absent, which is sound whatever the DFS did in between: about three
offers in four are rejected so at n = 28.

A certified family is an interval [lo, hi] for its lambda1 (`lambda1`'s
`SpectralResult.interval()`).  Families rank by lo; the maximizers are
the families whose hi reaches the best lo, so two families tie when their
intervals overlap, and the runner-ups are the next `top_k` families that
are not maximizers.

The maximization screens, then certifies.  Q_d is bipartite, so
A = [[0, B], [B^T, 0]] with the even members as B's rows, and lambda1^2
is the top eigenvalue of B B^T.  `_screen` gives each family an upper
bound u: the square root of the Collatz-Wielandt ratio
max_v (B B^T x)_v / x_v over the even members, at the positive x reached
by SCREEN_STEPS batched steps x <- B B^T x, rounded up past lambda1 by
a relative 1 + (n + 3) eps/2.  `lambda1` then certifies families in
order of decreasing u, and stops at the first family with u + w below
the best lo and u below the lowest reported lo, w = max(tol, `lambda1`'s
rounding floor at u).  The stop is exact: no lo exceeds lambda1, so none
exceeds u, and `lambda1` returns a hi of at most lo + w unless it reaches
its step cap.  No family left uncertified can therefore be a maximizer or
a runner-up: the result is the one that certifying every family gives.

The partition machinery decomposes a compressed family into blocks of
small internal degree plus disjoint star-ball neighbourhoods around
"heavy" centers, where heaviness is measured by surviving iterated
epsilon*d-degree cores.  `verify_partition` re-checks every finite
assertion of that construction and reports witnesses for failures.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from itertools import chain, combinations
from math import inf, log, sqrt

import numpy as np

from .compress import _prerequisites, is_compressed
from .core import (MAX_DIM, VertexFamily, cube_graph, elements_of,
                   star_family, vertex_str)
from .spectral import DEFAULT_TOL, _bipartite_stack, lambda1, star_value

# Steps on B B^T before the screen's Collatz-Wielandt ratio: more steps
# leave fewer families to `lambda1`, and no count, 0 included, alters a
# result.  At n = 8..28 and 48 (d = n - 1) and at (n, d) = (56, 10), 4
# send no more families to `lambda1` than 6 do; 3 send more at (56, 10).
SCREEN_STEPS = 4

# Bound on the entries of one (F, E, O) screen stack: F is
# SCREEN_ENTRIES // n**2 families (at least one), and E, O <= n, so at
# most 512 KB of float64.
SCREEN_ENTRIES = 1 << 16


# ---------------------------------------------------------------------------
# Enumeration of compressed families.


def enumerate_compressed(n: int, cap_dim: int):
    """Yield the sorted members of every compressed family of size n with
    elements <= cap_dim, each family exactly once, in a canonical order.

    A valid next member v is s + {e}, e > max(s), with s and every
    s + {e'}, max(s) < e' < e, members (shadow and left shifts of v); so
    each member s offers only its first non-member s + {e}.  When v
    joins, p = v - {max v} offers p + {max v + 1} in its place and v
    offers v + {max v + 1}; every other offer stays.  Each node of the
    depth-first search keeps its untried offers above the last member,
    largest first, on an explicit stack.

    Most offers fail, and the same offer is tested again at many nodes.
    For the length of the call each offer v keeps its prerequisites (the
    shadows and adjacent shifts `_member_fails` looks up,
    `_prerequisites`) and the one whose absence last rejected it.  While
    that one is still absent v fails at once, with one lookup: an absent
    prerequisite is a failure whatever else the DFS has added or removed,
    so the reject needs no invariant of the search.  Otherwise the full
    test runs and records the prerequisite that fails now.  The empty
    set, always a member, stands for "none recorded"."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if cap_dim < 1 or n > 2**cap_dim:
        raise ValueError(
            f"cap_dim={cap_dim} too small for a compressed family of size {n}"
        )
    if n == 1:
        yield (0,)
        return
    top = 1 << min(cap_dim, n - 1)
    path, members, stack = [0], {0}, [[1]]
    prereqs: dict[int, tuple[int, ...]] = {}
    blocker: dict[int, int] = {}
    while stack:
        offers = stack[-1]
        if not offers:
            stack.pop()
            members.remove(path.pop())
            continue
        v = offers.pop()
        if blocker.get(v, 0) not in members:
            continue
        pre = prereqs.get(v)
        if pre is None:
            pre = prereqs[v] = _prerequisites(v)
        for p in pre:
            if p not in members:
                blocker[v] = p
                break
        else:
            if len(path) == n - 1:
                yield (*path, v)
                continue
            bit = 1 << v.bit_length()           # element max v + 1
            path.append(v)
            members.add(v)
            new = [(v ^ bit >> 1) | bit, v | bit] if bit < top else []
            stack.append(sorted(offers + new, reverse=True))


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


def _screen(chunk: list[tuple[int, ...]]) -> list[float]:
    """Each family's Collatz-Wielandt bound on lambda1, rounded up past
    lambda1; `chunk` holds the sorted members of compressed families, all
    of one size n.

    lambda1^2 is the top eigenvalue of B B^T on the even side
    (`_bipartite_stack`), and max_v (B B^T x)_v / x_v bounds it for any
    positive x.  A compressed family is down-closed, so connected: for
    n >= 2 every even member has a neighbour, and B B^T is irreducible
    on the even members with their degrees on its diagonal, so steps
    from the ones on those rows keep x positive there.  A one-vertex
    family has no edge and gets u = 0."""
    n = len(chunk[0])
    if n == 1:
        return [0.0] * len(chunk)
    members = np.fromiter(chain.from_iterable(chunk), np.uint64, len(chunk) * n)
    b = _bipartite_stack(members.reshape(-1, n))[0]
    # x as (F, 1, E) rows, ones on the padded rows too: B is zero there,
    # so B^T x reads only the even members, and x = B B^T x = 0 there
    # after a step
    x = np.ones((len(b), 1, b.shape[1]))
    for _ in range(SCREEN_STEPS):
        x = x @ b @ b.mT
        x /= x.max(axis=2, keepdims=True)
    ratio = x @ b @ b.mT / np.where(x > 0, x, 1.0)   # 0 on padded rows
    # Rounding, in eps = 2**-52, to first order.  The sums of B^T x and
    # B (B^T x) make at most e - 1 and o - 1 additions of nonnegative
    # terms (e + o = n members), and the division one rounding, so each
    # ratio is within (n - 1) eps/2 of exact.  The square root halves
    # that and rounds once: sqrt(ratio) >= lambda1 (1 - (n + 1) eps/4).
    # With eps/2 for the product below, that is (n + 3) eps/4, and
    # 1 + (n + 3) eps/2 leaves as much again for second-order terms.
    round_up = 1 + (n + 3) * np.finfo(float).eps / 2
    return (np.sqrt(ratio.max(axis=(1, 2))) * round_up).tolist()


def _split(ranked, top_k: int):
    """Maximizers and runner-ups of (lo, hi, members) rows in rank order:
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
    families: list[tuple[int, ...]] = []
    complete = True
    for ms in enumerate_compressed(n, cap_dim):
        if max_families is not None and len(families) >= max_families:
            complete = False
            break
        families.append(ms)
    chunk = max(1, SCREEN_ENTRIES // (n * n))
    bounds = [u for start in range(0, len(families), chunk)
              for u in _screen(families[start:start + chunk])]

    def by_rank(row):   # lower end descending, then members
        return -row[0], row[2]

    # lambda1's gap is at most max(tol, 4 (K + 10) 2**-53 lo), K < 2n, lo <= u
    rounding = (8 * n + 40) * 2.0**-53
    ranked: list[tuple[float, float, tuple[int, ...]]] = []   # (lo, hi, ms)
    for u, ms in sorted(zip(bounds, families), key=lambda p: (-p[0], p[1])):
        if ranked:
            maxima, runners = _split(ranked, top_k)
            floor = min(lo for lo, _, _ in maxima + runners)
            w = max(tol, rounding * u)
            if len(runners) == top_k and u + w < ranked[0][0] and u < floor:
                break
        fam = VertexFamily(cap_dim, frozenset(ms))
        insort(ranked, (*lambda1(fam, tol).interval(), ms), key=by_rank)
    maxima, runners = _split(ranked, top_k)
    best = ranked[0][0]
    maximizers = tuple(VertexFamily(d, frozenset(ms)) for _, _, ms in maxima)
    runner_ups = tuple((lo, VertexFamily(d, frozenset(ms)))
                       for lo, _, ms in runners)
    return SearchResult(n, d, best, maximizers, runner_ups, len(families),
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


def _members_within(members, cap_elements: int) -> frozenset[int]:
    allowed = (1 << cap_elements) - 1
    return frozenset(s for s in members if s & ~allowed == 0)


def _round(members, d: int, k: int, shells, centers, caps, covered):
    """Shell and centers of round k >= 1, derived from round k - 1's
    shell, centers and covered set and from the caps."""
    bits = [1 << t for t in range(caps[k - 1], d)]   # elements above m_{k-1}
    shell = frozenset({s | b for s in shells[k - 1] | centers[k - 1]
                       for b in bits if not s & b} & members)
    return shell, _members_within(members, caps[k]) - covered[k - 1] - shell


def build_partition(fam: VertexFamily, epsilon: float) -> PartitionCertificate:
    """Construct the heavy-vertex partition of a compressed family."""
    if not 0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    ok, violation = is_compressed(fam)
    if not ok:
        raise ValueError(f"family is not compressed: violates {violation.describe()}")
    d, members = fam.d, fam.members
    g = cube_graph(fam)
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
        cores.append(frozenset(g.vertices[live].tolist()))

    if degenerate:
        cores = cores[:1]
    depth = len(cores) - 1

    deepest = cores[depth] if cores[depth] else members
    caps = [max([t for t in range(1, d + 1) if (1 << (t - 1)) in deepest],
                default=1)]
    shells = [frozenset()]
    centers = [_members_within(members, caps[0])]
    covered = [centers[0]]

    for k in range(1, depth + 1):
        probe = sum(1 << caps[j] for j in range(k))   # elements m_j + 1
        core = cores[depth - k]
        caps.append(max([t for t in range(caps[k - 1] + 2, d + 1)
                         if probe | (1 << (t - 1)) in core],
                        default=caps[k - 1] + 1))

        shell, center = _round(members, d, k, shells, centers, caps, covered)
        shells.append(shell)
        centers.append(center)
        covered.append(covered[-1] | shell | center)

    star_balls = {(k, s): frozenset({s} | {t for j in range(1, depth - k + 1)
                                          for t in shells[k + j]
                                          if (s ^ t).bit_count() == j})
                  for k in range(depth) for s in centers[k]}

    return PartitionCertificate(
        d, epsilon, depth, degenerate, tuple(cores), tuple(caps),
        tuple(shells), tuple(centers), tuple(covered), star_balls,
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


def _unique_representation(s: int, k: int, cert: PartitionCertificate):
    """List decompositions S = T + extras with T a center of round j and
    the sorted extras above the caps m_j..m_{k-1}, one each: the extras
    are k - j of S's own elements, so T is looked up, not searched for.
    Every extra is at least the first, so only elements above m_j count."""
    bits = [(e, 1 << (e - 1)) for e in elements_of(s)] if k else []
    hits = []
    for j in range(k + 1):
        if not cert.centers[j]:
            continue
        high = [b for b in bits if b[0] > cert.caps[j]]
        for extras in combinations(high, k - j):
            t = s
            for (e, bit), cap in zip(extras, cert.caps[j:]):
                if e <= cap:
                    break
                t ^= bit
            else:
                if t in cert.centers[j]:
                    hits.append((j, t))
    return hits


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
    """
    members = fam.members
    d, depth = cert.d, cert.depth
    g = cube_graph(fam)
    verts = g.vertices.tolist()
    index = {v: k for k, v in enumerate(verts)}
    rows = np.repeat(np.arange(len(verts)), np.diff(g.indptr))
    limit = cert.epsilon * d

    def mask(part) -> np.ndarray:
        # a certificate vertex outside the family has no row, so no edges
        out = np.zeros(len(verts), dtype=bool)
        out[[index[v] for v in part if v in index]] = True
        return out

    def edge_str(e) -> str:
        return f"{vertex_str(verts[rows[e]])}-{vertex_str(verts[g.indices[e]])}"

    blocks = list(map(mask, cert.blocks()))
    degrees = [int(g.neighbour_sums(b)[b].max(initial=0)) for b in blocks]

    def ball_overlaps():
        seen: dict[int, tuple[int, int]] = {}
        for key, ball in sorted(cert.star_balls.items()):
            for v in sorted(ball):
                if v not in members:
                    yield f"{vertex_str(v)} in ball {key} is not a vertex"
                if v in seen:
                    yield f"{vertex_str(v)} lies in balls {seen[v]} and {key}"
                seen[v] = key

    def block_mismatches():
        placed: dict[int, int] = {}
        for k, block in enumerate(cert.blocks()):
            for v in sorted(block):
                if v in placed:
                    yield f"{vertex_str(v)} lies in blocks {placed[v]} and {k}"
                placed[v] = k
        if stray := members ^ set(placed):
            yield f"block union mismatch at {vertex_str(min(stray))}"
        if cert.shells[0]:
            yield "round 0 has a nonempty shell"
        elif cert.centers[0] != _members_within(members, cert.caps[0]):
            yield "round 0 centers are not the low-element vertices"
        for k in range(1, depth + 1):
            shell, center = _round(members, d, k, cert.shells, cert.centers,
                                   cert.caps, cert.covered)
            if shell != cert.shells[k]:
                bad = min(shell ^ cert.shells[k])
                yield f"round {k} shell mismatch at {vertex_str(bad)}"
            if center != cert.centers[k]:
                bad = min(center ^ cert.centers[k])
                yield f"round {k} centers mismatch at {vertex_str(bad)}"
        for k, cov in enumerate(cert.covered):
            if stray := cov ^ {v for v, j in placed.items() if j <= k}:
                yield f"covered[{k}] mismatch at {vertex_str(min(stray))}"

    def edge_mismatches():
        # parts hold only family edges, so a mismatch is an uncovered edge
        covered = np.zeros(len(rows), dtype=bool)
        for part in [*blocks, *map(mask, cert.star_balls.values())]:
            covered |= part[rows] & part[g.indices]
        for e in np.flatnonzero((g.indices > rows) & ~covered)[:1]:
            yield f"edge {edge_str(e)} mismatch"

    def heavy_blocks():
        for k, deg in enumerate(degrees):
            if deg > limit:
                yield f"block {k} has internal degree {deg} > {limit:.3f}"

    def ambiguous_vertices():
        for k in range(depth + 1):
            for s in sorted(cert.shells[k] | cert.centers[k]):
                hits = _unique_representation(s, k, cert)
                if len(hits) != 1:
                    yield (f"{vertex_str(s)} in round {k} has {len(hits)} "
                           "decompositions")

    def uncompressed_covers():
        for k in range(depth + 1):
            ok, violation = is_compressed(VertexFamily(d, cert.covered[k]))
            if not ok:
                yield f"covered[{k}] violates {violation.describe()}"

    def edges_to_later_rounds():
        for k in range(depth + 1):
            later = set(cert.centers[k + 1]) if k < depth else set()
            if k + 2 <= depth:
                later |= cert.shells[k + 2] | cert.centers[k + 2]
            leaving = mask(cert.covered[k])[rows] & mask(later)[g.indices]
            for e in np.flatnonzero(leaving):
                yield f"edge {edge_str(e)} leaves covered[{k}]"

    def blocks_in_earlier_rounds():
        for k in range(1, depth + 1):
            if overlap := (cert.shells[k] | cert.centers[k]) & cert.covered[k - 1]:
                yield (f"{vertex_str(min(overlap))} in round {k} "
                       f"and covered[{k-1}]")

    def loose_caps():
        for k, deg in enumerate(degrees):
            if not deg <= cert.caps[k] <= limit:
                yield (f"round {k}: degree {deg}, cap {cert.caps[k]}, "
                       f"threshold {limit:.3f}")

    def uncovered_cores():
        for k in range(depth + 1):
            if stray := cert.cores[depth - k] - cert.covered[k]:
                yield (f"core {depth - k} vertex {vertex_str(min(stray))} "
                       f"not covered by round {k}")
        if cert.covered[depth] != members:
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
