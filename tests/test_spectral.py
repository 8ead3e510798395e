"""Eigenvalue solvers and every bound, checked against dense oracles."""

import filecmp
import inspect
import math
import os
import random
import subprocess
import sys
import tracemalloc
import warnings
from math import comb, isclose, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import brute_edges, brute_lambda1
from cubespectra import spectral
from cubespectra.core import (
    VertexFamily,
    cube_graph,
    format_family,
    hamming_ball,
    initial_segment,
    parse_family,
    star_family,
    vertex_of,
    write_family,
)
from cubespectra.spectral import (
    DEFAULT_TOL,
    _root_of_int,
    classic_bounds,
    count_p2_c4,
    default_walk_depth,
    hamming_lambda1_exact,
    hamming_upper_bound,
    hamming_walk_lower_bound,
    lambda1,
    level_bound,
    limit_constant,
    star_value,
    walk_trace_bound,
)


def test_lambda1_examples():
    assert abs(lambda1(initial_segment(4, 2)).lambda1 - 2.0) < 1e-10
    for m in range(1, 9):
        res = lambda1(star_family(8, m))
        assert abs(res.lambda1 - sqrt(m)) < 1e-10
    single = lambda1(VertexFamily(3, frozenset([5])))
    assert single.lambda1 == 0.0 and single.method == "dense-small"
    with pytest.raises(ValueError):
        lambda1(VertexFamily(2, frozenset()))


def test_lambda1_certified_interval():
    rng = random.Random(21)
    for _ in range(40):
        d = rng.randint(2, 5)
        members = frozenset(rng.sample(range(2**d), rng.randint(1, 2**d)))
        fam = VertexFamily(d, members)
        res = lambda1(fam, tol=1e-10)
        truth = brute_lambda1(members, d)
        assert res.lambda1 - 1e-9 <= truth <= res.lambda1 + res.error_bound + 1e-9
        assert res.converged
        assert res.error_bound <= 1e-10


def test_lambda1_bound_survives_underflow():
    # eight components; the runner-up (2.236 against 2.247) needs 5,340
    # iterations, by which time the isolated vertices hold exactly 0.0
    members = [3, 4, 15, 19, 31, 34, 35, 36, 37, 60, 61, 62, 63, 66, 68,
               71, 77, 82, 92, 95, 100, 108, 114, 119, 120, 122]
    res = lambda1(VertexFamily(7, frozenset(members)))
    assert min(res.eigenvector.weights.get(v, 0.0) for v in members) == 0.0
    truth = brute_lambda1(members, 7)
    assert math.isfinite(res.error_bound)
    assert res.lambda1 - 1e-9 <= truth <= res.lambda1 + res.error_bound + 1e-9
    assert not res.converged or res.error_bound <= DEFAULT_TOL


def test_lambda1_nonconvergence_is_flagged(monkeypatch):
    # from the uniform vector one step on B B^T reaches ball(6, 2)'s
    # Perron vector, but ball(6, 3)'s takes more than 3
    monkeypatch.setattr(spectral, "MAX_POWER_ITERATIONS", 3)
    res = lambda1(hamming_ball(6, 3), tol=1e-12)
    assert not res.converged
    # the bracket is still certified
    truth = hamming_lambda1_exact(6, 3).lambda1
    assert res.lambda1 <= truth <= res.lambda1 + res.error_bound


def test_lambda1_tol_below_rounding_is_not_met(monkeypatch):
    # the uniform start is Q_3's Perron vector, so the exact gap is 0; the
    # first 100 vertices of Q_8 reach the rounding floor at their Lanczos
    # start; ball(6, 3) takes some steps from the uniform vector.  A tol
    # below the floor stops the loop once the gap is within the floor,
    # 4 (K + 10) 2**-53 lo with K < 2n, long before the step cap.
    monkeypatch.setattr(spectral, "MAX_POWER_ITERATIONS", 300)
    for fam in (initial_segment(8, 3), initial_segment(100, 8),
                hamming_ball(6, 3)):
        res = lambda1(fam)
        assert res.converged and 0.0 < res.error_bound <= DEFAULT_TOL
        first = res.iterations
        res = lambda1(fam, tol=1e-300)
        assert not res.converged and res.iterations <= first + 10
        assert res.error_bound >= np.spacing(res.lambda1 + 1.0)
        assert res.error_bound <= (8 * len(fam) + 40) * 2.0**-53 * res.lambda1


def _mp_top_eigenvalue(rows):
    """The top eigenvalue of a symmetric matrix at 40 digits."""
    import mpmath   # a test-only dependency, used as an oracle
    with mpmath.workdps(40):
        return max(mpmath.eigsy(mpmath.matrix(rows), eigvals_only=True))


def _mp_ball_lambda1(d, r):
    """lambda1 of ball(d, r) from its symmetric level quotient: the
    tridiagonal with off-diagonals sqrt(j (d - j + 1)), j = 1..r."""
    import mpmath
    with mpmath.workdps(40):
        rows = [[mpmath.mpf(0)] * (r + 1) for _ in range(r + 1)]
        for j in range(1, r + 1):
            rows[j - 1][j] = rows[j][j - 1] = mpmath.sqrt(j * (d - j + 1))
        return _mp_top_eigenvalue(rows)


def _search_table_winners():
    path = Path(__file__).resolve().parent.parent / "goldens" / "search_table.tsv"
    for line in path.read_text().splitlines()[1:]:
        d, winner = line.split("\t")[1], line.split("\t")[4]
        members = frozenset(vertex_of(int(e) for e in s.strip("{}").split(",") if e)
                            for s in winner.split(";"))
        yield VertexFamily(int(d), members)


def _mp_lambda1(fam):
    """lambda1 of a small family from its adjacency matrix at 40 digits."""
    ms = fam.sorted_members()
    rows = [[0] * len(ms) for _ in ms]
    for u, v in brute_edges(ms, fam.d):
        rows[ms.index(u)][ms.index(v)] = rows[ms.index(v)][ms.index(u)] = 1
    return _mp_top_eigenvalue(rows)


def test_lambda1_interval_holds_the_exact_value():
    # lo <= lambda1 <= lo + error_bound, in floating point and with no
    # slack, on both paths: Q_k has lambda1 = k and the m-leaf star sqrt(m)
    import mpmath
    cases = [(initial_segment(2**k, k), mpmath.mpf(k)) for k in range(1, 9)]
    cases += [(star_family(64, m), mpmath.sqrt(m)) for m in range(65)]
    cases += [(hamming_ball(d, r), _mp_ball_lambda1(d, r))
              for d, r in ((7, 3), (10, 2), (11, 2), (9, 3), (12, 4))]
    winners = list(_search_table_winners())
    assert len(winners) == 11
    cases += [(fam, _mp_lambda1(fam)) for fam in winners]
    methods = set()
    for fam, truth in cases:
        res = lambda1(fam)
        lo, hi = res.interval()
        assert res.converged
        assert mpmath.mpf(lo) <= truth <= mpmath.mpf(hi), fam.sorted_members()
        methods.add(res.method)
    assert methods == {"dense-small", "power", "lanczos"}


def test_lambda1_eigenvector_properties():
    for fam in (hamming_ball(5, 2), initial_segment(12, 4), hamming_ball(6, 1)):
        res = lambda1(fam)
        vec = res.eigenvector
        assert isclose(vec.norm_squared(), 1.0, abs_tol=1e-12)
        # connected family: Perron weights strictly positive
        assert all(w > 0 for w in vec.weights.values())
        assert vec.support() == fam.members


def _down_closure(tops, budget: int) -> set[int]:
    """The down-closure of `tops`, taking them in order and skipping any
    that would bring it above `budget` vertices."""
    members: set[int] = set()
    for top in tops:
        below, s = {top}, top
        while s:
            s = (s - 1) & top
            below.add(s)
        if len(members | below) <= budget:
            members |= below
    return members


@st.composite
def sparse_families(draw):
    """65..200 vertices of Q8-Q10: a down-closed family, or two down-closed
    pieces of the low d - 2 coordinates, the second moved by both high
    ones, so that no edge joins them.  Returns (family, connected)."""
    d = draw(st.integers(8, 10))
    connected = draw(st.booleans())
    low = d if connected else d - 2
    tops = st.lists(st.integers(0, 2**low - 1), max_size=40)
    if connected:
        members = _down_closure(draw(tops) + [0], 200)
    else:
        first = _down_closure(draw(tops) + [0], draw(st.integers(1, 199)))
        second = _down_closure(draw(tops) + [0], 200 - len(first))
        members = first | {s | 0b11 << (d - 2) for s in second}
    assume(len(members) >= 65)
    return VertexFamily(d, frozenset(members)), connected


@settings(max_examples=150)
@given(sparse_families())
def test_lambda1_sparse_path_property(case):
    fam, connected = case
    res = lambda1(fam)
    assert res.method == "lanczos"
    truth = brute_lambda1(fam.members, fam.d)
    assert res.lambda1 - 1e-9 <= truth <= res.lambda1 + res.error_bound + 1e-9
    assert not res.converged or res.error_bound <= DEFAULT_TOL
    if connected:
        assert res.eigenvector.support() == fam.members
        assert all(w > 0 for w in res.eigenvector.weights.values())


def test_lambda1_lanczos_start_leaves_few_power_steps():
    # the largest certify inputs: from the uniform vector they took 170
    # and 180 power steps
    for fam in (initial_segment(59_999, 16), hamming_ball(22, 5)):
        res = lambda1(fam)
        assert res.method == "lanczos" and res.converged
        assert res.error_bound <= DEFAULT_TOL and res.iterations <= 5


def test_lambda1_on_an_edgeless_sparse_family():
    # one side empty: B has no entries, and lambda1 is exactly 0
    evens = [v for v in range(2**10) if v.bit_count() % 2 == 0][:100]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lambda1(VertexFamily(10, frozenset(evens)))
    assert res.method == "lanczos" and res.converged
    assert res.lambda1 == 0.0 and math.isfinite(res.error_bound)
    assert res.error_bound <= DEFAULT_TOL


def test_lambda1_on_edgeless_dense_families():
    # the rounded uniform vector's norm is not exactly 1, so a power step
    # on A + I = I would put the interval a few ulps off 0
    evens = [v for v in range(2**8) if v.bit_count() % 2 == 0]
    for size in range(2, 65):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lambda1(VertexFamily(8, frozenset(evens[:size])))
        assert res.interval() == (0.0, 0.0) and res.converged
        assert res.method == "power" and res.iterations == 0


def test_dense_lambda1_builds_no_cube_graph(monkeypatch):
    def refuse(fam):
        raise AssertionError("cube_graph called on the dense path")

    monkeypatch.setattr(spectral, "cube_graph", refuse)
    for fam in (VertexFamily(3, frozenset([5])), initial_segment(64, 8),
                star_family(8, 5), hamming_ball(6, 1)):
        res = lambda1(fam)
        assert res.converged
        assert abs(res.lambda1 - brute_lambda1(fam.members, fam.d)) < 1e-9


def test_bipartite_dense_is_the_even_by_odd_block_of_a():
    # Families with different even sides, and in Q_64 members that hold
    # bits 62 and 63, where every mask value can be a vertex.
    rng = random.Random(16)
    high = [low | top for low in range(16)
            for top in (0, 1 << 62, 1 << 63, 3 << 62)]
    families = [[0], [1 << 63], [3 << 62], [1 << 62 | 1], [0], [3 << 62],
                [0, 1], [0, 1 << 63], [1 << 62, 3 << 62]]
    for n in (2, 3, 7, 30):
        for pool in (range(2**5), high):
            families += [sorted(rng.sample(pool, n)) for _ in range(6)]
    for members in families:
        masks = np.array(members, dtype=np.uint64)
        b, odd = spectral._bipartite_dense(masks)
        evens = [v for v in members if v.bit_count() % 2 == 0]
        odds = [v for v in members if v.bit_count() % 2 == 1]
        want = np.zeros((len(evens), len(odds)))
        for u, v in brute_edges(members, 64):
            if u in odds:
                u, v = v, u
            want[evens.index(u), odds.index(v)] = 1.0
        assert np.array_equal(b, want)
        assert masks[~odd].tolist() == evens
        assert masks[odd].tolist() == odds


def test_lambda1_with_isolated_odd_vertices():
    # a down-set of Q10 and odd vertices with three or five elements, all
    # holding 7, 8 and 9: at distance >= 2 from each other and >= 3 from
    # the down-set, so B^T u is 0 on them
    high = 0b111 << 7
    isolated = [high] + [high | 1 << i | 1 << j
                         for i in range(7) for j in range(i)]
    for size in (65, 80, 127):
        members = initial_segment(size, 10).members | frozenset(isolated)
        res = lambda1(VertexFamily(10, members))
        truth = brute_lambda1(members, 10)
        assert res.method == "lanczos" and res.converged
        assert res.lambda1 - 1e-9 <= truth <= res.lambda1 + res.error_bound + 1e-9


def test_bipartite_blocks_give_the_bits_of_the_csr_product():
    rng = random.Random(14)
    nprng = np.random.default_rng(14)
    families = [initial_segment(300, 10), hamming_ball(9, 3),
                VertexFamily(10, frozenset(range(64, 200)))]
    families += [VertexFamily(d, frozenset(rng.sample(range(2**d),
                                                     rng.randint(65, 2**d))))
                 for d in (7, 8, 9, 12) for _ in range(3)]
    # B^T built first and B as its transpose (odd side 130 < even 256);
    # the searchsorted lookup (2^20 > 2nd); masks holding bits 62 and 63;
    # one side empty, from the table and from searchsorted
    top = 3 << 62
    families += [
        hamming_ball(10, 4),
        VertexFamily(20, frozenset(rng.sample(range(2**20), 300))),
        VertexFamily(64, frozenset({top, 1 << 62, 1 << 63}
                                   | {top ^ 1 << j for j in range(60)}
                                   | {1 << 62 ^ 1 << j for j in range(10)})),
        VertexFamily(10, frozenset(rng.sample(
            [m for m in range(2**10) if m.bit_count() % 2 == 0], 100))),
        VertexFamily(12, frozenset(rng.sample(
            [m for m in range(2**12) if m.bit_count() % 2 == 1], 100))),
    ]
    for fam in families:
        g = cube_graph(fam)
        n = len(g.vertices)
        b, bt, masks = spectral._bipartite_blocks(fam)
        # B and B^T hold one all-ones data array between them (an empty
        # array shares no memory)
        assert np.shares_memory(b.data, bt.data) or b.nnz == 0
        order = np.searchsorted(g.vertices, masks)
        half = b.shape[0]
        parity = [int(v).bit_count() % 2 for v in g.vertices[order]]
        assert parity == [0] * half + [1] * (n - half)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)

        def neighbour_sums(rows, x, offset):
            # each row's neighbours in the CSR order of A, summed from 0.0
            sums = []
            for u in order[rows]:
                total = 0.0
                for w in g.indices[g.indptr[u]:g.indptr[u + 1]]:
                    total += x[pos[w] - offset]
                sums.append(total)
            return np.array(sums)

        for _ in range(3):
            # magnitudes over 30 decades, so a sum in another order
            # rounds differently
            x = (nprng.normal(size=half)
                 * 10.0 ** nprng.uniform(-15, 15, size=half))
            y = neighbour_sums(slice(half, n), x, 0)
            want = neighbour_sums(slice(0, half), y, half)
            got = b.dot(bt.dot(x))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lanczos_start_runs_on_the_even_half(monkeypatch):
    runs = []
    steps = spectral._lanczos_steps

    def counted(matvec, n):
        runs.append([n, 0])
        for item in steps(matvec, n):
            runs[-1][1] += 1
            yield item

    monkeypatch.setattr(spectral, "_lanczos_steps", counted)
    for fam in (initial_segment(59_999, 16), hamming_ball(22, 5)):
        res = lambda1(fam)
        evens = sum(1 for v in fam.members if v.bit_count() % 2 == 0)
        assert res.converged and res.iterations <= 5
        # one run, on vectors of the even side, stopped by its residual
        # test before the step cap
        assert len(runs) == 1 and runs[0][0] == evens
        assert runs[0][1] < spectral._LANCZOS_MAX_STEPS == 60
        runs.clear()


def _parity_skewed(parity: int) -> VertexFamily:
    """A hash-picked fifth of Q12, less its members of the given parity
    that are multiples of 3: power steps follow its Lanczos start."""
    return VertexFamily(12, frozenset(
        v for v in range(1 << 12) if (v * 2654435761 >> 7) % 16 < 5
        and not (v.bit_count() % 2 == parity and v % 3 == 0)))


@pytest.mark.parametrize("fam, want", [
    # flip_csr's table branch, with as many even members as odd
    (initial_segment(3000, 12),
     ("11.336267061269535", "8.881784197001252e-14", "0", "'lanczos'")),
    # its searchsorted branch, with more odd members (326 against 2,626)
    (hamming_ball(26, 3),
     ("11.577276194304627", "1.580957587066223e-13", "0", "'lanczos'")),
    # its searchsorted branch, with more even members (191 against 20)
    (hamming_ball(20, 2),
     ("7.615773105863869", "8.171241461241152e-14", "0", "'lanczos'")),
    # the table branch with more odd (353 against 640) or even (640
    # against 500) members, and power steps after the start
    (_parity_skewed(0),
     ("4.072669493408081", "1.9539925233402755e-14", "7", "'lanczos'")),
    (_parity_skewed(1),
     ("4.1949975222954325", "2.1316282072803006e-14", "7", "'lanczos'")),
], ids=["init3000", "ball26-3", "ball20-2", "more-odd", "more-even"])
def test_sparse_lambda1_keeps_its_bits(fam, want):
    res = lambda1(fam)
    got = (repr(res.lambda1), repr(res.error_bound), repr(res.iterations),
           repr(res.method))
    assert got == want


@pytest.mark.parametrize("make, want", [
    # flip_csr's table branch
    (lambda: initial_segment(50_000, 16),
     ("15.423495623538907", "2.255973186038318e-13", "0", "'lanczos'")),
    # its searchsorted branch
    (lambda: hamming_ball(20, 6),
     ("15.097990578212768", "1.687538997430238e-13", "0", "'lanczos'")),
    (lambda: hamming_ball(22, 5),
     ("14.49701497614832", "1.758593271006248e-13", "0", "'lanczos'")),
], ids=["init50000", "ball20-6", "ball22-5"])
def test_sparse_lambda1_keeps_its_bits_at_certify_sizes(make, want):
    res = lambda1(make())
    got = (repr(res.lambda1), repr(res.error_bound), repr(res.iterations),
           repr(res.method))
    assert got == want


def test_lambda1_on_a_large_family_keeps_a_small_working_set():
    # init 50,000 of Q16, read from its file: a traced peak of 15.49 MB
    # with a data array for each of B and B^T, 12.43 MB with one between
    # them (numpy 2.4, scipy 1.17); scipy is imported before tracing
    fam = parse_family(format_family(initial_segment(50_000, 16)))
    lambda1(initial_segment(100, 8))
    tracemalloc.start()
    try:
        res = lambda1(fam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.method == "lanczos" and peak < 14e6


@st.composite
def _sum_terms(draw):
    """Float64 arrays of 1 to 5,000 finite terms of either sign: zeros,
    subnormals, magnitudes from 2^-1074 to 2^1000, repeated values,
    values one ulp apart, and half an ulp of a value, so that sums land
    on halfway cases."""
    n = draw(st.integers(1, 5000))
    pool = np.array(draw(st.lists(
        st.floats(min_value=-2.0**1000, max_value=2.0**1000,
                  allow_subnormal=True), min_size=1, max_size=6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = rng.integers(0, 6, n)
    base = pool[rng.integers(0, len(pool), n)]
    spread = np.ldexp(rng.random(n) + 0.5, rng.integers(-1075, 1000, n))
    terms = np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3, kind == 4],
        [0.0, base, np.nextafter(base, np.inf),
         np.ldexp(rng.integers(1, 1 << 20, n).astype(float), -1074),
         np.spacing(base) / 2], spread)
    signs = draw(st.sampled_from(["+", "-", "+-"]))
    if signs != "+":
        flip = rng.random(n) < (1.0 if signs == "-" else 0.5)
        terms = np.where(flip, -terms, terms)
    return terms


@settings(max_examples=300)
@given(_sum_terms())
def test_exact_sum_is_fsum(terms):
    assert np.isfinite(terms).all()
    assert spectral._exact_sum(terms) == math.fsum(terms.tolist())


def test_exact_sum_fixed_cases():
    tiny = 2.0**-1074
    cases = [
        [0.0] * 7,
        [-0.0, 0.0],
        [1.5],
        [-tiny],
        [2.0**1000],
        [tiny] * 3,                              # a subnormal total
        [2.0**-1022, -tiny],                     # ... just below the normals
        [1.0, 2.0**-53],                         # halfway: down to even
        [1.0 + 2.0**-52, 2.0**-53],              # halfway: up to even
        [1.0, 2.0**-53, 2.0**-1074],             # just past halfway: up
        [2.0**1000, 1.0, -2.0**1000],            # cancellation
        [3.0, 2.0**-60, -3.0, -2.0**-60],        # an exact zero
    ]
    for terms in cases:
        want = math.fsum(terms)
        got = spectral._exact_sum(np.array(terms))
        assert got == want and math.copysign(1, got) == math.copysign(1, want)
    assert spectral._exact_sum(np.array([tiny] * 3)) == 3 * tiny
    assert spectral._exact_sum(np.array([1.0, 2.0**-53])) == 1.0
    assert spectral._exact_sum(np.array([1.0 + 2.0**-52, 2.0**-53])) == (
        1.0 + 2.0**-51)


def test_exact_sum_keeps_each_bin_under_its_term_bound():
    # a bin's float sums of m-halves (magnitude at most 2^27) are exact
    # while it holds fewer than 2^26 terms: 2^26 - 1 terms of the largest
    # half stay below 2^53, and the default chunk is that bound
    chunk = inspect.signature(spectral._exact_sum).parameters["chunk"].default
    assert chunk == (1 << 26) - 1
    assert chunk * (1 << 27) < 1 << 53
    # at the edge of a chunk, with every term in one bin and the largest
    # halves, the split sums carry exactly across chunks
    top = np.nextafter(1.0, 0.0)                  # m = 1 - 2^-53
    for k in (1, 2, 3, 4, 5, 7):
        for length in (k - 1, k, k + 1, 2 * k, 2 * k + 1):
            terms = np.full(length, top)
            want = math.fsum(terms.tolist())
            assert spectral._exact_sum(terms, chunk=k) == want
            terms[::2] = 2.0**-53                 # halfway sums as well
            want = math.fsum(terms.tolist())
            assert spectral._exact_sum(terms, chunk=k) == want


def test_top_ritz_pair_matches_a_dense_eigensolver():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3, 8, 40):
        for _ in range(20):
            diag = rng.normal(size=k).tolist()
            off = rng.uniform(0.01, 3.0, size=k - 1).tolist()
            mat = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            theta, s = spectral._top_ritz_pair(diag, off)
            scale = np.abs(mat).sum(axis=1).max()
            assert abs(theta - np.linalg.eigvalsh(mat)[-1]) <= 1e-13 * scale
            assert isclose(np.linalg.norm(s), 1.0, abs_tol=1e-14)
            assert np.linalg.norm(mat @ s - theta * np.array(s)) <= 1e-12 * scale


def test_hamming_exact_small_values():
    assert abs(hamming_lambda1_exact(4, 1).lambda1 - 2.0) < 1e-11
    res = hamming_lambda1_exact(6, 2)
    assert abs(res.lambda1 - 4.0) < 1e-11
    weights = res.level_weights
    for j in range(3):
        assert abs(weights[j] / weights[0] - (1 - 2 * j / 6)) < 1e-11
    assert hamming_lambda1_exact(5, 0).lambda1 == 0.0
    with pytest.raises(ValueError):
        hamming_lambda1_exact(4, 5)


def test_hamming_exact_agrees_with_power_iteration():
    # oracle equivalence across every ball with d <= 12
    for d in range(1, 13):
        for i in range(d + 1):
            exact = hamming_lambda1_exact(d, i).lambda1
            power = lambda1(hamming_ball(d, i), tol=1e-9).lambda1
            assert abs(exact - power) < 1e-8, (d, i)


def test_half_radius_closed_form():
    # radius d/2 - 1: eigenvalue d - 2 with level weights 1 - 2j/d
    for d in range(4, 21, 2):
        res = hamming_lambda1_exact(d, d // 2 - 1)
        assert abs(res.lambda1 - (d - 2)) < 1e-9
        for j, w in enumerate(res.level_weights):
            assert abs(w / res.level_weights[0] - (1 - 2 * j / d)) < 1e-9


def test_near_half_radius_closed_form():
    # the parabolic eigenvector (j - d/2)^2 - d/4 vanishes one level above
    # radius d/2 - sqrt(d)/2 - 1, giving eigenvalue d - 4 exactly there
    for d in (16, 36, 64, 100):
        root = math.isqrt(d)
        i = d // 2 - root // 2 - 1
        res = hamming_lambda1_exact(d, i)
        assert abs(res.lambda1 - (d - 4)) < 1e-9
        for j, w in enumerate(res.level_weights):
            expected = (j - d / 2) ** 2 - d / 4
            assert abs(w / res.level_weights[0] - expected / ((d / 2) ** 2 - d / 4)) < 1e-8
    # at radius d/2 - sqrt(d) the eigenvalue sits strictly below d - 4
    frozen = 10.62302078371587   # dense eigensolver + power iteration agree
    assert abs(hamming_lambda1_exact(16, 4).lambda1 - frozen) < 1e-10


def test_limit_constants():
    assert abs(limit_constant(1) - 1.0) < 1e-10
    assert abs(limit_constant(2) - sqrt(3)) < 1e-10
    values = [limit_constant(i) for i in range(1, 9)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_constant_rate():
    # |lambda1/sqrt(d) - limit| decays like 1/d: successive errors shrink
    # by about 10x as d grows by 10x (the i=1 case is exactly zero)
    for i in (2, 3):
        lam = limit_constant(i)
        errs = [abs(hamming_lambda1_exact(d, i).lambda1 / sqrt(d) - lam)
                for d in (100, 1000, 10000)]
        for a, b in zip(errs, errs[1:]):
            assert 1 / 30 < b / a < 3 / 10
    for d in (100, 1000, 10000):
        assert abs(hamming_lambda1_exact(d, 1).lambda1 - sqrt(d)) < 1e-9


def test_level_bound():
    assert isclose(level_bound(hamming_ball(16, 4)), 16.0)
    assert isclose(level_bound(hamming_ball(4, 1)), 4.0)
    assert level_bound(VertexFamily(4, frozenset([0]))) == 0.0
    with pytest.raises(ValueError):
        level_bound(hamming_ball(4, 3))   # max set size above d/2


def test_hamming_upper_bound():
    assert isclose(hamming_upper_bound(6, 2), 2 * sqrt(10))
    assert isclose(hamming_upper_bound(4, 1), 4.0)
    assert isclose(hamming_upper_bound(100, 50), 2 * sqrt(2550))
    assert hamming_upper_bound(100, 50) >= hamming_lambda1_exact(100, 50).lambda1
    with pytest.raises(ValueError):
        hamming_upper_bound(6, 4)


def test_walk_lower_bound():
    assert isclose(hamming_walk_lower_bound(6, 2, 1), sqrt(6))
    assert hamming_walk_lower_bound(6, 2, 1) <= hamming_lambda1_exact(6, 2).lambda1
    for d, i in ((12, 4), (20, 7), (30, 15)):
        exact = hamming_lambda1_exact(d, i).lambda1
        for k in range(1, i):
            assert hamming_walk_lower_bound(d, i, k) <= exact + 1e-9
    with pytest.raises(ValueError):
        hamming_walk_lower_bound(6, 2, 2)
    # large instance: the bound sits within the Catalan deficit of the
    # matching two-band value
    lo = hamming_walk_lower_bound(400, 20, 8)
    ref = 2 * sqrt(12 * (401 - 12))
    assert 0.78 < lo / ref <= 1.0
    assert default_walk_depth(20) == 7


def test_walk_trace_bound_examples():
    assert isclose(walk_trace_bound(star_family(4, 3), 1), sqrt(3))
    assert isclose(walk_trace_bound(initial_segment(4, 2), 2), 2.0)
    edge = VertexFamily(3, frozenset([0, 1]))
    assert isclose(walk_trace_bound(edge, 3), 1.0)


def test_walk_trace_bound_decreases_to_lambda1():
    for fam in (hamming_ball(4, 2), hamming_ball(5, 2),
                initial_segment(24, 5), initial_segment(12, 4)):
        lam = lambda1(fam, tol=1e-11).lambda1
        values = [walk_trace_bound(fam, k) for k in range(1, 21)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
        assert all(v >= lam - 1e-9 for v in values)
        assert values[-1] - lam < 0.05


def test_count_p2_c4():
    square = count_p2_c4(initial_segment(4, 2))
    assert (square.p2, square.c4) == (4, 1)
    star = count_p2_c4(star_family(4, 4))
    assert (star.p2, star.c4) == (6, 0)
    ball = count_p2_c4(hamming_ball(4, 2))
    assert ball.c4_bound_holds and ball.edge_bound_holds
    assert ball.c4 <= ball.c4_bound


def test_quartic_walk_identity_on_square():
    # lambda1^4 equals edges + 2 p2 + 4 c4 on the 4-cycle
    counts = count_p2_c4(initial_segment(4, 2))
    lam = lambda1(initial_segment(4, 2)).lambda1
    assert isclose(lam**4, counts.edges + 2 * counts.p2 + 4 * counts.c4)


def _random_families(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 6)
        n = rng.randint(1, min(2**d, 24))
        yield VertexFamily(d, frozenset(rng.sample(range(2**d), n)))


def _integer_adjacency(fam: VertexFamily) -> np.ndarray:
    ms = sorted(fam.members)
    index = {v: k for k, v in enumerate(ms)}
    mat = np.zeros((len(ms), len(ms)), dtype=np.int64)
    for u, v in brute_edges(ms, fam.d):
        mat[index[u], index[v]] = mat[index[v], index[u]] = 1
    return mat


def _walk_trace_cases():
    rng = random.Random(17)
    high = [0, 1 << 62, 1 << 63, 3 << 62]
    q64 = rng.sample([h | x for h in high for x in range(64)], 100)
    yield from ((fam, range(1, 5)) for fam in _random_families(17, 40))
    yield star_family(64, 64), range(1, 11)          # D = 64, 64^10 = 2^60
    yield initial_segment(100, 8), range(1, 5)
    yield VertexFamily(64, frozenset(q64)), range(1, 5)
    yield hamming_ball(8, 2), range(1, 21)           # D = 8, 8^20 = 2^60
    yield VertexFamily(3, frozenset([5])), range(1, 4)
    yield VertexFamily(4, frozenset([0, 3, 5, 6])), range(1, 4)   # no edges


def test_walk_trace_bound_matches_exact_trace():
    # object dtype keeps the reference exact: int64 matrix_power
    # overflows at D = 64, and ball(8, 2)'s trace passes 2^63
    largest = 0
    for fam, depths in _walk_trace_cases():
        adj = _integer_adjacency(fam).astype(object)
        for k in depths:
            trace = int(np.trace(np.linalg.matrix_power(adj, 2 * k)))
            largest = max(largest, trace)
            assert walk_trace_bound(fam, k) == _root_of_int(trace // 2, 2 * k)
    assert largest >= 1 << 63


def test_walk_trace_bound_sums_squares_in_int64_where_exact():
    from scipy.sparse import csr_matrix

    rng = random.Random(31)
    for d, n in [(10, 300), (12, 600), (16, 500), (16, 2000)]:
        fam = VertexFamily(d, frozenset(rng.sample(range(2**d), n)))
        g = cube_graph(fam)
        top = int(np.diff(g.indptr).max())
        adj = csr_matrix((np.ones(len(g.indices), dtype=np.int64), g.indices,
                          g.indptr), shape=(n, n))
        for k in (2, 3):
            power = adj ** k
            assert len(power.data) * top ** (2 * k) < 1 << 63   # int64 sum
            total = sum(c * c for c in power.data.tolist())
            assert walk_trace_bound(fam, k) == _root_of_int(total // 2, 2 * k)
    # all of Q6 at k = 12, where A^12 joins each vertex to the 32 at even
    # distance: nnz 6^24 >= 2^63 > 6^12, and the sum itself, trace(A^24)
    # = sum_j C(6, j) (6 - 2j)^24, passes 2^63, so only the Python-int
    # sum gives it
    q6 = initial_segment(64, 6)
    trace = sum(comb(6, j) * (6 - 2 * j) ** 24 for j in range(7))
    assert trace >= 1 << 63 and 64 * 32 * 6**24 >= 1 << 63 > 6**12
    assert walk_trace_bound(q6, 12) == _root_of_int(trace // 2, 24)


def test_walk_trace_bound_rejects_counts_past_int64():
    # the star's centre has degree 64, and 64^11 = 2^66
    with pytest.raises(ValueError, match="overflow int64"):
        walk_trace_bound(star_family(64, 64), 11)


def test_count_p2_c4_quartic_trace_identity():
    # closed 4-walks: an edge walked twice (2m), a 2-path out and back
    # (4 p2), or a 4-cycle (8 c4)
    for fam in _random_families(17, 40):
        adj = _integer_adjacency(fam)
        counts = count_p2_c4(fam)
        assert counts.edges == len(brute_edges(fam.members, fam.d))
        trace = int(np.trace(np.linalg.matrix_power(adj, 4)))
        assert trace == 2 * counts.edges + 4 * counts.p2 + 8 * counts.c4


def test_classic_bounds():
    for m in (3, 5, 9):
        fam = star_family(12, m)
        bounds = classic_bounds(fam)
        lam = sqrt(m)
        assert isclose(bounds["nosal"], lam)       # tight on stars
        assert all(v >= lam - 1e-12 for v in bounds.values())
    square = classic_bounds(initial_segment(4, 2))
    assert isclose(square["fms"], 2.0)             # tight on regular graphs
    empty = classic_bounds(VertexFamily(3, frozenset()))
    assert set(empty.values()) == {0.0}


def test_star_value():
    assert isclose(star_value(4), sqrt(3))
    assert star_value(1) == 0.0
    assert isclose(star_value(103), sqrt(102))
    assert star_value(4) < lambda1(initial_segment(4, 2)).lambda1


def test_sandwich_small_grid():
    for d in (8, 12):
        for i in range(1, d // 2 + 1):
            exact = hamming_lambda1_exact(d, i).lambda1
            upper = hamming_upper_bound(d, i)
            level = level_bound(hamming_ball(d, i))
            assert exact <= upper + 1e-9 <= level + 1e-9
            for k in range(1, i):
                assert hamming_walk_lower_bound(d, i, k) <= exact + 1e-9


@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_search_table_has_the_same_bits_on_every_blas_kernel(coretype, tmp_path):
    # OpenBLAS picks its kernels by CPU, and OPENBLAS_CORETYPE forces one;
    # `lambda1` sums in numpy's order, so the regenerated table is the
    # committed one whichever kernel runs.
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=str(root / "src"))
    subprocess.run([sys.executable, "-m", "cubespectra", "regen-goldens",
                    "--suite", "search-table", "--outdir", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=120)
    assert filecmp.cmp(tmp_path / "search_table.tsv",
                       root / "goldens" / "search_table.tsv", shallow=False)


def _lambda1_stdout(path: Path, coretype: str | None) -> bytes:
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    return subprocess.run([sys.executable, "-m", "cubespectra", "lambda1",
                           "--family", str(path)],
                          env=env, check=True, capture_output=True,
                          timeout=120).stdout


@pytest.fixture(scope="module")
def sparse_lambda1_runs(tmp_path_factory):
    """Family files on the sparse path, with the default kernel's output."""
    runs = []
    for name, fam in (("init.fam", initial_segment(3000, 12)),
                      ("ball.fam", hamming_ball(12, 3))):
        path = tmp_path_factory.mktemp("sparse") / name
        write_family(fam, path)
        runs.append((path, _lambda1_stdout(path, None)))
    return runs


@pytest.mark.parametrize("coretype", ["Prescott", "Haswell"])
def test_sparse_lambda1_has_the_same_bits_on_every_blas_kernel(
        coretype, sparse_lambda1_runs):
    # the Lanczos start solves its tridiagonal matrices by bisection and
    # inverse iteration, and sums in numpy's order, so no BLAS kernel
    # touches the sparse path's result
    for path, default in sparse_lambda1_runs:
        out = _lambda1_stdout(path, coretype)
        assert b'"method": "lanczos"' in out
        assert out == default
