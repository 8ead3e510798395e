"""Subcube counting: exact counts, the recursion, and both bounds."""

import tracemalloc
from math import comb, isclose, log2

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import brute_count_subcubes, down_closure, down_set_count
from cubespectra.compress import binary_compression_family, fully_compress
from cubespectra.core import VertexFamily, hamming_ball, initial_segment
from cubespectra.subcubes import (
    _level_join,
    count_subcubes,
    generalized_binomial,
    initial_count,
    recursion_step_slack,
    subcube_bound_integer,
    subcube_bound_smooth,
)


def test_count_subcubes_examples():
    for d in range(1, 7):
        full = initial_segment(2**d, d)
        assert count_subcubes(full, 1).count == d * 2 ** (d - 1)
    assert count_subcubes(initial_segment(6, 3), 1).count == 7
    fam = hamming_ball(4, 2)
    assert count_subcubes(fam, 0).count == len(fam)


@st.composite
def families(draw, dims):
    """A nonempty family of Q_d, d drawn from `dims`: a size n uniform in
    1..2^d, then the first n vertices of a permutation of Q_d."""
    d = draw(dims)
    n = draw(st.integers(1, 2**d))
    return VertexFamily(d, frozenset(draw(st.permutations(range(2**d)))[:n]))


@settings(max_examples=60)
@given(families(st.integers(2, 5)))
def test_count_subcubes_against_corner_scan(fam):
    for dp in range(fam.d + 1):
        assert (count_subcubes(fam, dp).count
                == brute_count_subcubes(fam.members, fam.d, dp))


def test_count_subcubes_on_every_family_of_q4():
    # both routes: the public function (the identity on down-sets) and
    # the level join alone, against the corner scan
    for bits in range(1 << 16):
        members = frozenset(j for j in range(16) if bits >> j & 1)
        fam = VertexFamily(4, members)
        for dp in range(5):
            brute = brute_count_subcubes(members, 4, dp)
            assert count_subcubes(fam, dp).count == brute, (sorted(members), dp)
            assert _level_join(members, 4, dp) == brute, (sorted(members), dp)


@st.composite
def down_sets(draw):
    """A down-closed family of Q5-Q10 and a subcube dimension: the
    down-closure of up to 6 vertices, or a family of up to 80 vertices
    fully compressed, each half the time."""
    d = draw(st.integers(5, 10))
    vertex = st.integers(0, 2**d - 1)
    if draw(st.booleans()):
        masks = draw(st.frozensets(vertex, min_size=1, max_size=80))
        fam, _ = fully_compress(VertexFamily(d, masks))
    else:
        tops = draw(st.lists(vertex, min_size=1, max_size=6))
        fam = VertexFamily(d, down_closure(tops))
    return fam, draw(st.integers(0, d))


@settings(max_examples=150)
@given(down_sets())
def test_count_subcubes_on_down_sets(case):
    # compressed families are down-sets, and permutation prefixes seldom are
    fam, dp = case
    identity = sum(comb(t.bit_count(), dp) for t in fam.members)
    assert count_subcubes(fam, dp).count == identity
    assert _level_join(fam.members, fam.d, dp) == identity
    assert brute_count_subcubes(fam.members, fam.d, dp) == identity


@st.composite
def chain_closed_families(draw):
    """A family of Q2-Q8 that is not down-closed but holds T minus its
    lowest (or highest) element for every member T: the union of those
    chains below a set of vertices."""
    d = draw(st.integers(2, 8))
    masks = draw(st.frozensets(st.integers(0, 2**d - 1), min_size=1,
                               max_size=40))
    lowest = draw(st.booleans())
    members = set()
    for t in masks:
        while t:
            members.add(t)
            t ^= t & -t if lowest else 1 << t.bit_length() - 1
    members.add(0)
    fam = VertexFamily(d, frozenset(members))
    assume(any(t ^ 1 << i not in members
               for t in members for i in range(d) if t >> i & 1))
    return fam


@settings(max_examples=300)
@given(chain_closed_families())
def test_count_subcubes_when_a_later_shadow_is_missing(fam):
    for dp in range(fam.d + 1):
        assert (count_subcubes(fam, dp).count
                == brute_count_subcubes(fam.members, fam.d, dp))


def test_initial_count_examples():
    assert initial_count(4, 1).count == 4
    assert initial_count(6, 1).count == 7     # = T(4,1) + T(2,1) + T(2,0)
    assert initial_count(1, 3).count == 0
    assert initial_count(0, 2).count == 0


def test_initial_count_matches_direct_count():
    for n in range(65):
        seg = initial_segment(n, 6)
        for dp in range(7):
            assert initial_count(n, dp).count == count_subcubes(seg, dp).count


def test_initial_count_on_every_segment_of_q12():
    pops = np.bitwise_count(np.arange(1 << 12))
    for dp in range(5):
        # the down-set count of each initial segment, N = 0..2^12
        want = np.concatenate(([0], np.cumsum([comb(int(c), dp)
                                               for c in pops])))
        assert [initial_count(n, dp).count for n in range(1 << 12)] \
            == want[:-1].tolist()
    spread = set(range(0, 1 << 12, 61)) | {(1 << j) + s for j in range(12)
                                          for s in (-1, 0, 1)}
    for n in sorted(spread):
        seg = initial_segment(n, 12)
        for dp in range(5):
            assert initial_count(n, dp).count == count_subcubes(seg, dp).count


def test_initial_count_of_long_binary_numbers():
    # once a recursion per set digit, which 2^500 - 1 took past Python's
    # stack limit
    assert initial_count(2**500 - 1, 2).count == comb(500, 2) * (2**498 - 1)
    for n in (2**500 - 1, 3**1200, 2**1000, 2**1000 + 1):
        for dp in (0, 1, 2, 5):
            assert initial_count(n, dp).count == down_set_count(n, dp)
    assert initial_count(3**1200, 2000).count == 0


def comb_per_digit_count(n, dp):
    """The same loop as `initial_count`, with `comb(e, j)` computed anew
    for every digit 2^e of n and every j."""
    if dp and dp >= n.bit_length():
        return 0
    counts, m = [0] * (dp + 1), 0
    while m != n:
        r = (n - m) & (m - n)
        e = r.bit_length() - 1
        for j in range(min(dp, e), 0, -1):
            counts[j] += comb(e, j) * (r >> j) + counts[j - 1]
        m += r
        counts[0] = m
    return counts[dp]


def test_initial_count_steps_binomials_down_each_digit():
    for n in range(1 << 10):
        for dp in range(11):
            assert initial_count(n, dp).count == comb_per_digit_count(n, dp)
    for n, dp in ((3**1200, 2), (3**1200, 50), (3**400, 600), (12345, 3),
                  (2**500 - 1, 7), (2**700 + 3**300, 599)):
        assert initial_count(n, dp).count == comb_per_digit_count(n, dp)


def test_initial_segments_maximize_counts_exhaustive_q3():
    import itertools

    for n in range(1, 9):
        for combo in itertools.combinations(range(8), n):
            fam = VertexFamily(3, frozenset(combo))
            for dp in range(4):
                assert count_subcubes(fam, dp).count <= initial_count(n, dp).count


@settings(max_examples=2000)
@given(families(st.just(5)))
def test_initial_segments_maximize_counts(fam):
    for dp in range(6):
        assert count_subcubes(fam, dp).count <= initial_count(len(fam), dp).count


def test_generalized_binomial():
    assert generalized_binomial(3.0, 1) == 3.0
    assert generalized_binomial(0.5, 2) == 0.0        # clamped below threshold
    assert generalized_binomial(5.0, 0) == 1.0
    assert isclose(generalized_binomial(6.0, 2), comb(6, 2))


def test_bound_examples():
    assert isclose(subcube_bound_integer(4, 1), 6.0)
    assert subcube_bound_integer(4, 1) >= 4
    assert isclose(subcube_bound_smooth(6, 1), 3 * log2(6))
    assert subcube_bound_smooth(6, 1) >= 7
    assert subcube_bound_smooth(1, 1) == 0.0
    for n in (1, 5, 12):
        assert isclose(subcube_bound_integer(n, 0), n)
    # equality at powers of two for the smooth bound
    for k in range(1, 7):
        n = 2**k
        for dp in range(k + 1):
            assert isclose(subcube_bound_smooth(n, dp), initial_count(n, dp).count)
    with pytest.raises(ValueError):
        subcube_bound_smooth(0, 1)


def test_bounds_past_log2_n_build_no_power_of_two():
    # 2^(10^8) alone is 12.5 MB; the binomial is 0 long before
    for bound in (subcube_bound_smooth, subcube_bound_integer):
        tracemalloc.start()
        try:
            assert bound(10, 10**8) == 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_nonzero_bounds_keep_their_bits():
    for n in range(1, 300):
        for dp in range(12):
            assert subcube_bound_smooth(n, dp) == (
                n / 2**dp * generalized_binomial(log2(n), dp))
            assert subcube_bound_integer(n, dp) == (
                n / 2**dp * generalized_binomial(log2(n) + 1.0, dp))


def test_bound_chain():
    for n in range(1, 200):
        for dp in range(7):
            exact = initial_count(n, dp).count
            smooth = subcube_bound_smooth(n, dp)
            coarse = subcube_bound_integer(n, dp)
            assert exact <= smooth + 1e-9
            if smooth > 0:
                assert smooth <= coarse + 1e-9


def test_count_monotone_under_compression():
    # exhaustive over every nonempty family of the 4-cube
    for bits in range(1, 1 << 16):
        members = frozenset(j for j in range(16) if bits >> j & 1)
        fam = VertexFamily(4, members)
        comp, _ = fully_compress(fam)
        for dp in range(5):
            assert (count_subcubes(comp, dp).count
                    >= count_subcubes(fam, dp).count)


@settings(max_examples=1500)
@given(families(st.just(4)), st.integers(1, 4))
def test_count_monotone_under_binary_rearrangement(fam, i):
    # the single-coordinate rearrangement never destroys subcubes either
    # (the inductive step behind initial-segment maximality)
    out = binary_compression_family(fam, i)
    for dp in range(5):
        after = count_subcubes(out, dp).count
        assert after == brute_count_subcubes(out.members, 4, dp)
        assert after >= count_subcubes(fam, dp).count


def test_recursion_step_slack_nonnegative():
    # numeric audit of the inductive step on a grid
    ks = (2, 3, 5)
    for k in ks:
        alpha = 0.05
        while alpha <= 4.0:
            beta = float(k - 1)
            while beta <= 30.0:
                assert recursion_step_slack(alpha, beta, k) >= -1e-9, (alpha, beta, k)
                beta += 0.7
            alpha += 0.13
