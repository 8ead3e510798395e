"""Compression operators: definitions, monotonicity, fixpoints."""

import itertools
import math
import random
from math import isclose, sqrt
from unittest import mock

import pytest
import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import brute_is_compressed, brute_lambda1, brute_vector_is_compressed
from cubespectra import compress
from cubespectra.compress import (
    WeightVector,
    binary_compression,
    compress_family_uv,
    compress_vector_uv,
    format_vector,
    fully_compress,
    is_compressed,
    parse_vector,
    rayleigh,
)
from cubespectra.compress import (
    _RANK_FLOOR,
    _Bitmap,
    _Members,
    _Ranks,
    _Weights,
    _local_steps,
    _prerequisites,
    _rank_dot,
    _state,
    _successors,
    _uv_steps,
)
from cubespectra.core import (
    VertexFamily,
    dense_fits,
    hamming_ball,
    initial_segment,
    vertex_of,
)
from cubespectra.search import enumerate_compressed


def all_uv_steps(d):
    singles = [(1 << (i - 1), 0) for i in range(1, d + 1)]
    swaps = [(1 << (hi - 1), 1 << (lo - 1))
             for lo in range(1, d + 1) for hi in range(1, d + 1) if hi != lo]
    return singles + swaps


@st.composite
def vertex_samples(draw, d, sizes):
    """`random.sample(range(2**d), n)` from a seeded `random.Random`, n
    drawn from `sizes`."""
    n = draw(sizes)
    return draw(st.randoms(use_true_random=True)).sample(range(2**d), n)


@st.composite
def gaussian_vectors(draw, d, support):
    """Independent N(0, 1) weights from a seeded `random.Random` on the
    vertices that `support` draws."""
    rnd = draw(st.randoms(use_true_random=True))
    return WeightVector(d, {v: rnd.gauss(0, 1) for v in draw(support)})


def sized_families(d, sizes):
    """The families of Q_d that `vertex_samples(d, sizes)` draws."""
    return vertex_samples(d, sizes).map(lambda ms: VertexFamily(d, frozenset(ms)))


def test_compress_vector_uv_examples():
    # fixpoint case
    vec = WeightVector(2, {0: 5.0, 1: 2.0})
    out = compress_vector_uv(vec, vertex_of([1]), 0)
    assert out.weights == vec.weights
    # single conditional swap toward the empty set
    vec = WeightVector(1, {0: 0.0, 1: 1.0})
    out = compress_vector_uv(vec, 1, 0)
    assert out.weight(0) == 1.0 and out.weight(1) == 0.0


@settings(max_examples=50)
@given(gaussian_vectors(3, st.just(range(8))))
def test_compress_vector_uv_preserves_the_weight_multiset(vec):
    out = compress_vector_uv(vec, vertex_of([2]), vertex_of([1]))
    assert sorted(out.weights.values()) == sorted(vec.weights.values())
    assert out.support_size() == vec.support_size()
    assert isclose(out.norm_squared(), vec.norm_squared())


def test_compress_vector_uv_rejects_overlap():
    with pytest.raises(ValueError):
        compress_vector_uv(WeightVector(2, {0: 1.0}), 1, 1)


def test_compress_family_uv_examples():
    fam = VertexFamily(1, frozenset([1]))
    assert compress_family_uv(fam, 1, 0).members == frozenset([0])
    # down-closed left-shifted families are fixpoints of every step
    fam = hamming_ball(4, 2)
    for u, v in all_uv_steps(4):
        if v == 0 or u > v:
            assert compress_family_uv(fam, u, v).members == fam.members
    fam = VertexFamily(2, frozenset([vertex_of([2]), vertex_of([1, 2])]))
    out = compress_family_uv(fam, vertex_of([2]), vertex_of([1]))
    assert out.members == frozenset([vertex_of([1]), vertex_of([1, 2])])
    assert len(out) == len(fam)


@settings(max_examples=80)
@given(sized_families(4, st.integers(1, 10)), st.sampled_from(all_uv_steps(4)))
def test_family_uv_matches_indicator_vector(fam, step):
    u, v = step
    vec = WeightVector(4, {m: 1.0 for m in fam.members})
    out_f = compress_family_uv(fam, u, v)
    out_v = compress_vector_uv(vec, u, v)
    assert out_f.members == out_v.support()


def test_binary_compression_examples():
    vec = WeightVector(2, {0: 0.0, 1: 3.0, 2: 5.0, 3: 1.0})
    out = binary_compression(vec, 2)
    assert [out.weight(m) for m in range(4)] == [3.0, 0.0, 5.0, 1.0]
    # constant halves unchanged
    vec = WeightVector(2, {0: 2.0, 1: 2.0, 2: 7.0, 3: 7.0})
    assert binary_compression(vec, 2).weights == vec.weights


@settings(max_examples=60)
@given(gaussian_vectors(4, vertex_samples(4, st.just(9))), st.integers(1, 4))
def test_binary_compression_is_idempotent(vec, i):
    # idempotent, multiset preserved, negatives included
    once = binary_compression(vec, i)
    twice = binary_compression(once, i)
    assert once.weights == twice.weights
    assert sorted(once.weights.values()) == sorted(vec.weights.values())


@settings(max_examples=60)
@given(sized_families(4, st.integers(1, 12)), st.integers(1, 4))
def test_binary_compression_family(fam, i):
    from cubespectra.compress import binary_compression_family

    out = binary_compression_family(fam, i)
    assert len(out) == len(fam)
    bit = 1 << (i - 1)
    for with_coord in (True, False):
        half = sorted(v for v in out.members if bool(v & bit) == with_coord)
        pool = sorted(v for v in range(16) if bool(v & bit) == with_coord)
        assert half == pool[:len(half)]   # an initial segment of the half


def test_rayleigh_examples():
    w = 1 / sqrt(5)
    star = WeightVector(4, {m: w for m in hamming_ball(4, 1).members})
    assert isclose(rayleigh(star), 8 / 5)
    assert rayleigh(WeightVector(3, {5: 2.5})) == 0.0
    square = WeightVector(2, {m: 0.5 for m in range(4)})
    assert isclose(rayleigh(square), 2.0)


def _assert_every_step_keeps_rayleigh_monotone(vec):
    # single down-steps and swap steps never decrease the quadratic form
    before = rayleigh(vec)
    for u, v in all_uv_steps(vec.d):
        out = compress_vector_uv(vec, u, v)
        after = rayleigh(out)
        assert after >= before - 1e-12
        assert sorted(out.weights.values()) == sorted(vec.weights.values())
        vec, before = out, after


@settings(max_examples=300)
@given(gaussian_vectors(5, st.just(range(32))))
def test_rayleigh_monotone_under_every_step(vec):
    _assert_every_step_keeps_rayleigh_monotone(vec)


@settings(max_examples=120)
@given(gaussian_vectors(6, st.just(range(64))))
def test_rayleigh_monotone_under_every_step_q6(vec):
    _assert_every_step_keeps_rayleigh_monotone(vec)


def test_fully_compress_examples():
    for d, i in [(3, 1), (4, 2), (5, 2)]:
        ball = hamming_ball(d, i)
        out, log = fully_compress(ball)
        assert out.members == ball.members and log == []
    out, _ = fully_compress(VertexFamily(3, frozenset([vertex_of([3])])))
    assert out.members == frozenset([0])
    for pair in itertools.combinations(range(8), 2):
        out, _ = fully_compress(VertexFamily(3, frozenset(pair)))
        assert out.members == frozenset([0, 1])


@settings(max_examples=120)
@given(sized_families(5, st.integers(1, 20)))
def test_fully_compress_properties(fam):
    out, log = fully_compress(fam)
    assert len(out) == len(fam)
    assert is_compressed(out)[0]
    assert brute_is_compressed(out.members, 5)
    again, log2 = fully_compress(out)
    assert again.members == out.members and log2 == []


@settings(max_examples=60)
@given(gaussian_vectors(4, vertex_samples(4, st.integers(1, 16))))
def test_fully_compress_vector_properties(vec):
    out, log = fully_compress(vec)
    assert rayleigh(out) >= rayleigh(vec) - 1e-12
    assert sorted(out.weights.values()) == sorted(vec.weights.values())
    assert is_compressed(out)[0]
    again, log2 = fully_compress(out)
    assert again.weights == out.weights and log2 == []


def test_is_compressed_examples():
    assert is_compressed(hamming_ball(5, 2))[0]
    for d in range(1, 6):
        for n in range(2**d + 1):
            fam = initial_segment(n, d)
            assert is_compressed(fam)[0]
            assert brute_is_compressed(fam.members, d)
    ok, step = is_compressed(VertexFamily(2, frozenset([vertex_of([2])])))
    assert not ok and step.describe() == "C_{{2},{1}}"


def _first_moving_step(x):
    """Reference route: apply every swap step, then every down-step, to
    the whole family or vector and report the first that moves it."""
    d = x.d
    swaps = [(1 << (hi - 1), 1 << (lo - 1))
             for lo in range(1, d + 1) for hi in range(lo + 1, d + 1)]
    downs = [(1 << (i - 1), 0) for i in range(1, d + 1)]
    for u, v in swaps + downs:
        if isinstance(x, VertexFamily):
            if compress_family_uv(x, u, v).members != x.members:
                return False, (u, v)
        elif compress_vector_uv(x, u, v).weights != x.weights:
            return False, (u, v)
    return True, None


def _assert_is_compressed_matches_step_application(fam):
    ok, step = is_compressed(fam)
    assert (ok, step and (step.u, step.v)) == _first_moving_step(fam), fam
    assert ok or (step.kind, step.target) == ("uv", "family")
    return ok


def test_is_compressed_matches_step_application():
    compressed = 0
    for mask in range(256):
        fam = VertexFamily(3, frozenset(m for m in range(8) if mask >> m & 1))
        compressed += _assert_is_compressed_matches_step_application(fam)
    assert 0 < compressed < 256


@st.composite
def families_q4_to_q6(draw):
    """Any nonempty family of Q4-Q6 (a uniform size, then a uniform set),
    as it is, fully compressed, or compressed with one vertex toggled,
    each a third of the time."""
    d = draw(st.integers(4, 6))
    fam = draw(sized_families(d, st.integers(1, 2**d)))
    kind = draw(st.integers(0, 2))
    if kind:
        fam, _ = fully_compress(fam)
    if kind == 2:   # one vertex toggled: compressed but for one member
        fam = VertexFamily(d, fam.members ^ {draw(st.integers(0, 2**d - 1))})
    return fam


@settings(max_examples=2100)
@given(families_q4_to_q6())
def test_is_compressed_matches_step_application_q4_to_q6(fam):
    _assert_is_compressed_matches_step_application(fam)


def test_is_compressed_on_every_family_of_q4():
    # the member test (`_prerequisites`) against the definition, also on
    # both family states built directly, since `_state` picks the member
    # sets in Q4 only for n <= 1
    for code in range(1 << 16):
        fam = VertexFamily(4, frozenset(m for m in range(16) if code >> m & 1))
        ok = brute_is_compressed(fam.members, 4)
        assert is_compressed(fam)[0] == ok, sorted(fam.members)
        assert _Bitmap(fam).fails() == _Members(fam).fails() == (not ok), code


@st.composite
def families_q5_to_q8(draw):
    """Raw, fully compressed, or compressed with one vertex toggled."""
    d = draw(st.integers(5, 8))
    vertex = st.integers(0, 2**d - 1)
    fam = VertexFamily(d, draw(st.frozensets(vertex, min_size=1, max_size=80)))
    kind = draw(st.sampled_from(("raw", "compressed", "toggled")))
    if kind != "raw":
        fam, _ = fully_compress(fam)
    if kind == "toggled":
        fam = VertexFamily(d, fam.members ^ {draw(vertex)})
    return fam


@settings(max_examples=300)
@given(families_q5_to_q8())
def test_is_compressed_property_q5_to_q8(fam):
    ok, step = is_compressed(fam)
    assert ok == brute_is_compressed(fam.members, fam.d)
    assert (ok, step and (step.u, step.v)) == _first_moving_step(fam)


def _sweep_until_silent(x):
    """Reference route: apply `compress_*_uv` over the whole schedule,
    down-steps by coordinate then swap steps by (lo, hi), sweep after
    sweep, until a sweep changes nothing."""
    family = isinstance(x, VertexFamily)
    apply_uv = compress_family_uv if family else compress_vector_uv
    d = x.d
    schedule = [(1 << (i - 1), 0) for i in range(1, d + 1)]
    schedule += [(1 << (hi - 1), 1 << (lo - 1))
                 for lo in range(1, d + 1) for hi in range(lo + 1, d + 1)]
    log = []
    while True:
        changed = False
        for u, v in schedule:
            nxt = apply_uv(x, u, v)
            if (nxt.members != x.members if family
                    else nxt.weights != x.weights):
                log.append((u, v))
                x, changed = nxt, True
        if not changed:
            return x, log


def _assert_fully_compress_matches_sweeps(x):
    out, log = fully_compress(x)
    ref, ref_log = _sweep_until_silent(x)
    if isinstance(x, VertexFamily):
        assert out.members == ref.members
    else:   # the key order too: sums over the weights follow it
        assert list(out.weights.items()) == list(ref.weights.items())
    assert [(step.u, step.v) for step in log] == ref_log


def test_fully_compress_matches_sweeps_until_silent():
    members = random.Random(29).sample(range(1 << 16), 2500)
    _assert_fully_compress_matches_sweeps(VertexFamily(16, frozenset(members)))


@settings(max_examples=150)
@given(st.integers(4, 8).flatmap(
    lambda d: sized_families(d, st.integers(1, 2**d))))
def test_fully_compress_matches_sweeps_on_families(fam):
    _assert_fully_compress_matches_sweeps(fam)


@settings(max_examples=60)
@given(st.integers(5, 10).flatmap(
    lambda d: gaussian_vectors(d, vertex_samples(d, st.integers(1, 2**d)))))
def test_fully_compress_matches_sweeps_on_vectors(vec):
    _assert_fully_compress_matches_sweeps(vec)


def test_singleton_and_swap_fixpoints_imply_all_u_fixpoints():
    # enforced steps use singleton U only; check the full family of
    # down-compressions is then automatic, exhaustively inside Q_5
    for n in range(1, 33):
        for ms in enumerate_compressed(n, 5):
            fam = VertexFamily(5, frozenset(ms))
            for size in range(2, 6):
                for combo in itertools.combinations(range(1, 6), size):
                    u = vertex_of(combo)
                    assert compress_family_uv(fam, u, 0).members == fam.members


def test_reduction_soundness_small():
    # max lambda1 over all n-subsets equals max over compressed n-subsets
    for d in (1, 2, 3):
        for n in range(1, 2**d + 1):
            best_all = max(brute_lambda1(c, d)
                           for c in itertools.combinations(range(2**d), n))
            best_comp = max(brute_lambda1(ms, d)
                            for ms in enumerate_compressed(n, d))
            assert abs(best_all - best_comp) < 1e-8, (d, n)


def test_vector_file_roundtrip():
    vec = WeightVector(3, {0: 1.5, 5: -2.25})
    text = format_vector(vec)
    back = parse_vector(text)
    assert back.weights == vec.weights
    with pytest.raises(ValueError):
        parse_vector("d=2\n00 1.0\n00 2.0\n")
    with pytest.raises(ValueError):
        parse_vector("00 1.0\n")


def test_parse_vector_checks_the_header_first():
    for header in ("d=-1", "d=0", "d=x", "d=65", "d="):
        with pytest.raises(ValueError, match=f"header line '{header}'"):
            parse_vector(f"{header}\n0 1.0\n")
    with pytest.raises(ValueError, match="header line 'd=65'"):
        parse_vector("d=65\n" + "0" * 65 + " 1.0\n")
    assert parse_vector("d=64 # the widest\n").weights == {}


def _dense_rule_families():
    """Families on both sides of `dense_fits`, which picks the bitmap
    (2^d <= 2nd) or the member sets, each with the side it should pick:
    raw, then compressed, then compressed with one vertex toggled."""
    rnd = random.Random(22)
    sample = lambda d, n: frozenset(rnd.sample(range(1 << d), n))
    raw = [
        (VertexFamily(12, sample(12, 2000)), True),
        (VertexFamily(10, sample(10, 52)), True),    # 1024 <= 1040
        (VertexFamily(10, sample(10, 51)), False),   # 1024 > 1020
        (VertexFamily(20, sample(20, 60)), False),
        (VertexFamily(64, frozenset({1 << 63, 3 << 62, 5, 1 << 40 | 1})), False),
        (VertexFamily(1, frozenset({1})), True),
        (VertexFamily(2, frozenset({3})), True),
        (VertexFamily(5, frozenset()), False),
    ]
    out = []
    for fam, side in raw:
        done, _ = fully_compress(fam)
        toggled = VertexFamily(fam.d, done.members ^ {rnd.getrandbits(fam.d)})
        for kind, x, x_side in (("raw", fam, side), ("compressed", done, side),
                                ("toggled", toggled, None)):
            out.append(pytest.param(x, x_side, id=f"d{fam.d}-n{len(fam)}-{kind}"))
    return out


@pytest.mark.parametrize("fam, side", _dense_rule_families())
def test_compression_on_both_sides_of_the_dense_rule(fam, side):
    assert side in (None, dense_fits(fam.d, len(fam)))
    _assert_fully_compress_matches_sweeps(fam)
    ok, step = is_compressed(fam)
    assert ok == brute_is_compressed(fam.members, fam.d)
    assert (ok, step and (step.u, step.v)) == _first_moving_step(fam)


def test_is_compressed_on_every_vector_of_q3():
    # the local test on the support against the definition, weights in
    # {-1, 0, 1, 2} on each of the 8 vertices
    compressed = 0
    for code in range(4 ** 8):
        vec = WeightVector(3, {s: float((code >> 2 * s & 3) - 1)
                               for s in range(8)})
        ok = is_compressed(vec)[0]
        assert ok == brute_vector_is_compressed(vec.weights, 3), vec.items()
        compressed += ok
    assert 0 < compressed < 4 ** 8


def test_vector_states_on_every_vector_of_q3():
    # both states built directly, since `_state` picks the rank array
    # only from `_RANK_FLOOR` weights on
    for ws in itertools.product((-1.0, 0.0, 1.0), repeat=8):
        vec = WeightVector(3, dict(enumerate(ws)))
        if vec.weights:
            fails = not brute_vector_is_compressed(vec.weights, 3)
            assert _Weights(vec).fails() == _Ranks(vec).fails() == fails, ws


def test_prerequisites_are_the_partners_under_the_local_steps():
    steps = _local_steps(16)
    assert set(steps) <= set(_uv_steps(16))
    for s in range(1 << 16):
        pre = _prerequisites(s)
        assert len(pre) <= s.bit_count()
        assert pre == tuple(s ^ u ^ v for u, v in steps if s & (u | v) == u), s


def test_successors_invert_the_prerequisites():
    for d in range(1, 11):
        before = {t: set() for t in range(1 << d)}
        for t in range(1 << d):
            for s in _prerequisites(t):
                before[s].add(t)
        for s in range(1 << d):
            out = _successors(s, d)
            assert len(out) == len(before[s]) and set(out) == before[s], (d, s)


@st.composite
def vectors_q4_to_q8(draw):
    """Weights in {-2, ..., 2}, so ties are common, on a random support
    of Q4-Q8: as drawn, fully compressed, or compressed with one
    vertex's weight redrawn, each a third of the time."""
    d = draw(st.integers(4, 8))
    rnd = draw(st.randoms(use_true_random=True))
    weight = lambda: float(rnd.randint(-2, 2))
    support = rnd.sample(range(1 << d), rnd.randint(1, min(1 << d, 60)))
    vec = WeightVector(d, {s: weight() for s in support})
    kind = draw(st.integers(0, 2))
    if kind:
        vec, _ = fully_compress(vec)
    if kind == 2:
        vec = WeightVector(d, {**vec.weights, rnd.randrange(1 << d): weight()})
    return vec


@settings(max_examples=200)
@given(vectors_q4_to_q8())
def test_vector_compression_property_q4_to_q8(vec):
    ok, step = is_compressed(vec)
    assert ok == brute_vector_is_compressed(vec.weights, vec.d)
    assert (ok, step and (step.u, step.v)) == _first_moving_step(vec)
    assert ok or (step.kind, step.target) == ("uv", "vector")
    _assert_fully_compress_matches_sweeps(vec)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weight_vector_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="must be finite"):
        WeightVector(3, {1: bad, 2: 1.0, 4: math.inf})
    with pytest.raises(ValueError, match="must be finite"):
        parse_vector(f"d=2\n01 1.0\n11 {bad}\n")


def _states():
    """An uncompressed object for each state compression runs on: a
    family on each side of `dense_fits` (the bitmap when 2^d <= 2nd, the
    member set otherwise), and vectors whose weights tie often."""
    rnd = random.Random(23)
    out = []
    for d, n, kind in ((6, 20, _Bitmap), (10, 52, _Bitmap),
                       (10, 51, _Members), (12, 40, _Members)):
        fam = VertexFamily(d, frozenset(rnd.sample(range(1 << d), n)))
        out.append(pytest.param(fam, kind, id=f"{kind.__name__}-d{d}-n{n}"))
    for d in (4, 7):
        support = rnd.sample(range(1 << d), 3 << d - 2)
        vec = WeightVector(d, {s: float(rnd.randint(-2, 2)) for s in support})
        out.append(pytest.param(vec, _Weights, id=f"vector-d{d}"))
    # nonzero weights, so n is the support size: on each side of the
    # floor, and of `dense_fits` (2^12 > 2 * 170 * 12)
    for d, n, kind in ((7, _RANK_FLOOR, _Ranks), (7, _RANK_FLOOR - 1, _Weights),
                       (12, 171, _Ranks), (12, 170, _Weights)):
        vec = WeightVector(d, {s: float(rnd.choice((-2, -1, 1, 2)))
                               for s in rnd.sample(range(1 << d), n)})
        out.append(pytest.param(vec, kind, id=f"{kind.__name__}-d{d}-n{n}"))
    return out


@pytest.mark.parametrize("x, kind", _states())
def test_every_step_reports_the_potential_drop_it_causes(x, kind):
    state = _state(x)
    assert type(state) is kind
    moved = 0
    for _ in range(3):      # later sweeps meet partly compressed states
        for u, v in _uv_steps(x.d):
            before, pot = state.result(), state.potential()
            drop = state.step(u, v)
            assert drop == pot - state.potential()
            assert (drop == 0) == (state.result() == before)
            moved += drop > 0
    assert moved


@pytest.mark.parametrize("x, kind", _states())
def test_a_misreported_drop_trips_the_sweep_check(monkeypatch, x, kind):
    honest = kind.step

    def overstated(self, u, v):
        drop = honest(self, u, v)
        return drop and drop + 1

    monkeypatch.setattr(kind, "step", overstated)
    with pytest.raises(AssertionError, match="potential out of step"):
        fully_compress(x)


@pytest.mark.parametrize("compress", [is_compressed, fully_compress])
def test_compression_rejects_neither_family_nor_vector(compress):
    with pytest.raises(TypeError, match="expected VertexFamily or WeightVector"):
        compress(frozenset({0, 1}))


def _rank_rule_vectors():
    """Vectors on both sides of the rule that picks the rank array (n at
    least `_RANK_FLOOR` and 2^d <= 2nd) over the dict, each with the
    state it should pick: raw, then compressed, then compressed with one
    weight redrawn."""
    rnd = random.Random(29)
    raw = [
        (7, _RANK_FLOOR, "gauss", _Ranks),
        (7, _RANK_FLOOR - 1, "gauss", _Weights),
        (9, 2 ** 9, "tied", _Ranks),
        (12, 171, "tied", _Ranks),          # 4096 <= 4104
        (12, 170, "gauss", _Weights),       # 4096 > 4080
        (3, 8, "tied", _Weights),
    ]
    out = []
    for d, n, weights, kind in raw:
        draw = ((lambda: rnd.gauss(0, 1)) if weights == "gauss"
                else lambda: float(rnd.choice((-2, -1, 1, 2))))
        vec = WeightVector(d, {s: draw() for s in rnd.sample(range(1 << d), n)})
        done, _ = fully_compress(vec)
        redrawn = WeightVector(d, {**done.weights, rnd.randrange(1 << d): draw()})
        for name, x, x_kind in (("raw", vec, kind), ("compressed", done, kind),
                                ("redrawn", redrawn, None)):
            out.append(pytest.param(x, x_kind, id=f"d{d}-n{n}-{weights}-{name}"))
    return out


@pytest.mark.parametrize("vec, kind", _rank_rule_vectors())
def test_vector_compression_on_both_sides_of_the_rank_rule(vec, kind):
    assert kind in (None, type(_state(vec)))
    _assert_fully_compress_matches_sweeps(vec)
    ok, step = is_compressed(vec)
    assert ok == brute_vector_is_compressed(vec.weights, vec.d)
    assert (ok, step and (step.u, step.v)) == _first_moving_step(vec)


def _run_state(kind, vec):
    """Each step's drop and the potentials over two sweeps of `kind` on
    vec, then the result, with the key order, that it ends with."""
    state = kind(vec)
    drops, potentials = [], [state.potential()]
    for _ in range(2):
        for u, v in _uv_steps(vec.d):
            drops.append(state.step(u, v))
        potentials.append(state.potential())
    return drops, potentials, list(state.result().weights.items())


def _assert_rank_state_matches_dict(vec):
    runs = {}
    for kind in (_Weights, _Ranks):
        with mock.patch.object(compress, "_state", kind):
            out, log = fully_compress(vec)
            runs[kind] = (_run_state(kind, vec), list(out.weights.items()),
                          log, is_compressed(vec))
    assert runs[_Ranks] == runs[_Weights]


@st.composite
def vectors_for_the_rank_state(draw):
    """A support of Q1-Q10 of any size, so on both sides of the floor,
    with Gaussian weights or tied ones in {-2, ..., 2}: as drawn, fully
    compressed, or compressed with one weight redrawn, each a third of
    the time."""
    d = draw(st.integers(1, 10))
    rnd = draw(st.randoms(use_true_random=True))
    gauss = draw(st.booleans())
    weight = lambda: rnd.gauss(0, 1) if gauss else float(rnd.randint(-2, 2))
    support = rnd.sample(range(1 << d), rnd.randint(1, 1 << d))
    vec = WeightVector(d, {s: weight() for s in support})
    kind = draw(st.integers(0, 2))
    if kind:
        vec, _ = fully_compress(vec)
    if kind == 2:
        vec = WeightVector(d, {**vec.weights, rnd.randrange(1 << d): weight()})
    return vec


@settings(max_examples=200, deadline=None)
@given(vectors_for_the_rank_state())
def test_rank_state_matches_the_weight_dict(vec):
    _assert_rank_state_matches_dict(vec)


@pytest.mark.parametrize("seed", range(4))
def test_rank_state_matches_the_weight_dict_at_bench_size(seed):
    # Gaussian weights on 256-512 vertices of Q12
    rnd = random.Random(seed)
    support = rnd.sample(range(1 << 12), rnd.randint(256, 512))
    vec = WeightVector(12, {s: rnd.gauss(0, 1) for s in support})
    assert type(_state(vec)) is _Ranks
    _assert_rank_state_matches_dict(vec)


def test_rank_potential_is_exact_past_int64():
    # n slots below 2^d and ranks of at most n: int64 while n^2 2^d < 2^63
    n = 128
    for d in (48, 50):
        slots = np.arange((1 << d) - n, 1 << d, dtype=np.int64)
        for ranks in (np.full(n, n), np.full(n, -n), np.arange(-n, n, 2)):
            exact = sum(int(s) * int(r) for s, r in zip(slots, ranks))
            assert _rank_dot(slots, ranks, d) == exact
    assert _rank_dot(slots, np.full(n, n), 50) >= 1 << 63   # past int64
