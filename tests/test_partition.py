"""Heavy-vertex partition certificates and their verification."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cubespectra import search
from cubespectra.compress import _prerequisites, fully_compress
from cubespectra.core import (VertexFamily, cube_graph, hamming_ball,
                              initial_segment, vertex_of, vertex_str)
from cubespectra.search import (
    PartitionCertificate,
    _mask,
    _representation_counts,
    _round,
    _sorted_masks,
    build_partition,
    enumerate_compressed,
    epsilon_preset_fixed_radius,
    epsilon_preset_log_ratio,
    epsilon_preset_sqrt,
    verify_partition,
)


def test_ball_with_heavy_center():
    # center degree 8 >= 0.5 * 8; leaves have one neighbour
    fam = hamming_ball(8, 1)
    cert = build_partition(fam, 0.5)
    assert cert.depth == 1 and not cert.degenerate
    assert cert.cores[1] == frozenset([0])
    assert cert.caps == (1, 2)
    assert cert.centers[0] == frozenset([0, 1])
    assert cert.shells[1] == frozenset(1 << j for j in range(1, 8))
    assert cert.centers[1] == frozenset()
    balls = cert.star_balls
    assert balls[(0, 0)] == frozenset([0]) | frozenset(1 << j for j in range(1, 8))
    assert balls[(0, 1)] == frozenset([1])
    report = verify_partition(cert, fam)
    assert report.all_passed
    assert tuple(c.passed for c in report.parts) == (True, True, True, True)


def test_trivial_cases():
    fam = VertexFamily(3, frozenset([0]))
    cert = build_partition(fam, 0.5)
    report = verify_partition(cert, fam)
    assert cert.depth == 0 and not cert.degenerate and report.all_passed
    # large epsilon: one shallow block, still a valid certificate
    fam = initial_segment(4, 4)
    cert = build_partition(fam, 1.5)
    report = verify_partition(cert, fam)
    assert cert.depth == 0 and not cert.degenerate and report.all_passed


def test_self_sustaining_core_is_flagged():
    # every vertex of the full 4-cube keeps 4 >= 1 neighbours, so the
    # heavy-core chain stabilizes without emptying; the certificate
    # degrades to one block and the degree guarantee honestly fails
    fam = initial_segment(16, 4)
    cert = build_partition(fam, 0.25)
    assert cert.degenerate and cert.depth == 0
    report = verify_partition(cert, fam)
    failed = {c.name for c in report.failures()}
    assert failed == {"block_degree_bounded", "caps_bound_degree"}
    for part in report.parts[:3]:
        assert part.passed


def test_requires_compressed_family():
    with pytest.raises(ValueError):
        build_partition(VertexFamily(3, frozenset([vertex_of([3])])), 0.5)
    with pytest.raises(ValueError):
        build_partition(hamming_ball(3, 1), 0.0)


def test_presets():
    assert epsilon_preset_sqrt(8, 32) == pytest.approx(8 / 8 / 1.0, abs=1e-12)
    assert epsilon_preset_log_ratio(100, 5, 2.0) == pytest.approx(
        2.0 / __import__("math").log(20))
    assert epsilon_preset_fixed_radius(64, 1) == pytest.approx(
        2 * 64 ** (-0.5))
    with pytest.raises(ValueError):
        epsilon_preset_log_ratio(8, 8)


def test_exhaustive_q5_with_sqrt_preset():
    total = 0
    for n in range(1, 33):
        for ms in enumerate_compressed(n, 5):
            fam = VertexFamily(5, frozenset(ms))
            eps = epsilon_preset_sqrt(5, n)
            cert = build_partition(fam, eps)
            report = verify_partition(cert, fam)
            assert not cert.degenerate, fam
            assert report.all_passed, (fam, [c.witness for c in report.failures()])
            total += 1
    assert total > 100


def test_fixed_epsilon_battery_classifies_correctly():
    # with a fixed threshold most families contain a self-sustaining
    # 2-core (any 4-cycle) and degrade; non-degenerate certificates pass
    # everything except the known cap-boundary slack m_k = m_{k-1} + 1
    rng = random.Random(31)
    outcomes = {"pass": 0, "degenerate": 0, "cap_slack": 0}
    for _ in range(150):
        members = frozenset(rng.sample(range(64), rng.randint(1, 40)))
        fam, _ = fully_compress(VertexFamily(6, members))
        for eps in (0.3, 0.5):
            cert = build_partition(fam, eps)
            report = verify_partition(cert, fam)
            if cert.degenerate:
                outcomes["degenerate"] += 1
                assert all(part.passed for part in report.parts[:3])
            elif report.all_passed:
                outcomes["pass"] += 1
            else:
                failed = {c.name for c in report.failures()}
                assert failed == {"caps_bound_degree"}
                assert all(part.passed for part in report.parts)
                outcomes["cap_slack"] += 1
    assert outcomes["pass"] > 0 and outcomes["degenerate"] > 0


def test_corrupted_certificate_fails_partition_check():
    fam = hamming_ball(8, 1)
    cert = build_partition(fam, 0.5)
    moved = sorted(cert.centers[0])[-1]
    cert.centers = (cert.centers[0] - {moved}, cert.centers[1] | {moved})
    report = verify_partition(cert, fam)
    part2 = report.parts[1]
    assert not part2.passed
    assert part2.witness != ""
    assert tuple(c.passed for c in report.parts)[1] is False


def test_duplicate_vertex_witness_is_the_first():
    fam = hamming_ball(8, 1)
    cert = build_partition(fam, 0.5)
    c0 = cert.centers[0]
    report = verify_partition(replace(cert, centers=(c0, c0)), fam)
    part2 = report.parts[1]
    assert part2.name == "blocks_partition_vertices" and not part2.passed
    assert part2.witness == "{} lies in blocks 0 and 1"


def test_witnesses_follow_binary_order():
    # the same set {{1},{4},{8}} as ball (0, 1), built in two insertion
    # orders that iterate differently, overlaps ball (0, 0) first at {4}
    fam = hamming_ball(8, 1)
    cert = build_partition(fam, 0.5)
    witnesses = set()
    for order in ((1, 8, 128), (128, 8, 1)):
        ball = set()
        for v in order:
            ball.add(v)
        corrupt = replace(cert, star_balls={**cert.star_balls, (0, 1): frozenset(ball)})
        witnesses.add(verify_partition(corrupt, fam).parts[0].witness)
    assert witnesses == {"{4} lies in balls (0, 0) and (0, 1)"}


def _ball_8_1_corruptions():
    """Per check, a corruption of ball(8,1)'s certificate at epsilon 0.5:
    caps (1, 2), round 0's centers {} and {1}, round 1's shell the other
    singletons and no centers, cores the ball and {{}}."""
    s2 = vertex_of([2])
    return {
        "star_balls_disjoint": lambda c: replace(c, star_balls={
            **c.star_balls, (0, 1): c.star_balls[(0, 1)] | {s2}}),
        "blocks_partition_vertices": lambda c: replace(
            c, centers=(c.centers[0], c.centers[0])),
        "edges_covered_exactly": lambda c: replace(c, star_balls={}),
        "block_degree_bounded": lambda c: replace(
            c, shells=(frozenset(), frozenset()),
            centers=(c.centers[0] | c.shells[1], frozenset())),
        "unique_representation": lambda c: replace(
            c, centers=(c.centers[0], c.shells[1])),
        "covered_sets_compressed": lambda c: replace(
            c, covered=(c.covered[0] | {vertex_of([3])}, c.covered[1])),
        "no_edges_to_later_rounds": lambda c: replace(
            c, centers=(c.centers[0], frozenset([s2]))),
        "blocks_avoid_earlier_rounds": lambda c: replace(
            c, shells=(frozenset(), c.shells[1] | {0})),
        "caps_bound_degree": lambda c: replace(c, caps=(c.caps[0], 5)),
        "cores_covered": lambda c: replace(
            c, cores=(c.cores[0], c.cores[1] | {s2})),
    }


@pytest.mark.parametrize("name", sorted(_ball_8_1_corruptions()))
def test_each_check_fails_on_its_corrupted_certificate(name):
    fam = hamming_ball(8, 1)
    cert = build_partition(fam, 0.5)
    assert verify_partition(cert, fam).all_passed
    report = verify_partition(_ball_8_1_corruptions()[name](cert), fam)
    outcomes = [c for c in report.parts + report.assertions if c.name == name]
    assert outcomes
    for check in outcomes:
        assert not check.passed
        assert check.witness != ""
    assert not report.all_passed


def _with_ball(key, ball):
    return lambda c: replace(c, star_balls={**c.star_balls, key: frozenset(ball)})


@pytest.mark.parametrize("corrupt, outside", [
    (lambda c: replace(c, shells=(c.shells[0], c.shells[1] | {0b11})), "{1,2}"),
    (_with_ball((0, 1), {1, 0b11}), "{1,2}"),
    (lambda c: replace(c, covered=(c.covered[0] | {0b11}, c.covered[1])), "{1,2}"),
    # {1,2,3,4} has no neighbour among the certificate's vertices
    (_with_ball((0, 1), {1, 0b1111}), "{1,2,3,4}"),
    (_with_ball((0, 1), {0b1111}), "{1,2,3,4}"),
    (_with_ball((5, 77), {0b1111}), "{1,2,3,4}"),
], ids=["shell", "star_ball", "covered", "far_star_ball", "replaced_star_ball",
        "extra_star_ball"])
def test_certificate_vertex_outside_the_family_is_a_witness(corrupt, outside):
    fam = hamming_ball(8, 1)
    report = verify_partition(corrupt(build_partition(fam, 0.5)), fam)
    assert not report.all_passed
    assert any(outside in c.witness for c in report.failures())


@pytest.mark.parametrize("fam, epsilon", [
    (hamming_ball(8, 1), 0.5),
    (hamming_ball(10, 3), epsilon_preset_log_ratio(10, 3)),
], ids=["ball_8_1", "ball_10_3_sec52"])
def test_verifier_converts_each_certificate_set_once(fam, epsilon,
                                                     monkeypatch):
    # cores, shells, centers, covered sets and blocks: five per round
    cert = build_partition(fam, epsilon)
    calls = []
    sorted_masks = search._sorted_masks

    def counted(part):
        calls.append(len(part))
        return sorted_masks(part)

    monkeypatch.setattr(search, "_sorted_masks", counted)
    assert verify_partition(cert, fam).all_passed
    assert cert.depth >= 1 and cert.star_balls
    assert len(calls) == 5 * (cert.depth + 1) + len(cert.star_balls)


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_non_finite_epsilon_is_rejected(epsilon):
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        build_partition(hamming_ball(8, 1), epsilon)


def test_star_ball_edges_cover_cross_edges():
    # a two-round family: the 5-cube ball of radius 1 inside Q_5 plus
    # some pairs; check the edge cover splits exactly
    fam, _ = fully_compress(VertexFamily(5, frozenset(range(12))))
    eps = epsilon_preset_sqrt(5, len(fam))
    cert = build_partition(fam, eps)
    report = verify_partition(cert, fam)
    assert report.all_passed
    if cert.depth >= 1:
        assert cert.star_balls


def _scan_representations(s, k, cert):
    """Reference route: try every center of rounds 0..k as T."""
    hits = []
    for j in range(k + 1):
        for t in cert.centers[j]:
            if t & ~s:
                continue
            extras = sorted(e + 1 for e in range(cert.d) if (s ^ t) >> e & 1)
            if len(extras) != k - j:
                continue
            if all(extras[idx] > cert.caps[j + idx] for idx in range(len(extras))):
                hits.append((j, t))
    return hits


def test_unique_representation_matches_center_scan():
    rng = random.Random(23)
    certs = 0
    while certs < 40:
        d = rng.randint(6, 10)
        fam, _ = fully_compress(VertexFamily(d, frozenset(
            rng.sample(range(2**d), rng.randint(8, min(200, 2**(d - 1)))))))
        cert = build_partition(fam, rng.choice([0.5, 0.6, 0.7]))
        if cert.degenerate or cert.depth < 2:
            continue
        certs += 1
        # a corrupted copy whose round-1 centers take in the round-1
        # shell, so those vertices decompose twice
        doubled = replace(cert, centers=(cert.centers[0],
                                         cert.centers[1] | cert.shells[1],
                                         *cert.centers[2:]))
        verts = _sorted_masks(fam.members)
        for c in (cert, doubled):
            centers = [_sorted_masks(t) for t in c.centers]
            for k in range(c.depth + 1):
                counts = _representation_counts(verts, k, c.caps, centers)
                assert counts.tolist() == [
                    len(_scan_representations(s, k, c)) for s in verts.tolist()]


# ---------------------------------------------------------------------------
# Set-based references for the parts of the build and the verifier that
# run on the family's CSR arrays or were rewritten with them: the core
# peeling, the rounds' shells, the block degrees, the edge cover, the edges
# to later rounds and the representations.  They read neighbour sets, and
# a certificate vertex outside the family has none.


def _neighbours(fam):
    return {s: frozenset(s ^ 1 << b for b in range(fam.d)
                         if s ^ 1 << b in fam.members)
            for s in fam.members}


def _reference_round(members, d, k, shells, centers, caps, covered):
    """Round k's shell and centers, one element above m_{k-1} at a time."""
    shell = set()
    for s in shells[k - 1] | centers[k - 1]:
        for t in range(caps[k - 1] + 1, d + 1):
            if not s >> t - 1 & 1 and s | 1 << t - 1 in members:
                shell.add(s | 1 << t - 1)
    low = {s for s in members if s >> caps[k] == 0}
    return frozenset(shell), frozenset(low - covered[k - 1] - shell)


def _reference_partition(fam, epsilon):
    """The certificate, built with the core peeling on neighbour sets."""
    adj, members, d = _neighbours(fam), fam.members, fam.d
    cores = [members]
    degenerate = not members
    while cores[-1]:
        prev = cores[-1]
        survivors = frozenset(s for s in prev
                              if len(adj[s] & prev) >= epsilon * d)
        if survivors == prev:
            degenerate = True
            break
        if not survivors:
            break
        cores.append(survivors)
    if degenerate:
        cores = cores[:1]
    depth = len(cores) - 1
    deepest = cores[depth] or members
    caps = [max([t for t in range(1, d + 1) if 1 << t - 1 in deepest],
                default=1)]
    shells = [frozenset()]
    centers = [frozenset(s for s in members if s >> caps[0] == 0)]
    covered = [centers[0]]
    for k in range(1, depth + 1):
        probe = sum(1 << caps[j] for j in range(k))
        caps.append(max([t for t in range(caps[k - 1] + 2, d + 1)
                         if probe | 1 << t - 1 in cores[depth - k]],
                        default=caps[k - 1] + 1))
        shell, center = _reference_round(members, d, k, shells, centers, caps,
                                         covered)
        shells.append(shell)
        centers.append(center)
        covered.append(covered[-1] | shell | center)
    balls = {(k, s): frozenset({s} | {t for j in range(1, depth - k + 1)
                                      for t in shells[k + j]
                                      if (s ^ t).bit_count() == j})
             for k in range(depth) for s in centers[k]}
    return PartitionCertificate(d, epsilon, depth, degenerate, tuple(cores),
                                tuple(caps), tuple(shells), tuple(centers),
                                tuple(covered), balls)


def _reference_outcomes(cert, fam):
    """(passed, witness) of each check that reads the graph, by name."""
    adj = _neighbours(fam)
    limit = cert.epsilon * cert.d
    degrees = [max((len(adj.get(s, frozenset()) & block) for s in block),
                   default=0) for block in cert.blocks()]

    def within(part):
        return {(s, u) for s in part for u in adj.get(s, ())
                if u in part and u > s}

    def first(witnesses):
        return next(((False, w) for w in witnesses), (True, ""))

    covered = set().union(*map(within, cert.blocks()),
                          *map(within, cert.star_balls.values()))
    stray = sorted(within(fam.members) ^ covered)

    def later_edges():
        for k in range(cert.depth + 1):
            later = set(cert.centers[k + 1]) if k < cert.depth else set()
            if k + 2 <= cert.depth:
                later |= cert.shells[k + 2] | cert.centers[k + 2]
            for s in sorted(cert.covered[k]):
                for u in sorted(adj.get(s, ())):
                    if u in later:
                        yield (f"edge {vertex_str(s)}-{vertex_str(u)} "
                               f"leaves covered[{k}]")

    def ambiguous():
        for k in range(cert.depth + 1):
            for s in sorted(cert.shells[k] | cert.centers[k]):
                hits = _scan_representations(s, k, cert)
                if len(hits) != 1:
                    yield (f"{vertex_str(s)} in round {k} has {len(hits)} "
                           "decompositions")

    return {
        "edges_covered_exactly": first(
            f"edge {vertex_str(s)}-{vertex_str(u)} mismatch" for s, u in stray),
        "block_degree_bounded": first(
            f"block {k} has internal degree {deg} > {limit:.3f}"
            for k, deg in enumerate(degrees) if deg > limit),
        "caps_bound_degree": first(
            f"round {k}: degree {deg}, cap {cert.caps[k]}, threshold {limit:.3f}"
            for k, deg in enumerate(degrees)
            if not deg <= cert.caps[k] <= limit),
        "no_edges_to_later_rounds": first(later_edges()),
        "unique_representation": first(ambiguous()),
    }


def _compressed_closure(generators):
    """The smallest compressed family holding `generators`: close under
    the shadows and adjacent shifts that the member test looks up."""
    members, todo = set(), list(generators)
    while todo:
        v = todo.pop()
        if v not in members:
            members.add(v)
            todo.extend(_prerequisites(v))
    return frozenset(members)


def _corruptions(cert, fam):
    """The corruptions that `cert` has room for, by name: each takes a
    hypothesis `draw` and returns a corrupted copy."""
    balls = sorted(cert.star_balls)
    outside = sorted(set(range(1 << cert.d)) - fam.members)

    def move(draw):
        src = draw(st.sampled_from([k for k, b in enumerate(cert.blocks()) if b]))
        v = draw(st.sampled_from(sorted(cert.blocks()[src])))
        dst = draw(st.sampled_from([k for k in range(cert.depth + 1) if k != src]))
        shells = [sh - {v} for sh in cert.shells]
        centers = [c - {v} for c in cert.centers]
        (shells if draw(st.booleans()) else centers)[dst] |= {v}
        return replace(cert, shells=tuple(shells), centers=tuple(centers))

    def ball_gains(pool):
        def corrupt(draw):
            key, v = draw(st.sampled_from(balls)), draw(st.sampled_from(pool))
            return replace(cert, star_balls={**cert.star_balls,
                                             key: cert.star_balls[key] | {v}})
        return corrupt

    def overlap(draw):
        # a vertex of one ball joins another ball, or a new one when
        # there is only one
        key = draw(st.sampled_from(balls))
        v = draw(st.sampled_from(sorted(cert.star_balls[key])))
        other = [b for b in balls if b != key] or [(cert.depth, 1 << cert.d)]
        target = draw(st.sampled_from(other))
        ball = cert.star_balls.get(target, frozenset()) | {v}
        return replace(cert, star_balls={**cert.star_balls, target: ball})

    def raise_cap(draw):
        caps = list(cert.caps)
        caps[draw(st.integers(0, cert.depth))] += draw(st.integers(1, 3))
        return replace(cert, caps=tuple(caps))

    out = {"move": move} if cert.depth else {}
    if balls:
        out.update(ball_member=ball_gains(sorted(fam.members)), overlap=overlap)
    if balls and outside:
        out["ball_outsider"] = ball_gains(outside)
    return {**out, "cap": raise_cap, "none": lambda draw: cert}


@settings(max_examples=150)
@given(st.data())
def test_array_partition_matches_set_reference(data):
    # generators of at most 4 elements give ball-like families, often
    # with heavy centers, star balls and several rounds
    d = data.draw(st.integers(5, 10), label="d")
    generators = data.draw(st.lists(st.sets(st.integers(1, d), max_size=4),
                                    min_size=1, max_size=3), label="generators")
    fam = VertexFamily(d, _compressed_closure(map(vertex_of, generators)))
    epsilon = data.draw(st.sampled_from([0.5, 0.6, 0.7, "sec51"]), label="epsilon")
    if epsilon == "sec51":
        epsilon = epsilon_preset_sqrt(d, len(fam))
    cert = build_partition(fam, epsilon)
    assert cert == _reference_partition(fam, epsilon)
    corruptions = _corruptions(cert, fam)
    kind = data.draw(st.sampled_from(list(corruptions)), label="corruption")
    cert = corruptions[kind](data.draw)
    report = verify_partition(cert, fam)
    expected = _reference_outcomes(cert, fam)
    outcomes = [(c.name, c.passed, c.witness)
                for c in report.parts + report.assertions]
    assert [name for name, _, _ in outcomes] == [
        "star_balls_disjoint", "blocks_partition_vertices",
        "edges_covered_exactly", "block_degree_bounded",
        "unique_representation", "covered_sets_compressed",
        "no_edges_to_later_rounds", "blocks_avoid_earlier_rounds",
        "caps_bound_degree", "cores_covered", "star_balls_disjoint"]
    for name, passed, witness in outcomes:
        if name in expected:
            assert (passed, witness) == expected[name], name


@settings(max_examples=150)
@given(st.data())
def test_array_rounds_and_counts_match_set_references(data):
    # the families and corruptions of the test above; the counts are
    # also taken on vertices outside the family
    d = data.draw(st.integers(5, 10), label="d")
    generators = data.draw(st.lists(st.sets(st.integers(1, d), max_size=4),
                                    min_size=1, max_size=3), label="generators")
    fam = VertexFamily(d, _compressed_closure(map(vertex_of, generators)))
    epsilon = data.draw(st.sampled_from([0.5, 0.6, 0.7, "sec51"]), label="epsilon")
    if epsilon == "sec51":
        epsilon = epsilon_preset_sqrt(d, len(fam))
    cert = build_partition(fam, epsilon)
    corruptions = _corruptions(cert, fam)
    kind = data.draw(st.sampled_from(list(corruptions)), label="corruption")
    cert = corruptions[kind](data.draw)
    verts = cube_graph(fam).vertices
    for k in range(1, cert.depth + 1):
        previous = _sorted_masks(cert.shells[k - 1] | cert.centers[k - 1])
        covered = _mask(verts, _sorted_masks(cert.covered[k - 1]))
        shell, center = _round(verts, d, previous, cert.caps[k - 1],
                               cert.caps[k], covered)
        got = tuple(frozenset(verts[m].tolist()) for m in (shell, center))
        assert got == _reference_round(fam.members, d, k, cert.shells,
                                       cert.centers, cert.caps, cert.covered)
    outside = data.draw(st.sets(st.integers(0, (1 << d) - 1), max_size=8),
                        label="outside")
    probe = _sorted_masks(fam.members | outside)
    centers = [_sorted_masks(c) for c in cert.centers]
    for k in range(cert.depth + 1):
        counts = _representation_counts(probe, k, cert.caps, centers)
        assert counts.tolist() == [len(_scan_representations(s, k, cert))
                                   for s in probe.tolist()]
