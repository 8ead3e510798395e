"""Vertex encoding, binary order, canonical families, induced adjacency."""

import itertools
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    brute_edges,
    mask_to_set,
    parse_family_by_line,
    set_binary_less,
)
from cubespectra.core import (
    VertexFamily,
    _vertex_strs,
    binary_compare,
    cube_graph,
    degree_profile,
    elements_of,
    format_family,
    hamming_ball,
    induced_edges,
    initial_segment,
    mask_to_binary_string,
    parse_family,
    star_family,
    vertex_of,
    vertex_str,
)


def test_binary_compare_examples():
    assert binary_compare(vertex_of([]), vertex_of([1])) == -1
    assert binary_compare(vertex_of([1, 2]), vertex_of([3])) == -1
    assert binary_compare(vertex_of([1, 3]), vertex_of([2, 3])) == -1


def test_binary_compare_matches_definition_exhaustively():
    # oracle: the definitional comparator on index sets, all pairs, d <= 6
    for s, t in itertools.product(range(64), repeat=2):
        expected = (-1 if set_binary_less(mask_to_set(s), mask_to_set(t))
                    else (0 if s == t else 1))
        assert binary_compare(s, t) == expected


def test_binary_compare_total_order_d6():
    signs = [[binary_compare(s, t) for t in range(64)] for s in range(64)]
    for s in range(64):
        for t in range(64):
            assert signs[s][t] == -signs[t][s]          # antisymmetric
            assert (signs[s][t] == 0) == (s == t)       # trichotomous
    for s in range(64):
        for t in range(64):
            if signs[s][t] != -1:
                continue
            for r in range(64):
                if signs[t][r] == -1:
                    assert signs[s][r] == -1            # transitive


def test_initial_segment_examples():
    assert initial_segment(4, 3).sorted_members() == (0, 1, 2, 3)
    assert initial_segment(1, 5).sorted_members() == (0,)
    # oracle: sort all subsets of {1,2,3} by the definitional comparator
    import functools

    def cmp(a, b):
        if a == b:
            return 0
        return -1 if set_binary_less(mask_to_set(a), mask_to_set(b)) else 1

    all_sets = sorted(range(8), key=functools.cmp_to_key(cmp))
    assert initial_segment(6, 3).sorted_members() == tuple(sorted(all_sets[:6]))
    assert initial_segment(6, 3).sorted_members() == (0, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        initial_segment(9, 3)


def test_initial_segment_down_closed_exhaustive():
    for d in range(1, 7):
        for n in range(2**d + 1):
            fam = initial_segment(n, d)
            for s in fam.members:
                m = s
                while m:
                    bit = m & -m
                    assert s ^ bit in fam.members
                    m ^= bit


def test_hamming_ball_sizes():
    assert len(hamming_ball(4, 1)) == 5
    assert len(hamming_ball(6, 2)) == 22
    for d in range(1, 8):
        assert len(hamming_ball(d, d)) == 2**d
    with pytest.raises(ValueError):
        hamming_ball(4, 5)


def test_hamming_ball_matches_mask_scan():
    # the definition: every mask of Q_d with at most i elements
    for d in range(1, 11):
        for i in range(d + 1):
            scan = frozenset(m for m in range(1 << d) if m.bit_count() <= i)
            assert hamming_ball(d, i).members == scan, (d, i)


def test_hamming_ball_in_dimension_64():
    # 1 + 64 + C(64, 2) members; a scan would visit 2^64 masks
    ball = hamming_ball(64, 2)
    assert len(ball) == 1 + 64 + comb(64, 2) == 2081
    assert (1 << 63) | (1 << 62) in ball


def test_family_nesting():
    for d in range(2, 7):
        for i in range(d):
            assert hamming_ball(d, i).members <= hamming_ball(d, i + 1).members
        for n in range(2**d):
            assert (initial_segment(n, d).members
                    <= initial_segment(n + 1, d).members)


def test_induced_edges_examples():
    assert len(induced_edges(hamming_ball(4, 1))) == 4
    assert len(induced_edges(initial_segment(4, 2))) == 4
    assert len(induced_edges(hamming_ball(6, 2))) == 36


def test_induced_edges_against_pair_scan():
    import random

    rng = random.Random(7)
    for d in range(2, 7):
        members = frozenset(rng.sample(range(2**d), min(2**d, 11)))
        fam = VertexFamily(d, members)
        assert sorted(induced_edges(fam)) == brute_edges(members, d)


def test_induced_edges_with_element_64():
    # element 64 is bit 63, which a signed 64-bit vertex array would wrap
    members = frozenset(vertex_of(s) for s in (
        [], [1], [63], [64], [1, 64], [2, 64], [63, 64], [1, 63, 64]))
    fam = VertexFamily(64, members)
    assert sorted(induced_edges(fam)) == brute_edges(members, 64)
    assert len(induced_edges(fam)) == 10


@st.composite
def cube_graph_families(draw):
    """Any family of Q1-Q10, on both sides of the direct-address bound
    2^d <= 2nd, or a sparse family of Q20-Q64: a few seeds and their
    flips along a few shared directions."""
    if draw(st.booleans()):
        d = draw(st.integers(1, 10))
        n = draw(st.integers(0, 2**d))
        members = draw(st.permutations(range(2**d)))[:n]
    else:
        d = draw(st.one_of(st.just(64), st.integers(20, 64)))
        seeds = draw(st.sets(st.integers(0, 2**d - 1), min_size=1, max_size=6))
        dirs = draw(st.lists(st.one_of(st.just(d - 1), st.integers(0, d - 1)),
                                max_size=4))
        members = seeds | {s ^ 1 << b for s in seeds for b in dirs}
    return VertexFamily(d, frozenset(members))


@settings(max_examples=200)
@given(cube_graph_families())
def test_cube_graph_against_pair_scan(fam):
    g = cube_graph(fam)
    assert g.vertices.dtype == np.uint64 and g.indptr.dtype == np.int64
    assert g.indices.dtype == np.int64
    verts = g.vertices.tolist()
    assert verts == sorted(fam.members)
    edges = []
    for k, v in enumerate(verts):
        row = g.indices[g.indptr[k]:g.indptr[k + 1]].tolist()
        assert row == sorted(set(row))
        edges += [(v, verts[j]) for j in row if j > k]
    assert edges == brute_edges(fam.members, fam.d)


def test_cube_graph_is_built_once_per_family_and_read_only():
    fam = hamming_ball(6, 2)
    g = cube_graph(fam)
    assert cube_graph(fam) is g
    assert cube_graph(VertexFamily(6, fam.members)) is not g
    for array in (g.vertices, g.indptr, g.indices):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        g.vertices.sort()


@pytest.mark.parametrize("fam", [
    VertexFamily(5, frozenset()),
    hamming_ball(6, 2),
    VertexFamily(64, frozenset([0, 3, 1 << 63, (1 << 64) - 2, (1 << 64) - 1])),
], ids=["empty", "ball", "d64"])
def test_vertices_is_one_sorted_read_only_array(fam):
    verts = fam.vertices
    assert verts.dtype == np.uint64 and verts.tolist() == sorted(fam.members)
    assert not verts.flags.writeable
    if len(verts):
        with pytest.raises(ValueError, match="read-only"):
            verts[0] = 0
    assert fam.vertices is verts
    assert cube_graph(fam).vertices is verts
    assert fam.sorted_members() == tuple(sorted(fam.members))
    same = VertexFamily(fam.d, fam.members)
    assert fam == same and hash(fam) == hash(same)
    assert same.vertices is not verts and same.vertices.tolist() == verts.tolist()
    assert replace(fam).vertices is not verts


def test_ball_edge_count_formula():
    for d in range(1, 11):
        for i in range(d + 1):
            expected = sum((j + 1) * comb(d, j + 1) for j in range(i))
            assert len(induced_edges(hamming_ball(d, i))) == expected


def test_degree_profile():
    star = degree_profile(hamming_ball(4, 1))
    assert star.max_degree == 4 and star.max_neighbor_degree_sum == 4
    square = degree_profile(initial_segment(4, 2))
    assert square.max_degree == 2 and square.max_neighbor_degree_sum == 4
    empty = degree_profile(VertexFamily(3, frozenset()))
    assert empty.max_degree == 0 and empty.max_neighbor_degree_sum == 0


def test_vertex_str():
    assert vertex_str(0) == "{}"
    assert vertex_str(vertex_of([1, 3])) == "{1,3}"


def _vertex_str_of_elements(mask):
    return "{" + ",".join(str(j) for j in elements_of(mask)) + "}"


@settings(max_examples=300)
@given(st.integers(0, (1 << 64) - 1))
def test_vertex_str_matches_element_formatting(mask):
    # the extremes, and a mask past 64 bits, as error messages print one
    for m in (mask, 0, (1 << 64) - 1, (1 << 70) | 5):
        assert vertex_str(m) == _vertex_str_of_elements(m)
    with pytest.raises(ValueError, match="negative"):
        vertex_str(-1 - mask)


def test_batch_vertex_formatting_matches_vertex_str():
    rng = random.Random(41)
    masks = [0, *(1 << j for j in range(64)), (1 << 64) - 1,
             *(rng.getrandbits(rng.randint(1, 64)) for _ in range(3000))]
    # one batch of them all, and lists short enough to name one by one
    for part in (masks, masks[:65], masks[:31], masks[:1], []):
        expected = [vertex_str(m) for m in part]
        assert _vertex_strs(part) == expected


def _elements_bit_by_bit(mask):
    """Reference decoder: shift the mask right one bit at a time."""
    out, j = [], 1
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


def test_elements_of_matches_bit_by_bit_decoding():
    rng = random.Random(23)
    masks = [*range(1 << 12), *(rng.getrandbits(64) for _ in range(5000)),
             1 << 63, (1 << 64) - 1]
    for mask in masks:
        assert elements_of(mask) == _elements_bit_by_bit(mask), mask


def test_dimension_cap():
    with pytest.raises(ValueError):
        VertexFamily(65, frozenset())
    with pytest.raises(ValueError):
        VertexFamily(2, frozenset([4]))   # element 3 outside Q_2
    with pytest.raises(ValueError,   # names the largest, {1,4}
                       match=r"vertex \{1,4\} has elements outside 1\.\.2"):
        VertexFamily(2, frozenset([1, 4, 9, 3]))


def test_negative_masks_are_rejected():
    # in a child process with a timeout, since decoding a negative mask
    # once looped forever
    code = ("from cubespectra.core import VertexFamily, elements_of\n"
            "for call in (lambda: VertexFamily(3, frozenset([2, -1, -5])),\n"
            "             lambda: elements_of(-1)):\n"
            "    try:\n"
            "        call()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["vertex mask -5 is negative",
                                        "vertex mask -1 is negative"]


def test_star_family():
    fam = star_family(5, 3)
    assert fam.members == frozenset([0, 1, 2, 4])
    with pytest.raises(ValueError):
        star_family(3, 4)


def test_family_file_roundtrip():
    fam = hamming_ball(5, 2)
    text = format_family(fam)
    assert parse_family(text).members == fam.members
    assert text.splitlines()[0] == "d=5"


def test_family_file_errors_and_comments():
    parsed = parse_family("# header\nd=3\n000\n100  # the singleton {1}\n")
    assert parsed.members == frozenset([0, 1])
    with pytest.raises(ValueError):
        parse_family("d=3\n000\n000\n")      # duplicate
    with pytest.raises(ValueError):
        parse_family("d=3\n00\n")            # wrong length
    with pytest.raises(ValueError):
        parse_family("d=3\n002\n")           # bad character
    with pytest.raises(ValueError, match="'0_1'"):
        parse_family("d=3\n0_1\n")           # int(_, 2) would accept it
    with pytest.raises(ValueError):
        parse_family("000\n")                # missing header


def test_parse_family_needs_a_newline_after_every_vertex_line():
    # 1000010 fills two rows of d + 1 = 4 bytes with 0/1 and a newline,
    # but it is one line of 7 characters
    with pytest.raises(ValueError, match="'1000010' is not 3 characters"):
        parse_family("d=3\n1000010\n")
    # a form feed is no newline in the bytes, but it ends a line
    assert parse_family("d=1\n0\x0c1\n").members == frozenset([0, 1])


@st.composite
def family_texts(draw):
    """Family files with a valid header and vertex lines that may be
    commented, padded, blank, repeated, of the wrong length or holding
    other characters, with LF or CRLF endings.  A quarter start out
    canonical, the input `parse_family` decodes from its bytes: 'd=<int>'
    and lines of d characters of 0/1, each ending in LF.  Any file may
    then take a character on which `str.splitlines` splits but a scan
    for LF does not."""
    d = draw(st.one_of(st.just(64), st.integers(1, 12), st.integers(13, 64)))
    vertex = st.integers(0, 2**d - 1).map(lambda m: mask_to_binary_string(m, d))
    pad = st.sampled_from(("", " ", "\t", "  \t "))
    canonical = draw(st.integers(0, 3)) == 0
    if canonical:
        lines = [f"d={d}"]
        kinds = ("vertex", "vertex", "vertex", "repeat")
    else:
        lines = [draw(st.sampled_from(("", "# a family"))),
                 f"d={d}" + draw(pad)]
        kinds = ("vertex", "vertex", "vertex", "repeat", "blank", "comment")
    first = len(lines)
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        if kind == "vertex" or (kind == "repeat" and len(lines) == first):
            line = draw(vertex)
        elif kind == "repeat":
            line = draw(st.sampled_from(lines[first:]))
        elif kind == "blank":
            line = draw(pad)
        else:
            line = draw(pad) + "# comment " + draw(vertex)
        if not canonical:
            line = draw(pad) + line + draw(st.sampled_from(("", " # 1", "#")))
        lines.append(line)
    # half the canonical files stay so, apart from any repeated line
    faulty = not canonical or draw(st.booleans())
    for _ in range(draw(st.integers(0, 2)) if faulty else 0):
        # a faulty line: wrong length, or another character put in or over
        k = draw(st.integers(first, len(lines)))
        line = draw(vertex)
        fault = draw(st.sampled_from(("short", "long", "insert", "replace")))
        if fault == "short":
            line = line[:draw(st.integers(0, d - 1))]
        elif fault == "long":
            line += draw(st.sampled_from("01"))
        else:
            j = draw(st.integers(0, d - 1))
            bad = draw(st.one_of(st.sampled_from("2_ x\t\u00e9\u20ac\U0001d7ce"),
                                 st.characters()))
            line = line[:j] + bad + line[j + (fault == "replace"):]
        lines.insert(k, line)
    if canonical:
        text = "".join(line + "\n" for line in lines)
    else:
        ending = draw(st.sampled_from(("\n", "\r\n")))
        text = ending.join(lines) + draw(st.sampled_from(("", ending)))
    for _ in range(draw(st.integers(0, 1)) if faulty else 0):
        # put in, or over a character after the header, a line break
        # that is not LF
        j = draw(st.integers(text.index(f"d={d}") + len(f"d={d}"), len(text)))
        brk = draw(st.sampled_from(("\x0b", "\x0c", "\x1c", "\x85", "\u2028")))
        text = text[:j] + brk + text[j + draw(st.booleans()):]
    return text


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def _width_edge(d):
    """The canonical file of the all-ones line and the top-bit line of Q_d:
    they fill the packing width at d = 8, 16, 32, 64 and overflow the
    next narrower one by a digit at d = 9, 17, 33."""
    return format_family(VertexFamily(d, frozenset({(1 << d) - 1, 1 << d - 1})))


@settings(max_examples=400)
@given(family_texts())
@example(_width_edge(8))
@example(_width_edge(9))
@example(_width_edge(16))
@example(_width_edge(17))
@example(_width_edge(32))
@example(_width_edge(33))
@example(_width_edge(64))
def test_parse_family_matches_line_by_line_reading(text):
    assert (_parse_outcome(parse_family, text)
            == _parse_outcome(parse_family_by_line, text))


def test_parse_family_packs_short_lines_into_few_columns():
    # init 50,000 of Q16: a traced peak of 4.90 MB with 64 columns a line,
    # 2.50 MB with 16 (numpy 2.4)
    text = format_family(initial_segment(50_000, 16))
    tracemalloc.start()
    try:
        fam = parse_family(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fam) == 50_000 and peak < 3.6e6


def test_parse_family_checks_the_header_first():
    for header in ("d=-1", "d=0", "d=x", "d=65", "d="):
        with pytest.raises(ValueError, match=f"header line '{header}'"):
            parse_family(f"{header}\n0\n")
    with pytest.raises(ValueError, match="header line 'd=65'"):
        parse_family("d=65\n" + "0" * 65 + "\n")
    assert parse_family("d=64 # the widest\n").members == frozenset()


def test_parse_family_round_trip_in_every_dimension():
    for d in range(1, 65):
        rng = random.Random(d)
        masks = {0, (1 << d) - 1, 1 << (d - 1)}
        masks |= {rng.getrandbits(d) for _ in range(40)}
        if d == 64:
            masks |= {1 << 63 | rng.getrandbits(63) for _ in range(20)}
        fam = VertexFamily(d, frozenset(masks))
        parsed = parse_family(format_family(fam))
        assert parsed == fam and hash(parsed) == hash(fam)
        verts = parsed.vertices
        assert verts.dtype == np.uint64 and verts.tolist() == sorted(masks)
        assert not verts.flags.writeable and parsed.vertices is verts
        assert cube_graph(parsed).indices.dtype == np.int64


def test_family_of_sorted_masks_checks_its_ends():
    masks = lambda *ms: np.array(ms, dtype=np.uint64)
    fam = VertexFamily._of_sorted(3, masks(0, 5, 7))
    assert fam == VertexFamily(3, frozenset([0, 5, 7]))
    assert VertexFamily._of_sorted(64, masks()) == VertexFamily(64, frozenset())
    outside = "has elements outside"
    with pytest.raises(ValueError, match=r"vertex \{4\} " + outside):
        VertexFamily._of_sorted(3, masks(1, 8))
    with pytest.raises(ValueError, match=r"vertex \{1,64\} " + outside):
        VertexFamily._of_sorted(63, masks(1 << 63 | 1))
    for d in (0, -1, 65):
        with pytest.raises(ValueError, match="dimension must be in 1..64"):
            VertexFamily._of_sorted(d, masks(0))


@pytest.mark.parametrize("fam", [
    hamming_ball(8, 3),                                   # sparse lambda1
    initial_segment(40, 7),                               # dense lambda1
    VertexFamily(9, frozenset([0, 3, 5, 6, 40, 63, 256, 300, 511])),
    VertexFamily(64, frozenset([0, 1, 1 << 63, (1 << 64) - 1])),
    VertexFamily(4, frozenset()),
], ids=["ball8-3", "init40", "scattered", "d64", "empty"])
def test_parsed_family_builds_its_member_set_when_first_read(fam):
    from cubespectra.compress import is_compressed
    from cubespectra.spectral import lambda1
    from cubespectra.subcubes import count_subcubes

    parsed = parse_family(format_family(fam))
    assert len(parsed) == len(fam)
    assert parsed.vertices.tolist() == sorted(fam.members)
    cube_graph(parsed)
    if len(fam):
        lambda1(parsed)
    assert "members" not in parsed.__dict__
    with pytest.raises(AttributeError, match="'other'"):
        parsed.other
    # a lazy family pickles as one and reads back as the same value
    unpickled = pickle.loads(pickle.dumps(parsed))
    assert "members" not in unpickled.__dict__

    members = parsed.members
    assert parsed.__dict__["members"] is members and parsed.members is members
    same = VertexFamily(fam.d, frozenset(sorted(fam.members)))
    assert members == same.members and list(members) == list(same.members)
    assert parsed == same and same == parsed and unpickled == same
    assert hash(parsed) == hash(same) == hash(unpickled)
    assert repr(parsed) == repr(same) == repr(unpickled)
    assert all((v in parsed) == (v in same) for v in range(1 << min(fam.d, 9)))
    assert replace(parsed) == same and repr(replace(parsed)) == repr(same)
    assert replace(parsed, d=64) == VertexFamily(64, same.members)
    # a pickled frozenset comes back built from its iteration order
    again = pickle.loads(pickle.dumps(parsed))
    assert again == same
    assert repr(again) == repr(pickle.loads(pickle.dumps(same)))
    assert is_compressed(parsed) == is_compressed(same)
    for d_prime in range(min(fam.d, 3) + 1):
        assert count_subcubes(parsed, d_prime) == count_subcubes(same, d_prime)
    assert len(parsed) == len(same) and list(parsed) == list(same)
