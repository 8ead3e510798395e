"""Compressed-family enumeration and the extremal search."""

import itertools
from math import sqrt

import numpy as np
import pytest

from conftest import brute_down_set, brute_is_compressed, brute_lambda1
from cubespectra import search
from cubespectra.compress import _prerequisites, is_compressed
from cubespectra.core import VertexFamily, cube_graph, vertex_of
from cubespectra.search import enumerate_compressed, max_lambda1, verify_star_regime
from cubespectra.spectral import SpectralResult, classic_bounds, lambda1


def full_member_scan(s, members):
    """True when every shadow s - {e} and every left shift
    s - {hi} + {lo}, lo < hi, of s lies in `members`: all O(|s| d) of
    them, not only the adjacent shifts."""
    for hi in range(s.bit_length()):
        if s >> hi & 1:
            if s ^ 1 << hi not in members:
                return False
            for lo in range(hi):
                if not s >> lo & 1 and s ^ 1 << hi | 1 << lo not in members:
                    return False
    return True


def recursive_enumeration(n, cap_dim):
    """Reference order: the recursive DFS that scans every member for its
    first non-member above its maximum at each node, then recurses on the
    valid offers in increasing order."""
    top = 1 << min(cap_dim, max(n - 1, 1))
    members = {0}

    def rec(last):
        if len(members) == n:
            yield tuple(sorted(members))
            return
        cands = set()
        for s in members:
            bit = 1 << s.bit_length()
            while s | bit in members:
                bit <<= 1
            if bit < top and s | bit > last:
                cands.add(s | bit)
        for v in sorted(cands):
            if full_member_scan(v, members):
                members.add(v)
                yield from rec(v)
                members.remove(v)

    yield from rec(0)


def test_enumeration_base_cases():
    assert [frozenset(ms) for ms in enumerate_compressed(1, 1)] == [frozenset([0])]
    assert [frozenset(ms) for ms in enumerate_compressed(2, 3)] == [frozenset([0, 1])]
    with pytest.raises(ValueError):
        list(enumerate_compressed(5, 2))   # 5 > 2^2


def test_enumeration_order_matches_recursive_reference():
    cases = 0
    for n in range(1, 23):
        for cap in sorted({1, 2, 3, 5, n - 1}):
            if cap >= 1 and n <= 2**cap:
                assert (list(enumerate_compressed(n, cap))
                        == list(recursive_enumeration(n, cap))), (n, cap)
                cases += 1
    assert cases == 53


def test_enumeration_matches_brute_filter():
    # oracle: filter all down-closed shift-stable n-subsets of P({1..4})
    for n in range(1, 9):
        brute = sorted(
            frozenset(combo)
            for combo in itertools.combinations(range(16), n)
            if brute_is_compressed(combo, 4)
        )
        enum = sorted(frozenset(ms) for ms in enumerate_compressed(n, 4))
        assert enum == brute, n


def test_enumeration_families_are_compressed_and_unique():
    for n in (6, 9, 12):
        seen = set()
        for ms in enumerate_compressed(n, n - 1):
            fam = VertexFamily(n - 1, frozenset(ms))
            assert len(fam) == n
            assert is_compressed(fam)[0]
            assert fam.members not in seen
            seen.add(fam.members)
        # members use elements <= n-1 and sizes <= log2 n
        for members in seen:
            assert all(v < (1 << (n - 1)) for v in members)
            assert max(v.bit_count() for v in members) <= n.bit_length()


def test_max_lambda1_examples():
    res = max_lambda1(4, 4)
    assert abs(res.best_lambda1 - 2.0) < 1e-8
    assert res.maximizer.members == frozenset([0, 1, 2, 3])   # the 4-cycle
    assert not res.restricted and res.complete
    res = max_lambda1(2, 5)
    assert abs(res.best_lambda1 - 1.0) < 1e-9


def test_max_lambda1_against_full_brute_force():
    # every 5-subset of Q_4 versus the compressed search
    best = max(brute_lambda1(combo, 4)
               for combo in itertools.combinations(range(16), 5))
    res = max_lambda1(5, 4)
    assert abs(best - res.best_lambda1) < 1e-8


def test_max_lambda1_monotone_in_n():
    values = [max_lambda1(n, 5).best_lambda1 for n in range(1, 11)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def test_restricted_and_budget_flags():
    res = max_lambda1(6, 4)    # d < n - 1: compressed search is Q_4-local
    assert res.restricted
    res = max_lambda1(6, 6, max_families=1)
    assert not res.complete
    assert res.search_space_size == 1


def test_runner_ups_ordering():
    res = max_lambda1(4, 4, top_k=2)
    assert len(res.runner_ups) == 1      # only two compressed 4-families
    value, fam = res.runner_ups[0]
    assert abs(value - sqrt(3)) < 1e-8
    assert fam.members == frozenset([0, 1, 2, 4])


def test_verify_star_regime():
    rows = verify_star_regime(range(2, 9), 8)
    by_n = {row["n"]: row for row in rows}
    assert by_n[2]["star_is_maximizer"]
    assert abs(by_n[2]["best_lambda1"] - 1.0) < 1e-9
    # n = 4: the 4-cycle beats the star
    assert not by_n[4]["star_is_maximizer"]
    assert abs(by_n[4]["best_lambda1"] - 2.0) < 1e-8
    assert by_n[4]["winner"] == (0, 1, 2, 3)
    # n = 8: the winner is the full 3-cube, eigenvalue 3
    assert by_n[8]["winner"] == tuple(range(8))
    assert abs(by_n[8]["best_lambda1"] - 3.0) < 1e-8
    with pytest.raises(ValueError):
        verify_star_regime([9], 8)


def test_search_space_counts_are_stable():
    # frozen sizes of the compressed search space (canonical generation)
    counts = {n: sum(1 for _ in enumerate_compressed(n, min(16, n - 1)))
              for n in range(2, 14)}
    assert counts == {2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 4, 8: 6, 9: 7,
                      10: 10, 11: 13, 12: 18, 13: 23}
    counts = {n: sum(1 for _ in enumerate_compressed(n, n - 1))
              for n in (28, 32, 36)}
    assert counts == {28: 1180, 32: 3140, 36: 8185}


def certify_all(n, d, tol=1e-10, top_k=3, max_families=None):
    """Reference search: `lambda1` on every enumerated family, then rank
    by lower end; maximizers are the intervals reaching the best lower
    end, runner-ups the next `top_k` others."""
    evaluated = []
    visited = 0
    complete = True
    cap_dim = min(d, max(n - 1, 1))
    for ms in enumerate_compressed(n, cap_dim):
        if max_families is not None and visited >= max_families:
            complete = False
            break
        visited += 1
        fam = VertexFamily(cap_dim, frozenset(ms))
        evaluated.append((lambda1(fam, tol).interval(), ms))
    evaluated.sort(key=lambda pair: (-pair[0][0], pair[1]))
    best = evaluated[0][0][0]
    maximizers = tuple(VertexFamily(d, frozenset(ms))
                       for (_, hi), ms in evaluated if hi >= best)
    runner_ups = tuple((lo, VertexFamily(d, frozenset(ms)))
                       for (lo, hi), ms in evaluated if hi < best)[:top_k]
    return search.SearchResult(n, d, best, maximizers, runner_ups, visited,
                               d < n - 1, complete)


def universe_rows(families):
    """Member tuples as `_screen` takes them: an (F, U) boolean member
    matrix over the U ascending vertices the families use."""
    verts = sorted({v for ms in families for v in ms})
    rows = np.array([[v in ms for v in verts] for ms in map(set, families)])
    return rows, np.array(verts, dtype=np.uint64)


def result_fields(res):
    """Every field of a SearchResult, floats by repr."""
    return (res.n, res.d, repr(res.best_lambda1),
            [(f.d, f.sorted_members()) for f in res.maximizers],
            [(repr(v), f.d, f.sorted_members()) for v, f in res.runner_ups],
            res.search_space_size, res.restricted, res.complete)


SCREEN_CASES = ([(n, max(n - 1, 1), None) for n in range(1, 21)]
                + [(6, 4, None), (9, 4, None), (12, 5, None), (16, 6, None),
                   (20, 8, None), (24, 12, None)]
                + [(14, 13, 1), (18, 17, 5), (20, 19, 40), (20, 6, 9)])


@pytest.mark.parametrize("top_k", [0, 1, 3, 10])
def test_screened_search_matches_certify_all(top_k):
    for n, d, budget in SCREEN_CASES:
        expected = certify_all(n, d, top_k=top_k, max_families=budget)
        got = max_lambda1(n, d, top_k=top_k, max_families=budget)
        assert result_fields(got) == result_fields(expected), (n, d, budget)


def test_screened_search_matches_certify_all_with_ties():
    # No compressed family with n < 16 has two maximizers at tol = 1e-10;
    # at a wide tol several do, and the tied maximizers set which
    # families can still be runner-ups.
    tied = 0
    for n in range(2, 16):
        for top_k in (0, 3):
            expected = certify_all(n, n - 1, tol=0.1, top_k=top_k)
            got = max_lambda1(n, n - 1, tol=0.1, top_k=top_k)
            assert result_fields(got) == result_fields(expected), (n, top_k)
            tied += len(got.maximizers) > 1
    assert tied >= 4


def test_screened_search_matches_certify_all_below_rounding():
    # No interval converges at tol = 1e-300: each one stops at lambda1's
    # rounding floor, which the screen's stop test must allow for, and
    # which is at most (8n + 40) 2**-53 u.
    for n in range(2, 16):
        families = list(enumerate_compressed(n, n - 1))
        for u, ms in zip(search._screen(*universe_rows(families)), families):
            res = lambda1(VertexFamily(n - 1, frozenset(ms)), tol=1e-300)
            assert not res.converged
            assert res.error_bound <= (8 * n + 40) * 2.0**-53 * u
        for top_k in (0, 3):
            expected = certify_all(n, n - 1, tol=1e-300, top_k=top_k)
            got = max_lambda1(n, n - 1, tol=1e-300, top_k=top_k)
            assert result_fields(got) == result_fields(expected), (n, top_k)


def test_families_with_equal_lambda1_tie():
    # Lower ends that agree to 1e-12 come from equal eigenvalues; their
    # intervals must overlap, or rounding would split a tie.
    groups = 0
    for n in range(2, 21):
        rows = sorted(lambda1(VertexFamily(n - 1, frozenset(ms))).interval()
                      for ms in enumerate_compressed(n, n - 1))
        start = 0
        for i in range(1, len(rows) + 1):
            if i == len(rows) or rows[i][0] - rows[i - 1][0] >= 1e-12:
                group = rows[start:i]
                if len(group) > 1:
                    groups += 1
                    assert max(lo for lo, _ in group) <= min(hi for _, hi in group), n
                start = i
    assert groups >= 100


def test_one_maximizer_up_to_28():
    # The maximum is attained by one compressed family for n = 13..28 at
    # d = n - 1, and the next family is more than 1e-9 below it.
    for n in range(13, 29):
        res = max_lambda1(n, n - 1, top_k=1)
        assert len(res.maximizers) == 1, n
        assert res.best_lambda1 - res.runner_ups[0][0] > 1e-9, n


def test_maximizers_need_not_lead_the_lower_end_order(monkeypatch):
    # n = 7 has four compressed families; give the one ranked third by
    # lower end an interval wide enough to reach the best lower end.
    fams = list(enumerate_compressed(7, 6))
    intervals = dict(zip(fams, [(2.0, 2.01), (1.9, 1.91), (1.8, 2.05),
                                (1.7, 1.71)]))

    def crafted(fam, tol):
        lo, hi = intervals[fam.sorted_members()]
        return SpectralResult(lo, hi - lo, None, 0, "crafted", hi - lo <= tol)

    monkeypatch.setattr(search, "lambda1", crafted)
    res = max_lambda1(7, 6, tol=0.5, top_k=2)
    assert [f.sorted_members() for f in res.maximizers] == [fams[0], fams[2]]
    assert [(v, f.sorted_members()) for v, f in res.runner_ups] == [
        (1.9, fams[1]), (1.7, fams[3])]
    assert res.best_lambda1 == 2.0


def test_screen_certifies_few_families(monkeypatch):
    calls = []

    def counted(fam, tol):
        calls.append(fam)
        return lambda1(fam, tol)

    monkeypatch.setattr(search, "lambda1", counted)
    res = max_lambda1(28, 27)
    assert len(calls) < 0.05 * res.search_space_size


def test_screen_certifies_as_few_families_as_before(monkeypatch):
    # The bench's searches, n = 8..28 at d = n - 1, sent 96 families to
    # `lambda1` with 12 power steps on A + I.
    calls = []

    def counted(fam, tol):
        calls.append(fam)
        return lambda1(fam, tol)

    monkeypatch.setattr(search, "lambda1", counted)
    for n in range(8, 29):
        max_lambda1(n, n - 1)
    assert len(calls) <= 96


def even_neighbour_degree_sum(fam):
    """max over even members v of the sum of deg w over neighbours w of v:
    the largest row sum of B B^T."""
    g = cube_graph(fam)
    deg = np.diff(g.indptr)
    return max(int(deg[g.indices[g.indptr[k]:g.indptr[k + 1]]].sum())
               for k, v in enumerate(g.vertices.tolist())
               if v.bit_count() % 2 == 0)


@pytest.mark.parametrize("steps", [None, 0, 1, 200])
def test_screen_bounds_every_lower_end(monkeypatch, steps):
    # The screen's bound reaches the lower end `lambda1` computes on every
    # family, after the committed number of steps on B B^T, after 0 (the
    # square root of B B^T's largest row sum) or 1, and after 200, where
    # the ratio meets lambda1^2 to within rounding and only the screen's
    # round-up keeps it above.
    if steps is not None:
        monkeypatch.setattr(search, "SCREEN_STEPS", steps)
    for n in range(1, 17):
        fams = [VertexFamily(max(n - 1, 1), frozenset(ms))
                for ms in enumerate_compressed(n, max(n - 1, 1))]
        bounds = search._screen(*universe_rows([f.sorted_members()
                                                 for f in fams]))
        for fam, u in zip(fams, bounds):
            assert u >= lambda1(fam).interval()[0], (n, fam.sorted_members())
            if steps == 0:
                assert 0 <= u - sqrt(even_neighbour_degree_sum(fam)) < 1e-12
                assert u <= classic_bounds(fam)["fms"] + 1e-12


def test_screen_bounds_the_exact_lambda1(monkeypatch):
    # lambda1 at 40 digits from each family's adjacency matrix (mpmath, an
    # oracle that shares no code with the screen) on every compressed
    # family with n <= 14 at d = n - 1, and on a block whose second family,
    # connected but not compressed, lacks the even vertex 0 of the first
    # and holds its four odd neighbours.  After 200 steps the bound meets
    # lambda1 to within rounding, so the screen runs each family's own
    # B B^T.
    import mpmath
    cases = [list(enumerate_compressed(n, max(n - 1, 1))) for n in range(1, 15)]
    cases.append([(0, 1), (1, 2, 3, 4, 8, 9, 12)])
    bounds = [search._screen(*universe_rows(families)) for families in cases]
    monkeypatch.setattr(search, "SCREEN_STEPS", 200)
    for families, loose in zip(cases, bounds):
        tight = search._screen(*universe_rows(families))
        for ms, u, t in zip(families, loose.tolist(), tight.tolist()):
            adjacency = [[int((v ^ w).bit_count() == 1) for w in ms]
                         for v in ms]
            with mpmath.workdps(40):
                exact = max(mpmath.eigsy(mpmath.matrix(adjacency),
                                         eigvals_only=True))
                assert mpmath.mpf(u) >= exact, ms
                assert exact <= mpmath.mpf(t) <= exact * (1 + 1e-12), ms


class DivideRecorder:
    """numpy, as `search` sees it, with a copy of the operands of each
    `divide(y, x, ...)` call kept: the screen's x and y = B B^T x."""

    def __init__(self):
        self.operands = []

    def __getattr__(self, name):
        return getattr(np, name)

    def divide(self, y, x, **kwargs):
        self.operands.append((y.copy(), x.copy()))
        return np.divide(y, x, **kwargs)


def exact_bbt(members):
    """x -> B B^T x in Python ints, x a list over the ascending even
    members of the family `members`."""
    fam = set(members)
    bits = max(members).bit_length()
    even = [v for v in members if v.bit_count() % 2 == 0]
    at = {v: i for i, v in enumerate(even)}
    odd_nbrs = [[w for w in (v ^ 1 << k for k in range(bits)) if w in fam]
                for v in even]
    even_nbrs = {w: [at[u] for u in (w ^ 1 << k for k in range(bits))
                     if u in at]
                 for w in {w for ws in odd_nbrs for w in ws}}

    def bbt(x):
        s = {w: sum(x[i] for i in us) for w, us in even_nbrs.items()}
        return [sum(s[w] for w in ws) for ws in odd_nbrs]
    return bbt, len(even)


def test_screen_steps_match_an_exact_integer_oracle(monkeypatch):
    # The screen's steps rerun in Python ints from the ones on each
    # family's even members: its float x is the integer x wherever that
    # stays below 2**53, and its bound u reaches the exact
    # Collatz-Wielandt ratio max_v (B B^T x)_v / x_v at its own x.  On
    # every family of n = 8..28 at d = n - 1 and on three blocks of the
    # walk at (40, 10).
    from fractions import Fraction
    blocks = [block for n in range(8, 29) for block in search._walk(n, n - 1)]
    blocks += list(search._walk(40, 10))[1::3]
    recorder = DivideRecorder()
    monkeypatch.setattr(search, "np", recorder)
    compared = 0
    for rows, verts in blocks:
        recorder.operands.clear()
        bounds = search._screen(rows, verts).tolist()
        xs = np.concatenate([x for _, x in recorder.operands])
        assert len(xs) == len(rows) == len(bounds)
        for row, u, xf in zip(rows, bounds, xs):
            members = verts[row].tolist()
            bbt, evens = exact_bbt(members)
            x = [1] * evens
            for _ in range(search.SCREEN_STEPS):
                x = bbt(x)
            got = xf[xf != 0].tolist()
            assert len(got) == evens and all(h.is_integer() for h in got)
            for want, have in zip(x, got):
                if want < 2**53:
                    assert have == want, members
                    compared += 1
            got = [int(h) for h in got]
            square = Fraction(u) ** 2
            assert all(square >= Fraction(y, h)
                       for y, h in zip(bbt(got), got)), members
    assert compared >= 30000


@pytest.mark.parametrize("rows", [1, 3])
def test_screen_products_keep_the_search(monkeypatch, rows):
    # Products of one or of three rows at a time leave every bound a
    # bound, and the search its result.
    screen = search._screen

    def sized(members, verts):
        odd = np.bitwise_count(verts[members.any(axis=0)]) & 1
        monkeypatch.setattr(search, "SCREEN_PRODUCT",
                            rows * int(odd.sum()) * int((1 - odd).sum()))
        return screen(members, verts)

    monkeypatch.setattr(search, "_screen", sized)
    for n, d in ((20, 19), (28, 27), (30, 8)):
        assert (result_fields(max_lambda1(n, d))
                == result_fields(certify_all(n, d))), (n, d)


def test_walk_matches_recursive_reference_on_wide_universes():
    # the universe of n = 26 is the first to need two words, and that of
    # n = 41 (26,424 families) the first to need three
    for n in (26, 41):
        assert (list(enumerate_compressed(n, n - 1))
                == list(recursive_enumeration(n, n - 1))), n


@pytest.mark.parametrize("rows", [1, 3])
def test_walk_blocks_keep_the_families_and_their_order(monkeypatch, rows):
    for n, cap in ((20, 19), (28, 27), (30, 8)):
        want = list(enumerate_compressed(n, cap))
        universe = search._universe(n, 1 << min(cap, n - 1))[0]
        words = -(-len(universe) // 64)
        monkeypatch.setattr(search, "WALK_WORDS", rows * n * words)
        assert list(enumerate_compressed(n, cap)) == want, (n, cap)


def leaves_on(core, count):
    """The sorted members of `core` with the singletons below bit
    `count`."""
    return tuple(sorted({*core, *(1 << k for k in range(count))}))


@pytest.mark.parametrize("budget, size, complete, best, maxima, runners", [
    (1, 1, False, "4.1357792050698485", [tuple(range(20))], []),
    (154, 154, False, "4.271558410139709", [leaves_on({0, 3}, 18)],
     [("4.189252252523199", leaves_on({0, 3, 5}, 17)),
      ("4.1357792050698485", tuple(range(20))),
      ("4.114389776172824", leaves_on({0, 3, 5, 6}, 16))]),
    (155, 155, True, "4.358898943540669", [leaves_on({0}, 19)],
     [("4.271558410139709", leaves_on({0, 3}, 18)),
      ("4.189252252523199", leaves_on({0, 3, 5}, 17)),
      ("4.1357792050698485", tuple(range(20)))]),
    (156, 155, True, "4.358898943540669", [leaves_on({0}, 19)],
     [("4.271558410139709", leaves_on({0, 3}, 18)),
      ("4.189252252523199", leaves_on({0, 3, 5}, 17)),
      ("4.1357792050698485", tuple(range(20)))]),
])
def test_budget_cuts_the_walk_where_it_did(budget, size, complete, best,
                                           maxima, runners):
    # n = 20 has 155 compressed families; a budget keeps the first ones
    res = max_lambda1(20, 19, max_families=budget)
    assert (res.search_space_size, res.complete) == (size, complete)
    assert repr(res.best_lambda1) == best
    assert [f.sorted_members() for f in res.maximizers] == maxima
    assert [(repr(v), f.sorted_members()) for v, f in res.runner_ups] == runners


def test_tied_bounds_certify_in_member_order(monkeypatch):
    # Bounds above every lower end never stop the certification, so every
    # family is certified, by decreasing bound and, among equal bounds,
    # in the order of the members.
    calls = []

    def counted(fam, tol):
        calls.append(fam.sorted_members())
        return lambda1(fam, tol)

    def bound(rows, verts):
        return 9.0 + (rows * verts).sum(axis=1) % 3

    monkeypatch.setattr(search, "lambda1", counted)
    monkeypatch.setattr(search, "_screen", bound)
    for n in (12, 23):
        calls.clear()
        res = max_lambda1(n, n - 1)
        fams = list(enumerate_compressed(n, n - 1))
        assert calls == sorted(fams, key=lambda ms: (-(9 + sum(ms) % 3), ms))
        assert result_fields(res) == result_fields(certify_all(n, n - 1))


def test_trigger_is_the_largest_prerequisite():
    for w in range(1, 1 << 16):
        low = w & -w
        assert max(_prerequisites(w)) == (w - 1 if w & 1 else w - low // 2), w


def test_universe_is_every_vertex_with_a_small_down_set():
    def down_set_fits(v, n):
        seen, todo = {v}, [v]
        while todo and len(seen) <= n:
            for p in _prerequisites(todo.pop()):
                if p not in seen:
                    seen.add(p)
                    todo.append(p)
        return len(seen) <= n

    for n, cap in [(n, n - 1) for n in range(2, 15)] + [(20, 6), (30, 5)]:
        top = 1 << min(cap, n - 1)
        assert (search._universe(n, top)[0]
                == [v for v in range(top) if down_set_fits(v, n)]), (n, cap)


def test_universe_down_sets_match_the_definition():
    # `brute_down_set` closes under every shadow and swap, not under
    # `_prerequisites`
    for n, cap in [(n, n - 1) for n in range(2, 15)] + [(20, 6), (30, 5)]:
        top = 1 << min(cap, n - 1)
        verts, _, needs = search._universe(n, top)
        assert verts == [v for v in range(top)
                         if brute_down_set(v).bit_count() <= n], (n, cap)
        for w, need in zip(verts[1:], needs):
            down = sum(1 << v for i, v in enumerate(verts) if need >> i & 1)
            assert down | 1 << w == brute_down_set(w), (n, cap, w)
