"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they print.  Two criteria were first written with expectations that the
mathematics refutes; they now assert the true values and keep each
refuted claim as a passing check of its negation (findings):

* criterion 2: the ball of radius 4 in dimension 16 does not have
  eigenvalue 12.  The parabolic level profile w_j = (j - d/2)^2 - d/4
  satisfies j w_{j-1} + (d - j) w_{j+1} = (d - 4) w_j, is positive up to
  level d/2 - sqrt(d)/2 - 1 = 5 and vanishes at level 6, so 12 = d - 4
  is the eigenvalue of the radius-5 ball.  B(16, 4) is a proper induced
  subgraph of the connected B(16, 5), so its eigenvalue lies strictly
  below 12: 10.623020783715..., from the level quotient matrix, a dense
  eigensolver on the full 2517-vertex ball, and both library routes.

* criterion 9: the (d+1)-vertex Hamming ball of radius 1 (the star) is
  not the (d+1)-vertex maximizer for d <= 16; the initial segment wins
  there (e.g. the full 3-cube with eigenvalue 3 > sqrt(7) at d = 7, and
  4.0166667 > sqrt(16) = 4 at d = 16).  From d = 17 on the star wins,
  which the criterion confirms for d in 17..24.
"""

import itertools
import math
import random
import time
from math import sqrt

import numpy as np
from conftest import brute_lambda1
from cubespectra.compress import WeightVector, compress_vector_uv, fully_compress, rayleigh
from cubespectra.core import VertexFamily, hamming_ball, initial_segment, star_family
from cubespectra.search import (
    build_partition,
    enumerate_compressed,
    epsilon_preset_sqrt,
    max_lambda1,
    verify_partition,
)
from cubespectra.spectral import (
    count_p2_c4,
    hamming_lambda1_exact,
    hamming_upper_bound,
    hamming_walk_lower_bound,
    lambda1,
    limit_constant,
)
from cubespectra.subcubes import (
    count_subcubes,
    initial_count,
    subcube_bound_integer,
    subcube_bound_smooth,
)


def report(num: int, passed: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_01_half_radius_values():
    start = time.perf_counter()
    ok = abs(hamming_lambda1_exact(6, 2).lambda1 - 4.0) <= 1e-9
    for d in range(4, 21, 2):
        res = hamming_lambda1_exact(d, d // 2 - 1)
        ok &= abs(res.lambda1 - (d - 2)) <= 1e-9
        ok &= res.error_bound <= 1e-9
        w0 = res.level_weights[0]
        for j, w in enumerate(res.level_weights):
            ok &= abs(w / w0 - (1 - 2 * j / d)) <= 1e-9
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0,
           f"half-radius ball eigenvalues d-2 with linear level weights "
           f"({elapsed:.2f}s)")
    assert ok
    assert elapsed < 1.0


def level_quotient_lambda1(d: int, radius: int) -> float:
    """Top eigenvalue of the level quotient matrix of the Hamming ball
    B(d, radius): a vertex at level j has j neighbours at level j - 1 and
    d - j at level j + 1."""
    quotient = np.zeros((radius + 1, radius + 1))
    for j in range(radius + 1):
        if j > 0:
            quotient[j, j - 1] = j
        if j < radius:
            quotient[j, j + 1] = d - j
    return float(np.linalg.eigvals(quotient).real.max())


def test_criterion_02_radius_four_dimension_sixteen():
    start = time.perf_counter()
    reference = level_quotient_lambda1(16, 4)
    exact = hamming_lambda1_exact(16, 4).lambda1
    power = lambda1(hamming_ball(16, 4), tol=1e-7).lambda1
    radius_five = hamming_lambda1_exact(16, 5).lambda1
    elapsed = time.perf_counter() - start
    ok = abs(exact - reference) <= 1e-8 and abs(power - reference) <= 1e-6
    ok &= abs(radius_five - 12.0) <= 1e-9 and exact < 12.0
    report(2, ok and elapsed < 10.0,
           f"(d=16, i=4): quotient={reference:.12f}, exact={exact:.12f}, "
           f"power={power:.12f}; finding: 12 = d-4 is attained at radius 5 "
           f"(exact={radius_five:.12f}), not at radius 4 ({elapsed:.2f}s)")
    assert abs(exact - power) <= 1e-6, "solver routes must agree"
    assert abs(exact - reference) <= 1e-8
    assert abs(power - reference) <= 1e-6
    assert abs(radius_five - 12.0) <= 1e-9, (
        "the d-4 law holds at radius d/2 - sqrt(d)/2 - 1 = 5")
    assert exact < 12.0, (
        "B(16, 4) is a proper induced subgraph of the connected B(16, 5)")
    assert elapsed < 10.0


def test_criterion_03_star_values_and_four_vertex_winner():
    start = time.perf_counter()
    ok = True
    for m in range(1, 21):
        res = lambda1(star_family(20, m))
        ok &= abs(res.lambda1 - sqrt(m)) <= 1e-10
    res = max_lambda1(4, 4)
    ok &= abs(res.best_lambda1 - 2.0) <= 1e-8
    ok &= res.maximizer.members == frozenset([0, 1, 2, 3])
    ok &= res.best_lambda1 > sqrt(3)
    elapsed = time.perf_counter() - start
    report(3, ok, f"star eigenvalues sqrt(m) and the 4-cycle beating "
                  f"sqrt(3) at n=4 ({elapsed:.2f}s)")
    assert ok


def test_criterion_04_bound_sandwich_grid():
    start = time.perf_counter()
    violations = []
    for d in (8, 16, 32, 64):
        for i in range(1, d // 2 + 1):
            exact = hamming_lambda1_exact(d, i).lambda1
            upper = hamming_upper_bound(d, i)
            coarse = 2.0 * sqrt(i * d)
            if not (exact <= upper + 1e-9 and upper <= coarse + 1e-9):
                violations.append((d, i, "upper"))
            for k in range(1, i):
                if hamming_walk_lower_bound(d, i, k) > exact + 1e-9:
                    violations.append((d, i, k))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 30.0
    report(4, ok, f"walk lower bound <= exact <= band bounds over the grid, "
                  f"{len(violations)} violations ({elapsed:.2f}s)")
    assert not violations
    assert elapsed < 30.0


def test_criterion_05_ratio_trend():
    ratios = []
    for i in (2, 4, 8, 16, 32, 64):
        d = 4 * i
        ratios.append(hamming_lambda1_exact(d, i).lambda1
                      / hamming_upper_bound(d, i))
    increasing = all(a < b for a, b in zip(ratios, ratios[1:]))
    floor_ok = all(
        ratios[idx] >= 1 - 2 * sqrt(math.log(i) / i)
        for idx, i in enumerate((2, 4, 8, 16, 32, 64)) if i >= 16
    )
    ok = increasing and floor_ok
    report(5, ok, f"exact/upper ratio increasing toward 1: "
                  f"{[f'{r:.4f}' for r in ratios]}")
    assert ok


def test_criterion_06_limit_constants():
    ok = abs(limit_constant(1) - 1.0) <= 1e-10
    ok &= abs(limit_constant(2) - sqrt(3)) <= 1e-10
    values = [limit_constant(i) for i in range(1, 9)]
    ok &= all(a < b for a, b in zip(values, values[1:]))
    details = []
    for i in (1, 2, 3):
        lam = limit_constant(i)
        errs = [abs(hamming_lambda1_exact(d, i).lambda1 / sqrt(d) - lam) * d
                for d in (100, 1000, 10000)]
        if max(errs) < 1e-6:
            details.append(f"i={i}: error identically ~0")
        else:
            ok &= max(errs) / min(errs) <= 3.0
            details.append(f"i={i}: err*d in [{min(errs):.4f}, {max(errs):.4f}]")
    report(6, ok, "limit constants and the 1/d rate: " + "; ".join(details))
    assert ok


def test_criterion_07_compression_monotonicity():
    start = time.perf_counter()
    rng = random.Random(0)
    steps = [(1 << (i - 1), 0) for i in range(1, 7)]
    steps += [(1 << (hi - 1), 1 << (lo - 1))
              for lo in range(1, 7) for hi in range(1, 7) if hi != lo]
    violations = 0
    for _ in range(1000):
        vec = WeightVector(6, {v: rng.gauss(0, 1) for v in range(64)})
        value = rayleigh(vec)
        for u, v in steps:
            out = compress_vector_uv(vec, u, v)
            after = rayleigh(out)
            if after < value - 1e-12:
                violations += 1
            if sorted(out.weights.values()) != sorted(vec.weights.values()):
                violations += 1
            vec, value = out, after
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 10.0
    report(7, ok, f"1000 random vectors on the 6-cube, every down-step and "
                  f"swap step monotone, {violations} violations ({elapsed:.2f}s)")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_08_subcube_bound_chain():
    start = time.perf_counter()
    bad = 0
    for bits in range(1, 1 << 16):
        members = frozenset(j for j in range(16) if bits >> j & 1)
        fam = VertexFamily(4, members)
        n = len(members)
        for dp in range(5):
            count = count_subcubes(fam, dp).count
            exact = initial_count(n, dp).count
            smooth = subcube_bound_smooth(n, dp)
            coarse = subcube_bound_integer(n, dp)
            if not (count <= exact and exact <= smooth + 1e-9):
                bad += 1
            if smooth > coarse + 1e-9:
                bad += 1
    rng = random.Random(1)
    for _ in range(10**4):
        members = frozenset(rng.sample(range(32), rng.randint(1, 32)))
        fam = VertexFamily(5, members)
        n = len(members)
        for dp in range(6):
            if count_subcubes(fam, dp).count > initial_count(n, dp).count:
                bad += 1
    for n in range(33):
        for dp in range(6):
            if initial_count(n, dp).count != count_subcubes(
                    initial_segment(n, 5), dp).count:
                bad += 1
    elapsed = time.perf_counter() - start
    ok = bad == 0 and elapsed < 60.0
    report(8, ok, f"count <= initial <= smooth <= coarse over the 4-cube "
                  f"exhaustively and 10^4 random 5-cube families, "
                  f"{bad} violations ({elapsed:.2f}s)")
    assert bad == 0
    assert elapsed < 60.0


def test_criterion_09_search_oracle_and_star_confirmation():
    start = time.perf_counter()
    edges = [(u, u ^ (1 << b)) for u in range(16) for b in range(4)
             if u < u ^ (1 << b)]
    best_by_n = {}
    for bits in range(1, 1 << 16):
        members = [j for j in range(16) if bits >> j & 1]
        n = len(members)
        index = {v: k for k, v in enumerate(members)}
        mat = np.zeros((n, n))
        for u, v in edges:
            if u in index and v in index:
                mat[index[u], index[v]] = mat[index[v], index[u]] = 1.0
        lam = float(np.linalg.eigvalsh(mat)[-1])
        if lam > best_by_n.get(n, -1.0):
            best_by_n[n] = lam
    oracle_ok = True
    for n in range(1, 17):
        value = max_lambda1(n, 4).best_lambda1
        if abs(value - best_by_n[n]) > 1e-8:
            oracle_ok = False

    star_rows = []
    star_ok = True
    for d in range(5, 25):
        res = max_lambda1(d + 1, d)
        star = frozenset([0] + [1 << j for j in range(d)])
        is_star = any(f.members == star for f in res.maximizers)
        if d >= 17:
            star_ok &= is_star and abs(res.best_lambda1 - sqrt(d)) <= 1e-8
            star_rows.append(f"d={d}: best={res.best_lambda1:.4f} "
                             f"sqrt(d)={sqrt(d):.4f} star={is_star}")
        else:
            segment = brute_lambda1(initial_segment(d + 1, d).members, d)
            star_ok &= not is_star and segment > sqrt(d)
            star_ok &= abs(res.best_lambda1 - segment) <= 1e-8
            star_rows.append(f"d={d}: segment={segment:.7f} "
                             f"sqrt(d)={sqrt(d):.7f} star={is_star}")
    elapsed = time.perf_counter() - start
    ok = oracle_ok and star_ok
    report(9, ok, f"oracle equivalence over the 4-cube "
                  f"{'PASS' if oracle_ok else 'FAIL'}; star is a maximizer "
                  f"for d in 17..24 and, as a finding, loses to "
                  f"the initial segment for d in 5..16 "
                  f"{'PASS' if star_ok else 'FAIL'} ({'; '.join(star_rows)}) "
                  f"({elapsed:.2f}s)")
    assert oracle_ok, "compressed search must match the brute-force maximum"
    assert star_ok, (
        "expected the initial segment to win for d in 5..16 and the "
        "radius-1 ball to win with sqrt(d) for d in 17..24; exhaustive "
        "witnesses: " + "; ".join(star_rows))


def test_criterion_10_partition_certificates():
    start = time.perf_counter()
    failures = 0
    checked = 0
    for n in range(1, 33):
        for ms in enumerate_compressed(n, 5):
            fam = VertexFamily(5, frozenset(ms))
            cert = build_partition(fam, epsilon_preset_sqrt(5, n))
            rep = verify_partition(cert, fam)
            checked += 1
            if cert.degenerate or not rep.all_passed:
                failures += 1
    rng = random.Random(2)
    for _ in range(10**3):
        members = frozenset(rng.sample(range(256), rng.randint(1, 128)))
        fam, _ = fully_compress(VertexFamily(8, members))
        cert = build_partition(fam, epsilon_preset_sqrt(8, len(fam)))
        rep = verify_partition(cert, fam)
        checked += 1
        if cert.degenerate or not rep.all_passed:
            failures += 1

    control = hamming_ball(8, 1)
    cert = build_partition(control, 0.5)
    moved = sorted(cert.centers[0])[-1]
    cert.centers = (cert.centers[0] - {moved}, cert.centers[1] | {moved})
    control_ok = not verify_partition(cert, control).parts[1].passed

    elapsed = time.perf_counter() - start
    ok = failures == 0 and control_ok and elapsed < 120.0
    report(10, ok, f"{checked} certificates verified with zero failures; "
                   f"corrupted control caught: {control_ok} ({elapsed:.2f}s)")
    assert failures == 0
    assert control_ok
    assert elapsed < 120.0


def test_criterion_11_quartic_walk_bound():
    start = time.perf_counter()
    bad = 0
    for bits in range(1, 1 << 16):
        if bits.bit_count() > 12:
            continue
        members = frozenset(j for j in range(16) if bits >> j & 1)
        counts = count_p2_c4(VertexFamily(4, members))
        lam = brute_lambda1(members, 4)
        if lam**4 > counts.edges + 2 * counts.p2 + 4 * counts.c4 + 1e-6:
            bad += 1
    square = count_p2_c4(initial_segment(4, 2))
    equality = abs(2.0**4 - (square.edges + 2 * square.p2 + 4 * square.c4)) < 1e-12
    elapsed = time.perf_counter() - start
    ok = bad == 0 and equality
    report(11, ok, f"lambda1^4 <= edges + 2 p2 + 4 c4 exhaustively on the "
                   f"4-cube, {bad} violations, equality on the square: "
                   f"{equality} ({elapsed:.2f}s)")
    assert bad == 0
    assert equality
