"""Largest-eigenvalue computation and bounds for induced cube subgraphs.

Three solvers live here:

* `lambda1` -- power iteration on M = B B^T over the even side.  Q_d is
  bipartite between the sets of even and odd size, so with the even
  members first A = [[0, B], [B^T, 0]], and lambda1^2 is the top
  eigenvalue of M (the Golub-Kahan route, on vectors of about half the
  length).  For positive x the Rayleigh quotient bounds lambda1(M) from
  below and the Collatz-Wielandt ratio max_v (Mx)_v / x_v from above;
  their square roots, rounded outward by a margin derived from the sums
  the code performs, are a certified interval in floating point, and
  the iteration stops on its width.  Up to 64 vertices M is dense,
  formed by an XOR test on the family's `vertices` (`_bipartite_dense`,
  which `search`'s screen also runs on the vertices a block of families
  uses).  Above that M is applied through sparse B and B^T: the block
  with the smaller side as rows, from one bit-flip lookup per row, and
  its transpose.  The iteration starts from a Lanczos Ritz vector
  (method "lanczos"), which leaves it a handful of steps instead of a
  few hundred; the certificate does not depend on the start.

* `hamming_lambda1_exact` -- the Hamming ball's Perron vector is uniform
  on each level, which collapses the eigenproblem to an (i+1)x(i+1)
  tridiagonal system with sub-diagonal j and super-diagonal d-j.  A
  diagonal similarity makes it symmetric with off-diagonals
  sqrt(j(d-j+1)); the top eigenvalue is then isolated by bisection on
  the Sturm negative-pivot count, which is unconditionally stable.

* `limit_constant` -- the d -> infinity limit system (Ay)_j = j y_{j-1}
  + y_{j+1}, whose top eigenvalue times sqrt(d) approximates the ball's
  eigenvalue with O(1/d) error.

The remaining operations are closed-form or exact-integer bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from math import comb, sqrt

import numpy as np

from .compress import WeightVector
from .core import VertexFamily, cube_graph, degree_profile, flip_csr
from .subcubes import count_subcubes

DEFAULT_TOL = 1e-10
MAX_POWER_ITERATIONS = 10**6


@dataclass(frozen=True)
class SpectralResult:
    lambda1: float
    error_bound: float
    eigenvector: WeightVector | None
    iterations: int
    method: str
    converged: bool = True
    level_weights: tuple[float, ...] | None = None

    def interval(self) -> tuple[float, float]:
        return (self.lambda1, self.lambda1 + self.error_bound)


def lambda1(fam: VertexFamily, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest adjacency eigenvalue of the induced subgraph, by power
    iteration on M = B B^T over the even side (see the module docstring).

    Each step brackets lambda1 between the square roots of M's Rayleigh
    quotient and Collatz-Wielandt bound, rounded outward, and the
    iteration stops once that gap is at most `tol` or the rounding floor
    4 (K + 10) 2**-53 lo (K < 2n, see below), or after MAX_POWER_ITERATIONS.
    The gap is the returned `error_bound`, so `converged` is exactly
    `error_bound <= tol`; a `tol` below the floor is met only by chance.

    Up to 64 vertices M is dense and the iteration starts from the
    uniform vector (method "power", "dense-small" for one vertex).  Above
    that M is applied through the sparse B and B^T, built from the
    family's `vertices` without a CubeGraph (`_bipartite_blocks`), from
    the top Ritz vector of a Lanczos run on M (`_lanczos_start`; method
    "lanczos").  Each step's two inner products are correctly rounded
    sums: `math.fsum` on the dense path and `_exact_sum`, the same float
    from numpy with no Python float per entry, on the sparse path.  A
    family without edges gets [0, 0] exactly, with the uniform
    eigenvector.  `iterations` counts the certifying power
    steps.  The eigenvector is (x, B^T x / ||B^T x||) / sqrt(2) for the
    last iterate x; its weight dict is built when first read."""
    if len(fam) == 0:
        raise ValueError("family is empty")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    n = len(fam)

    # M x, B^T x, M's row sums, the correctly rounded sum of an array's
    # entries, and K, the most roundings in an entry of M x.  Sums run in
    # numpy's or scipy's order, not a BLAS kernel's, so the bits of the
    # result do not depend on the kernel the CPU selects.
    if n <= 64:
        b, odd = _bipartite_dense(fam.vertices)
        masks = np.concatenate((fam.vertices[~odd], fam.vertices[odd]))
        mat = b @ b.T   # small integers: exact on every kernel
        matvec = lambda v: np.add.reduce(mat * v, axis=1)
        lift = lambda v: np.add.reduce(b * v[:, None], axis=0)
        row_sums = np.add.reduce(mat, axis=1)
        total = lambda terms: math.fsum(terms.tolist())
        half = len(mat)
        start = lambda: np.full(half, 1.0 / sqrt(half))
        roundings = half   # a product and half - 1 additions
        method = "power" if n > 1 else "dense-small"
    else:
        b, bt, masks = _bipartite_blocks(fam)
        matvec = lambda v: b.dot(bt.dot(v))
        lift = bt.dot
        odd_degrees = np.diff(bt.indptr)
        row_sums = b.dot(odd_degrees.astype(float))   # sum of deg w, w ~ v
        total = _exact_sum
        half = b.shape[0]
        start = lambda: _lanczos_start(matvec, half)
        # products with 1.0 are exact: deg w - 1, then deg v - 1 additions
        roundings = int(np.diff(b.indptr).max(initial=0)
                        + odd_degrees.max(initial=0)) - 2
        method = "lanczos"

    # The Collatz-Wielandt ratio bounds lambda1(M) for positive x.  On a
    # component far below the dominant one x underflows to 0.0: a vertex
    # with x_v = 0 < y_v has an infinite ratio, capped by lambda1(M) <=
    # M's largest row sum, and an all-zero component takes its row sums
    # instead.  A cap of 0 means B = 0, so lambda1 = 0 exactly.
    cap = float(row_sums.max(initial=0.0))
    if cap == 0.0:
        vec = _ArrayWeightVector(fam.d, masks, np.full(n, 1.0 / sqrt(n)))
        return SpectralResult(0.0, 0.0, vec, 0, method)

    # Rounding, in units u = 2**-53, with gamma_k = k u / (1 - k u)
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    # sections 3.1 and 4.2).  Every term is nonnegative, so a sum of m
    # terms in any order has relative error at most gamma_{m-1}, and each
    # entry of y = M x is within gamma_K of exact.  Each inner product is
    # rounded once, correctly, as are each product x_v y_v or x_v^2 and
    # the division, so rho is within gamma_{K+5} of the Rayleigh quotient
    # of the stored x; each y_v / x_v is within gamma_{K+1} of the exact
    # ratio, and the row sums are exact.
    # The square root halves these errors, and it and the product with
    # 1 -/+ slack round once each, so to first order lo needs the factor
    # 1 - (K + 9) u/2 and hi the factor 1 + (K + 5) u/2.  slack = (K + 10) u
    # leaves at least (K + 11) u/2 for the second-order terms and for the
    # rounding of hi - lo and of lo + error_bound.  An exact eigenvector
    # would leave the gap 2 slack sqrt(rho), and an iterate converged as far
    # as rounding allows about 3 slack lo, so the loop stops at 4 slack lo.
    slack = (roundings + 10) * 2.0**-53
    x = start()
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            y = matvec(x)
            rho = total(x * y) / total(x * x)
            ratios = y / x             # nan where x_v = y_v = 0
            upper = float(ratios.max())
            if math.isnan(upper):
                upper = float(np.where(np.isnan(ratios), row_sums,
                                       ratios).max())
            lo = sqrt(rho) * (1.0 - slack)
            error = sqrt(min(upper, cap)) * (1.0 + slack) - lo
            if (error <= max(tol, 4.0 * slack * lo)
                    or iterations == MAX_POWER_ITERATIONS):
                break
            x = y / sqrt(np.add.reduce(y * y))
            iterations += 1

    v = lift(x)
    values = np.concatenate((x, v / sqrt(np.add.reduce(v * v)))) / sqrt(2.0)
    vec = _ArrayWeightVector(fam.d, masks, values)
    return SpectralResult(lo, error, vec, iterations, method, error <= tol)


def _exact_sum(terms: np.ndarray, chunk: int = (1 << 26) - 1) -> float:
    """math.fsum(terms.tolist()) for a float64 array of finite terms,
    with no Python float per term: the correctly rounded sum, half to
    even, and +0.0 for a zero sum.

    `np.frexp` writes each term as m 2^e with 1/2 <= |m| < 1, a 53-bit
    m, and e in -1073..1024.  m 2^27 splits into its floor and 2^26
    times the rest, integer-valued floats of magnitude at most 2^27 and
    below 2^26, which `np.bincount` sums per e.  A bin of fewer than
    2^26 terms keeps every partial sum an integer of magnitude below
    2^53, so exact, and the array is summed `chunk` terms at a time to
    hold each bin under that bound (a smaller `chunk` only splits it
    further).  The nonzero bins carry into one Python int, scaled by
    2^1126, and CPython's int true division rounds it correctly."""
    total = 0
    for start in range(0, len(terms), chunk):
        mant, exp = np.frexp(terms[start:start + chunk])
        mant *= 2.0**27
        high = np.floor(mant)
        mant -= high            # exact: the fraction of m 2^27
        mant *= 2.0**26
        exp += 1073             # bin k holds the terms with e = k - 1073
        highs = np.bincount(exp, high)
        lows = np.bincount(exp, mant)
        for k in np.flatnonzero((highs != 0) | (lows != 0)).tolist():
            total += (int(highs[k]) << (k + 26)) + (int(lows[k]) << k)
    return total / (1 << 1126)


class _ArrayWeightVector(WeightVector):
    """A WeightVector held as arrays of masks and weights that are valid
    by construction (members of Q_d, finite weights); its `weights` dict
    is built, without the per-entry check, the first time it is read."""

    def __init__(self, d: int, masks: np.ndarray, values: np.ndarray):
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_arrays", (masks, values))

    @cached_property
    def weights(self) -> dict[int, float]:
        masks, values = self._arrays
        keep = values != 0.0
        return dict(zip(masks[keep].tolist(), values[keep].tolist()))


def _bipartite_blocks(fam: VertexFamily):
    """B, B^T and the masks in their order, even side first, then odd,
    each ascending: Q_d is bipartite between the sets of even and odd
    size, so A is [[0, B], [B^T, 0]].  The block with the smaller side as
    rows comes from `flip_csr`, and the other is its transpose, whose
    rows also list their columns in ascending order.  Every entry is 1.0,
    so both blocks hold the same data array."""
    from scipy.sparse import csr_matrix

    odd = np.bitwise_count(fam.vertices) & 1 == 1
    evens, odds = fam.vertices[~odd], fam.vertices[odd]
    rows, cols = (evens, odds) if len(evens) <= len(odds) else (odds, evens)
    indptr, indices = flip_csr(rows, cols, fam.d, len(fam))
    block = csr_matrix((np.ones(len(indices)), indices, indptr),
                       shape=(len(rows), len(cols)))
    other = block.T.tocsr()
    other.data = block.data
    b, bt = (block, other) if rows is evens else (other, block)
    return b, bt, np.concatenate((evens, odds))


def _bipartite_dense(masks: np.ndarray):
    """B, as floats, of the cube subgraph on the uint64 masks `masks`,
    with the parity of each mask: B's rows are the even masks and its
    columns the odd ones, each side in the order of `masks`."""
    odd = np.bitwise_count(masks) & 1 == 1
    # an even and an odd mask differ, so they are adjacent exactly when
    # their XOR has one bit set
    b = np.bitwise_count(masks[~odd, None] ^ masks[odd]) == 1
    return b.astype(float), odd


# ---------------------------------------------------------------------------
# The Lanczos start of the sparse path.

_LANCZOS_MAX_STEPS = 60
_LANCZOS_CHECK_EVERY = 4
_LANCZOS_RESIDUAL = 1e-13


def _lanczos_steps(matvec, n: int):
    """Plain Lanczos from the uniform vector, without reorthogonalisation:
    yields (q_j, alpha_j, beta_j) for j = 1, 2, ..., where
    M q_j = beta_{j-1} q_{j-1} + alpha_j q_j + beta_j q_{j+1}, and stops
    after a beta_j of 0.  A yielded q_j is never written to again."""
    q_prev = np.zeros(n)
    q = np.full(n, 1.0 / sqrt(n))
    tmp = np.empty(n)   # each product in turn, in place of a temporary
    beta = 0.0
    while True:
        w = matvec(q)
        w -= np.multiply(beta, q_prev, out=tmp)
        alpha = float(np.add.reduce(np.multiply(w, q, out=tmp)))
        w -= np.multiply(alpha, q, out=tmp)
        beta = sqrt(float(np.add.reduce(np.multiply(w, w, out=tmp))))
        yield q, alpha, beta
        if beta == 0.0:
            return
        w /= beta
        q_prev, q = q, w


def _lanczos_start(matvec, n: int) -> np.ndarray:
    """|x| / ||x|| for the top Ritz vector x of a Lanczos run on a
    symmetric M (the sparse path's M is BB^T, on the even side).

    Every _LANCZOS_CHECK_EVERY steps the top eigenpair (theta, s) of the
    tridiagonal T_k is solved; the run stops once the Ritz residual
    ||M x - theta x|| = beta_k |s_k| is at most _LANCZOS_RESIDUAL * theta,
    when beta_k = 0 (on a Hamming ball after about radius / 2 + 1 steps:
    the Krylov space of the uniform vector is constant on each level), or
    after _LANCZOS_MAX_STEPS.  The top Ritz pair converges before the
    vectors lose orthogonality (Paige, 1976), so they are kept as they
    come, at most _LANCZOS_MAX_STEPS * 8 * n bytes, and x = sum_j s_j q_j
    is summed from them.  T_k is solved by Sturm bisection and inverse
    iteration, without BLAS, so the start has the same bits on every
    kernel."""
    alphas, betas, basis = [], [], []
    for q, alpha, beta in _lanczos_steps(matvec, n):
        basis.append(q)
        alphas.append(alpha)
        betas.append(beta)
        k = len(alphas)
        if (beta == 0.0 or k % _LANCZOS_CHECK_EVERY == 0
                or k == _LANCZOS_MAX_STEPS):
            theta, s = _top_ritz_pair(alphas, betas[:-1])
            if (beta * abs(s[-1]) <= _LANCZOS_RESIDUAL * theta
                    or k == _LANCZOS_MAX_STEPS):
                break
    x, tmp = np.zeros(n), np.empty(n)
    for c, q in zip(s, basis):
        x += np.multiply(c, q, out=tmp)
    x = np.abs(x)
    return x / sqrt(np.add.reduce(x * x))


def _top_ritz_pair(diag: list[float],
                   off: list[float]) -> tuple[float, list[float]]:
    """The top eigenvalue of the symmetric tridiagonal matrix with the
    given diagonal and off-diagonal, by Sturm bisection to rounding, and a
    unit eigenvector for it by two steps of inverse iteration."""
    theta, _ = _top_eigenvalue_bisect(off, 0.0, diag)
    s = [1.0] * len(diag)
    for _ in range(2):
        s = _shifted_tridiagonal_solve(diag, off, theta, s)
        norm = sqrt(sum(c * c for c in s))
        s = [c / norm for c in s]
    return theta, s


def _shifted_tridiagonal_solve(diag: list[float], off: list[float],
                               theta: float, rhs: list[float]) -> list[float]:
    """Solve (T - theta I) s = rhs for the symmetric tridiagonal T, by
    Gaussian elimination with partial pivoting; a zero pivot, which a
    theta at an eigenvalue can leave, is replaced by a tiny one."""
    k = len(diag)
    d = [a - theta for a in diag]   # the pivot row's diagonal ...
    du = off + [0.0]                # ... first and second superdiagonal
    du2 = [0.0] * k
    r = list(rhs)
    for i in range(k - 1):
        low = off[i]                # the entry below the pivot
        if abs(d[i]) >= abs(low):
            f = low / d[i]
            d[i + 1] -= f * du[i]
            r[i + 1] -= f * r[i]
        else:
            f = d[i] / low
            d[i], d[i + 1], du[i], du2[i], du[i + 1] = (
                low, du[i] - f * d[i + 1], d[i + 1], du[i + 1], -f * du[i + 1])
            r[i], r[i + 1] = r[i + 1], r[i] - f * r[i + 1]
    scale = max(abs(theta), 1.0) * 2.0**-52
    s = [0.0] * k
    for i in range(k - 1, -1, -1):
        v = r[i]
        if i + 1 < k:
            v -= du[i] * s[i + 1]
        if i + 2 < k:
            v -= du2[i] * s[i + 2]
        s[i] = v / (d[i] or scale)
    return s


# ---------------------------------------------------------------------------
# Exact Hamming-ball solver via the level reduction.


def _sturm_count_below(off: list[float], x: float, diag: list[float]) -> int:
    """Number of eigenvalues below x of the symmetric tridiagonal with
    the given off-diagonal and diagonal entries (negative-pivot count of
    the shifted LDL^T recurrence)."""
    count = 0
    q = diag[0] - x
    if q < 0:
        count += 1
    tiny = 1e-300
    for a, b in zip(diag[1:], off):
        if q == 0.0:
            q = -tiny
        q = a - x - (b * b) / q
        if q < 0:
            count += 1
    return count


def _top_eigenvalue_bisect(off: list[float], tol: float,
                           diag: list[float] | None = None) -> tuple[float, float]:
    """Largest eigenvalue of the symmetric tridiagonal with nonnegative
    off-diagonal `off` and diagonal `diag` (zero when omitted), bracketed
    by Sturm-count bisection; returns (value, half-width)."""
    size = len(off) + 1
    diag = diag or [0.0] * size
    if size == 1:
        return diag[0], 0.0
    hi = max(diag[j] + (off[j - 1] if j > 0 else 0.0)
             + (off[j] if j < size - 1 else 0.0) for j in range(size))
    hi += 1.0   # start strictly above the Gershgorin bound
    lo = max(diag)
    # invariant: count_below(hi) == size, some eigenvalue >= lo
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break   # interval narrower than float spacing
        if _sturm_count_below(off, mid, diag) == size:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), 0.5 * (hi - lo)


def hamming_lambda1_exact(d: int, i: int) -> SpectralResult:
    """Exact top eigenvalue of the Hamming ball H_d^i via the level
    reduction, plus the per-level weights of its Perron vector."""
    if not 0 <= i <= d:
        raise ValueError(f"radius {i} out of range 0..{d}")
    if i == 0:
        return SpectralResult(0.0, 0.0, None, 0, "reduced-tridiagonal",
                              level_weights=(1.0,))
    # Row j of the level system reads lambda x_j = j x_{j-1} + (d-j) x_{j+1}
    # (ends truncated); the similarity scaling couples levels j-1 and j by
    # sqrt(j * (d - j + 1)).
    off = [sqrt(j * (d - j + 1)) for j in range(1, i + 1)]
    lam, halfw = _top_eigenvalue_bisect(off, 1e-12)

    # level weights from the unsymmetrized recurrence, x_0 = 1
    x = [1.0, lam / d]
    for j in range(1, i):
        x.append((lam * x[j] - j * x[j - 1]) / (d - j))
    scale = max(abs(w) for w in x)
    residuals = []
    for j in range(i + 1):
        below = j * x[j - 1] if j > 0 else 0.0
        above = (d - j) * x[j + 1] if j < i else 0.0
        residuals.append(abs(lam * x[j] - below - above) / scale)
    error = max(halfw, max(residuals))
    return SpectralResult(lam, error, None, 0, "reduced-tridiagonal",
                          level_weights=tuple(x))


def limit_constant(i: int) -> float:
    """The limit of lambda1(H_d^i)/sqrt(d) as d grows, radius i fixed."""
    if i < 1:
        raise ValueError("radius must be >= 1")
    # the d -> infinity system: sub-diagonal j, super-diagonal 1
    lam, _ = _top_eigenvalue_bisect([sqrt(j) for j in range(1, i + 1)], 1e-13)
    return lam


# ---------------------------------------------------------------------------
# Bounds.


def band_bound(t: int, d: int) -> float:
    """2 sqrt(t d) for max set size t <= d/2: an upper bound on lambda1 of
    any family in Q_d whose sets have at most t elements, obtained by
    slicing the graph into consecutive-level bipartite bands."""
    if 2 * t > d:
        raise ValueError(f"level bound needs max set size {t} <= d/2 = {d / 2}")
    return 2.0 * sqrt(t * d)


def level_bound(fam: VertexFamily) -> float:
    """The band bound 2 sqrt(t d) at the family's own max set size t."""
    return band_bound(fam.max_set_size(), fam.d)


def hamming_upper_bound(d: int, i: int) -> float:
    """2 sqrt(i (d+1-i)): the band bound with the ball's true maximum
    degree d - i + 1 in place of d."""
    if not 1 <= 2 * i <= d:
        raise ValueError(f"need 1 <= i <= d/2, got i={i}, d={d}")
    return 2.0 * sqrt(i * (d + 1 - i))


def hamming_walk_lower_bound(d: int, i: int, k: int) -> float:
    """Certified lower bound on lambda1(H_d^i) from Catalan-counted
    down-up closed walks of length 2k started on level i."""
    if not 1 <= k < i or 2 * i > d:
        raise ValueError(f"need 1 <= k < i <= d/2, got k={k}, i={i}, d={d}")
    catalan = comb(2 * k, k) // (k + 1)
    walks = catalan * ((i - k) * (d + 1 - (i - k))) ** k
    return _root_of_int(walks, 2 * k)


def default_walk_depth(i: int) -> int:
    """The walk depth sqrt(i log i) used to balance the lower bound,
    clamped to the valid range."""
    if i < 2:
        raise ValueError("need i >= 2 for a valid walk depth")
    k = int(math.sqrt(i * math.log(max(i, 2))))
    return max(1, min(k, i - 1))


def _root_of_int(value: int, r: int) -> float:
    """value ** (1/r) for a positive big integer, overflow-safe."""
    if value <= 0:
        return 0.0
    if value.bit_length() < 512:
        return float(value) ** (1.0 / r)
    shift = value.bit_length() - 512
    scaled = value >> shift
    return math.exp((math.log(scaled) + shift * math.log(2.0)) / r)


def walk_trace_bound(fam: VertexFamily, k: int) -> float:
    """(half the number of closed 2k-walks) ** (1/2k) >= lambda1.

    A is symmetric, so trace(A^2k) = ||A^k||_F^2: the sum of the squared
    entries of A^k, which takes k - 1 sparse int64 products.  An entry of
    A^k counts k-walks, so it is at most D^k for the largest degree D;
    the products are exact while D^k < 2^63, and outside that domain this
    raises ValueError.  The squares are summed in int64 where exact, else
    as Python ints: each is at most D^2k, so an int64 dot product of the
    nnz entries with themselves cannot overflow while nnz D^2k < 2^63.
    """
    from scipy.sparse import csr_matrix

    if k < 1:
        raise ValueError("k must be >= 1")
    if len(fam) == 0:
        raise ValueError("family is empty")
    g = cube_graph(fam)
    top = int(np.diff(g.indptr).max())
    if top ** min(k, 64) >= 1 << 63:     # any D >= 2 passes 2^63 by k = 63
        raise ValueError(f"walk counts up to {top}^{k} overflow int64")
    adj = csr_matrix((np.ones(len(g.indices), dtype=np.int64), g.indices,
                      g.indptr), shape=(len(fam), len(fam)))
    power = adj
    for _ in range(k - 1):
        power = power @ adj
    if len(power.data) * top ** (2 * k) < 1 << 63:
        total = int(np.dot(power.data, power.data))
    else:
        total = sum(c * c for c in power.data.tolist())
    assert total % 2 == 0, "closed-walk count of a bipartite graph is even"
    return _root_of_int(total // 2, 2 * k)


@dataclass(frozen=True)
class PairCycleCounts:
    """Exact path-of-length-2 and 4-cycle counts, with the K_{2,3}-free
    bipartite bounds they must satisfy inside the cube."""

    p2: int
    c4: int
    edges: int
    side_large: int
    side_small: int
    c4_bound: int
    edge_bound: int
    c4_bound_holds: bool
    edge_bound_holds: bool


def count_p2_c4(fam: VertexFamily) -> PairCycleCounts:
    """Paths of length 2 from the degrees; 4-cycles as 2-dimensional
    subcubes, since the 4-cycles of Q_d are exactly its 2-faces."""
    degrees = degree_profile(fam).degrees.values()
    edges = sum(degrees) // 2
    p2 = sum(comb(k, 2) for k in degrees)
    c4 = count_subcubes(fam, 2).count if fam.d >= 2 else 0
    even = sum(1 for v in fam.members if v.bit_count() % 2 == 0)
    odd = len(fam) - even
    large, small = max(even, odd), min(even, odd)
    c4_bound = comb(small, 2)
    edge_bound = 2 * comb(small, 2) + large
    return PairCycleCounts(
        p2, c4, edges, large, small, c4_bound, edge_bound,
        c4 <= c4_bound, edges <= edge_bound,
    )


def classic_bounds(fam: VertexFamily) -> dict[str, float]:
    """The classical upper bounds on lambda1 from edge count and local
    degree structure; cube subgraphs are triangle-free, so the sqrt(m)
    bound always applies."""
    profile = degree_profile(fam)
    m = sum(profile.degrees.values()) // 2
    k = 1
    while comb(k, 2) < m:
        k += 1
    return {
        "brualdi_hoffman": float(k - 1),
        "stanley": 0.5 * (-1.0 + sqrt(8.0 * m + 1.0)),
        "fms": sqrt(profile.max_neighbor_degree_sum),
        "nosal": sqrt(m),
    }


def star_value(n: int) -> float:
    """lambda1 of the n-vertex star: sqrt(n-1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sqrt(n - 1)
