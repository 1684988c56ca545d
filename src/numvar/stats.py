"""Counting statistics of point sets on the unit circle.

Central quantities, for N points x_1..x_N in [0,1), a window length
ell = L/N, and a test function f:

  count S(c)     = #{j : x_j in [c - ell/2, c + ell/2) mod 1}
  variance       = average of (S(c) - L)^2 over uniform random centers c
  pair corr R2   = (1/N) * sum over ordered pairs i != j and integer
                   shifts m of f((x_i - x_j + m) / ell)

The variance is computed by three independent routes: an exact tent
sum over all pairs (number_variance_exact), random-center counting
with exact interval membership (number_variance_montecarlo), and a
truncated spectral sum (number_variance_fourier).  They are tied
together by the identity

  variance = L - L^2 + L * R2(tent),

which doubles as the module's master self-test.

Counting conventions: windows are half-open [c - ell/2, c + ell/2), and
membership is decided on exact 128-bit numerators, never on floats.
The pair sums (number_variance_exact, pair_correlation_direct) share one
kernel.  It counts every pair once, from the point that comes first on
the sorted, unrolled circle, at a distance D >= 0, so it sums
g(t) = f(t) + f(-t) over forward pairs only; equal points are forward
pairs at D = 0.  Every tent, indicator or tabulated f is piecewise
linear, and so is g, so a row's sum over each piece of g is a count
plus a first moment over a window of the unrolled circle, read off
exact rank queries, prefix sums of rank counts and one exact dot of a
small signed row with the numerators.  A window that starts at D = 0 starts
at the next point and needs no query: the tent folds to the one window
0 <= D <= ell, so it costs one rank query per point.  The kernel costs
O(N log N) per knot of g whatever ell and the support radius are, and
its result is exact until the one final rounding to float.  It works
through the sorted points in blocks of _ROW_BLOCK rows.  A knot's
queries p_i + e ascend on each side of the rows that wrap, so a block's
queries are ranked within the slice of points between the ranks of its
first and last query, a search about as long as the block; its knot
rows come from a bincount of the ranks that fall among its columns,
and its dot rows are dotted with its numerators alone.  One int32 rank
row per moved knot is the only N-long array the kernel keeps, so at
N = 10^6 a tent sum allocates about 5 MB above its points.

The Monte Carlo route sorts its random centers once, by the same word
sort as the points, and counts them from the points' side: for each
point it ranks the two ends of the arc of centers whose windows hold it
among the sorted centers, in bracketed blocks like the pair-sum queries,
and sums one difference array over them.  The counts go back to draw
order before they are reduced, so the estimate is the same float as
counting the centers as drawn.

The spectral route (pair_correlation_fourier, and through it
number_variance_fourier) sums |T_n|^2 over 1 <= n <= M by baby steps
and giant steps: each phase e(n x_j) is the product of two phases taken
exactly from the numerators, so the M*N cos/sin calls become about
(M/B + B)*N for B near sqrt(M), and the sums over the points run in
fixed blocks with no BLAS, so the reduction order is fixed.  M is the
least truncation point at which a rigorous tail bound is <= tol: the
smallest of the trivial bound ||T_n|^2 - N| <= N(N-1) and the large
sieve at two spacings, the least circular gap delta of the dilated
points (Montgomery-Vaughan) and 1/(4N) with the number of pairs closer
than that, both exact from the sorted points of dilate_mod1.  Both cut M
from order N^2/(L*tol) to order N/(L*tol) plus a square-root term.
The second is sized for at least N/2 close pairs, so M, and with it
the cost, is the same for every alpha whose points do not cluster (at
N = 300, tol 1e-2 most alphas get M = 3961, where the least gap alone
gives anything from 2.6e3 to 1.1e5).  Fully tied points (alpha = 0)
keep the trivial M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.random import Philox

from .errors import BudgetError, SupportError, WindowError
from .fixedpoint import (
    MODULUS,
    FixedPointReal,
    add_words,
    argsort_words,
    dot_words,
    join,
    less_words,
    mul_words,
    phase_top_bits,
    rank_words,
    to_words,
)
from .sequences import IntegerSequence, PointSet, dilate_mod1

_CENTER_STREAM = 0x63656E74  # Philox counter tag for window centers

# Ceiling on spectral-sum terms, a time budget: BudgetError above it
# (raise tol instead).  The phases are exact for every uint64 n.
FOURIER_TERM_CEILING = 10**9

# Complex entries per phase table and per product block of the spectral
# kernel: a fixed constant, so reductions are order-deterministic, and small
# enough that the blocks stay in cache.
_PHASE_CHUNK_ENTRIES = 1 << 16

# Rows per block of _rotated_ranks, for all three of its callers, and of
# the pair-sum knot and dot rows: each block's working set stays in cache.
_ROW_BLOCK = 1 << 15

# ---------------------------------------------------------------------------
# window parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowParams:
    """Scale bundle (N, beta, L, ell) with L = N**beta and ell = L/N.

    Single source of truth for window scales: everything downstream
    takes a WindowParams instead of loose floats.  0 < ell <= 1 is
    enforced here, so degenerate windows never reach the kernels.
    """

    N: int
    beta: float
    L: float
    ell: float

    def __post_init__(self):
        if self.N < 1:
            raise WindowError("N must be >= 1")
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise WindowError("L must be positive and finite")
        if not (0.0 < self.ell <= 1.0):
            raise WindowError(
                "window length ell = %g outside (0, 1]" % (self.ell,)
            )
        if not math.isclose(self.ell, self.L / self.N, rel_tol=1e-12):
            raise WindowError("ell must equal L/N")

    @classmethod
    def from_beta(cls, N: int, beta: float) -> "WindowParams":
        L = float(N) ** beta
        return cls(N=N, beta=beta, L=L, ell=L / N)

    @classmethod
    def from_L(cls, N: int, L: float) -> "WindowParams":
        L = float(L)
        beta = math.log(L) / math.log(N) if (N > 1 and L > 0) else 0.0
        return cls(N=N, beta=beta, L=L, ell=L / N)

    @property
    def ell_numerator(self) -> int:
        """Exact dyadic numerator of ell: floor(ell * 2**128).

        Exact (no flooring occurs) whenever ell >= 2**-76: a float's
        53-bit significand then ends at or above 2**-128, so the product
        is an integer.  Every L >= 1 meets this, as ell = L/N >= 1/N;
        ell = 1e-26 from from_L(10**6, 1e-20) is floored.
        """
        scaled = Fraction(self.ell) * MODULUS
        return scaled.numerator // scaled.denominator


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def tent(x):
    """max{1 - |x|, 0}: the autocorrelation of the unit interval indicator."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.maximum(1.0 - np.abs(arr), 0.0)
    if arr.ndim == 0:
        return float(out)
    return out


def tent_fourier(x):
    """Fourier transform of the tent: sin^2(pi x)/(pi x)^2, continuous at 0.

    Evaluated as sinc(x)^2, which handles the removable singularity at
    x = 0 exactly and is accurate through the |x| < 1e-8 regime.
    """
    arr = np.asarray(x, dtype=np.float64)
    out = np.sinc(arr) ** 2
    if arr.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TestFunction:
    """Compactly supported test function for pair correlation sums.

    kind is "tent" (support radius 1), "indicator" (the half-open
    interval [-1/2, 1/2), radius 1/2), or "custom" (a tabulated function
    with a declared support radius; evaluated by linear interpolation on
    the closed support [-radius, radius] and zero outside it or outside
    the table, which is what the pair sums sum).
    """

    __test__ = False  # keep pytest from collecting this as a test case

    kind: str
    radius: float
    xs: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    @classmethod
    def tent(cls) -> "TestFunction":
        return cls(kind="tent", radius=1.0)

    @classmethod
    def indicator(cls) -> "TestFunction":
        return cls(kind="indicator", radius=0.5)

    @classmethod
    def custom(cls, xs, values, radius: Optional[float] = None) -> "TestFunction":
        if radius is None or not (radius > 0):
            raise SupportError("custom test function needs a declared support radius")
        xs = np.asarray(xs, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != values.shape or xs.size < 2:
            raise SupportError("custom table must be two matching 1-d arrays")
        if not (math.isfinite(radius) and np.isfinite(xs).all() and np.isfinite(values).all()):
            raise SupportError("custom radius, abscissae and values must be finite")
        if np.any(np.diff(xs) <= 0):
            raise SupportError("custom table abscissae must be strictly increasing")
        return cls(kind="custom", radius=float(radius), xs=xs, values=values)

    def __call__(self, x):
        arr = np.asarray(x, dtype=np.float64)
        if self.kind == "tent":
            out = np.maximum(1.0 - np.abs(arr), 0.0)
        elif self.kind == "indicator":
            out = ((arr >= -0.5) & (arr < 0.5)).astype(np.float64)
        else:
            out = np.interp(arr, self.xs, self.values, left=0.0, right=0.0)
            out = np.where(np.abs(arr) <= self.radius, out, 0.0)
        if arr.ndim == 0:
            return float(out)
        return out

    def vanishes_at_support_edge(self) -> bool:
        r = self.radius
        return float(self(r)) == 0.0 and float(self(-r)) == 0.0


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceResult:
    sigma2: float
    method: str  # exact_tent | fourier | monte_carlo
    mc_stderr: Optional[float]
    params: WindowParams


@dataclass(frozen=True)
class PairCorrResult:
    r2: float
    method: str  # direct | fourier
    truncation_bound: Optional[float]
    params: WindowParams


# ---------------------------------------------------------------------------
# exact interval counting
# ---------------------------------------------------------------------------

def _window_counts(points: PointSet, params: WindowParams, c_hi, c_lo):
    """Exact S(c) for arrays of 128-bit centers given as (hi, lo) words."""
    n = len(points)
    ell_num = params.ell_numerator
    if ell_num >= MODULUS:
        return np.full(c_hi.shape, n, dtype=np.int64)
    lo_hi, lo_lo = add_words(c_hi, c_lo, -(ell_num >> 1))
    hi_hi, hi_lo = add_words(lo_hi, lo_lo, ell_num)
    wrap = less_words(hi_hi, hi_lo, lo_hi, lo_lo)
    r_lo = rank_words(points.hi, points.lo, lo_hi, lo_lo)
    r_hi = rank_words(points.hi, points.lo, hi_hi, hi_lo)
    return r_hi - r_lo + wrap.astype(np.int64) * n


def count_in_interval(points: PointSet, center: FixedPointReal, params: WindowParams) -> int:
    """#{j : x_j in [center - ell/2, center + ell/2) mod 1}, exactly.

    Decided entirely on 128-bit numerators: the window edges are
    center_numerator -/+ halves of the exact dyadic image of ell, and
    membership is an exact integer comparison (half-open on the right).
    """
    c_hi, c_lo = to_words([center.numerator])
    return int(_window_counts(points, params, c_hi, c_lo)[0])


# ---------------------------------------------------------------------------
# exact pair sums
# ---------------------------------------------------------------------------

def _linear_pieces(f: TestFunction):
    """f as exact linear pieces (a, b, closed, c0, c1) of Fractions.

    On a piece f(t) = c0 + c1 * t for a <= t < b, or for a <= t <= b
    when closed.  Pieces are disjoint and f is zero off them.  A custom
    table is cut to its declared support [-radius, radius]; its
    interpolation is continuous at interior knots.
    """
    if f.kind != "custom":
        return _TENT_PIECES if f.kind == "tent" else _INDICATOR_PIECES
    xs = [Fraction(v) for v in f.xs]
    ys = [Fraction(v) for v in f.values]
    lo = max(xs[0], -Fraction(f.radius))
    hi = min(xs[-1], Fraction(f.radius))
    if lo == hi:  # the support meets the table at one of its ends
        return [(lo, hi, True, ys[0] if lo == xs[0] else ys[-1], Fraction(0))]
    pieces = []
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        a, b = max(x0, lo), min(x1, hi)
        if a < b:
            slope = (y1 - y0) / (x1 - x0)
            pieces.append((a, b, b == hi, y0 - slope * x0, slope))
    return pieces


_TENT_PIECES = [(Fraction(-1), Fraction(0), False, Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(1), True, Fraction(1), Fraction(-1))]
_INDICATOR_PIECES = [(Fraction(-1, 2), Fraction(1, 2), False, Fraction(1), Fraction(0))]


def _folded_windows(f: TestFunction, scale: Fraction):
    """g(D) = f(D/scale) + f(-D/scale) on the integers D >= 0, as windows.

    Returns (den, windows): disjoint integer windows (A, B, u0, u1) with
    g = (u0 + u1 * D / scale) / den on A <= D < B, and g = 0 off them.  A
    piece of f that holds the differences E0 <= d < E1 gives its d >= 0
    part as it is, on [max(E0, 0), E1) with (c0, c1), and its d <= 0 part
    mirrored, on [max(1 - E1, 0), 1 - E0) with (c0, -c1), so D = 0 gets
    f(0) from both sides.  The parts are summed between cuts, zero windows
    dropped, and neighbours joined where they are one line: equal
    coefficients, or a window of one D whose value lies on the next
    window's line (so the tent is one window, [0, floor(scale) + 1) with
    g = 2 - 2D/scale).
    """
    pieces = _linear_pieces(f)
    den = math.lcm(*(c.denominator for piece in pieces for c in piece[3:]))
    s_num, s_den = scale.numerator, scale.denominator
    parts = []
    for a, b, closed, c0, c1 in pieces:
        e0 = -(-a.numerator * s_num // (a.denominator * s_den))
        e1 = b.numerator * s_num // (b.denominator * s_den)
        if closed or e1 * b.denominator * s_den != b.numerator * s_num:
            e1 += 1
        u0, u1 = c0.numerator * (den // c0.denominator), c1.numerator * (den // c1.denominator)
        parts += [(max(e0, 0), e1, u0, u1), (max(1 - e1, 0), 1 - e0, u0, -u1)]
    parts = [p for p in parts if p[0] < p[1]]
    cuts = sorted({e for p in parts for e in p[:2]})
    windows = []
    for a, b in zip(cuts, cuts[1:]):
        u0 = sum(p[2] for p in parts if p[0] <= a and b <= p[1])
        u1 = sum(p[3] for p in parts if p[0] <= a and b <= p[1])
        if not (u0 or u1):
            continue
        if windows and windows[-1][1] == a:
            a0, _, p0, p1 = windows[-1]
            # one line, or a window of one D whose value lies on this line
            joined = a - a0 == 1 and (p0 - u0) * s_num + (p1 - u1) * a0 * s_den == 0
            if joined or (p0, p1) == (u0, u1):
                windows[-1] = (a0, b, u0, u1)
                continue
        windows.append((a, b, u0, u1))
    return den, windows


def _pair_sum(
    points: PointSet, ell: float, f: TestFunction, folded: Optional[tuple] = None
) -> Fraction:
    """Exact sum over ordered pairs i != j and shifts m of f((x_j - x_i + m)/ell).

    folded, when given, is _folded_windows(f, Fraction(ell) * MODULUS),
    built once by a caller that sums many point sets at one ell.

    Row i sees the unrolled circle P(k) = p_(k mod N) + floor(k/N) * 2**128
    (p the sorted numerators), and every ordered pair (i, j, m) is counted
    once, from the end with the lower unrolled index: in row i at
    k = j + m*N > i, or in row j at i - m*N > j.  Both have the same
    D = P(k) - p_i >= 0 and stand for the differences D and -D, so

        sum_{i != j, m} f(d/S) = sum_i sum_{k > i} g(D/S),  g(t) = f(t) + f(-t),

    S the exact image of ell, less the self pairs k = i + s*N (s >= 1),
    which are taken out per window.  Equal numerators sit at k > i with
    D = 0 and need no separate handling.  Over each window A <= D < B
    of _folded_windows, g is linear, so row i needs a count and a first
    moment of P(k) - p_i over K(A) <= k < K(B).  K(0) = i + 1; an end
    e > 0 sits at K = q*N + r, r = rank(p_i + e mod 2**128), q the turns,
    so any support radius is exact.  With T = sum_j p_j,

        sum_{k<K} P(k) = q*T + sum_{j<r} p_j + 2**128 * (N*q*(q-1)/2 + r*q),

    and summed over rows the prefix sums become sum_j W_j * p_j plus 2**128
    times an integer, W_j = #{i : r_i > j} + sum_i q_i a prefix sum of rank
    counts (N - j for K = i + 1).  A window's moment is the difference of
    two prefix sums less sum_i c_i * p_i, c_i = K_i(B) - K_i(A), so each
    knot has one signed row x = W - K and each window is one exact dot of
    the small row x(B) - x(A) with the numerators (within about +-L for the
    tent, one window on [0, S] and one rank per point).  O(N log N) per
    knot of g, independent of ell, for fewer than 2**31 points.

    Both passes run over the rows in blocks of _ROW_BLOCK (_rotated_ranks,
    _knot_rows), and one int32 rank row per moved knot is the only N-long
    array kept, so the rest of the working set stays in cache.  The dots
    are exact, so their sums over the blocks are the same integers.
    """
    n = len(points)
    hi, lo = points.hi, points.lo
    scale = Fraction(ell) * MODULUS  # t = d / scale for a numerator difference d
    den, windows = folded if folded is not None else _folded_windows(f, scale)
    if not windows:
        return Fraction(0)
    knots = sorted({e for w in windows for e in w[:2]})
    # pair counts and unrolled indices must stay within int64
    if (knots[-1] // MODULUS + 2) * n * n >= 1 << 62:
        raise SupportError("support radius %g too wide for %d points" % (f.radius, n))
    lead = int(knots[0] == 0)  # K(0) = i + 1 needs no rank query
    moved = knots[lead:]
    turns0 = [e // MODULUS for e in moved]
    # an end e ranks the points p_i + e mod 2**128 among the points; the w
    # rows that wrap, p_i >= 2**128 - e, are the last ones
    ranks, wraps = zip(*(_rotated_ranks(hi, lo, hi, lo, e) for e in moved))

    # sum_i K_i and the turns as ints: K = r_i + N*q, plus N on the w rows that wrap
    k_sums = [n * (n + 1) // 2] * lead
    turns = [0] * lead
    for r, q, w in zip(ranks, turns0, wraps):
        r_sum, r_wrap = int(r.sum(dtype=np.int64)), int(r[n - w:].sum(dtype=np.int64))
        k_sums.append(r_sum + n * (n * q + w))
        turns.append(n * (n * q * (q - 1) // 2 + w * q) + q * r_sum + r_wrap)

    slot = {e: i for i, e in enumerate(knots)}
    lower = [slot[w[0]] for w in windows]
    upper = [slot[w[1]] for w in windows]
    dots = [0] * len(windows)
    for b0, x in _knot_rows(n, lead, ranks, wraps):
        b1 = b0 + x.shape[1]
        part = dot_words(x[upper] - x[lower], (hi[b0:b1], lo[b0:b1]))
        dots = [d + v for d, v in zip(dots, part)]

    # sum over windows of u0 * count + u1 * moment / scale, over one denominator
    total = 0
    for (a, b, u0, u1), i0, i1, dot in zip(windows, lower, upper, dots):
        shifts = range(max(1, -(-a // MODULUS)), -(-b // MODULUS))  # self pairs k = i + s*N
        count = k_sums[i1] - k_sums[i0] - n * len(shifts)
        moment = dot + ((turns[i1] - turns[i0] - n * sum(shifts)) << 128)
        total += u0 * count * scale.numerator + u1 * moment * scale.denominator
    return Fraction(total, den * scale.numerator)


def _rotated_ranks(t_hi, t_lo, q_hi, q_lo, e: int):
    """(ranks, w): rank(q_i + e mod 2**128) among the sorted targets t, for sorted queries q.

    ranks is one int32 row: the ranks, at most the number of targets, must
    be below 2**31, which the pair-sum and Monte Carlo routes check.  w
    counts the queries that wrap, q_i >= 2**128 - e, the last w: one scalar
    query finds them (none when e is a whole turn).  The rotated queries
    ascend on the rows below N - w and again on the last w, so in a block
    of _ROW_BLOCK rows of one run they are ranked within the slice of
    targets between the ranks of the block's first and last query (one
    query of these two words among all targets).  An empty slice gives
    every row of the block the same rank, with no search.
    """
    e %= MODULUS
    n = q_hi.size
    w = n - int(rank_words(q_hi, q_lo, *to_words([MODULUS - e]))[0]) if e else 0
    ranks = np.empty(n, dtype=np.int32)
    for start, stop in ((0, n - w), (n - w, n)):
        for b0 in range(start, stop, _ROW_BLOCK):
            b1 = min(b0 + _ROW_BLOCK, stop)
            r_hi, r_lo = add_words(q_hi[b0:b1], q_lo[b0:b1], e)
            first, last = rank_words(t_hi, t_lo, r_hi[[0, -1]], r_lo[[0, -1]]).tolist()
            if first == last:
                ranks[b0:b1] = first
            else:
                np.add(rank_words(t_hi[first:last], t_lo[first:last], r_hi, r_lo), first,
                       out=ranks[b0:b1])
    return ranks, w


def _knot_rows(n: int, lead: int, ranks, wraps):
    """Yield (b0, x): the signed rows x = W - K of every knot, on columns b0 <= j < b1.

    x has one row per knot, the lead knot (K = j + 1) first if there is
    one, and one column per j.  For a moved knot with rank row r and w
    wrapping rows, W - K = N + w - C(j) - r_j, less N on the last w rows,
    with C(j) = #{i : r_i <= j}.  r ascends on each of its two runs, so
    the ranks in [b0, b1) are a slice of each run, found by two scalar
    searches, and C on the block is the running sum of their bincounts
    plus the number of ranks below b0.  The searches take int32 keys, as
    keys of a wider type would copy the whole row up to them.  The row
    buffer is reused from block to block.
    """
    buf = np.empty((lead + len(ranks), min(n, _ROW_BLOCK)), dtype=np.int64)
    for b0 in range(0, n, _ROW_BLOCK):
        b1 = min(b0 + _ROW_BLOCK, n)
        x = buf[:, :b1 - b0]
        x[:lead] = np.arange(n - 1 - 2 * b0, n - 1 - 2 * b1, -2)  # W = N - j, K = j + 1
        bounds = np.array((b0, b1), dtype=np.int32)
        for row, r, w in zip(x[lead:], ranks, wraps):
            counts = np.zeros(b1 - b0, dtype=np.int64)
            below = 0
            for run in (r[:n - w], r[n - w:]):
                s0, s1 = run.searchsorted(bounds).tolist()
                below += s0
                counts += np.bincount(run[s0:s1] - b0, minlength=b1 - b0)
            np.cumsum(counts, out=row)
            row += r[b0:b1]
            np.subtract(n + w - below, row, out=row)
            row[max(n - w - b0, 0):] -= n
        yield b0, x


# ---------------------------------------------------------------------------
# number variance
# ---------------------------------------------------------------------------

def _check_points(points: PointSet, params: WindowParams) -> None:
    if len(points) != params.N:
        raise WindowError(
            "params built for N=%d but point set has %d points"
            % (params.N, len(points))
        )


def number_variance_exact(points: PointSet, params: WindowParams) -> VarianceResult:
    """Variance of the window count, by exact tent summation.

    Uses variance = ell * sum_{i,j,m} tent((x_i - x_j + m)/ell) - L^2,
    whose diagonal contributes exactly L.  The off-diagonal tent sum is
    taken exactly on the 128-bit numerators by the prefix-sum kernel
    (O(N log N), independent of ell; no float view of the points), and
    the whole expression, with ell and L as the floats they are, is
    rounded once: sigma2 is the float nearest its exact value, off by at
    most half an ulp.
    """
    _check_points(points, params)
    pair_sum = _pair_sum(points, params.ell, TestFunction.tent())
    sigma2 = Fraction(params.ell) * (params.N + pair_sum) - Fraction(params.L) ** 2
    return VarianceResult(sigma2=float(sigma2), method="exact_tent", mc_stderr=None, params=params)


def number_variance_montecarlo(
    points: PointSet, params: WindowParams, samples: int, seed: int
) -> VarianceResult:
    """Variance estimated from uniform random centers, exact counts.

    Second moment about the analytic mean L (not the sample mean):
    estimate = mean((S - L)^2), stderr = sd((S - L)^2)/sqrt(samples).
    Centers come from a counter-based stream, so the estimate is a pure
    function of (points, params, samples, seed).

    The centers are sorted once by argsort_words and counted from the
    points' side: p lies in the window of c exactly when c lies in
    [A, B) = [p + h - ell + 1, p + h + 1) mod 2**128, h = ell >> 1 (the
    numerators), so with the ranks of A and B among the sorted centers
    a center's count is a prefix sum of +1 at rank(A) and -1 at
    rank(B), plus the number of intervals that wrap.  _rotated_ranks
    ranks both ends into int32 rows, so samples must be below 2**31.  The
    counts are written to draw order before the reduction, so the result
    is the same float as counting the centers as drawn.
    """
    _check_points(points, params)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples >= 1 << 31:  # the centers' ranks are int32
        raise BudgetError("samples must be < 2**31")
    ell_num = params.ell_numerator
    y = np.empty(samples, dtype=np.float64)
    if ell_num >= MODULUS:  # every window holds all N points
        y.fill(len(points))
    else:
        raw = Philox(key=seed % (1 << 128), counter=[0, 0, 0, _CENTER_STREAM]).random_raw(
            2 * samples)
        order = argsort_words(raw[0::2], raw[1::2])
        c_hi, c_lo = raw[0::2][order], raw[1::2][order]
        del raw
        b = (ell_num >> 1) + 1
        r_a, w_a = _rotated_ranks(c_hi, c_lo, points.hi, points.lo, b - ell_num)
        r_b, w_b = _rotated_ranks(c_hi, c_lo, points.hi, points.lo, b)
        del c_hi, c_lo
        steps = np.bincount(r_a, minlength=samples + 1)
        steps -= np.bincount(r_b, minlength=samples + 1)
        del r_a, r_b
        np.cumsum(steps, out=steps)
        # [A, B) wraps where B turned past 2**128 (the last w_b points) or,
        # for b < ell, where A = p + b - ell did not (the first N - w_a)
        steps += w_b - w_a + len(points) * (b < ell_num)
        y[order] = steps[:samples]
    y -= params.L
    y *= y
    estimate = float(np.mean(y))
    stderr = float(np.std(y, ddof=1) / math.sqrt(samples))
    return VarianceResult(sigma2=estimate, method="monte_carlo", mc_stderr=stderr, params=params)


def number_variance_fourier(
    seq: IntegerSequence,
    alpha: FixedPointReal,
    params: WindowParams,
    tol: float,
) -> VarianceResult:
    """Third variance route: spectral pair correlation + the identity.

    variance = L - L^2 + L * R2(tent), with R2 from the truncated
    spectral sum; the truncation contributes at most L * tol.
    """
    r2 = pair_correlation_fourier(seq, alpha, params, tol)
    sigma2 = params.L - params.L**2 + params.L * r2.r2
    return VarianceResult(sigma2=sigma2, method="fourier", mc_stderr=None, params=params)


# ---------------------------------------------------------------------------
# pair correlation
# ---------------------------------------------------------------------------

def pair_correlation_direct(
    points: PointSet, params: WindowParams, f: TestFunction
) -> PairCorrResult:
    """(1/N) * sum over ordered pairs i != j, shifts m, of f((x_i-x_j+m)/ell).

    Exact for every test function and support radius: pair membership is
    decided on the 128-bit numerators, f is summed piece by piece in
    exact integers (O(N log N) per knot of f), and r2 is the float
    nearest the exact sum.
    """
    _check_points(points, params)
    if not (f.radius > 0):
        raise SupportError("test function must declare a positive support radius")
    r2 = float(_pair_sum(points, params.ell, f) / params.N)
    return PairCorrResult(r2=r2, method="direct", truncation_bound=None, params=params)


def pair_correlation_fourier(
    seq: IntegerSequence,
    alpha: FixedPointReal,
    params: WindowParams,
    tol: float,
) -> PairCorrResult:
    """Spectral route: R2 = (L/N^2) * sum_n tent_fourier(ell*n) * (|T_n|^2 - N).

    T_n = sum_j e(n * x_j) over the dilated points x_j = p_j / 2**128,
    p_j = alpha * a_j mod 2**128 exactly, with phases taken from those
    numerators.  The n = 0 term contributes L - L/N; the rest is
    truncated at |n| <= M, and truncation_bound is a rigorous bound on
    what the dropped terms |n| > M contribute.

    With tent_fourier(ell*n) <= 1/(pi*ell*n)^2 and L = N*ell, the tail
    is at most (2/(pi^2 L)) * sum_{n>M} ||T_n|^2 - N| / n^2.  Bounds on
    it:

    - trivial: |T_n|^2 - N lies in [-N, N^2 - N], so for N >= 2
      ||T_n|^2 - N| <= N(N-1), and sum_{n>M} 1/n^2 <= 1/M gives
      2*N(N-1)/(pi^2*L*M);
    - large sieve with near pairs: for any K consecutive n and
      0 < d <= 1/2, sum |T_n|^2 <= (K - 1 + 1/d) * P(d), where P(d)
      counts the ordered pairs (j, k), j = k included, at circular
      distance < d.  (Sum Selberg's majorant of the n-window, whose
      Fourier transform lives on [-d, d] and is at most K - 1 + 1/d,
      against |T_n|^2 and apply Poisson summation.)  At d = delta, the
      least gap, P = N: the Montgomery-Vaughan inequality.  So
      a_n = |T_n|^2 + N >= ||T_n|^2 - N| has
      A(n') = sum_{M<n<=n'} a_n <= (n'-M)(P + N) + (1/d - 1) * P, and
      partial summation against the decreasing 1/n^2,
      sum_{n>M} a_n/n^2 = sum_{n'>M} A(n') * (1/n'^2 - 1/(n'+1)^2),
      gives (2/(pi^2 L)) * ((P + N)/M + (1/d - 1) * P/(M+1)^2).

    The large sieve is taken at two spacings, both exact from the
    numerators with 1/d rounded up: d = delta (P = N; none for tied
    points), which wins once M is far above 1/delta, and d = 1/(4N)
    with P = N + 2 * (pairs closer than d), which wins when M is
    near 1/delta.  There delta alone would make M, and the run time,
    swing with the one closest pair (at N = 300, tol 1e-2, M spans
    2.6e3..1.1e5 over alpha), while a count of ~N/4 pairs is steady.
    M is sized for P >= 2N (at least N/2 close pairs, twice their
    alpha-average), so for all but clustered point sets M depends on
    N, L and tol alone; the reported bound uses the actual P.  N = 1
    has no tail (|T_n|^2 = N).  M is the least M >= 1 at which the
    smallest of the bounds is <= tol, so it never exceeds the trivial
    bound's M, and that smallest bound is reported as truncation_bound.
    M above FOURIER_TERM_CEILING, a time budget, raises BudgetError before
    any phase is taken.  The spacings are read off the sorted points of
    dilate_mod1; the phases are taken from the words in term order.

    The kernel (_phase_sum) takes each phase as the product of two exact
    table phases and sums in fixed blocks with no BLAS, so the working set
    stays in cache and the reduction order is fixed.
    """
    n_pts = len(seq)
    if params.N != n_pts:
        raise WindowError(
            "params built for N=%d but sequence has %d terms" % (params.N, n_pts)
        )
    L = params.L
    if tol <= 0 or not math.isfinite(tol):
        raise BudgetError("tol must be positive: the truncation point diverges")
    points = dilate_mod1(alpha, seq)
    m_terms, bound = _truncation_point(
        n_pts, L, tol, _min_gap(points.hi, points.lo),
        _close_pairs(points.hi, points.lo, _close_spacing(n_pts)))
    del points
    if m_terms > FOURIER_TERM_CEILING:
        raise BudgetError(
            "spectral sum needs M=%d terms > ceiling %d; raise tol"
            % (m_terms, FOURIER_TERM_CEILING)
        )
    # term order, not sorted: the phase sum reduces in index order
    u_hi, u_lo = mul_words(alpha.numerator, seq.terms)
    tail_sum = _phase_sum(u_hi, u_lo, params.ell, 1, m_terms + 1)
    r2 = L - L / n_pts + (2.0 * L / (n_pts * n_pts)) * tail_sum
    return PairCorrResult(r2=r2, method="fourier", truncation_bound=bound, params=params)


def _close_spacing(n_pts: int) -> int:
    """Numerator of the near-pair spacing d = 1/(4N) of the large sieve."""
    return MODULUS // (4 * n_pts)


def _min_gap(hi, lo) -> int:
    """Least circular gap between the sorted numerators, as a Python int.

    The gaps are those between neighbours plus the wrap-around gap
    p_0 + 2**128 - p_(n-1).  Equal numerators give 0; a single numerator
    gives 2**128.
    """
    wrap = join(hi[0], lo[0]) + MODULUS - join(hi[-1], lo[-1])
    if hi.size == 1:
        return wrap
    # neighbours are sorted, so every difference is >= 0 and needs one borrow
    d_lo = lo[1:] - lo[:-1]
    d_hi = hi[1:] - hi[:-1] - (lo[1:] < lo[:-1]).astype(np.uint64)
    least = d_hi.min()
    return min(join(least, d_lo[d_hi == least].min()), wrap)


def _close_pairs(hi, lo, d: int) -> int:
    """#unordered pairs of the sorted numerators at circular distance < d, as a Python int.

    0 < d <= 2**127, so no pair is close both ways round.  Point i counts
    the points after it that lie below p_i + d: r_i - (i + 1), or, for
    the last w points, whose p_i + d wraps past 2**128, N - (i + 1) + r_i,
    r_i = rank(p_i + d mod 2**128).  Equal numerators are at distance 0.
    """
    ranks, w = _rotated_ranks(hi, lo, hi, lo, d)
    n = hi.size
    return int(ranks.sum(dtype=np.int64)) + n * w - n * (n + 1) // 2


def _truncation_point(n_pts: int, L: float, tol: float, gap: int, pairs: int):
    """(M, bound) for pair_correlation_fourier.

    gap is the least gap numerator, pairs the number of unordered pairs
    closer than _close_spacing(n_pts).
    """
    if n_pts == 1:
        return 1, 0.0
    scale = 2.0 / (math.pi**2 * L)

    def trivial(m: int) -> float:
        return 2.0 * n_pts * (n_pts - 1) / (math.pi**2 * L * m)

    def sieve(m: int, inv_d: int, p: int) -> float:
        m1 = m + 1.0  # m1 * m1 goes to inf where ** would raise, far past any ceiling
        return scale * ((p + n_pts) / m + float(inv_d - 1) * p / (m1 * m1))

    def sieves(m: int, p: int) -> float:
        near = sieve(m, -(-MODULUS // _close_spacing(n_pts)), p)
        return min(near, sieve(m, -(-MODULUS // gap), n_pts)) if gap else near

    m_real = 2.0 * n_pts * (n_pts - 1) / (math.pi**2 * L * tol)
    if not math.isfinite(m_real):
        raise BudgetError("tol %g too small: the truncation point overflows" % tol)
    m_trivial = max(1, math.ceil(m_real))
    sized = max(n_pts + 2 * pairs, 2 * n_pts)
    # least M in [1, m_trivial] with sieves(M, sized) <= tol; it decreases in M
    low, high = 0, m_trivial
    if sieves(high, sized) <= tol:
        while high - low > 1:
            mid = (low + high) // 2
            if sieves(mid, sized) <= tol:
                high = mid
            else:
                low = mid
    return high, min(trivial(high), sieves(high, n_pts + 2 * pairs))


def _phase_sum(u_hi, u_lo, ell: float, n_lo: int, n_hi: int) -> float:
    """sum_{n_lo <= n < n_hi} tent_fourier(ell*n) * (|T_n|^2 - N) over the words u.

    Baby steps and giant steps: n * u = n0 * u + k * u mod 2**128, so
    e(n x_j) = e(n0 x_j) * e(k x_j) for n = n0 + k, 0 <= k < B, and each
    factor comes from phase_top_bits, off by < 2**-64 turns before rounding.
    B is the power of two nearest sqrt(min(n_hi - n_lo, E)), E =
    _PHASE_CHUNK_ENTRIES, which minimises the B + E/B phase rows behind
    a block of E products.  Per block of E/B giant steps n0 and per block
    of points, T_{n0+k} gains one np.einsum of the giant rows with the
    baby table, so the cos/sin calls drop from (n_hi - n_lo)*N to about
    ((n_hi - n_lo)/B + B)*N.  No table or block exceeds E entries, and the
    points are blocked in index order with no BLAS (einsum's default
    optimize=False), so the reduction order is a fixed function of
    (N, n_lo, n_hi), whatever the thread count.
    """
    n_pts = u_hi.size
    count = n_hi - n_lo
    if count <= 0:
        return 0.0
    baby = 1 << round(math.log2(min(count, _PHASE_CHUNK_ENTRIES)) / 2)
    rows = min(-(-count // baby), _PHASE_CHUNK_ENTRIES // baby)  # giant steps per block
    block = _PHASE_CHUNK_ENTRIES // max(baby, rows)  # points per table
    ks = np.arange(baby, dtype=np.uint64)
    chunk_sums = []
    for n0 in range(n_lo, n_hi, rows * baby):
        nn = np.arange(n0, min(n0 + rows * baby, n_hi), dtype=np.uint64)
        t = np.zeros((-(-nn.size // baby), baby), dtype=np.complex128)
        for j in range(0, n_pts, block):
            hi, lo = u_hi[j:j + block], u_lo[j:j + block]
            t += np.einsum("rj,kj->rk", _unit_phases(nn[::baby], hi, lo), _unit_phases(ks, hi, lo))
        t = t.ravel()[:nn.size]
        abs_t2 = t.real * t.real + t.imag * t.imag
        w = np.sinc(ell * nn.astype(np.float64)) ** 2
        chunk_sums.append(np.sum(w * (abs_t2 - n_pts)))
    return float(np.sum(np.asarray(chunk_sums)))


def _unit_phases(nn, u_hi, u_lo):
    """e(n * x_j) = exp(2 pi i n u_j / 2**128), one row per n."""
    ang = (2.0 * np.pi) * phase_top_bits(nn, u_hi, u_lo)
    out = np.empty(ang.shape, dtype=np.complex128)
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    return out
