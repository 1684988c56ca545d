"""Counting statistics of point sets on the unit circle.

Central quantities, for N points x_1..x_N in [0,1), a window length
ell = L/N, and a test function f:

  count S(c)     = #{j : x_j in [c - ell/2, c + ell/2) mod 1}
  variance       = average of (S(c) - L)^2 over uniform random centers c
  pair corr R2   = (1/N) * sum over ordered pairs i != j and integer
                   shifts m of f((x_i - x_j + m) / ell)

The variance is computed by three independent routes: an exact tent-sum
scan over near pairs (number_variance_exact), random-center counting
with exact interval membership (number_variance_montecarlo), and a
truncated spectral sum (number_variance_fourier).  They are tied
together by the identity

  variance = L - L^2 + L * R2(tent),

which doubles as the module's master self-test.

Counting conventions: windows are half-open [c - ell/2, c + ell/2), and
membership is decided on exact 128-bit numerators, never on floats.
The scan routes work on the float64 shadow of the points, which is
accurate to ~2^-53 and only ever feeds smooth/bounded test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np
from numpy.random import Philox

from .errors import BudgetError, SupportError, WindowError
from .fixedpoint import (
    MODULUS,
    PHASE_N_BOUND,
    FixedPointReal,
    add_words,
    less_words,
    mul_words,
    phase_top_bits,
    rank_words,
    to_words,
)
from .sequences import IntegerSequence, PointSet

_CENTER_STREAM = 0x63656E74  # Philox counter tag for window centers

# Ceiling on spectral-sum terms; BudgetError above this (raise tol instead).
FOURIER_TERM_CEILING = 10**9

# Chunk sizes, fixed constants so reductions are order-deterministic.
_PAIR_CHUNK = 1 << 22
_PHASE_CHUNK_ENTRIES = 1 << 21


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

        Exact (no flooring occurs) whenever ell is a float with exponent
        >= -128, which holds for every admissible N <= 10**6 regime.
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
    with a declared support radius; evaluated by linear interpolation,
    zero outside the table).
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
# near-pair scan
# ---------------------------------------------------------------------------

def _ragged_arange(lens):
    total = int(lens.sum())
    shift = np.repeat(np.cumsum(lens) - lens, lens)
    return np.arange(total, dtype=np.int64) - shift


def _iter_near_pairs(y: np.ndarray, radius: float) -> Iterator[np.ndarray]:
    """Forward circular distances d <= radius, one entry per directed gather.

    y must be sorted ascending in [0, 1).  Each unordered pair {p, q}
    with forward distance d (from the earlier to the later point) is
    yielded once when d <= radius, and again as 1 - d when the opposite
    orientation is also within radius.  Consumers that add f(+d/ell) +
    f(-d/ell) per entry therefore reproduce the full ordered double sum
    with all integer shifts, for any radius <= 1 and any f vanishing
    outside [-radius/ell, radius/ell] (closed support).

    The gather bound is inflated by a few ulps so exact-boundary pairs
    are never dropped; over-gathered entries are harmless since f is
    zero beyond its closed support.
    """
    n = y.size
    if n < 2:
        return
    ext = np.concatenate([y, y + 1.0])
    slack = radius * (1.0 + 2.0**-50) + 2.0**-50
    upper = np.searchsorted(ext, y + slack, side="right")
    starts = np.arange(1, n + 1, dtype=np.int64)
    lens = upper - starts
    cum = np.cumsum(lens)
    total = int(cum[-1])
    if total == 0:
        return
    # split [0, n) into row blocks of at most _PAIR_CHUNK pairs each
    edges = np.searchsorted(cum, np.arange(_PAIR_CHUNK, total, _PAIR_CHUNK), side="left") + 1
    bounds = np.concatenate([[0], edges, [n]])
    for i0, i1 in zip(bounds[:-1], bounds[1:]):
        if i0 >= i1:
            continue
        ln = lens[i0:i1]
        tot = int(ln.sum())
        if tot == 0:
            continue
        j = np.repeat(starts[i0:i1], ln) + _ragged_arange(ln)
        d = ext[j] - np.repeat(y[i0:i1], ln)
        yield d


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

    Uses variance = ell * sum_{i,j,m} tent((x_i - x_j + m)/ell) - L^2.
    The diagonal contributes exactly L; off-diagonal terms vanish unless
    the circular distance is below ell, so a windowed scan over the
    sorted circle costs O(N log N + #near pairs).
    """
    _check_points(points, params)
    n = params.N
    ell = params.ell
    L = params.L
    chunk_sums = []
    for d in _iter_near_pairs(points.x, ell):
        t = d / ell
        chunk_sums.append(np.sum(np.maximum(1.0 - np.abs(t), 0.0)))
    pair_sum = 2.0 * float(np.sum(np.asarray(chunk_sums))) if chunk_sums else 0.0
    sigma2 = ell * (n + pair_sum) - L * L
    return VarianceResult(sigma2=sigma2, method="exact_tent", mc_stderr=None, params=params)


def number_variance_montecarlo(
    points: PointSet, params: WindowParams, samples: int, seed: int
) -> VarianceResult:
    """Variance estimated from uniform random centers, exact counts.

    Second moment about the analytic mean L (not the sample mean):
    estimate = mean((S - L)^2), stderr = sd((S - L)^2)/sqrt(samples).
    Centers come from a counter-based stream, so the estimate is a pure
    function of (points, params, samples, seed).
    """
    _check_points(points, params)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    raw = Philox(key=seed % (1 << 128), counter=[0, 0, 0, _CENTER_STREAM]).random_raw(2 * samples)
    c_hi = raw[0::2]
    c_lo = raw[1::2]
    counts = _window_counts(points, params, c_hi, c_lo)
    y = (counts.astype(np.float64) - params.L) ** 2
    estimate = float(np.mean(y))
    stderr = float(np.std(y, ddof=1) / math.sqrt(samples))
    return VarianceResult(sigma2=estimate, method="monte_carlo", mc_stderr=stderr, params=params)


def number_variance_fourier(
    seq: IntegerSequence,
    alpha: FixedPointReal,
    params: WindowParams,
    tol: float,
    *,
    max_terms: int = FOURIER_TERM_CEILING,
) -> VarianceResult:
    """Third variance route: spectral pair correlation + the identity.

    variance = L - L^2 + L * R2(tent), with R2 from the truncated
    spectral sum; the truncation contributes at most L * tol.
    """
    r2 = pair_correlation_fourier(seq, alpha, params, tol, max_terms=max_terms)
    sigma2 = params.L - params.L**2 + params.L * r2.r2
    return VarianceResult(sigma2=sigma2, method="fourier", mc_stderr=None, params=params)


# ---------------------------------------------------------------------------
# pair correlation
# ---------------------------------------------------------------------------

def pair_correlation_direct(
    points: PointSet, params: WindowParams, f: TestFunction
) -> PairCorrResult:
    """(1/N) * sum over ordered pairs i != j, shifts m, of f((x_i-x_j+m)/ell).

    Windowed scan when the scaled support radius R*ell is at most 1/2
    (or at most 1 for functions vanishing at their support edge, which
    covers the tent at every admissible ell); otherwise the full O(N^2)
    double sum over explicit shifts.
    """
    _check_points(points, params)
    if not (f.radius > 0):
        raise SupportError("test function must declare a positive support radius")
    ell = params.ell
    rad = f.radius * ell
    if rad <= 0.5 or (rad <= 1.0 and f.vanishes_at_support_edge()):
        chunk_sums = []
        for d in _iter_near_pairs(points.x, rad):
            t = d / ell
            chunk_sums.append(np.sum(f(t) + f(-t)))
        total = float(np.sum(np.asarray(chunk_sums))) if chunk_sums else 0.0
    else:
        total = _pair_sum_bruteforce(points.x, ell, f)
    return PairCorrResult(r2=total / params.N, method="direct", truncation_bound=None, params=params)


def _pair_sum_bruteforce(y: np.ndarray, ell: float, f: TestFunction) -> float:
    """Full ordered double sum with explicit integer shifts; O(N^2) fallback."""
    n = y.size
    m_span = int(math.ceil(f.radius * ell)) + 1
    rows_per_chunk = max(1, _PAIR_CHUNK // max(n, 1))
    chunk_sums = []
    for i0 in range(0, n, rows_per_chunk):
        i1 = min(i0 + rows_per_chunk, n)
        diff = y[i0:i1, None] - y[None, :]
        acc = np.zeros_like(diff)
        for m in range(-m_span, m_span + 1):
            acc += f((diff + m) / ell)
        # remove the diagonal i == j (difference 0, all shifts)
        idx = np.arange(i0, i1)
        acc[np.arange(i1 - i0), idx] = 0.0
        chunk_sums.append(np.sum(acc))
    return float(np.sum(np.asarray(chunk_sums))) if chunk_sums else 0.0


def pair_correlation_fourier(
    seq: IntegerSequence,
    alpha: FixedPointReal,
    params: WindowParams,
    tol: float,
    *,
    max_terms: int = FOURIER_TERM_CEILING,
) -> PairCorrResult:
    """Spectral route: R2 = (L/N^2) * sum_n tent_fourier(ell*n) * (|T_n|^2 - N).

    T_n = sum_j e(n * alpha * a_j), with phases taken from the exact
    128-bit fractional parts.  The n = 0 term contributes L - L/N; the
    rest is truncated at |n| <= M with M chosen so the rigorous tail
    bound 2*N^2/(pi^2*L*M) is at most tol.  That bound combines
    tent_fourier(ell*n) <= 1/(pi*ell*n)^2 with the trivial bound N^2 on
    ||T_n|^2 - N|; the value actually achieved at the chosen M is
    reported as truncation_bound.  M must stay below 2**32, the range
    where the phases are exact.
    """
    n_pts = len(seq)
    if params.N != n_pts:
        raise WindowError(
            "params built for N=%d but sequence has %d terms" % (params.N, n_pts)
        )
    L = params.L
    ell = params.ell
    if tol <= 0 or not math.isfinite(tol):
        raise BudgetError("tol must be positive: the truncation point diverges")
    m_terms = math.ceil(2.0 * n_pts * n_pts / (math.pi**2 * L * tol))
    m_terms = max(m_terms, 1)
    ceiling = min(max_terms, PHASE_N_BOUND - 1)
    if m_terms > ceiling:
        raise BudgetError(
            "spectral sum needs M=%d terms > ceiling %d; raise tol"
            % (m_terms, ceiling)
        )
    u_hi, u_lo = mul_words(alpha.numerator, seq.terms)

    chunk = max(1, _PHASE_CHUNK_ENTRIES // n_pts)
    chunk_sums = []
    for n0 in range(1, m_terms + 1, chunk):
        nn = np.arange(n0, min(n0 + chunk, m_terms + 1), dtype=np.uint64)
        theta = phase_top_bits(nn, u_hi, u_lo)
        ang = (2.0 * np.pi) * theta
        t_re = np.cos(ang).sum(axis=1)
        t_im = np.sin(ang).sum(axis=1)
        abs_t2 = t_re * t_re + t_im * t_im
        w = np.sinc(ell * nn.astype(np.float64)) ** 2
        chunk_sums.append(np.sum(w * (abs_t2 - n_pts)))
    tail_sum = float(np.sum(np.asarray(chunk_sums))) if chunk_sums else 0.0
    r2 = L - L / n_pts + (2.0 * L / (n_pts * n_pts)) * tail_sum
    bound = 2.0 * n_pts * n_pts / (math.pi**2 * L * m_terms)
    return PairCorrResult(r2=r2, method="fourier", truncation_bound=bound, params=params)
