"""Numerical checks of the analytic estimates behind Poissonian variance.

Everything here verifies an inequality or identity about the spectral
side of the pair correlation:

  - lemma1_check:   sum_{n != 0} tent_fourier(a n)^2 < 1/|a|
  - lemma2_check:   the gcd-weighted cross sum over a rational ray is
                    at most gcd(w_r, w_s)/sqrt(|w_r w_s|)
  - fourier_coefficient: the k-th Fourier coefficient of R2 as a
                    function of the dilation factor, via divisors of k
  - mean_pair_correlation: the dilation-average of R2, exactly L - L/N
  - x_second_moment: the variance of R2 over the dilation factor, by a
                    spectral (Parseval) route and by direct quadrature
  - deviation_measure: fraction of sampled dilations whose number
                    variance strays from L by more than delta * L

Inequality checks always report lhs plus a rigorous truncation tail, so
a truncated evaluation can never produce a false "ok".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .energy import difference_count, difference_profile
from .errors import BudgetError
from .fixedpoint import FixedPointReal
from .sequences import IntegerSequence, SequenceSpec, dilate_mod1, generate_sequence, sample_alpha
from . import stats
from .stats import (
    TestFunction,
    WindowParams,
    number_variance_exact,
    pair_correlation_direct,
    tent_fourier,
)

_SUM_CHUNK = 1 << 22
# Ceiling on the terms M a lemma check sums; M above it raises BudgetError
# before any term is summed (demo 05 and the verify suites stay far below)
_LEMMA_TERM_CEILING = 5 * 10**7

# Ceiling on N for the alpha_grid quadrature, which runs one direct pair
# correlation per grid point; the parseval route has no such cap.
_ALPHA_GRID_MAX_N = 256
# alpha_grid points before any doubling, and the most it may double to
_GRID_START = 256
_GRID_CAP = 65536


class Lemma1Result(NamedTuple):
    lhs: float
    tail_bound: float
    bound: float
    ok: bool


class Lemma2Result(NamedTuple):
    lhs: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class FourierCoefficient:
    k: int
    value: float
    N: int
    L: float


def _sum_chunked(total_terms: int, term_fn) -> float:
    """Sum term_fn(n) for n = 1..total_terms in fixed-size chunks."""
    chunk_sums = []
    for n0 in range(1, total_terms + 1, _SUM_CHUNK):
        nn = np.arange(n0, min(n0 + _SUM_CHUNK, total_terms + 1), dtype=np.float64)
        chunk_sums.append(np.sum(term_fn(nn)))
    return float(np.sum(np.asarray(chunk_sums))) if chunk_sums else 0.0


def _lemma_terms(est: float) -> int:
    """Truncation point M = max(8, ceil(est)); BudgetError when M > _LEMMA_TERM_CEILING."""
    m_terms = max(8.0, est)
    if not m_terms <= _LEMMA_TERM_CEILING:  # for a whole ceiling, the same as ceil(m_terms) > it
        raise BudgetError("lemma check needs M=%.4g terms > %d" % (m_terms, _LEMMA_TERM_CEILING))
    return math.ceil(m_terms)


def lemma1_check(a: float, tol: float = 1e-9) -> Lemma1Result:
    """Check sum over n != 0 of tent_fourier(a n)^2 against 1/|a|.

    The sum is truncated at M chosen so the tail bound 4/(3 pi^4 a^4
    M^3) is at most tol (each tail term is below 1/(pi a n)^4); ok
    requires lhs + tail_bound < 1/|a|, so truncation cannot flip a
    failing check to passing.  M above _LEMMA_TERM_CEILING raises
    BudgetError before anything is summed.
    """
    if a == 0 or not math.isfinite(a):
        raise ValueError("a must be finite and nonzero, got %r" % a)
    if tol <= 0 or not math.isfinite(tol):
        raise BudgetError("tol must be positive: the truncation point diverges")
    aa = abs(a)
    # M^3 * tail = 4/(3 pi^4 a^4), taken through its cube root: a**4
    # under- or overflows long before the root or the estimate does
    root = (4.0 / (3.0 * math.pi**4)) ** (1.0 / 3.0) / aa / aa ** (1.0 / 3.0)
    m_terms = _lemma_terms(root / tol ** (1.0 / 3.0))
    lhs = 2.0 * _sum_chunked(m_terms, lambda nn: np.sinc(aa * nn) ** 4)
    tail = (root / m_terms) ** 3
    bound = 1.0 / aa
    return Lemma1Result(lhs=lhs, tail_bound=tail, bound=bound, ok=bool(lhs + tail < bound))


def lemma2_check(
    w_r: int, w_s: int, params: WindowParams, tol: Optional[float] = None
) -> Lemma2Result:
    """Check the gcd cross-sum bound for a pair of nonzero differences.

    lhs = (L/N) * sum over n0 != 0 of
          tent_fourier(ell w_r n0 / d) * tent_fourier(ell w_s n0 / d),
    d = gcd(w_r, w_s): the diagonal ray n1 = n0 w_r/d, n2 = n0 w_s/d of
    spectral pairs with n1 w_s = n2 w_r.  bound = d / sqrt(|w_r w_s|).
    ok requires lhs + tol < bound, with the truncation tail held below
    tol by the quartic decay of the summand.

    tol defaults to 5% of the bound, keeping truncation cheap at every
    scale while leaving a wide rigorous margin.  M above
    _LEMMA_TERM_CEILING raises BudgetError before anything is summed.
    """
    if w_r == 0 or w_s == 0:
        raise ValueError("w_r and w_s must be nonzero")
    d = math.gcd(abs(w_r), abs(w_s))
    bound = d / math.sqrt(abs(w_r) * abs(w_s))
    if tol is None:
        tol = 0.05 * bound
    if tol <= 0 or not math.isfinite(tol):
        raise BudgetError("tol must be positive: the truncation point diverges")
    a = params.ell
    f_r = a * abs(w_r) / d
    f_s = a * abs(w_s) / d
    # tail term at n: (pi^2 f_r f_s n^2)^-2; both signs, integral bound
    # M^3 * tol = 4 a / (3 pi^4 f_r^2 f_s^2), taken through its cube root
    # factor by factor: f_r^2 f_s^2 and 4a/(3 pi^4) underflow long before
    # the root or the estimate does
    root = (
        (4.0 / (3.0 * math.pi**4)) ** (1.0 / 3.0) * a ** (1.0 / 3.0)
        / f_r ** (2.0 / 3.0) / f_s ** (2.0 / 3.0)
    )
    m_terms = _lemma_terms(root / tol ** (1.0 / 3.0))
    body = _sum_chunked(
        m_terms, lambda nn: (np.sinc(f_r * nn) ** 2) * (np.sinc(f_s * nn) ** 2)
    )
    lhs = a * 2.0 * body
    return Lemma2Result(lhs=lhs, bound=bound, ok=bool(lhs + tol < bound))


def _positive_divisors(k: int) -> list:
    k = abs(k)
    small, large = [], []
    i = 1
    while i * i <= k:
        if k % i == 0:
            small.append(i)
            if i != k // i:
                large.append(k // i)
        i += 1
    return small + large[::-1]


def fourier_coefficient(seq: IntegerSequence, k: int, params: WindowParams) -> FourierCoefficient:
    """k-th Fourier coefficient of R2(tent) as a function of the dilation.

    Equals (L/N^2) * sum over nonzero integers n and profile differences
    w with n*w = k of W(w) * tent_fourier(ell n).  Only divisors n of k
    contribute, so the sum is finite and exact; each W(+-w) = W(|w|)
    comes from one sorted search over the terms.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    n = params.N
    total = 0.0
    for div in _positive_divisors(k):
        mult = 2 * difference_count(seq, k // div)
        if mult:
            total += mult * tent_fourier(params.ell * div)
    value = (params.L / (n * n)) * total
    return FourierCoefficient(k=k, value=value, N=n, L=params.L)


def mean_pair_correlation(params: WindowParams) -> float:
    """Average of R2(tent) over the dilation factor: exactly L - L/N."""
    return params.L - params.L / params.N


def centered_statistic(
    seq: IntegerSequence, alpha: FixedPointReal, params: WindowParams
) -> float:
    """R2(tent) at one dilation minus its dilation-average."""
    points = dilate_mod1(alpha, seq)
    r2 = pair_correlation_direct(points, params, TestFunction.tent()).r2
    return r2 - mean_pair_correlation(params)


def _grid_r2(seq: IntegerSequence, params: WindowParams, q: int, numerators) -> np.ndarray:
    """R2(tent) at the grid dilation nearest p/q, for each p in numerators."""
    f = TestFunction.tent()
    r2 = []
    for p in numerators:
        points = dilate_mod1(FixedPointReal.from_fraction(p, q), seq)
        r2.append(pair_correlation_direct(points, params, f).r2)
    return np.array(r2, dtype=np.float64)


def pair_correlation_grid(
    seq: IntegerSequence, params: WindowParams, grid_size: int
) -> np.ndarray:
    """R2(tent) sampled at dilations j/Q, j = 0..Q-1 (nearest grid points)."""
    return _grid_r2(seq, params, grid_size, range(grid_size))


def x_second_moment(
    seq: IntegerSequence,
    params: WindowParams,
    method: str = "alpha_grid",
    *,
    rel_tol: float = 1e-3,
    tol: float = 1e-6,
    max_k: int = 1 << 26,
) -> float:
    """Variance of R2(tent) over the dilation factor.

    method "alpha_grid": quadrature of (R2 - (L - L/N))^2 over a uniform
    dilation grid of 256 points, doubling the density until two
    refinements agree to rel_tol, then Richardson-extrapolated; more
    than _GRID_CAP points raise BudgetError.  Needs N <= 256.

    method "parseval": sum of squared Fourier coefficients over indices
    k = n * w, 1 <= n <= M and w in the difference profile, with M from
    the trivial tail rule M = 2N^2/(pi^2*L*tol), at most the spectral
    route's stats.FOURIER_TERM_CEILING.  The large-sieve rule of the
    spectral pair correlation does not apply: this route averages over
    alpha, so there are no dilated points to take a least gap or close
    pairs from.  Coefficients are accumulated by a blocked divisor sieve
    over k, so memory stays bounded regardless of how many (n, w) pairs
    contribute.  Slightly below the true moment: |n| > M terms are
    dropped everywhere, and |k| > max_k coefficients entirely; both
    tails decay like the cube of the cutoff, and halving tol and
    doubling max_k is the practical convergence test.
    """
    if method == "alpha_grid":
        if params.N > _ALPHA_GRID_MAX_N:
            raise BudgetError("alpha_grid quadrature capped at N <= %d" % _ALPHA_GRID_MAX_N)
        grid = _GRID_START
        mean = mean_pair_correlation(params)

        vals = pair_correlation_grid(seq, params, grid)
        prev = float(np.mean((vals - mean) ** 2))
        while True:
            if 2 * grid > _GRID_CAP:
                raise BudgetError(
                    "alpha grid did not stabilize to %g within %d points"
                    % (rel_tol, _GRID_CAP)
                )
            odd = _grid_r2(seq, params, 2 * grid, range(1, 2 * grid, 2))
            vals = np.stack((vals, odd), axis=1).ravel()  # interleave: p = 0, 1, 2, ...
            grid *= 2
            cur = float(np.mean((vals - mean) ** 2))
            if abs(cur - prev) <= rel_tol * max(abs(cur), 1e-300):
                # one Richardson step for the O(h^2) quadrature error
                return cur + (cur - prev) / 3.0
            prev = cur

    if method == "parseval":
        if tol <= 0 or not math.isfinite(tol):
            raise BudgetError("tol must be positive: the truncation point diverges")
        n = params.N
        m_terms = max(1, math.ceil(2.0 * n * n / (math.pi**2 * params.L * tol)))
        if m_terms > stats.FOURIER_TERM_CEILING:
            raise BudgetError(
                "parseval route needs M=%d terms > ceiling %d" % (m_terms, stats.FOURIER_TERM_CEILING)
            )
        profile = difference_profile(seq)
        if profile.distinct == 0:
            return 0.0  # one term: R2 is 0 at every dilation
        # the profile holds w > 0 and b_{-k} = b_k, so work on k >= 1 and
        # double; the n <= -1 half of each coefficient folds onto n >= 1
        scale = 2.0 * params.L / (n * n)
        ell = params.ell
        u_top = min(max_k, m_terms * int(profile.values[-1]))
        block = 1 << 22
        total = 0.0
        for u0 in range(1, u_top + 1, block):
            u1 = min(u0 + block, u_top + 1)
            acc = np.zeros(u1 - u0, dtype=np.float64)
            for w, c in zip(profile.values.tolist(), profile.counts.tolist()):
                n_lo = -(-u0 // w)
                n_hi = min(m_terms, (u1 - 1) // w)
                if n_lo > n_hi:
                    continue
                nn = np.arange(n_lo, n_hi + 1, dtype=np.float64)
                acc[w * n_lo - u0 : w * n_hi - u0 + 1 : w] += (
                    (scale * c) * tent_fourier(ell * nn)
                )
            total += float(np.sum(acc * acc))
        return 2.0 * total

    raise ValueError("method must be 'alpha_grid' or 'parseval'")


def deviation_measure(
    seq_spec: SequenceSpec,
    params: WindowParams,
    delta: float,
    alpha_samples: int,
    seed: int,
) -> float:
    """Fraction of sampled dilations with |variance - L| > delta * L."""
    if not (delta > 0 and math.isfinite(delta)):
        raise ValueError("delta must be finite and positive, got %r" % delta)
    if alpha_samples < 1:
        raise ValueError("alpha_samples must be >= 1")
    seq = generate_sequence(seq_spec, params.N)
    threshold = delta * params.L
    bad = 0
    for i in range(alpha_samples):
        alpha = sample_alpha(seed, i)
        points = dilate_mod1(alpha, seq)
        sigma2 = number_variance_exact(points, params).sigma2
        if abs(sigma2 - params.L) > threshold:
            bad += 1
    return bad / alpha_samples
