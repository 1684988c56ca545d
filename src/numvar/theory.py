"""Numerical checks of the analytic estimates behind Poissonian variance.

Everything here verifies an inequality or identity about the spectral
side of the pair correlation:

  - lemma1_check:   sum_{n != 0} tent_fourier(a n)^2 < 1/|a|
  - lemma2_check:   the gcd-weighted cross sum over a rational ray is
                    at most gcd(w_r, w_s)/sqrt(|w_r w_s|)
  - fourier_coefficient: the k-th Fourier coefficient of R2 as a
                    function of the dilation factor, via divisors of k
  - mean_pair_correlation: the dilation-average of R2, exactly L - L/N
  - x_second_moment: the variance of R2 over the dilation factor, in
                    closed form or by a truncated spectral (Parseval) sum
  - deviation_measure: fraction of sampled dilations whose number
                    variance strays from L by more than delta * L

Both lemmas and the exact second moment are one finite expression, the
tent overlap Phi(u, v) = sum_{n != 0} sinc^2(n u) sinc^2(n v) in closed
form (_tent_overlap).  The inequality checks compare lhs plus its
declared rounding bound, so a rounded evaluation can never produce a
false "ok".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from .energy import DifferenceProfile, difference_count, difference_profile, gcd_row_blocks
from .errors import BudgetError
from .fixedpoint import MODULUS, FixedPointReal
from .sequences import IntegerSequence, SequenceSpec, dilate_mod1, generate_sequence, sample_alpha
from . import stats
from .stats import (
    TestFunction,
    WindowParams,
    number_variance_exact,
    pair_correlation_direct,
    tent_fourier,
)

_EPS = float(np.finfo(np.float64).eps)  # 2^-52
_TINY = float(np.finfo(np.float64).tiny)  # least normal float
_FLOAT_MAX = float(np.finfo(np.float64).max)
# Most values f-hat(ell n), n = 1, 2, ..., the parseval route tabulates
# (8 MiB); the n beyond it are evaluated per w and block
_PARSEVAL_TABLE = 1 << 20


class LemmaResult(NamedTuple):
    lhs: float
    bound: float
    ok: bool


@dataclass(frozen=True)
class FourierCoefficient:
    k: int
    value: float
    N: int
    L: float


def _tent_overlap(u, v, scale: float = 1.0) -> Tuple[np.ndarray, np.ndarray]:
    """scale * Phi(u, v) and its rounding bound, elementwise over u, v > 0.

    Phi(u, v) = sum over n != 0 of sinc^2(n u) sinc^2(n v).  By Poisson
    summation it is -(1/(24 u^2 v^2)) sum_{i,j} c_i c_j B4({i u + j v})
    over i, j in {-1, 0, 1}, c = (1, -2, 1), B4 the Bernoulli polynomial.
    With P(t) = t^2 (1 - t)^2 (B4 less its constant, which cancels, and
    even mod 1) the nine terms merge into
        Phi = (2 P({u}) + 2 P({v}) - P({u + v}) - P({u - v})) / (12 u^2 v^2).
    For u >= v and u + v <= 1 this is the polynomial 1/u - v/(3 u^2) - 1,
    taken as (1 - (v/u)/3)/u - 1 so that no u^2 or v^2 is formed: there
    the nine-term form would cancel its leading terms.

    Phi >= 0, so a value rounded below 0 is clipped to 0.  Rounding
    bound: with eps = 2^-52, s = scale and u >= v, the returned value
    lies within err of s * Phi(u', v') for all real u', v' within a
    relative eps of u and v, where
        err = eps * (5 s/u + 8 value) + tiny                        (u + v <= 1)
        err = eps * ((1 + u + v) s / (6 u^2 v^2) + 8 value) + tiny  (u + v > 1)
    and tiny, the least normal float, covers underflow.  So the bound
    also covers the rounding of a product like ell * a that forms an
    argument.  An err that overflows is inf (the value may then be nan),
    which no check passes.
    """
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    hi, lo = np.maximum(u, v), np.minimum(u, v)

    def quartic(x):  # P({x}) for x >= 0
        t = x - np.floor(x)
        return (t * (1.0 - t)) ** 2

    # both branches everywhere; the nine-term one may overflow where unused
    with np.errstate(over="ignore", invalid="ignore"):
        inv = scale / hi
        f = inv / hi / lo / lo
        num = 2.0 * (quartic(hi) + quartic(lo)) - (quartic(hi + lo) + quartic(hi - lo))
        near = hi + lo <= 1.0
        value = np.where(near, inv * (1.0 - (lo / hi) / 3.0) - scale, num / 12.0 * f)
        err = np.where(near, 5.0 * inv, (1.0 + hi + lo) / 6.0 * f)
    value = np.maximum(value, 0.0)
    return value, _EPS * (err + 8.0 * value) + _TINY


def lemma1_check(a: float) -> LemmaResult:
    """Check sum over n != 0 of tent_fourier(a n)^2 against 1/|a|.

    lhs = Phi(|a|, |a|) in closed form (_tent_overlap), 2/(3|a|) - 1 for
    |a| <= 1/2.  ok requires lhs plus its rounding bound below 1/|a|, so
    rounding cannot flip a failing check to passing.  ValueError for a
    zero or non-finite a, and for 1/|a| not finite (|a| below about 2^-1024).
    """
    if not (math.isfinite(a) and a != 0 and math.isfinite(1.0 / abs(a))):
        raise ValueError("a must be finite and nonzero with 1/|a| finite, got %r" % a)
    aa = abs(a)
    lhs, err = _tent_overlap(aa, aa)
    bound = 1.0 / aa
    return LemmaResult(lhs=float(lhs), bound=bound, ok=bool(lhs + err < bound))


def lemma2_check(w_r: int, w_s: int, params: WindowParams) -> LemmaResult:
    """Check the gcd cross-sum bound for a pair of nonzero differences.

    lhs = (L/N) * sum over n0 != 0 of
          tent_fourier(ell w_r n0 / d) * tent_fourier(ell w_s n0 / d),
    d = gcd(w_r, w_s): the diagonal ray n1 = n0 w_r/d, n2 = n0 w_s/d of
    spectral pairs with n1 w_s = n2 w_r.  That is ell * Phi(ell a, ell b)
    with a = |w_r|/d and b = |w_s|/d, in closed form (_tent_overlap).
    bound = d / sqrt(|w_r w_s|); ok requires lhs plus its rounding bound
    below it.  ValueError when |w_r w_s| is not a finite float, which
    covers every ell * a that is not one (ell <= 1).
    """
    if w_r == 0 or w_s == 0:
        raise ValueError("w_r and w_s must be nonzero")
    if abs(w_r) * abs(w_s) > _FLOAT_MAX:
        raise ValueError("|w_r w_s| must be a finite float")
    d = math.gcd(abs(w_r), abs(w_s))
    bound = d / math.sqrt(abs(w_r) * abs(w_s))
    ell = params.ell
    lhs, err = _tent_overlap(ell * (abs(w_r) // d), ell * (abs(w_s) // d), ell)
    return LemmaResult(lhs=float(lhs), bound=bound, ok=bool(lhs + err < bound))


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


def pair_correlation_grid(
    seq: IntegerSequence, params: WindowParams, grid_size: int
) -> np.ndarray:
    """R2(tent) sampled at dilations j/Q, j = 0..Q-1 (nearest grid points).

    Each value is pair_correlation_direct's r2 at that dilation; the
    tent's windows are built once for all of them.  ValueError for
    grid_size < 1.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1, got %r" % grid_size)
    f = TestFunction.tent()
    folded = stats._folded_windows(f, Fraction(params.ell) * MODULUS)
    r2 = []
    for p in range(grid_size):
        points = dilate_mod1(FixedPointReal.from_fraction(p, grid_size), seq)
        stats._check_points(points, params)
        r2.append(float(stats._pair_sum(points, params.ell, f, folded) / params.N))
    return np.array(r2, dtype=np.float64)


def _exact_moment(profile: DifferenceProfile, params: WindowParams) -> Tuple[float, float]:
    """The exact second moment m and its rounding bound err: |m - true| <= err.

    m = (4 ell/N^2) * sum over w, w' > 0 of W(w) W(w') T(w, w'), with
    T = ell * Phi(ell a, ell b), a = w/d, b = w'/d, d = gcd(w, w'), in
    the row blocks of energy.gcd_row_blocks.  err sums _tent_overlap's
    bound on each T, a relative 2 D eps on the sum of the W W' T for its
    at most 2D + 1 additions, and 2 eps * m for the scaling.
    """
    ell = params.ell
    weight = profile.counts.astype(np.float64)
    w = profile.values
    total = slack = 0.0
    for i0, i1, g in gcd_row_blocks(profile):
        t, e = _tent_overlap(ell * (w[i0:i1, None] // g), ell * (w // g), ell)
        total += float(weight[i0:i1] @ (t @ weight))
        slack += float(weight[i0:i1] @ ((e + 2.0 * w.size * _EPS * t) @ weight))
    scale = 4.0 * ell / (params.N * params.N)
    m = scale * total
    return m, scale * slack + 2.0 * _EPS * m


def x_second_moment(
    seq: IntegerSequence,
    params: WindowParams,
    method: str = "exact",
    *,
    tol: float = 1e-6,
    max_k: int = 1 << 26,
) -> float:
    """Variance of R2(tent) over the dilation factor.

    method "exact": m = (4 ell^2/N^2) * sum over w, w' > 0 of
    W(w) W(w') Phi(ell a, ell b), with a = w/d, b = w'/d, d = gcd(w, w').
    R2(alpha) = (1/N) * sum_{w != 0} W(w) g(alpha w), g the ell-periodised
    tent, and by Poisson summation the alpha-integral of the centered
    g(a x) g(b x) is ell^2 Phi(ell a, ell b), summed in closed form
    (_tent_overlap).  One O(D^2) pass over the D positive profile values,
    BudgetError when D > energy._GCD_MAX_DISTINCT.  Only rounding
    separates the float from m; _exact_moment states the bound.

    method "parseval": sum of squared Fourier coefficients over indices
    k = n * w, 1 <= n <= M and w in the difference profile, with M from
    the trivial tail rule M = 2N^2/(pi^2*L*tol), at most the spectral
    route's stats.FOURIER_TERM_CEILING.  The large-sieve rule of the
    spectral pair correlation does not apply: this route averages over
    alpha, so there are no dilated points to take a least gap or close
    pairs from.  Coefficients are accumulated by a blocked divisor sieve
    over k, so memory stays bounded regardless of how many (n, w) pairs
    contribute; tent_fourier(ell n), which does not depend on w, is read
    from one table per call of the first _PARSEVAL_TABLE n.  Slightly
    below the true moment: |n| > M terms are dropped everywhere, and
    |k| > max_k coefficients entirely; both tails decay like the cube of
    the cutoff, and halving tol and doubling max_k is the practical
    convergence test.  ValueError for max_k < 1.
    """
    if method not in ("exact", "parseval"):
        raise ValueError("method must be 'exact' or 'parseval'")
    n = params.N
    if method == "parseval":
        if max_k < 1:
            raise ValueError("max_k must be >= 1, got %r" % max_k)
        if tol <= 0 or not math.isfinite(tol):
            raise BudgetError("tol must be positive: the truncation point diverges")
        m_terms = max(1, math.ceil(2.0 * n * n / (math.pi**2 * params.L * tol)))
        if m_terms > stats.FOURIER_TERM_CEILING:
            raise BudgetError(
                "parseval route needs M=%d terms > ceiling %d" % (m_terms, stats.FOURIER_TERM_CEILING)
            )
    profile = difference_profile(seq)
    if profile.distinct == 0:
        return 0.0  # one term: R2 is 0 at every dilation
    if method == "exact":
        return _exact_moment(profile, params)[0]

    # the profile holds w > 0 and b_{-k} = b_k, so work on k >= 1 and
    # double; the n <= -1 half of each coefficient folds onto n >= 1
    scale = 2.0 * params.L / (n * n)
    ell = params.ell
    u_top = min(max_k, m_terms * int(profile.values[-1]))

    # f-hat(ell n) does not depend on w: one table serves every w and block,
    # and an n beyond it is evaluated per w and block, to the same floats
    n_table = min(m_terms, u_top // int(profile.values[0]), _PARSEVAL_TABLE)
    table = tent_fourier(ell * np.arange(1, n_table + 1, dtype=np.float64))
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
            if n_hi <= n_table:
                f = table[n_lo - 1 : n_hi]
            else:
                f = tent_fourier(ell * np.arange(n_lo, n_hi + 1, dtype=np.float64))
            acc[w * n_lo - u0 : w * n_hi - u0 + 1 : w] += (scale * c) * f
        total += float(np.sum(acc * acc))
    return 2.0 * total


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
