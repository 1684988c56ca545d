"""Spectral inequalities, Fourier coefficients of the pair sum, and the
second moment of the centered statistic.

Closed forms carry this file: the quartic sinc sum at half-integer
spacing telescopes to 1/3 via sum over odd n of 1/n^4 = pi^4/96, the
Fourier coefficients reduce to finite divisor sums checkable by hand,
and the Parseval route has the per-coefficient enumeration as oracle.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import numvar.energy as energy
import numvar.theory as theory
from numvar import (
    BudgetError,
    FixedPointReal,
    SequenceSpec,
    WindowParams,
    centered_statistic,
    deviation_measure,
    difference_profile,
    fourier_coefficient,
    generate_sequence,
    lemma1_check,
    lemma2_check,
    mean_pair_correlation,
    pair_correlation_grid,
    tent_fourier,
    x_second_moment,
)


def seq_of(values):
    return generate_sequence(SequenceSpec.custom(list(values)), len(values))


# ---------------------------------------------------------------------------
# the tent overlap Phi(u, v) against exact and series oracles
# ---------------------------------------------------------------------------

def _b4(x):
    t = x - math.floor(x)
    return t**4 - 2 * t**3 + t**2 - Fraction(1, 30)


def phi_fraction(u, v):
    """Phi(u, v) by the nine-term Bernoulli form, in exact rationals."""
    u, v = Fraction(u), Fraction(v)
    c = {-1: 1, 0: -2, 1: 1}
    total = sum(c[i] * c[j] * _b4(i * u + j * v) for i in c for j in c)
    return -total / (24 * u * u * v * v)


def phi_series(u, v, terms=200000):
    """The truncated Poisson series, with its tail bound 2/(3 pi^4 M^3 u^2 v^2)."""
    n = np.arange(1, terms + 1, dtype=np.float64)
    body = 2.0 * float(np.sum(np.sinc(u * n) ** 2 * np.sinc(v * n) ** 2))
    return body, 2.0 / (3.0 * math.pi**4 * terms**3 * u * u * v * v)


# (u, v, scale): generic points, both branches, the branch edge u + v = 1,
# v << 1 < u as in lemma 2 at ell = 1e-6 and a ~ 10^6, arguments at or
# near an integer (Phi ~ 0), and lemma 1's extreme a.  The scaled points
# are lemma 2's ell * Phi(ell a, ell b).
OVERLAP_POINTS = [
    (0.5, 0.5, 1.0), (0.3, 0.2, 1.0), (0.2, 0.3, 1.0), (2.5, 0.7, 1.0), (3.7, 3.7, 1.0),
    (0.75, 0.25, 1.0), (0.6, 0.4, 1.0), (0.5 + 2**-40, 0.5, 1.0),
    (1e-6 * 999983, 1e-6, 1e-6), (1e-6 * 1000003, 1e-6, 1e-6), (1e-6 * 999999, 3e-6, 1e-6),
    (1.0, 0.3, 1.0), (1.0 + 1e-12, 0.3, 1.0), (2.0, 1.0, 1.0), (1.0, 1.0, 1.0), (3.0, 1e-9, 1.0),
    (1.0000001, 0.5, 1.0), (0.999999, 1e-6, 1.0),
    (1e-100, 1e-100, 1.0), (1e-300, 1e-300, 1.0), (1e100, 1e100, 1.0),
    (5e-300, 3e-300, 1e-300), (5e-323, 3e-323, 1e-323), (0.0206 * 7, 0.0206 * 3, 0.0206),
]


def test_tent_overlap_within_its_bound_of_the_exact_form():
    for u, v, scale in OVERLAP_POINTS:
        value, err = theory._tent_overlap(u, v, scale)
        exact = Fraction(scale) * phi_fraction(u, v)
        assert value >= 0.0 and math.isfinite(err)
        assert abs(Fraction(float(value)) - exact) <= Fraction(float(err)), (u, v, scale)


def test_tent_overlap_is_vectorised_and_symmetric():
    u = np.array([p[0] for p in OVERLAP_POINTS[:8]])
    v = np.array([p[1] for p in OVERLAP_POINTS[:8]])
    value, err = theory._tent_overlap(u, v)
    swapped, _ = theory._tent_overlap(v, u)
    assert value.shape == err.shape == u.shape
    assert np.array_equal(value, swapped)
    for i in range(u.size):
        assert value[i] == theory._tent_overlap(u[i], v[i])[0]


def test_tent_overlap_matches_the_poisson_series():
    # the series the lemma checks once summed: S_M <= Phi <= S_M + tail
    for u, v in ((0.5, 0.5), (0.3, 0.2), (2.5, 0.7), (0.75, 0.25), (1.3, 0.45), (0.05, 0.02)):
        value, err = theory._tent_overlap(u, v)
        body, tail = phi_series(u, v)
        slack = 1e-12 * body  # the float sum's own rounding
        assert body - slack <= value + err
        assert value - err <= body + tail + slack


# ---------------------------------------------------------------------------
# quartic sinc-sum bound (single frequency)
# ---------------------------------------------------------------------------

def test_lemma1_integer_spacing_vanishes():
    res = lemma1_check(1.0)
    assert res.lhs < 1e-30
    assert res.bound == 1.0
    assert res.ok


def test_lemma1_half_spacing_closed_form():
    # sum over n != 0 of sinc(n/2)^4 = (32/pi^4) * sum over odd m >= 1
    # of m^-4 = (32/pi^4) * (pi^4/96) = 1/3.
    res = lemma1_check(0.5)
    assert abs(res.lhs - 1.0 / 3.0) < 2e-9
    assert res.ok and res.bound == 2.0
    # same series summed independently, straight from the odd terms
    m = np.arange(1, 20001, 2, dtype=np.float64)
    series = (32.0 / math.pi**4) * float(np.sum(m**-4.0))
    assert abs(res.lhs - series) < 1e-9


def test_lemma1_poisson_closed_form():
    # Poisson summation: sum_n sinc^4(a n) = (1/a) sum_m B(m/a), B the
    # tent convolved with itself (support [-2, 2], B(0) = 2/3); for
    # 0 < a <= 1/2 only m = 0 is left, so sum_{n != 0} = 2/(3a) - 1.
    for a in (0.5, 0.3, 1.0 / 7.0, 0.05):
        res = lemma1_check(a)
        closed = 2.0 / (3.0 * a) - 1.0
        assert abs(res.lhs - closed) <= 1e-15 * closed


def test_lemma1_wide_spacing_tiny():
    res = lemma1_check(100.0)
    assert res.lhs < 0.01
    assert res.ok


def test_lemma1_sign_invariance():
    a, b = lemma1_check(-0.5), lemma1_check(0.5)
    assert a.lhs == b.lhs and a.bound == b.bound


def test_lemma1_errors():
    with pytest.raises(ValueError):
        lemma1_check(0.0)
    with pytest.raises(TypeError):
        lemma1_check(0.5, tol=1e-9)  # the closed form has no truncation
    for a in (math.nan, math.inf, -math.inf, 5e-324, -2e-309):
        with pytest.raises(ValueError, match="finite"):
            lemma1_check(a)  # for the last two, 1/|a| overflows
    # a**4 under- or overflows at these a; the closed form does not
    for a in (1e-100, 1e-300, 1e100):
        res = lemma1_check(a)
        assert math.isfinite(res.lhs) and res.ok
        want = phi_fraction(a, a)
        assert abs(Fraction(res.lhs) - want) <= 1e-15 * want


def test_lemma1_sweep_always_holds():
    rng = np.random.default_rng(20260819)
    for _ in range(200):
        a = 10.0 ** rng.uniform(-3.0, 3.0) * (1 if rng.random() < 0.5 else -1)
        res = lemma1_check(a)
        assert 0.0 <= res.lhs < 1.0 / abs(a)
        assert res.ok


# ---------------------------------------------------------------------------
# paired-frequency gcd bound
# ---------------------------------------------------------------------------

def test_lemma2_half_spacing_closed_form():
    params = WindowParams.from_L(2, 1.0)  # ell = 1/2
    res = lemma2_check(1, 1, params)
    assert abs(res.lhs - 1.0 / 6.0) < 2e-9
    assert res.bound == 1.0 and res.ok


def test_lemma2_coprime_integer_frequencies_vanish():
    params = WindowParams.from_L(4, 4.0)  # ell = 1
    res = lemma2_check(2, 3, params)
    assert res.lhs < 1e-20
    assert math.isclose(res.bound, 1.0 / math.sqrt(6.0), rel_tol=1e-15)
    assert res.ok


def test_lemma2_gcd_reparametrization_collapses_common_factor():
    # (w, w) reduces to (1, 1) on the diagonal ray: identical lhs and
    # bound for every w.
    params = WindowParams.from_beta(50, 0.3)
    base = lemma2_check(1, 1, params)
    for w in (7, -7, 360):
        res = lemma2_check(w, w, params)
        assert res.lhs == base.lhs and res.bound == base.bound


def test_lemma2_sign_invariance():
    params = WindowParams.from_beta(100, 0.4)
    a = lemma2_check(6, -10, params)
    b = lemma2_check(-6, 10, params)
    assert a.lhs == b.lhs and a.bound == b.bound
    assert math.isclose(a.bound, 2.0 / math.sqrt(60.0), rel_tol=1e-15)


def test_lemma2_errors():
    params = WindowParams.from_beta(10, 0.3)
    with pytest.raises(ValueError):
        lemma2_check(0, 5, params)
    with pytest.raises(ValueError):
        lemma2_check(5, 0, params)
    with pytest.raises(TypeError):
        lemma2_check(1, 1, params, tol=1e-9)  # the closed form has no truncation
    for w_r, w_s in ((3, 10**308), (10**200, 10**200 + 1)):  # ell * a or the bound overflows
        with pytest.raises(ValueError, match="finite"):
            lemma2_check(w_r, w_s, WindowParams.from_L(10, 10.0))
    # f_r^2 f_s^2 underflows at these ell; the closed form does not
    for L in (1.0, 1e-23):  # ell = 1e-300, 1e-323
        params = WindowParams.from_L(10**300, L)
        res = lemma2_check(3, 5, params)
        assert math.isfinite(res.lhs) and res.ok
        want = Fraction(params.ell) * phi_fraction(params.ell * 5, params.ell * 3)
        assert abs(Fraction(res.lhs) - want) <= 1e-15 * want


def test_lemma2_sweep_always_holds():
    rng = np.random.default_rng(424242)
    for _ in range(300):
        w_r = int(rng.integers(1, 10**4)) * (1 if rng.random() < 0.5 else -1)
        w_s = int(rng.integers(1, 10**4)) * (1 if rng.random() < 0.5 else -1)
        n = int(10 ** rng.uniform(2.0, 4.0))
        params = WindowParams.from_beta(n, float(rng.uniform(0.0, 0.5)))
        res = lemma2_check(w_r, w_s, params)
        assert res.ok
        assert res.lhs >= 0.0


# ---------------------------------------------------------------------------
# Fourier coefficients of the pair sum
# ---------------------------------------------------------------------------

def test_coefficient_two_term_divisor_sum():
    seq = seq_of([1, 2])
    params = WindowParams.from_beta(2, 0.4)
    got = fourier_coefficient(seq, 3, params).value
    # only the difference w = 1 divides into k = 3 (n = 3), twice by sign
    want = (params.L / 2.0) * tent_fourier(3.0 * params.L / 2.0)
    assert math.isclose(got, want, rel_tol=1e-15)


def test_coefficient_three_term_divisor_sum():
    seq = seq_of([1, 2, 3])
    params = WindowParams.from_beta(3, 0.3)
    got = fourier_coefficient(seq, 2, params).value
    # k = 2: (n, w) = (1, 2) with W = 2 and (2, 1) with W = 4
    ell = params.ell
    want = (params.L / 9.0) * (2.0 * tent_fourier(ell) + 4.0 * tent_fourier(2.0 * ell))
    assert math.isclose(got, want, rel_tol=1e-14)


def test_coefficient_vanishes_off_difference_support():
    # differences of (0, 10) are +-10; no divisor pattern reaches k = 3
    seq = seq_of([0, 10])
    params = WindowParams.from_beta(2, 0.2)
    assert fourier_coefficient(seq, 3, params).value == 0.0


def test_coefficient_even_in_k():
    seq = generate_sequence(SequenceSpec.monomial(2), 12)
    params = WindowParams.from_beta(12, 0.3)
    for k in (1, 4, 9, 30):
        assert (fourier_coefficient(seq, k, params).value
                == fourier_coefficient(seq, -k, params).value)


def profile_coefficient(seq, k, params):
    """The divisor sum read off the full difference profile."""
    profile = difference_profile(seq)
    total = 0.0
    for div in range(1, abs(k) + 1):
        if k % div == 0:
            mult = profile.count(k // div) + profile.count(-(k // div))
            if mult:
                total += mult * tent_fourier(params.ell * div)
    return (params.L / (params.N * params.N)) * total


def test_coefficient_matches_profile_divisor_sum():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 40))
        vals = [int(v) for v in rng.choice(np.arange(-120, 120), size=n, replace=False)]
        seq = seq_of(vals)
        params = WindowParams.from_beta(n, float(rng.uniform(0.1, 0.9)))
        span = max(vals) - min(vals)
        for k in [*range(1, 201), *range(-200, 0), span + 1, -(span + 1), 3 * span + 7]:
            assert fourier_coefficient(seq, k, params).value == profile_coefficient(seq, k, params)
    # k beyond the span: no difference divides into it with n = 1
    seq = seq_of([0, 3, 10])
    params = WindowParams.from_beta(3, 0.5)
    assert fourier_coefficient(seq, 11, params).value == 0.0
    assert fourier_coefficient(seq, 20, params).value == profile_coefficient(seq, 20, params) != 0.0


def test_coefficient_k_zero_rejected():
    seq = seq_of([1, 2])
    with pytest.raises(ValueError):
        fourier_coefficient(seq, 0, WindowParams.from_beta(2, 0.3))


def test_coefficients_match_grid_quadrature():
    # Independent route: sample R2(tent) on a fine dilation grid and
    # project onto each frequency.  Grid aliasing keeps this near 1e-5;
    # the imaginary part must vanish to rounding.
    n = 6
    seq = generate_sequence(SequenceSpec.monomial(2), n)
    params = WindowParams.from_beta(n, 0.3)
    q = 4096
    grid = pair_correlation_grid(seq, params, q)
    j = np.arange(q)
    for k in (1, 2, 3, 5, 8, 12):
        z = np.mean(grid * np.exp(-2j * np.pi * k * j / q))
        bk = fourier_coefficient(seq, k, params).value
        assert abs(bk - z.real) < 1e-4
        assert abs(z.imag) < 1e-12


# ---------------------------------------------------------------------------
# mean of the pair sum over dilations
# ---------------------------------------------------------------------------

def test_mean_matches_closed_form():
    params = WindowParams.from_L(2, 1.0)
    assert mean_pair_correlation(params) == 0.5
    params = WindowParams.from_beta(100, 0.3)
    assert mean_pair_correlation(params) == params.L - params.L / 100
    tiny = WindowParams.from_L(4, 1e-300)
    assert mean_pair_correlation(tiny) == 1e-300 * 0.75


def test_mean_observed_on_prime_grid():
    # Quadrature over j/Q with prime Q only aliases frequencies that Q
    # divides, and those carry negligible weight here: the grid average
    # lands on L - L/N to better than 1e-4 for both sequence families.
    for d in (1, 2):
        seq = generate_sequence(SequenceSpec.monomial(d), 64)
        params = WindowParams.from_beta(64, 0.35)
        grid = pair_correlation_grid(seq, params, 521)
        want = mean_pair_correlation(params)
        assert abs(float(np.mean(grid)) - want) < 1e-4 * want


def test_mean_dyadic_grid_aliases():
    # Negative control: Q = 512 shares every power-of-two divisor with
    # the square differences, so the same quadrature misses badly.
    seq = generate_sequence(SequenceSpec.monomial(2), 64)
    params = WindowParams.from_beta(64, 0.35)
    grid = pair_correlation_grid(seq, params, 512)
    want = mean_pair_correlation(params)
    assert abs(float(np.mean(grid)) - want) > 1e-2 * want


def test_centered_statistic_zero_mean_on_prime_grid():
    n = 32
    seq = generate_sequence(SequenceSpec.monomial(2), n)
    params = WindowParams.from_beta(n, 0.35)
    q = 521
    vals = [
        centered_statistic(seq, FixedPointReal.from_fraction(j, q), params)
        for j in range(q)
    ]
    assert abs(float(np.mean(vals))) < 1e-4 * mean_pair_correlation(params)


# ---------------------------------------------------------------------------
# second moment of the centered statistic
# ---------------------------------------------------------------------------

def test_moment_parseval_matches_per_coefficient_enumeration():
    seq = seq_of([1, 2, 3, 5])
    params = WindowParams.from_beta(4, 0.3)
    sieve = x_second_moment(seq, params, method="parseval", tol=1e-8)
    per_k = 2.0 * sum(
        fourier_coefficient(seq, k, params).value ** 2 for k in range(1, 4001)
    )
    assert abs(sieve - per_k) < 1e-9


def test_moment_routes_agree():
    seq = seq_of([1, 2, 3, 5])
    params = WindowParams.from_beta(4, 0.3)
    exact = x_second_moment(seq, params)
    sieve = x_second_moment(seq, params, method="parseval")
    assert abs(exact - sieve) <= 1e-3 * max(sieve, 1e-12)
    assert exact >= 0.0 and sieve >= 0.0


def test_moment_grid_matches_spectral_quadrature():
    # Third route: average the squared centered statistic over a fixed
    # dilation grid, with each value produced by the truncated spectral
    # pair sum from the statistics module.  Two modules, one number.
    seq = seq_of([1, 2, 3, 5, 8, 13])
    params = WindowParams.from_beta(6, 0.3)
    m_exact = x_second_moment(seq, params)
    from numvar import pair_correlation_fourier

    q = 1024
    mean = mean_pair_correlation(params)
    acc = 0.0
    for j in range(q):
        alpha = FixedPointReal.from_fraction(j, q)
        acc += (pair_correlation_fourier(seq, alpha, params, 3e-4).r2 - mean) ** 2
    m_quad = acc / q
    assert abs(m_exact - m_quad) <= 2e-3 * m_exact


def moment_fraction(seq, params):
    """m = (4 ell^2/N^2) sum W W' Phi(ell a, ell b), in exact rationals."""
    profile = difference_profile(seq)
    ell = Fraction(params.ell)
    total = Fraction(0)
    for w, c in profile.items():
        for w2, c2 in profile.items():
            d = math.gcd(w, w2)
            total += c * c2 * phi_fraction(ell * (w // d), ell * (w2 // d))
    return 4 * ell * ell / (params.N * params.N) * total


def test_moment_exact_within_its_bound_of_the_rational_sum():
    for seq in (seq_of([1, 2, 3, 5]), generate_sequence(SequenceSpec.monomial(2), 8)):
        params = WindowParams.from_beta(seq.terms.size, 0.3)
        m, err = theory._exact_moment(difference_profile(seq), params)
        want = moment_fraction(seq, params)
        assert abs(Fraction(m) - want) <= Fraction(err)
        assert err <= 1e-12 * m
        assert x_second_moment(seq, params) == m


def test_moment_parseval_approaches_exact_from_below():
    # parseval drops a nonnegative tail, so it lies below the exact m
    # (up to m's rounding bound), and closer at each halving of tol
    for seq in (seq_of([1, 2, 3, 5]), generate_sequence(SequenceSpec.monomial(2), 16)):
        params = WindowParams.from_beta(seq.terms.size, 0.3)
        m, err = theory._exact_moment(difference_profile(seq), params)
        gaps = []
        for tol in (0.01, 0.005, 0.0025, 0.00125):
            sieve = x_second_moment(seq, params, method="parseval", tol=tol)
            assert sieve <= m + err
            gaps.append(m - sieve)
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps


def test_moment_links_lemma2_to_the_gcd_sum_pair_by_pair():
    # C(a, b) = ell^2 Phi(ell a, ell b) is each pair's share of m, and
    # lemma 2 bounds it by ell gcd(w, w')/sqrt(w w'), i.e.
    # ell Phi(ell a, ell b) sqrt(ab) <= 1.  Weighted and summed, that is
    # m <= (ell/N^2) G = L N^-3 G with G the gcd-sum diagnostic.  (The
    # measured constant is near 2/3, proven only for ell (a + b) <= 1.)
    from numvar import gcd_sum_diagnostic
    from numvar.energy import gcd_row_blocks

    for n in (16, 32, 64):
        seq = generate_sequence(SequenceSpec.monomial(2), n)
        params = WindowParams.from_beta(n, 0.3)
        profile = difference_profile(seq)
        w, weight, ell = profile.values, profile.counts.astype(np.float64), params.ell
        total = 0.0
        for i0, i1, g in gcd_row_blocks(profile):
            a, b = w[i0:i1, None] // g, w // g
            t, e = theory._tent_overlap(ell * a, ell * b, ell)
            assert np.all((t + e) * np.sqrt(a * b.astype(np.float64)) < 1.0)
            total += float(weight[i0:i1] @ (t @ weight))
        m = 4.0 * ell / (n * n) * total
        ratio = m / (params.L * n**-3.0 * gcd_sum_diagnostic(profile))
        assert 0.0 < ratio <= 1.0, (n, ratio)
        assert math.isclose(x_second_moment(seq, params), m, rel_tol=1e-13)


def test_moment_scaled_ratio_in_expected_range():
    from numvar import additive_energy

    for n in (16, 64):
        seq = generate_sequence(SequenceSpec.monomial(2), n)
        params = WindowParams.from_beta(n, 0.3)
        m = x_second_moment(seq, params, method="parseval", tol=0.02)
        e = additive_energy(seq).energy
        ratio = m / (params.L * n**-3.0 * e)
        assert 0.0 < ratio < 10.0


def test_moment_budget_errors(monkeypatch):
    seq = seq_of([1, 2, 3, 5])
    params = WindowParams.from_beta(4, 0.3)
    with pytest.raises(ValueError):
        x_second_moment(seq, params, method="bogus")
    with pytest.raises(ValueError):
        x_second_moment(seq, params, method="alpha_grid")
    with pytest.raises(BudgetError):
        x_second_moment(seq, params, method="parseval", tol=0.0)
    # M ~ 2e12 is over the spectral route's stats.FOURIER_TERM_CEILING
    with pytest.raises(BudgetError, match="ceiling 1000000000"):
        x_second_moment(seq, params, method="parseval", tol=1e-12)
    with pytest.raises(TypeError):
        x_second_moment(seq, params, method="parseval", toll=1e-3)
    for removed in ("max_n", "grid_start", "grid_cap", "max_terms", "rel_tol"):
        with pytest.raises(TypeError):
            x_second_moment(seq, params, method="exact", **{removed: 1024})
        with pytest.raises(TypeError):
            x_second_moment(seq, params, method="parseval", **{removed: 1024})
    # the exact pass is capped by the gcd table's module constant, read at call time
    monkeypatch.setattr(energy, "_GCD_MAX_DISTINCT", 3)
    with pytest.raises(BudgetError, match="cap 3"):
        x_second_moment(seq, params)


def test_moment_parseval_max_k_below_one_rejected(monkeypatch):
    # max_k < 1 once left the sieve no coefficient and returned 0.0
    def never(*args):
        raise AssertionError("worked before rejecting max_k")

    monkeypatch.setattr(theory, "difference_profile", never)
    seq = generate_sequence(SequenceSpec.monomial(2), 16)
    params = WindowParams.from_beta(16, 0.3)
    for max_k in (0, -5):
        with pytest.raises(ValueError, match="max_k"):
            x_second_moment(seq, params, method="parseval", max_k=max_k)


def test_moment_single_term_is_zero():
    # one term makes no pair: R2 and its mean L - L/N are 0 at every
    # dilation, and the difference profile is empty
    seq = seq_of([5])
    params = WindowParams.from_beta(1, 0.3)
    assert x_second_moment(seq, params, method="parseval") == 0.0
    assert x_second_moment(seq, params) == 0.0
    with pytest.raises(BudgetError):
        x_second_moment(seq, params, method="parseval", tol=0.0)


# ---------------------------------------------------------------------------
# deviation measure
# ---------------------------------------------------------------------------

def test_deviation_huge_threshold_is_zero():
    params = WindowParams.from_beta(16, 0.3)
    frac = deviation_measure(SequenceSpec.monomial(2), params, 1e3, 50, seed=1)
    assert frac == 0.0


def test_deviation_nonincreasing_in_threshold():
    params = WindowParams.from_beta(100, 0.3)
    fracs = [
        deviation_measure(SequenceSpec.monomial(2), params, d, 60, seed=5)
        for d in (0.1, 0.25, 0.5, 1.0)
    ]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))
    assert all(0.0 <= f <= 1.0 for f in fracs)


def test_deviation_square_dilations_concentrate():
    params = WindowParams.from_beta(10**4, 0.3)
    frac = deviation_measure(SequenceSpec.monomial(2), params, 0.5, 200, seed=0)
    assert frac <= 0.1


def test_deviation_deterministic():
    params = WindowParams.from_beta(50, 0.3)
    a = deviation_measure(SequenceSpec.monomial(2), params, 0.25, 40, seed=9)
    b = deviation_measure(SequenceSpec.monomial(2), params, 0.25, 40, seed=9)
    assert a == b


def test_deviation_errors():
    params = WindowParams.from_beta(10, 0.3)
    with pytest.raises(ValueError):
        deviation_measure(SequenceSpec.monomial(2), params, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        deviation_measure(SequenceSpec.monomial(2), params, -0.5, 10, seed=0)
    for delta in (math.nan, math.inf):  # NaN fails every comparison, delta <= 0 too
        with pytest.raises(ValueError, match="delta"):
            deviation_measure(SequenceSpec.monomial(2), params, delta, 10, seed=0)
    with pytest.raises(ValueError):
        deviation_measure(SequenceSpec.monomial(2), params, 0.25, 0, seed=0)
