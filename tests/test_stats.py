"""Counting statistics: window counts, number variance, pair correlation.

Two independent oracles anchor this file.  The window-count variance is
checked against an exact event sweep: S(c) is piecewise constant in the
center c, with breakpoints at exact 128-bit edge positions, so the
variance integral can be accumulated segment by segment with no
sampling.  The pair correlation is checked against a plain double loop
over ordered pairs and explicit integer shifts.  Everything else
(identity, spectral route, Monte Carlo) must agree with those.
"""

import bisect
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.random import Philox

from numvar import (
    BudgetError,
    FixedPointReal,
    PointSet,
    SequenceSpec,
    SupportError,
    TestFunction,
    WindowError,
    WindowParams,
    count_in_interval,
    dilate_mod1,
    generate_sequence,
    number_variance_exact,
    number_variance_fourier,
    number_variance_montecarlo,
    pair_correlation_direct,
    pair_correlation_fourier,
    sample_alpha,
    tent,
    tent_fourier,
)
from numvar import fixedpoint as fp
from numvar import stats
from numvar.fixedpoint import MODULUS


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def sweep_variance_oracle(points: PointSet, params: WindowParams) -> float:
    """Exact variance of S(c) by event sweep over center positions.

    A point with numerator p is inside the window at center c iff
    c in (p - ell/2, p + ell/2] on the circle, so S jumps +1 at
    p - ell/2 and -1 at p + ell/2 (exact 128-bit positions).  Between
    events S is constant; the variance is the exact sum of
    (S - L)^2 * segment_length over segments.  Endpoint conventions
    move sets of measure zero and cannot change the integral.
    """
    n = len(points)
    ell_num = params.ell_numerator
    half = ell_num >> 1
    nums = [points.numerator(i) for i in range(n)]
    events = []
    for p in nums:
        events.append(((p - half) % MODULUS, 1))
        events.append(((p - half + ell_num) % MODULUS, -1))
    events.sort()
    # S at c = 0: window [-ell/2, ell - ell/2) around 0
    upper = ell_num - half
    s0 = sum(1 for p in nums if p < upper or p >= (MODULUS - half) % MODULUS or ell_num >= MODULUS)
    if ell_num >= MODULUS:
        s0 = n
    acc = 0.0
    prev_pos = 0
    s = s0
    for pos, jump in events:
        gap = pos - prev_pos
        if gap:
            acc += (s - params.L) ** 2 * (gap / float(MODULUS))
        s += jump
        prev_pos = pos
    acc += (s - params.L) ** 2 * ((MODULUS - prev_pos) / float(MODULUS))
    return acc


def pair_sum_oracle(points: PointSet, params: WindowParams, f) -> float:
    """(1/N) * sum over ordered pairs i != j and shifts m of f(diff/ell).

    Differences are exact numerator differences; only the argument of f
    is rounded to a float.
    """
    n = len(points)
    nums = [points.numerator(i) for i in range(n)]
    scale = Fraction(params.ell) * MODULUS
    total = 0.0
    span = int(math.ceil(f.radius * params.ell)) + 1
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for m in range(-span, span + 1):
                total += f(float((nums[i] - nums[j] + m * MODULUS) / scale))
    return total / n


def exact_f(f, t: Fraction) -> Fraction:
    """f(t) in exact rationals: the tent, the half-open indicator, or the
    custom table's linear interpolation on [-radius, radius], else 0."""
    if f.kind == "tent":
        return max(1 - abs(t), Fraction(0))
    if f.kind == "indicator":
        return Fraction(int(Fraction(-1, 2) <= t < Fraction(1, 2)))
    xs = [Fraction(v) for v in f.xs]
    ys = [Fraction(v) for v in f.values]
    if not (max(xs[0], -Fraction(f.radius)) <= t <= min(xs[-1], Fraction(f.radius))):
        return Fraction(0)
    k = min(bisect.bisect_right(xs, t), len(xs) - 1)
    return ys[k - 1] + (ys[k] - ys[k - 1]) * (t - xs[k - 1]) / (xs[k] - xs[k - 1])


def exact_pair_sum(points: PointSet, ell: float, f) -> Fraction:
    """sum over ordered pairs i != j and shifts m of f((x_i - x_j + m)/ell), exactly."""
    n = len(points)
    nums = [points.numerator(i) for i in range(n)]
    scale = Fraction(ell) * MODULUS
    span = int(math.ceil(f.radius * ell)) + 1
    total = Fraction(0)
    for i in range(n):
        for j in range(n):
            if i != j:
                for m in range(-span, span + 1):
                    total += exact_f(f, (nums[i] - nums[j] + m * MODULUS) / scale)
    return total


def phase_sum_oracle(u_hi, u_lo, ell: float, n_lo: int, n_hi: int) -> float:
    """sum_{n_lo <= n < n_hi} sinc(ell n)^2 (|T_n|^2 - N), one cos/sin per phase.

    The spectral kernel before its baby-step/giant-step form: every phase
    e(n x_j) straight from phase_top_bits, in chunks of 2**16 phases.
    """
    n_pts = u_hi.size
    chunk = max(1, (1 << 16) // n_pts)
    chunk_sums = []
    for n0 in range(n_lo, n_hi, chunk):
        nn = np.arange(n0, min(n0 + chunk, n_hi), dtype=np.uint64)
        ang = (2.0 * np.pi) * fp.phase_top_bits(nn, u_hi, u_lo)
        abs_t2 = np.cos(ang).sum(axis=1) ** 2 + np.sin(ang).sum(axis=1) ** 2
        w = np.sinc(ell * nn.astype(np.float64)) ** 2
        chunk_sums.append(np.sum(w * (abs_t2 - n_pts)))
    return float(np.sum(np.asarray(chunk_sums))) if chunk_sums else 0.0


def random_points(rng, n):
    nums = set()
    while len(nums) < n:
        nums.add((int(rng.integers(0, 1 << 63)) << 65) | int(rng.integers(0, 1 << 63)))
    return PointSet.from_numerators(sorted(nums))


# ---------------------------------------------------------------------------
# window parameters
# ---------------------------------------------------------------------------

def test_window_params_from_beta():
    p = WindowParams.from_beta(100, 0.3)
    assert p.L == 100.0**0.3
    assert p.ell == p.L / 100
    assert p.N == 100


def test_window_params_rejects_bad_windows():
    with pytest.raises(WindowError):
        WindowParams.from_L(4, 4.2)  # ell > 1
    with pytest.raises(WindowError):
        WindowParams.from_L(4, 0.0)
    with pytest.raises(WindowError):
        WindowParams(N=0, beta=0.0, L=1.0, ell=1.0)
    with pytest.raises(WindowError):
        WindowParams(N=4, beta=0.0, L=2.0, ell=0.9)  # ell != L/N


def test_ell_numerator_exact_for_floats():
    p = WindowParams.from_L(1, 0.1)
    # 0.1 as a double is 3602879701896397 * 2**-55; scaling by 2**128
    # must reproduce that integer exactly.
    assert p.ell_numerator == 3602879701896397 << 73


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_tent_values():
    assert tent(0) == 1.0
    assert tent(0.5) == 0.5
    assert tent(-2) == 0.0
    assert np.allclose(tent(np.array([-1.0, -0.25, 0.0, 0.75, 1.5])),
                       [0.0, 0.75, 1.0, 0.25, 0.0])


def test_tent_fourier_values():
    assert tent_fourier(0) == 1.0
    for n in (1, 2, -3, 17):
        assert abs(tent_fourier(n)) < 1e-30
    assert math.isclose(tent_fourier(0.5), 4.0 / math.pi**2, rel_tol=1e-12)
    # continuity through the removable singularity
    assert abs(tent_fourier(1e-9) - 1.0) < 1e-15
    assert abs(tent_fourier(-1e-12) - 1.0) < 1e-15


def test_test_function_kinds():
    f = TestFunction.tent()
    assert f.radius == 1.0 and f(0.25) == 0.75
    chi = TestFunction.indicator()
    assert chi.radius == 0.5
    # half-open convention: -1/2 in, +1/2 out
    assert chi(-0.5) == 1.0 and chi(0.5) == 0.0 and chi(0.0) == 1.0
    tab = TestFunction.custom([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0], radius=1.0)
    assert tab(0.5) == 0.5 and tab(2.0) == 0.0
    assert tab.vanishes_at_support_edge()


def test_custom_function_needs_valid_table():
    with pytest.raises(SupportError):
        TestFunction.custom([-1, 0, 1], [0, 1, 0], radius=None)
    with pytest.raises(SupportError):
        TestFunction.custom([0, 0], [1, 1], radius=1.0)  # not increasing
    with pytest.raises(SupportError):
        TestFunction.custom([0.0], [1.0], radius=1.0)  # too short
    inf, nan = math.inf, math.nan
    for xs, values, radius in (
        ([-1, 0, 1], [0, 1, 0], inf),
        ([-1, 0, inf], [0, 1, 0], 1.0),
        ([-1, 0, 1], [0, nan, 0], 1.0),
        ([-1, 0, 1], [0, inf, 0], 1.0),
        ([nan, 0, 1], [0, 1, 0], 1.0),
    ):
        with pytest.raises(SupportError):
            TestFunction.custom(xs, values, radius=radius)


# ---------------------------------------------------------------------------
# exact counting
# ---------------------------------------------------------------------------

def test_count_point_at_center():
    pts = PointSet.from_floats([0.5])
    params = WindowParams.from_L(1, 0.1)
    assert count_in_interval(pts, FixedPointReal.from_float(0.5), params) == 1


def test_count_excludes_edge_by_exact_arithmetic():
    # Window [0.55 - 0.05, 0.55 + 0.05) built from the float images of
    # 0.55 and 0.1: the exact lower edge lands a hair above 1/2, so the
    # point at exactly 1/2 falls outside.  A float comparison at double
    # precision would be a coin flip; the integer comparison is not.
    pts = PointSet.from_floats([0.5])
    params = WindowParams.from_L(1, 0.1)
    assert count_in_interval(pts, FixedPointReal.from_float(0.55), params) == 0


def test_count_full_circle():
    pts = PointSet.from_floats([0.0, 0.25, 0.5, 0.75])
    params = WindowParams.from_L(4, 4.0)  # ell = 1
    for c in (0.0, 0.1, 0.9):
        assert count_in_interval(pts, FixedPointReal.from_float(c), params) == 4


def test_count_wraparound_window():
    pts = PointSet.from_floats([0.95, 0.05, 0.5])
    params = WindowParams.from_L(3, 0.6)  # ell = 0.2
    # window [0.9, 1.1) mod 1 catches 0.95 and 0.05
    assert count_in_interval(pts, FixedPointReal.from_float(0.0), params) == 2


def test_count_half_open_convention_exact_dyadics():
    # ell = 1/4, center 1/8: window [0, 1/4) -- 0 in, 1/4 out.
    pts = PointSet.from_floats([0.0, 0.25])
    params = WindowParams.from_L(2, 0.5)
    assert count_in_interval(pts, FixedPointReal.from_fraction(1, 8), params) == 1
    # center 3/8: window [1/4, 1/2) -- 1/4 in.
    assert count_in_interval(pts, FixedPointReal.from_fraction(3, 8), params) == 1


def test_count_matches_direct_membership_sweep():
    rng = np.random.default_rng(12)
    pts = random_points(rng, 60)
    nums = [pts.numerator(i) for i in range(60)]
    params = WindowParams.from_beta(60, 0.4)
    ell_num = params.ell_numerator
    half = ell_num >> 1
    for _ in range(200):
        c = (int(rng.integers(0, 1 << 63)) << 65) | int(rng.integers(0, 1 << 63))
        lo = (c - half) % MODULUS
        hi = (lo + ell_num) % MODULUS
        if lo < hi:
            expected = sum(1 for p in nums if lo <= p < hi)
        else:
            expected = sum(1 for p in nums if p >= lo or p < hi)
        assert count_in_interval(pts, FixedPointReal(c), params) == expected


# ---------------------------------------------------------------------------
# number variance
# ---------------------------------------------------------------------------

def test_variance_single_point_bernoulli():
    # One point, window length ell: the count is Bernoulli(ell), so the
    # variance about the mean L = ell is exactly ell * (1 - ell).
    for ell in (0.1, 0.25, 0.5, 0.7, 1.0):
        pts = PointSet.from_floats([0.375])
        params = WindowParams.from_L(1, ell)
        got = number_variance_exact(pts, params).sigma2
        assert math.isclose(got, ell * (1.0 - ell), rel_tol=0, abs_tol=1e-15)


def test_variance_two_point_hand_value():
    pts = PointSet.from_floats([0.1, 0.3])
    params = WindowParams.from_L(2, 0.8)
    got = number_variance_exact(pts, params)
    # ell*(2*tent(0) + 2*tent(0.2/0.4)) - L^2 = 0.4*3 - 0.64 = 0.56
    assert abs(got.sigma2 - 0.56) < 1e-12
    assert got.method == "exact_tent"
    assert got.mc_stderr is None


def test_variance_equally_spaced_is_zero():
    # N equally spaced points, ell = k/N: every window holds exactly k
    # points, so the count never fluctuates.
    pts = PointSet.from_floats([j / 8 for j in range(8)])
    params = WindowParams.from_L(8, 2.0)  # ell = 1/4
    assert number_variance_exact(pts, params).sigma2 == 0.0
    mc = number_variance_montecarlo(pts, params, 5000, seed=3)
    assert mc.sigma2 == 0.0


def test_variance_full_window_is_zero():
    rng = np.random.default_rng(8)
    pts = random_points(rng, 12)
    params = WindowParams.from_L(12, 12.0)  # ell = 1
    assert abs(number_variance_exact(pts, params).sigma2) < 1e-9 * 144


def test_variance_rejects_mismatched_points():
    pts = PointSet.from_floats([0.1, 0.3])
    params = WindowParams.from_beta(3, 0.3)
    with pytest.raises(WindowError):
        number_variance_exact(pts, params)


def test_variance_matches_event_sweep_oracle():
    # Independent route: exact piecewise-constant integration over the
    # center, against the windowed tent-sum scan.
    rng = np.random.default_rng(2718)
    for _ in range(30):
        n = int(rng.integers(2, 150))
        beta = float(rng.uniform(0.0, 0.5))
        pts = random_points(rng, n)
        params = WindowParams.from_beta(n, beta)
        got = number_variance_exact(pts, params).sigma2
        want = sweep_variance_oracle(pts, params)
        assert abs(got - want) <= 1e-10 * max(1.0, params.L**2)
        assert got >= -1e-12 * max(1.0, params.L**2)


def test_variance_clustered_points():
    # All points in one tight clump: S is N or 0, variance is large and
    # the sweep oracle must still agree.
    base = FixedPointReal.from_float(0.5).numerator
    pts = PointSet.from_numerators([base + k for k in range(10)])
    params = WindowParams.from_beta(10, 0.45)
    got = number_variance_exact(pts, params).sigma2
    want = sweep_variance_oracle(pts, params)
    assert abs(got - want) <= 1e-10 * max(1.0, params.L**2)
    # Bernoulli clump: S = N with probability ~ell
    ell, L, n = params.ell, params.L, 10
    approx = ell * (n - L) ** 2 + (1 - ell) * L**2
    assert abs(got - approx) < 1e-6 * max(1.0, L**2)


def test_montecarlo_bernoulli_single_point():
    # One point at ell = 1/2: S is 0 or 1 and L = 1/2, so every sample
    # of (S - L)^2 equals 1/4 exactly.  The estimate is exact and the
    # sample spread collapses to zero.
    pts = PointSet.from_floats([0.6180339887])
    params = WindowParams.from_L(1, 0.5)
    a = number_variance_montecarlo(pts, params, 10**6, seed=99)
    assert a.sigma2 == 0.25
    assert a.mc_stderr == 0.0
    assert a.method == "monte_carlo"


def test_montecarlo_determinism_and_seed_sensitivity():
    pts = PointSet.from_floats([0.1, 0.3])
    params = WindowParams.from_L(2, 0.8)
    a = number_variance_montecarlo(pts, params, 10**5, seed=99)
    b = number_variance_montecarlo(pts, params, 10**5, seed=99)
    assert a.sigma2 == b.sigma2 and a.mc_stderr == b.mc_stderr
    assert a.mc_stderr > 0
    assert abs(a.sigma2 - 0.56) <= 4.0 * a.mc_stderr
    c = number_variance_montecarlo(pts, params, 10**5, seed=100)
    assert c.sigma2 != a.sigma2


def test_montecarlo_agrees_with_exact_within_stderr():
    rng = np.random.default_rng(777)
    seq = generate_sequence(SequenceSpec.monomial(2), 200)
    params = WindowParams.from_beta(200, 0.3)
    hits = 0
    for i in range(10):
        pts = dilate_mod1(sample_alpha(42, i), seq)
        exact = number_variance_exact(pts, params).sigma2
        mc = number_variance_montecarlo(pts, params, 10**5, seed=int(rng.integers(1 << 32)))
        if abs(mc.sigma2 - exact) <= 4.0 * mc.mc_stderr:
            hits += 1
    assert hits >= 9


def montecarlo_oracle(points, params, samples, seed):
    """The Monte Carlo estimate with every center counted in draw order."""
    raw = Philox(key=seed % (1 << 128), counter=[0, 0, 0, stats._CENTER_STREAM]).random_raw(
        2 * samples)
    counts = stats._window_counts(points, params, raw[0::2], raw[1::2])
    y = (counts.astype(np.float64) - params.L) ** 2
    return float(np.mean(y)), float(np.std(y, ddof=1) / math.sqrt(samples))


def test_montecarlo_blocks_match_draw_order_oracle(monkeypatch):
    # centers counted from the points' side give the same floats as the
    # centers counted as drawn, at samples N - 1, N, N + 1, far above N and
    # far below it, at blocks of points from 1 up.  The cases: windows that
    # wrap (ell = 0.7), the full circle (ell = 1), tied points (alpha = 1/8
    # puts the squares on three points), also in windows two numerators
    # wide, whose left ends A = p never turn back past 0, one point,
    # dyadic points, and points on and next to the window ends of drawn
    # centers
    seq = generate_sequence(SequenceSpec.monomial(2), 300)
    generic = dilate_mod1(sample_alpha(17, 0), seq)
    tied = dilate_mod1(FixedPointReal.from_fraction(1, 8), seq)
    assert len(set(tied.numerator(i) for i in range(300))) < 300
    edge_seed, edge = 5, WindowParams.from_L(20, 0.2)
    raw = Philox(key=edge_seed, counter=[0, 0, 0, stats._CENTER_STREAM]).random_raw(20)
    ell, left = edge.ell_numerator, -(edge.ell_numerator >> 1)
    # each center gets points at its left end and one before it, or at its
    # right end and one before it: a window moved by one numerator changes
    # its count
    on_ends = PointSet.from_numerators(
        fp.join(c_hi, c_lo) + left + d
        for i, (c_hi, c_lo) in enumerate(zip(raw[0::2], raw[1::2]))
        for d in ((-1, 0), (ell - 1, ell))[i % 2])
    for i in range(2):
        center = FixedPointReal(fp.join(raw[2 * i], raw[2 * i + 1]))
        assert count_in_interval(on_ends, center, edge) == 1
    cases = [(generic, WindowParams.from_beta(300, 0.3)),
             (generic, WindowParams.from_L(300, 210.0)),
             (tied, WindowParams.from_beta(300, 0.4)),
             (tied, WindowParams.from_L(300, 300 * 2.0**-127)),  # ell = 2, A = p
             (generic, WindowParams.from_L(300, 300.0)),
             (PointSet.from_floats([0.99]), WindowParams.from_L(1, 0.25)),
             (PointSet.from_floats(np.arange(16) / 16), WindowParams.from_L(16, 4.0)),
             (on_ends, edge)]
    assert cases[3][1].ell_numerator == 2 and cases[4][1].ell_numerator >= MODULUS
    for points, params in cases:
        n = len(points)
        for samples in {max(2, s) for s in (2, 3, n - 1, n, n + 1, 7 * n + 3, 4000)}:
            want = montecarlo_oracle(points, params, samples, edge_seed)
            for block in (stats._ROW_BLOCK, 1, 3, 7):  # blocks of points' window ends
                with monkeypatch.context() as patch:
                    patch.setattr(stats, "_window_counts", None)  # the oracle only
                    patch.setattr(stats, "_ROW_BLOCK", block)
                    got = number_variance_montecarlo(points, params, samples, edge_seed)
                assert (got.sigma2, got.mc_stderr) == want


def test_montecarlo_needs_two_samples():
    pts = PointSet.from_floats([0.5])
    params = WindowParams.from_L(1, 0.5)
    with pytest.raises(ValueError):
        number_variance_montecarlo(pts, params, 1, seed=0)


def test_montecarlo_rejects_samples_past_int32_ranks(monkeypatch):
    # the centers' ranks are int32 rows, so 2**31 samples raise before a
    # center is drawn or the estimate's row is allocated
    import tracemalloc

    def no_draw(*args, **kwargs):
        raise AssertionError("centers drawn")

    monkeypatch.setattr(stats, "Philox", no_draw)
    pts = PointSet.from_floats([0.5])
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            number_variance_montecarlo(pts, WindowParams.from_L(1, 0.5), 2**31, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# pair correlation, direct
# ---------------------------------------------------------------------------

def test_paircorr_no_near_pairs():
    pts = PointSet.from_floats([0.0, 0.5])
    params = WindowParams.from_L(2, 0.5)  # ell = 0.25, distances 2*ell
    got = pair_correlation_direct(pts, params, TestFunction.tent())
    assert got.r2 == 0.0
    assert got.method == "direct" and got.truncation_bound is None


def test_paircorr_two_point_hand_value():
    pts = PointSet.from_floats([0.1, 0.3])
    params = WindowParams.from_L(2, 0.8)
    got = pair_correlation_direct(pts, params, TestFunction.tent()).r2
    assert abs(got - 0.5) < 1e-14


def test_paircorr_indicator_half_open_at_support_edge():
    # Distance exactly ell/2: the ordered pair at +1/2 is outside the
    # half-open indicator, its mirror at -1/2 is inside.  Total 1.
    pts = PointSet.from_floats([0.0, 0.25])
    params = WindowParams.from_L(2, 1.0)  # ell = 0.5
    got = pair_correlation_direct(pts, params, TestFunction.indicator()).r2
    assert got == 0.5


def test_paircorr_matches_double_loop_oracle():
    rng = np.random.default_rng(1618)
    tent_f = TestFunction.tent()
    chi = TestFunction.indicator()
    for _ in range(12):
        n = int(rng.integers(2, 40))
        beta = float(rng.uniform(0.0, 0.5))
        pts = random_points(rng, n)
        params = WindowParams.from_beta(n, beta)
        for f in (tent_f, chi):
            got = pair_correlation_direct(pts, params, f).r2
            want = pair_sum_oracle(pts, params, f)
            assert abs(got - want) <= 1e-10 * max(1.0, params.L)


def test_paircorr_wide_window_routes_agree():
    # ell large enough that radius*ell > 1/2, for a function vanishing at
    # its support edge (tent) and one that does not (boxcar); both must
    # match the explicit-shift oracle.
    rng = np.random.default_rng(404)
    pts = random_points(rng, 10)
    params = WindowParams.from_L(10, 7.0)  # ell = 0.7
    boxcar = TestFunction.custom([-1.0, 1.0], [1.0, 1.0], radius=1.0)
    tent_f = TestFunction.tent()
    for f in (tent_f, boxcar):
        got = pair_correlation_direct(pts, params, f).r2
        want = pair_sum_oracle(pts, params, f)
        assert abs(got - want) <= 1e-10 * max(1.0, params.L)


def test_paircorr_rotation_invariance():
    rng = np.random.default_rng(55)
    pts = random_points(rng, 120)
    params = WindowParams.from_beta(120, 0.35)
    f = TestFunction.tent()
    base = pair_correlation_direct(pts, params, f).r2
    for _ in range(3):
        offset = FixedPointReal((int(rng.integers(0, 1 << 63)) << 65) | 17)
        rotated = pair_correlation_direct(pts.shifted(offset), params, f).r2
        assert math.isclose(base, rotated, rel_tol=1e-9, abs_tol=1e-12)


def test_paircorr_tent_nonnegative():
    rng = np.random.default_rng(66)
    for _ in range(10):
        n = int(rng.integers(2, 200))
        pts = random_points(rng, n)
        params = WindowParams.from_beta(n, float(rng.uniform(0.0, 0.5)))
        assert pair_correlation_direct(pts, params, TestFunction.tent()).r2 >= 0.0


def test_master_identity_on_random_instances():
    # variance = L - L^2 + L * R2(tent): the module's self-test tying
    # the window-count route to the pair-sum route.
    rng = np.random.default_rng(31415)
    f = TestFunction.tent()
    for _ in range(40):
        n = int(rng.integers(2, 300))
        beta = float(rng.uniform(0.0, 0.5))
        pts = random_points(rng, n)
        params = WindowParams.from_beta(n, beta)
        sigma2 = number_variance_exact(pts, params).sigma2
        r2 = pair_correlation_direct(pts, params, f).r2
        L = params.L
        assert abs(sigma2 - (L - L * L + L * r2)) <= 1e-9 * max(1.0, L * L)


# ---------------------------------------------------------------------------
# exact pair sums, against a Fraction oracle
# ---------------------------------------------------------------------------

# row blocks the kernel is checked at: the default, and sizes that put
# block edges everywhere (1: every bracket holds one query and is empty)
BLOCKS = (stats._ROW_BLOCK, 1, 2, 3, 7)


def assert_exact(points: PointSet, params: WindowParams, functions) -> None:
    """Both kernel routes equal the float nearest the exact oracle value,
    at every row block size."""
    ell = Fraction(params.ell)
    tent_sum = exact_pair_sum(points, params.ell, TestFunction.tent())
    sigma2 = float(ell * (params.N + tent_sum) - Fraction(params.L) ** 2)
    r2 = [float(exact_pair_sum(points, params.ell, f) / params.N) for f in functions]
    for block in BLOCKS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "_ROW_BLOCK", block)
            assert number_variance_exact(points, params).sigma2 == sigma2
            assert [pair_correlation_direct(points, params, f).r2 for f in functions] == r2


# discontinuous at both ends of its table: f(-1.5) = 0.5, f(1.5) = 1.25
STEP_TABLE = TestFunction.custom([-1.5, -0.25, 0.5, 1.5], [0.5, 2.0, 1.0, 1.25], radius=1.5)
# table wider than its declared support: cut to [-1.2, 1.2], nonzero at the cut
WIDE_TABLE = TestFunction.custom([-3.0, 0.0, 3.0], [1.0, 3.0, 2.0], radius=1.2)
ALL_KINDS = (TestFunction.tent(), TestFunction.indicator(), STEP_TABLE, WIDE_TABLE)


def test_custom_function_zero_beyond_radius():
    # f is what the pair sums sum: the table on the closed [-radius, radius]
    for t in (1.2, -1.2, 0.7):
        assert WIDE_TABLE(t) == float(np.interp(t, WIDE_TABLE.xs, WIDE_TABLE.values))
    assert WIDE_TABLE(2.0) == 0.0 and WIDE_TABLE(-1.2000001) == 0.0
    assert list(WIDE_TABLE(np.array([-2.5, 1.2, 2.0]))) == [0.0, 2.6, 0.0]


def test_exact_kernel_random_points_small_windows():
    rng = np.random.default_rng(4242)
    for _ in range(6):
        n = int(rng.integers(2, 30))
        pts = random_points(rng, n)
        assert_exact(pts, WindowParams.from_beta(n, float(rng.uniform(0.0, 0.5))), ALL_KINDS)


def test_exact_kernel_wide_windows():
    # ell = 1, ell > 1/2, and radius * ell > 1 for both custom tables
    rng = np.random.default_rng(5151)
    for n, L in ((12, 12.0), (9, 6.3), (7, 6.93)):
        pts = random_points(rng, n)
        assert_exact(pts, WindowParams.from_L(n, L), ALL_KINDS)


def test_exact_kernel_clustered_points():
    base = FixedPointReal.from_float(0.5).numerator
    pts = PointSet.from_numerators([base + k * (1 << 70) for k in range(15)] + [7, MODULUS - 3])
    assert_exact(pts, WindowParams.from_beta(17, 0.45), ALL_KINDS)


def test_exact_kernel_dyadic_edges():
    # points j/8 and ell = 1/4: pair differences land exactly on the knots
    # t = -1/2, 1/2, -1 and 1, where the closed and half-open edges decide;
    # the last table meets its support [-1, 1] only at t = -1
    pts = PointSet.from_floats([j / 8 for j in range(8)] + [1 / 16])
    touching = TestFunction.custom([-2.0, -1.0], [0.0, 1.0], radius=1.0)
    assert_exact(pts, WindowParams.from_L(9, 2.25), ALL_KINDS + (touching,))


def test_exact_kernel_rational_alpha_ties():
    # alpha = 1/8 repeats numerators exactly; alpha = 1/7 gives runs of
    # equal high words whose low words differ
    seq = generate_sequence(SequenceSpec.monomial(1), 40)
    for q in (8, 7):
        pts = dilate_mod1(FixedPointReal.from_fraction(1, q), seq)
        for params in (WindowParams.from_beta(40, 0.3), WindowParams.from_L(40, 30.0)):
            assert_exact(pts, params, ALL_KINDS)


# The kernel counts each pair once, from its lower unrolled index, and sums
# g(t) = f(t) + f(-t) there; these draws put the knots of f on both sides
# of 0, on one side only, or on the support edge alone, and the points on
# exact ties and on windows of one turn or several.
kernel_settings = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def custom_tables(draw):
    """A custom TestFunction on a grid of quarters, radius a multiple of 1/4."""
    radius = draw(st.integers(1, 16)) / 4
    side = draw(st.sampled_from(["both", "below", "above", "touch below", "touch above"]))
    edge = int(radius * 4)
    quarters = {
        "both": st.integers(-20, 20),
        "below": st.integers(-20, -1),
        "above": st.integers(1, 20),
        "touch below": st.integers(-24, -edge - 1),
        "touch above": st.integers(edge + 1, 24),
    }[side]
    grid = set(draw(st.lists(quarters, min_size=1, max_size=5, unique=True)))
    if side == "both":
        grid |= {draw(st.integers(-20, -1)), draw(st.integers(1, 20))}
    elif side.startswith("touch"):
        grid.add(-edge if side == "touch below" else edge)  # meets [-r, r] at one point
    xs = sorted(grid)
    if len(xs) < 2:
        xs.append(xs[0] + 1)
    values = st.integers(-8, 8) | st.floats(-3, 3)
    values = draw(st.lists(values, min_size=len(xs), max_size=len(xs)))
    return TestFunction.custom([x / 4 for x in xs], values, radius=radius)


@st.composite
def kernel_points(draw):
    n = draw(st.integers(1, 9))
    if draw(st.booleans()):
        # rational alpha with a small denominator: exact ties
        seq = generate_sequence(SequenceSpec.monomial(draw(st.integers(1, 2))), n)
        return dilate_mod1(FixedPointReal.from_fraction(1, draw(st.integers(1, 8))), seq)
    nums = draw(st.lists(st.integers(0, MODULUS - 1), min_size=n, max_size=n))
    return PointSet.from_numerators(nums)


@kernel_settings
@given(kernel_points(), custom_tables(),
       st.sampled_from([1.0, 0.75, 0.5, 0.3]) | st.floats(1e-3, 1.0))
# ell = 1, radius 4: the support spans four turns, on tied points
@example(dilate_mod1(FixedPointReal.from_fraction(1, 4),
                     generate_sequence(SequenceSpec.monomial(1), 9)),
         TestFunction.custom([-4.0, -1.0, 0.0, 2.5, 4.0], [1.0, 3.0, -2.0, 0.5, 2.0], 4.0),
         1.0)
def test_folded_kernel_matches_fraction_oracle(points, f, ell):
    params = WindowParams.from_L(len(points), len(points) * ell)
    for g in (f, TestFunction.tent(), TestFunction.indicator()):
        want = exact_pair_sum(points, params.ell, g)
        for block in BLOCKS:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(stats, "_ROW_BLOCK", block)
                assert stats._pair_sum(points, params.ell, g) == want


def test_folded_windows_join_one_line():
    scale = Fraction(0.3) * MODULUS
    top = math.floor(scale) + 1
    # the tent: its D = 0 window, 2 f(0), lies on the line 2 - 2D/scale
    assert stats._folded_windows(TestFunction.tent(), scale) == (1, [(0, top, 2, -2)])
    # f(t) = 1 + t on [-1, 1], with a knot at 1/2: g = 2 on both sides of it
    line = TestFunction.custom([-1.0, 0.5, 1.0], [0.0, 1.5, 2.0], radius=1.0)
    assert stats._folded_windows(line, scale) == (1, [(0, top, 2, 0)])
    # the half-open indicator: g = 2 below scale/2, and 1 at D = scale/2 only
    half = math.ceil(scale / 2)
    assert stats._folded_windows(TestFunction.indicator(), scale) == (
        1, [(0, half, 2, 0), (half, math.floor(scale / 2) + 1, 1, 0)])


def test_tent_kernel_ranks_each_point_once(monkeypatch):
    # the tent folds to one window [0, scale], whose start is k = i + 1, so
    # it has one moved knot: one scalar query for the rows that wrap at its
    # end, then per block of rows the block's queries (their sizes sum to
    # N), a bracket of their first and last, searched in all points, and,
    # unless the bracket is empty, the block's queries searched in it
    calls = []
    real_add, real_rank = stats.add_words, stats.rank_words

    def added(hi, lo, k):
        calls.append(("add", hi.size))
        return real_add(hi, lo, k)

    def ranked(pts_hi, pts_lo, q_hi, q_lo):
        calls.append(("all" if pts_hi is points.hi else "slice", q_hi.size))
        return real_rank(pts_hi, pts_lo, q_hi, q_lo)

    monkeypatch.setattr(stats, "add_words", added)
    monkeypatch.setattr(stats, "rank_words", ranked)
    seq = generate_sequence(SequenceSpec.monomial(2), 300)
    for alpha in (FixedPointReal.from_fraction(1, 8), sample_alpha(7, 0)):
        points = dilate_mod1(alpha, seq)
        for params in (WindowParams.from_beta(300, 0.3), WindowParams.from_L(300, 300.0)):
            for block in (stats._ROW_BLOCK, 64, 1):
                monkeypatch.setattr(stats, "_ROW_BLOCK", block)
                calls.clear()
                number_variance_exact(points, params)
                assert calls[0] == ("all", 1)
                sizes, rest = [], calls[1:]
                while rest:
                    (kind, m), bracket, rest = rest[0], rest[1], rest[2:]
                    assert kind == "add" and 1 <= m <= block and bracket == ("all", 2)
                    if rest and rest[0][0] == "slice":
                        assert rest[0] == ("slice", m)
                        rest = rest[1:]
                    sizes.append(m)
                assert sum(sizes) == 300
                assert len(sizes) <= -(-300 // block) + 1  # the wrap split adds one
                if block == 1:  # first and last query coincide
                    assert ("slice", 1) not in calls


def test_pair_sum_dots_one_row_per_window(monkeypatch):
    # the prefix weights and window counts fold into one signed row per
    # knot, so each window's moment is one dot row per block of columns:
    # one for the tent, also at ell = 1, and one per folded window otherwise
    rows = []
    real_dot = stats.dot_words

    def counted(c, words):
        assert c.shape[1] == words[0].size == words[1].size
        rows.append(c.shape)
        return real_dot(c, words)

    monkeypatch.setattr(stats, "dot_words", counted)
    points = dilate_mod1(sample_alpha(7, 0), generate_sequence(SequenceSpec.monomial(2), 300))
    params = WindowParams.from_beta(300, 0.3)
    scale = Fraction(params.ell) * MODULUS
    for block in (stats._ROW_BLOCK, 64, 7):
        monkeypatch.setattr(stats, "_ROW_BLOCK", block)
        widths = [min(block, 300 - b0) for b0 in range(0, 300, block)]
        for wide in (params, WindowParams.from_L(300, 300.0)):
            rows.clear()
            number_variance_exact(points, wide)
            assert rows == [(1, w) for w in widths]
        for f in (STEP_TABLE, TestFunction.indicator()):
            windows = stats._folded_windows(f, scale)[1]
            assert len(windows) > 1
            rows.clear()
            pair_correlation_direct(points, params, f)
            assert rows == [(len(windows), w) for w in widths]


def test_row_blocks_meet_wrap_split_whole_turns_and_ties(monkeypatch):
    # rows of the eighths alpha = 1/8 (ties) in blocks of 1, 2, 3 and 7:
    # the wrap split falls inside a block, the custom table's integer knots
    # sit on whole turns at ell = 1, and equal queries give empty brackets
    seq = generate_sequence(SequenceSpec.monomial(1), 21)
    points = dilate_mod1(FixedPointReal.from_fraction(1, 8), seq)
    turns = TestFunction.custom([-2.0, -1.0, 0.0, 1.0, 2.0], [1.0, -2.0, 3.0, 0.5, 2.0], radius=2.0)
    seen = {"split": set(), "whole turn": 0, "empty": 0}
    real_ranks, real_rank = stats._rotated_ranks, stats.rank_words

    def rotated(t_hi, t_lo, q_hi, q_lo, e):
        ranks, w = real_ranks(t_hi, t_lo, q_hi, q_lo, e)
        seen["whole turn"] += e % MODULUS == 0
        seen["split"].add(q_hi.size - w)
        return ranks, w

    def ranked(pts_hi, pts_lo, q_hi, q_lo):
        rank = real_rank(pts_hi, pts_lo, q_hi, q_lo)
        seen["empty"] += q_hi.size == 2 and rank[0] == rank[1]
        return rank

    monkeypatch.setattr(stats, "_rotated_ranks", rotated)
    monkeypatch.setattr(stats, "rank_words", ranked)
    for ell in (1.0, 0.3):
        params = WindowParams.from_L(21, 21 * ell)
        for f in (TestFunction.tent(), TestFunction.indicator(), turns):
            want = exact_pair_sum(points, params.ell, f)
            for block in (1, 2, 3, 7):
                monkeypatch.setattr(stats, "_ROW_BLOCK", block)
                assert stats._pair_sum(points, params.ell, f) == want
    # the tent's end at ell = 0.3 wraps the rows at 6/8 and 7/8, two each,
    # so its rows split at 17, inside a block of 2, 3 and 7
    assert 17 in seen["split"] and seen["whole turn"] and seen["empty"]


def test_exact_kernel_working_set():
    # one variance cell at N = 2**18 allocates one int32 rank row per moved
    # knot (the tent has one) and block-sized temporaries, nothing else N
    # long.  The allowance of 2 MiB covers the 1.4 MiB measured above the
    # rank row at the default block of 2**15 rows; the kernel with int64
    # rank rows peaked at 3.26 MiB, and the one that built N-long query
    # words, knot rows and row copies at 10.0 MiB.
    import tracemalloc

    n = 1 << 18
    points = dilate_mod1(sample_alpha(3, 0), generate_sequence(SequenceSpec.monomial(2), n))
    params = WindowParams.from_beta(n, 0.3)
    windows = stats._folded_windows(TestFunction.tent(), Fraction(params.ell) * MODULUS)[1]
    moved = {e for w in windows for e in w[:2]} - {0}
    allowance = 2 << 20
    tracemalloc.start()
    try:
        number_variance_exact(points, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(moved) == 1
    assert peak <= 4 * n * len(moved) + allowance, peak


# ---------------------------------------------------------------------------
# pair correlation, spectral
# ---------------------------------------------------------------------------

def test_fourier_two_point_closed_form():
    # seq (1, 2), alpha = 1/2: T_n = 1 + (-1)^n, so |T_n|^2 - 2 is
    # exactly 2*(-1)^n and the spectral sum collapses to an alternating
    # weighted series.  Rebuild that series directly as the reference.
    seq = generate_sequence(SequenceSpec.custom([1, 2]), 2)
    alpha = FixedPointReal.from_fraction(1, 2)
    params = WindowParams.from_beta(2, 0.4)
    tol = 1e-8
    got = pair_correlation_fourier(seq, alpha, params, tol)
    m_terms, _ = trivial_truncation(2, params.L, tol)
    nn = np.arange(1, m_terms + 1, dtype=np.float64)
    series = np.sum(np.sinc(params.ell * nn) ** 2 * 2.0 * np.where(nn % 2 == 0, 1.0, -1.0))
    want = params.L - params.L / 2 + (2.0 * params.L / 4) * series
    assert math.isclose(got.r2, want, rel_tol=1e-9, abs_tol=1e-12)
    # and the direct route agrees within the declared truncation
    pts = dilate_mod1(alpha, seq)
    direct = pair_correlation_direct(pts, params, TestFunction.tent()).r2
    assert abs(got.r2 - direct) <= tol + 1e-9
    assert got.truncation_bound <= tol
    assert got.method == "fourier"


def test_fourier_agrees_with_direct_sweep():
    rng = np.random.default_rng(271828)
    f = TestFunction.tent()
    for _ in range(12):
        n = int(rng.integers(2, 10))
        beta = float(rng.uniform(0.15, 0.5))
        seq_vals = sorted(int(v) for v in set(rng.integers(-(10**6), 10**6, size=4 * n))
                          )[:n]
        seq = generate_sequence(SequenceSpec.custom(seq_vals), n)
        alpha = sample_alpha(int(rng.integers(1 << 62)), 0)
        params = WindowParams.from_beta(n, beta)
        tol = 1e-5
        spectral = pair_correlation_fourier(seq, alpha, params, tol).r2
        direct = pair_correlation_direct(dilate_mod1(alpha, seq), params, f).r2
        assert abs(spectral - direct) <= tol + 1e-9


def test_fourier_halving_tol_moves_less_than_old_tol():
    seq = generate_sequence(SequenceSpec.monomial(2), 8)
    alpha = sample_alpha(9, 0)
    params = WindowParams.from_beta(8, 0.3)
    coarse = pair_correlation_fourier(seq, alpha, params, 2e-4).r2
    fine = pair_correlation_fourier(seq, alpha, params, 1e-4).r2
    assert abs(coarse - fine) <= 2e-4 + 1e-12


def sorted_words(hi, lo):
    """The words in ascending order, as the spectral route's spacings take them."""
    order = fp.argsort_words(hi, lo)
    return hi[order], lo[order]


def trivial_truncation(n, L, tol):
    """M and bound of the trivial tail rule ||T_n|^2 - N| <= N(N-1)."""
    m_terms = max(1, math.ceil(2.0 * n * (n - 1) / (math.pi**2 * L * tol)))
    return m_terms, 2.0 * n * (n - 1) / (math.pi**2 * L * m_terms)


def test_large_sieve_inequality_numeric():
    # sum over K consecutive n of |T_n|^2 <= (K - 1 + 1/d) * P(d), P(d) the
    # ordered pairs (j = k included) closer than d.  At d = delta, the least
    # gap, P = N (Montgomery-Vaughan); wider d count near pairs and ties.
    # T_n is summed in Python from exact phases n * p mod 2**128;
    # equispaced points meet it with equality at K = 1 and d = delta.
    rng = np.random.default_rng(1973)
    step = MODULUS // 7
    sets = [[j * step for j in range(7)]]
    for _ in range(8):
        n = int(rng.integers(2, 10))
        nums = [int(rng.integers(0, 1 << 63)) << 65 for _ in range(n)]
        nums += [v + (int(rng.integers(1, 1 << 40)) << 80) for v in nums[:2]]  # near pairs
        sets.append(nums)
    sets.append(sets[1] + [sets[1][0]])  # a tie: delta = 0
    for nums in sets:
        words = fp.to_words(sorted(nums))
        spacings = (stats._min_gap(*words), MODULUS // (4 * len(nums)),
                    MODULUS >> 12, MODULUS >> 30, MODULUS // 2)
        windows = [(int(rng.integers(1, 5000)), int(rng.integers(1, 60))) for _ in range(4)]
        for n0, k in windows + [(700, 1)]:
            power = 0.0
            for m in range(n0, n0 + k):
                phases = np.array([(m * p) % MODULUS / MODULUS for p in nums])
                power += abs(np.exp(2j * np.pi * phases).sum()) ** 2
            for d in filter(None, spacings):
                pairs = len(nums) + 2 * stats._close_pairs(*words, d)
                assert power <= (k - 1 + MODULUS / d) * pairs * (1 + 1e-9)


def test_fourier_bound_covers_measured_tail():
    # the spectral kernel's own sum over M < n <= 20 M stays within the
    # reported truncation_bound, whichever of the bounds set M
    rng = np.random.default_rng(606)
    cases = [([1, 2], FixedPointReal.from_fraction(1, 2), 0.4, 1e-4)]
    for _ in range(6):
        n = int(rng.integers(2, 12))
        vals = sorted(int(v) for v in set(rng.integers(-(10**6), 10**6, size=4 * n)))[:n]
        cases.append((vals, sample_alpha(int(rng.integers(1 << 62)), 0),
                      float(rng.uniform(0.15, 0.5)), 1e-3))
    cases.append((list(range(1, 9)), FixedPointReal.from_fraction(1, 3), 0.3, 1e-3))  # ties
    for vals, alpha, beta, tol in cases:
        seq = generate_sequence(SequenceSpec.custom(vals), len(vals))
        params = WindowParams.from_beta(len(vals), beta)
        got = pair_correlation_fourier(seq, alpha, params, tol)
        u_hi, u_lo = fp.mul_words(alpha.numerator, seq.terms)
        words = sorted_words(u_hi, u_lo)
        pairs = stats._close_pairs(*words, stats._close_spacing(len(vals)))
        m_terms, bound = stats._truncation_point(len(vals), params.L, tol,
                                                 stats._min_gap(*words), pairs)
        assert got.truncation_bound == bound <= tol
        tail = stats._phase_sum(u_hi, u_lo, params.ell, m_terms + 1, 20 * m_terms + 1)
        assert 2.0 * params.L / len(vals) ** 2 * abs(tail) <= bound


def test_phase_sum_matches_per_n_oracle(monkeypatch):
    # (2L/N^2) * _phase_sum is R2's tail; the baby/giant kernel must give
    # the per-n cos/sin sum up to rounding.  Shrinking the block size to
    # 2**8 entries makes small cases cross every boundary: several giant
    # and product blocks, a last giant row cut short, and point blocks of
    # 16 that do not divide N.
    rng = np.random.default_rng(4242)

    def words(n, alpha):
        seq = generate_sequence(SequenceSpec.custom(sorted(
            int(v) for v in set(rng.integers(-(10**6), 10**6, size=4 * n)))[:n]), n)
        return fp.mul_words(alpha.numerator, seq.terms)

    def check(u_hi, u_lo, n_lo, n_hi):
        n = u_hi.size
        params = WindowParams.from_beta(max(n, 2), 0.3)
        scale = 2.0 * params.L / n**2
        got = stats._phase_sum(u_hi, u_lo, params.ell, n_lo, n_hi)
        want = phase_sum_oracle(u_hi, u_lo, params.ell, n_lo, n_hi)
        assert abs(got - want) * scale <= 1e-12, (n, n_lo, n_hi)

    top = 1 << 32
    for entries in (stats._PHASE_CHUNK_ENTRIES, 1 << 8):
        monkeypatch.setattr(stats, "_PHASE_CHUNK_ENTRIES", entries)
        alpha = sample_alpha(int(rng.integers(1 << 62)), 0)
        for n in (1, 2, 7, 37, 300):
            u_hi, u_lo = words(n, alpha)
            for n_lo, count in ((1, 1), (1, 2), (1, 3), (1, 1000), (37, 1), (37, 517),
                                (1000, 3961), (top - 700, 700), (top - 5, 3)):
                check(u_hi, u_lo, n_lo, n_lo + count)
        # tied points (alpha = 0): every T_n = N
        u_hi, u_lo = words(12, FixedPointReal(0))
        check(u_hi, u_lo, 1, 2000)
    check(*words(2, FixedPointReal.from_fraction(1, 2)), 5, 70_007)  # several product blocks
    assert stats._phase_sum(u_hi, u_lo, 0.1, 9, 9) == 0.0


def test_paircorr_bytes_independent_of_blas_threads():
    # the spectral reduction uses no BLAS, so the thread count of the BLAS
    # library cannot change a bit of the output
    cmd = [sys.executable, "-m", "numvar.cli", "paircorr", "--seq", "monomial:d=2",
           "--schedule", "n=60,300", "--alphas", "2", "--tol", "1e-2", "--seed", "3"]
    src = os.path.dirname(os.path.dirname(stats.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] and outs[0].count(b"\r\n") == 5


def test_fourier_tied_points_keep_trivial_truncation():
    # alpha = 0 puts every point at 0: delta = 0 and every pair is close,
    # so the trivial bound is the smallest
    for n, beta, tol in ((5, 0.3, 1e-3), (12, 0.45, 1e-4), (2, 0.2, 1e-2)):
        seq = generate_sequence(SequenceSpec.monomial(2), n)
        params = WindowParams.from_beta(n, beta)
        words = sorted_words(*fp.mul_words(0, seq.terms))
        assert stats._min_gap(*words) == 0
        pairs = stats._close_pairs(*words, stats._close_spacing(n))
        assert pairs == n * (n - 1) // 2
        want = trivial_truncation(n, params.L, tol)
        assert stats._truncation_point(n, params.L, tol, 0, pairs) == want
        got = pair_correlation_fourier(seq, FixedPointReal(0), params, tol)
        assert got.truncation_bound == want[1]


def test_fourier_truncation_never_exceeds_trivial():
    rng = np.random.default_rng(1212)
    for _ in range(300):
        n = int(rng.integers(2, 2000))
        L = float(n) ** float(rng.uniform(0.0, 1.0))
        tol = 10.0 ** float(rng.uniform(-9, 0))
        gap = [0, 1, 1 << 64, MODULUS // (n * n + 1), MODULUS // n][int(rng.integers(5))]
        pairs = [0, n // 4, n, n * (n - 1) // 2][int(rng.integers(4))]
        m_terms, bound = stats._truncation_point(n, L, tol, gap, pairs)
        m_trivial, _ = trivial_truncation(n, L, tol)
        assert 1 <= m_terms <= m_trivial

        def smallest(m, p):  # the least tail bound at M = m, with P(1/(4N)) = p
            scale = 2.0 / (math.pi**2 * L)
            excess = -(-MODULUS // (MODULUS // (4 * n))) - 1  # ceil(1/d) - 1
            bounds = [2.0 * n * (n - 1) / (math.pi**2 * L * m),
                      scale * ((p + n) / m + excess * p / (m + 1) ** 2)]
            if gap:
                excess = -(-MODULUS // gap) - 1  # ceil(1/delta) - 1
                bounds.append(scale * (2.0 * n / m + excess * n / (m + 1) ** 2))
            return min(bounds)

        # M is the least M for P sized to at least 2N; the bound is at the actual P
        sized = max(n + 2 * pairs, 2 * n)
        assert bound <= tol
        assert math.isclose(bound, smallest(m_terms, n + 2 * pairs), rel_tol=1e-12)
        assert smallest(m_terms, sized) <= tol * (1 + 1e-12)
        assert m_terms == 1 or smallest(m_terms - 1, sized) > tol
    # one point: |T_n|^2 = N, so nothing is truncated
    assert stats._truncation_point(1, 1.0, 1e-6, MODULUS, 0) == (1, 0.0)


def test_fourier_truncation_steady_over_alpha():
    # N = 300, beta 0.3, tol 1e-2: the least gap alone puts M anywhere in
    # about 2.6e3..1.1e5 as alpha varies.  The near-pair bound, sized for
    # N/2 close pairs, gives most alphas one M; an alpha near a small
    # rational (more close pairs) or with a wide least gap moves it.
    n, tol = 300, 1e-2
    seq = generate_sequence(SequenceSpec.monomial(2), n)
    params = WindowParams.from_beta(n, 0.3)
    all_pairs = n * (n - 1) // 2  # P = N^2: the near-pair bound never wins
    steady, by_gap = [], []
    for seed in range(20):
        words = sorted_words(*fp.mul_words(sample_alpha(seed, 0).numerator, seq.terms))
        gap = stats._min_gap(*words)
        pairs = stats._close_pairs(*words, stats._close_spacing(n))
        steady.append(stats._truncation_point(n, params.L, tol, gap, pairs)[0])
        by_gap.append(stats._truncation_point(n, params.L, tol, gap, all_pairs)[0])
    assert all(m <= g for m, g in zip(steady, by_gap))
    assert len(set(by_gap)) == 20
    assert max(steady.count(m) for m in steady) >= 15


def test_fourier_budget_errors():
    seq = generate_sequence(SequenceSpec.monomial(2), 100)
    alpha = sample_alpha(1, 0)
    params = WindowParams.from_beta(100, 0.3)
    with pytest.raises(BudgetError):
        pair_correlation_fourier(seq, alpha, params, 1e-12)
    with pytest.raises(BudgetError):
        pair_correlation_fourier(seq, alpha, params, 0.0)
    with pytest.raises(BudgetError):
        pair_correlation_fourier(seq, alpha, params, -1.0)
    # M just over the ceiling; both routes raise before any phase is taken
    for route in (pair_correlation_fourier, number_variance_fourier):
        with pytest.raises(BudgetError, match="needs M=1018032743 terms > ceiling 1000000000"):
            route(seq, alpha, params, 1e-8)
        # the ceiling is a module constant, not a per-call parameter
        with pytest.raises(TypeError):
            route(seq, alpha, params, 1e-3, max_terms=10**15)
    # M near 1e302 and beyond the float range: still a BudgetError
    with pytest.raises(BudgetError, match="ceiling"):
        pair_correlation_fourier(seq, alpha, params, 1e-300)
    with pytest.raises(BudgetError, match="too small"):
        pair_correlation_fourier(seq, alpha, params, 1e-320)


def test_fourier_rejects_mismatched_params():
    seq = generate_sequence(SequenceSpec.monomial(2), 8)
    params = WindowParams.from_beta(9, 0.3)
    with pytest.raises(WindowError):
        pair_correlation_fourier(seq, sample_alpha(0, 0), params, 1e-4)


def test_variance_fourier_composition():
    seq = generate_sequence(SequenceSpec.monomial(2), 12)
    alpha = sample_alpha(77, 3)
    params = WindowParams.from_beta(12, 0.35)
    tol = 1e-6
    via_fourier = number_variance_fourier(seq, alpha, params, tol)
    exact = number_variance_exact(dilate_mod1(alpha, seq), params).sigma2
    assert via_fourier.method == "fourier"
    assert abs(via_fourier.sigma2 - exact) <= params.L * tol + 1e-9


def test_poisson_summation_tent_pair():
    # sum_n tent_fourier(a n) == (1/a) sum_m tent(m / a): both sides
    # computable to knowable accuracy, for a spread over (0, 10].
    rng = np.random.default_rng(123)
    for a in 10.0 ** rng.uniform(-0.5, 1.0, size=12):
        m_terms = int(math.ceil(2.0 / (math.pi**2 * a * a * 2e-6)))
        nn = np.arange(1, m_terms + 1, dtype=np.float64)
        lhs = 1.0 + 2.0 * float(np.sum(np.sinc(a * nn) ** 2))
        mm = np.arange(1, int(math.floor(a)) + 1, dtype=np.float64)
        rhs = (1.0 + 2.0 * float(np.sum(np.maximum(1.0 - mm / a, 0.0)))) / a
        assert abs(lhs - rhs) < 1e-5
