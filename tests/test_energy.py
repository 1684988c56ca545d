"""Additive energy, difference profiles, and gcd-sum diagnostics.

The primary oracle is quadruple counting done a different way: the
library counts positive differences band by band and squares their
multiplicities, so the tests compare against an explicit N^2 x N^2
equality count, against the full difference table, and against closed
forms (arithmetic progressions, Sidon sets) that are provable by hand.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numvar import (
    BudgetError,
    SequenceSpec,
    additive_energy,
    difference_count,
    difference_energy,
    difference_profile,
    gcd_sum_diagnostic,
    generate_sequence,
)
from numvar import energy


MIAN_CHOWLA_8 = [1, 2, 4, 8, 13, 21, 31, 45]  # greedy Sidon set


def quadruple_count_oracle(values) -> int:
    """Number of (i, j, k, l) with a_i + a_j = a_k + a_l, by brute force."""
    a = np.asarray(values, dtype=np.int64)
    sums = (a[:, None] + a[None, :]).ravel()
    return int(np.count_nonzero(sums[:, None] == sums[None, :]))


def seq_of(values):
    return generate_sequence(SequenceSpec.custom(list(values)), len(values))


# ---------------------------------------------------------------------------
# additive energy
# ---------------------------------------------------------------------------

def test_energy_hand_examples():
    assert additive_energy(seq_of([1, 2, 3])).energy == 19
    assert additive_energy(seq_of([1, 2, 4])).energy == 15
    assert additive_energy(seq_of([2, 4, 8])).energy == 15


def test_energy_profile_multiplicities():
    prof = additive_energy(seq_of([1, 2, 3]))
    # pair sums 2..6 occur 1, 2, 3, 2, 1 times
    assert [prof.multiplicity(s) for s in (2, 3, 4, 5, 6)] == [1, 2, 3, 2, 1]
    assert prof.multiplicity(7) == 0
    assert prof.N == 3
    r = [prof.multiplicity(s) for s in range(2 * 1, 2 * 3 + 1)]
    assert sum(r) == 9  # all ordered pairs
    assert sum(c * c for c in r) == prof.energy


def test_energy_multiplicities_sum_to_pairs_and_energy():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 25))
        vals = [int(v) for v in rng.choice(np.arange(-60, 60), size=n, replace=False)]
        prof = additive_energy(seq_of(vals))
        r = [prof.multiplicity(s) for s in range(2 * min(vals), 2 * max(vals) + 1)]
        assert sum(r) == n * n
        assert sum(c * c for c in r) == prof.energy
    top = seq_of([-(2**62 - 1), 0, 2**62 - 1])
    prof = additive_energy(top)
    assert prof.multiplicity(0) == 3 and prof.multiplicity(2**63 - 2) == 1
    assert prof.multiplicity(2**63) == 0 and prof.multiplicity(-(2**64)) == 0


def test_energy_matches_quadruple_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(15):
        n = int(rng.integers(1, 51))
        vals = sorted(int(v) for v in set(rng.integers(-10**6, 10**6, size=3 * n)))[:n]
        assert additive_energy(seq_of(vals)).energy == quadruple_count_oracle(vals)


def test_energy_arithmetic_progression_closed_form():
    # For any N-term arithmetic progression the energy is (2N^3 + N)/3:
    # the quadruple condition reduces to i + j = k + l on indices.
    rng = np.random.default_rng(5)
    for n in (2, 3, 10, 40, 100):
        start = int(rng.integers(-1000, 1000))
        step = int(rng.integers(1, 50))
        vals = [start + step * i for i in range(n)]
        assert additive_energy(seq_of(vals)).energy == (2 * n**3 + n) // 3


def test_energy_bounds_and_sidon_equality():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        vals = sorted(int(v) for v in set(rng.integers(0, 10**5, size=3 * n)))[:n]
        e = additive_energy(seq_of(vals)).energy
        assert 2 * n * n - n <= e <= n**3
        sums = sorted(vals[i] + vals[j] for i in range(n) for j in range(i, n))
        is_sidon = len(set(sums)) == len(sums)
        assert (e == 2 * n * n - n) == is_sidon


def test_energy_sidon_examples():
    mc = seq_of(MIAN_CHOWLA_8)
    assert additive_energy(mc).energy == 2 * 64 - 8  # 120
    lac = generate_sequence(SequenceSpec.lacunary(2), 20)
    assert additive_energy(lac).energy == 2 * 400 - 20


def test_energy_invariances():
    base = [3, 14, 159, 2653]
    e0 = additive_energy(seq_of(base)).energy
    assert additive_energy(seq_of([v + 77 for v in base])).energy == e0  # translation
    assert additive_energy(seq_of([-v for v in base])).energy == e0  # reflection
    assert additive_energy(seq_of([5 * v for v in base])).energy == e0  # dilation


def test_energy_benchmark_sizes():
    # the energies the energy-structure benchmark reports, pinned at full size
    squares, cubes = SequenceSpec.monomial(2), SequenceSpec.monomial(3)
    cases = ((squares, 2048, 21_219_820), (squares, 4096, 91_408_384), (cubes, 2048, 8_422_952))
    for spec, n, want in cases:
        assert additive_energy(generate_sequence(spec, n)).energy == want


def test_energy_single_term():
    prof = additive_energy(seq_of([42]))
    assert prof.energy == 1 and prof.multiplicity(84) == 1


# ---------------------------------------------------------------------------
# difference profile and difference energy
# ---------------------------------------------------------------------------

def test_profile_hand_examples():
    prof = difference_profile(seq_of([1, 2, 3]))
    assert dict(prof.items()) == {1: 2, 2: 1}
    assert prof.count(-1) == 2 and prof.count(0) == 0 and prof.count(3) == 0
    prof = difference_profile(seq_of([1, 2, 4]))
    assert dict(prof.items()) == {1: 1, 2: 1, 3: 1}


def test_profile_ordering_and_totals():
    prof = difference_profile(seq_of([1, 2, 4]))
    assert list(prof.values) == [1, 2, 3]  # ascending, positive only
    rng = np.random.default_rng(17)
    for _ in range(10):
        n = int(rng.integers(2, 30))
        vals = sorted(int(v) for v in set(rng.integers(-10**4, 10**4, size=3 * n)))[:n]
        prof = difference_profile(seq_of(vals))
        assert sum(c for _, c in prof.items()) == (n * n - n) // 2
        assert all(c > 0 for _, c in prof.items())
        assert all(prof.count(w) == prof.count(-w) for w in prof.values)
        assert all(w > 0 for w in prof.values)
        assert all(a < b for a, b in zip(prof.values, prof.values[1:]))


def test_difference_energy_hand_examples():
    assert difference_energy(difference_profile(seq_of([1, 2, 3]))) == 10
    assert difference_energy(difference_profile(seq_of([1, 2, 4]))) == 6
    mc = difference_profile(seq_of(MIAN_CHOWLA_8))
    assert difference_energy(mc) == 8 * 8 - 8  # Sidon: all differences distinct


def test_difference_energy_never_exceeds_additive_energy():
    rng = np.random.default_rng(88)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        vals = sorted(int(v) for v in set(rng.integers(0, 10**4, size=3 * n)))[:n]
        s = seq_of(vals)
        e = additive_energy(s).energy
        assert difference_energy(difference_profile(s)) == e - n * n


def test_energy_exponent_decreases_for_squares():
    # log E / log N for the squares drifts down toward 2 as N grows: a
    # small-scale version of the energy sweep used at acceptance.
    exps = []
    for n in (64, 128, 256, 512):
        seq = generate_sequence(SequenceSpec.monomial(2), n)
        e = additive_energy(seq).energy
        exps.append(math.log(e) / math.log(n))
    assert all(a > b for a, b in zip(exps, exps[1:]))
    assert exps[-1] < 2.5


# ---------------------------------------------------------------------------
# band kernel: tiny bands split the positive half across many bands
# ---------------------------------------------------------------------------

TOP = 2**62 - 1  # largest term magnitude a sequence accepts

band_settings = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def full_table_profile(values):
    """np.unique over the full N^2 difference table, zeros dropped."""
    a = np.array(values, dtype=object)  # Python ints: the span reaches 2^63
    diffs = [int(x) for x in (a[:, None] - a[None, :]).ravel() if x != 0]
    vals, counts = np.unique(np.array(diffs, dtype=object), return_counts=True)
    return [int(v) for v in vals], [int(c) for c in counts]


def band_inputs():
    small = st.lists(st.integers(-40, 40), min_size=1, max_size=14, unique=True)
    wide = st.lists(st.integers(-TOP, TOP), min_size=1, max_size=8, unique=True)
    ap = st.builds(
        lambda start, step, n: [start + step * i for i in range(n)],
        st.integers(-1000, 1000), st.integers(1, 9), st.integers(1, 16),
    )
    edges = st.lists(
        st.sampled_from([-TOP, -TOP + 1, -1, 0, 1, TOP - 1, TOP]),
        min_size=1, max_size=7, unique=True,
    )
    return st.one_of(small, wide, ap, edges)


def kernel_bands(values, band=None, count=None):
    """The kernel's bands over values, and the width of each np.bincount call.

    band and count, when given, replace _BAND_ENTRIES and _COUNT_WIDTH.
    """
    u = energy._offsets(np.sort(np.array(values, dtype=np.int64)))
    counted = []
    bincount = np.bincount

    def spy(keys, minlength=0):
        counted.append(minlength)
        return bincount(keys, minlength=minlength)

    with pytest.MonkeyPatch.context() as mp:
        if band is not None:
            mp.setattr(energy, "_BAND_ENTRIES", band)
        if count is not None:
            mp.setattr(energy, "_COUNT_WIDTH", count)
        mp.setattr(np, "bincount", spy)
        bands = list(energy._difference_key_bands(u))
    return int(u[-1]), bands, counted


@band_settings
@given(values=band_inputs(), band=st.sampled_from([1, 2, 3, 7]), count=st.sampled_from([1, 2, 3, 8, 64]))
@example(values=[1, 2, 4, 8, 13, 21, 31, 45], band=1, count=8)  # Sidon
@example(values=list(range(-30, 0)), band=2, count=1)  # one long run: W(1) = 29
@example(values=list(range(-30, 0)), band=7, count=64)  # one dense window, searched inside
@example(values=[-TOP, TOP], band=1, count=64)
@example(values=[-TOP, -TOP + 1, TOP - 1, TOP], band=3, count=2)
@example(values=[5], band=1, count=1)
# with count 8 the window [1, 9) holds only d = 1 and is passed over, so
# one sorted band runs from 1 to the span
@example(values=[0, 1, 2**32 + 2], band=3, count=8)  # band 2^32 + 2 wide: 32-bit keys alias 1, 2^32 + 1
@example(values=[0, 1, 2**32 + 1], band=3, count=8)  # band 2^32 + 1 wide: the narrowest 64-bit keys
@example(values=[0, 1, 2**32], band=3, count=8)  # one band exactly 2^32 wide: the widest 32-bit keys hold
@example(values=[-TOP, -TOP + 5, TOP - 2**32, TOP - 3], band=2, count=8)  # 32-bit keys at lo near 2^63
def test_band_kernel_matches_full_table(values, band, count):
    s = seq_of(values)
    n = len(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_BAND_ENTRIES", band)
        mp.setattr(energy, "_COUNT_WIDTH", count)
        prof = difference_profile(s)
        e = additive_energy(s).energy
    want_vals, want_counts = full_table_profile(values)
    assert prof.values.dtype == np.int64 and prof.counts.dtype == np.int64
    positive = [(v, c) for v, c in zip(want_vals, want_counts) if v > 0]
    assert list(prof.items()) == positive
    if max(abs(v) for v in values) < 2**31:
        assert e == quadruple_count_oracle(values)
    else:
        sums = [x + y for x in values for y in values]
        assert e == sum(sums.count(t) for t in sums)
    assert e == n * n + sum(c * c for c in want_counts)
    for w in set(want_vals) | {1, 2, TOP, 2**63 - 2}:
        assert difference_count(s, w) == dict(zip(want_vals, want_counts)).get(w, 0)


@band_settings
@given(values=band_inputs(), band=st.sampled_from([1, 2, 3, 7]), count=st.sampled_from([1, 2, 3, 8, 64]))
@example(values=list(range(-30, 0)), band=7, count=64)
@example(values=[0, 1, 2, 3, 1000], band=2, count=8)  # full windows searched inside, then a sparse stretch beyond
def test_bands_never_exceed_band_size(values, band, count):
    # the bands tile the positive half in ascending order; a band holds at
    # most _BAND_ENTRIES entries unless one value alone has more; a band
    # is counted by np.bincount exactly when it is at most _COUNT_WIDTH wide
    span, bands, counted = kernel_bands(values, band, count)
    n = len(values)
    los = [lo for lo, _, _ in bands]
    widths = [b - a for a, b in zip(los, los[1:] + [span + 1])]
    assert los[:1] == ([1] if n > 1 else [])
    assert all(w > 0 for w in widths)
    assert sum(int(c.sum()) for _, _, c in bands) == n * (n - 1) // 2
    flat = [lo + int(o) for lo, offsets, cs in bands for o, c in zip(offsets, cs) if c > 0]
    assert flat == sorted({abs(x - y) for x in values for y in values if x != y})
    for (_, offsets, cs), w in zip(bands, widths):
        assert cs.dtype == np.int64 and offsets.size == cs.size
        assert list(offsets) == sorted(set(offsets)) and 0 <= offsets[0] and offsets[-1] < w
        occupied = np.count_nonzero(cs)
        assert occupied >= 1  # no band is empty
        assert cs.sum() <= band or occupied == 1
    assert counted == [w for w in widths if w <= count]


def random_terms(n, gamma, seed):
    """n distinct integers drawn uniformly from [1, n**gamma + n]."""
    rng = np.random.default_rng(seed)
    return [int(v) + 1 for v in rng.choice(int(n**gamma) + n, size=n, replace=False)]


def test_sparse_differences_make_few_bands():
    # a narrow window is a band only when it is at least a quarter full,
    # so sparse differences are sorted in bands at least half full
    cubes = generate_sequence(SequenceSpec.monomial(3), 2048).terms
    for values in (random_terms(1024, 2.5, seed=3), cubes):
        n = len(values)
        _, bands, counted = kernel_bands(values)
        assert len(bands) <= math.ceil(n * (n - 1) // 2 / (energy._BAND_ENTRIES // 2)) + 2
    squares = generate_sequence(SequenceSpec.monomial(2), 2048).terms
    _, bands, counted = kernel_bands(squares)
    assert counted and max(counted) <= energy._COUNT_WIDTH  # the dense path is taken


def test_counting_paths_agree_at_full_size():
    # _COUNT_WIDTH = 0 sorts every band; bincount must give the same integers
    progression = generate_sequence(SequenceSpec.monomial(1), 4096)
    cases = (
        generate_sequence(SequenceSpec.monomial(2), 2048),
        seq_of(random_terms(1024, 2, seed=5)),
        progression,
    )
    for s in cases:
        assert kernel_bands(s.terms)[2] and not kernel_bands(s.terms, count=0)[2]
        e, prof = additive_energy(s).energy, difference_profile(s)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(energy, "_COUNT_WIDTH", 0)
            assert additive_energy(s).energy == e
            sorted_prof = difference_profile(s)
        np.testing.assert_array_equal(sorted_prof.values, prof.values)
        np.testing.assert_array_equal(sorted_prof.counts, prof.counts)
    n = len(progression)
    assert additive_energy(progression).energy == (2 * n**3 + n) // 3


# ---------------------------------------------------------------------------
# gcd-sum diagnostic
# ---------------------------------------------------------------------------

def test_gcd_sum_two_term_hand_value():
    prof = difference_profile(seq_of([1, 2]))
    # signed profile {+1: 1, -1: 1}; all four ordered value pairs
    # contribute gcd(1,1)/sqrt(1) = 1
    assert gcd_sum_diagnostic(prof) == 4.0


def test_gcd_sum_sidon_fourfold_symmetry():
    # (1, 2, 4): counts are all 1 and the summand depends only on
    # (|w_r|, |w_s|), so the sum is 4x the positive-value double sum.
    prof = difference_profile(seq_of([1, 2, 4]))
    pos = [1, 2, 3]
    hand = sum(
        math.gcd(r, s) / math.sqrt(r * s) for r in pos for s in pos
    )
    assert math.isclose(gcd_sum_diagnostic(prof), 4.0 * hand, rel_tol=1e-12)


def test_gcd_sum_matches_double_loop_oracle():
    # the oracle sums the definition over signed pairs, with the negative
    # half expanded from W(-w) = W(w)
    rng = np.random.default_rng(99)
    for _ in range(6):
        n = int(rng.integers(2, 16))
        vals = sorted(int(v) for v in set(rng.integers(0, 500, size=3 * n)))[:n]
        prof = difference_profile(seq_of(vals))
        signed = [(s * w, c) for w, c in prof.items() for s in (1, -1)]
        assert sum(c for _, c in signed) == n * n - n
        want = math.fsum(
            cr * cs * math.gcd(wr, ws) / math.sqrt(abs(wr * ws))
            for wr, cr in signed
            for ws, cs in signed
        )
        assert math.isclose(gcd_sum_diagnostic(prof), want, rel_tol=1e-12)


def test_gcd_sum_growth_decelerates_for_squares():
    # the gcd sum per unit sum W^2 must grow slower than any fixed power
    # of N: verified as strictly shrinking octave-to-octave growth factors.
    ratios = []
    for n in (16, 32, 64, 128):
        seq = generate_sequence(SequenceSpec.monomial(2), n)
        prof = difference_profile(seq)
        ratios.append(gcd_sum_diagnostic(prof) / difference_energy(prof))
    growth = [b / a for a, b in zip(ratios, ratios[1:])]
    assert all(g > 1.0 for g in growth)
    assert all(a > b for a, b in zip(growth, growth[1:]))
    assert ratios[-1] < 100.0


def test_gcd_sum_budget_and_empty(monkeypatch):
    prof = difference_profile(seq_of(list(range(1, 30))))
    assert prof.distinct == 28
    with pytest.raises(TypeError):
        gcd_sum_diagnostic(prof, max_distinct=28)
    # the cap is the module constant, read at call time
    monkeypatch.setattr(energy, "_GCD_MAX_DISTINCT", 27)
    with pytest.raises(BudgetError, match="28 distinct positive differences > cap 27"):
        gcd_sum_diagnostic(prof)
    monkeypatch.setattr(energy, "_GCD_MAX_DISTINCT", 28)
    assert gcd_sum_diagnostic(prof) > 0
    monkeypatch.undo()
    # the default cap of 10000 positive values is 20000 signed ones
    ones = np.ones(10001, dtype=np.int64)
    wide = energy.DifferenceProfile(N=0, values=np.cumsum(ones), counts=ones)
    with pytest.raises(BudgetError):
        gcd_sum_diagnostic(wide)
    empty = difference_profile(seq_of([7]))
    assert empty.distinct == 0
    with pytest.raises(ValueError):
        gcd_sum_diagnostic(empty)
