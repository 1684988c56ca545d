"""Sequence generation and exact dilation onto the circle.

The heart of the module is the claim that dilate_mod1 computes
(alpha_numerator * a) mod 2**128 bit for bit with uint64 limb
arithmetic.  The tests pin that against plain Python big-integer
arithmetic, then check the classical structure the exact points must
carry (permutation invariance, the three-distance theorem).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from numvar import (
    DuplicateError,
    FixedPointReal,
    IntegerSequence,
    PointSet,
    SequenceSpec,
    dilate_mod1,
    generate_sequence,
    load_sequence_file,
    sample_alpha,
)
import numvar.fixedpoint as fp
from numvar.fixedpoint import MODULUS, less_words
from numvar.sequences import TERM_BOUND


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_monomial_squares_first_five():
    seq = generate_sequence(SequenceSpec.monomial(2), 5)
    assert list(seq) == [1, 4, 9, 16, 25]


def test_lacunary_base_two_first_four():
    seq = generate_sequence(SequenceSpec.lacunary(2), 4)
    assert list(seq) == [2, 4, 8, 16]


def test_custom_duplicate_rejected():
    with pytest.raises(DuplicateError):
        SequenceSpec.custom([3, 1, 4, 1])


def test_monomial_offset_shifts_index():
    seq = generate_sequence(SequenceSpec.monomial(1, offset=10), 3)
    assert list(seq) == [11, 12, 13]


def test_generate_rejects_bad_count():
    with pytest.raises(ValueError):
        generate_sequence(SequenceSpec.monomial(2), 0)
    with pytest.raises(ValueError):
        generate_sequence(SequenceSpec.custom([1, 2, 3]), 4)


def test_term_magnitude_budget():
    # 2**61 is the largest admissible power of two; 2**62 must overflow.
    seq = generate_sequence(SequenceSpec.lacunary(2), 61)
    assert seq.terms[-1] == 2**61
    with pytest.raises(OverflowError):
        generate_sequence(SequenceSpec.lacunary(2), 62)
    with pytest.raises(OverflowError):
        IntegerSequence(terms=np.array([0, TERM_BOUND]), spec=SequenceSpec.monomial(1))


def test_term_bound_rejects_int64_minimum():
    # |-2**63| wraps to -2**63 in int64, so a bound taken on np.abs let it through
    for low in (-(2**63), -TERM_BOUND):
        with pytest.raises(OverflowError, match=r"exact-dilation bound 2\*\*62"):
            IntegerSequence(terms=np.array([low, 5, 7]), spec=SequenceSpec.custom([low, 5, 7]))
    seq = IntegerSequence(terms=np.array([1 - TERM_BOUND, TERM_BOUND - 1]),
                          spec=SequenceSpec.custom([1 - TERM_BOUND, TERM_BOUND - 1]))
    assert len(seq) == 2


def test_term_bound_checked_before_building_terms():
    # lacunary stops at the first term >= 2**62 and names the bound, not
    # the term: formatting 2**20000 would itself fail on Python >= 3.11
    with pytest.raises(OverflowError, match=r"2\*\*62 reaches the exact-dilation bound 2\*\*62$"):
        generate_sequence(SequenceSpec.lacunary(2), 20000)
    # monomials: one analytic check on the largest |n + offset|
    with pytest.raises(OverflowError, match=r"2\*\*1000000 reaches"):
        generate_sequence(SequenceSpec.monomial(1000000), 2)
    edge = 2**31 - 1  # edge**2 < 2**62 <= (edge + 1)**2
    assert list(generate_sequence(SequenceSpec.monomial(2, offset=edge - 1), 1)) == [edge**2]
    with pytest.raises(OverflowError):
        generate_sequence(SequenceSpec.monomial(2, offset=edge), 1)
    with pytest.raises(OverflowError):
        generate_sequence(SequenceSpec.monomial(2, offset=-edge - 2), 2)
    # int64 powers equal the Python-int powers, negative bases included
    seq = generate_sequence(SequenceSpec.monomial(3, offset=-700), 1400)
    assert list(seq) == [(n - 700) ** 3 for n in range(1, 1401)]


def test_integer_sequence_distinctness_enforced():
    with pytest.raises(DuplicateError):
        IntegerSequence(terms=np.array([5, 5]), spec=SequenceSpec.monomial(1))
    # repeats that are not neighbours in sequence order
    with pytest.raises(DuplicateError):
        IntegerSequence(terms=np.array([7, -3, 2, 9, -3]), spec=SequenceSpec.monomial(1))
    assert len(IntegerSequence(terms=np.array([7, -3, 2, 9]), spec=SequenceSpec.monomial(1))) == 4


def test_lacunary_negative_offset_rejected():
    # n + offset < 0 would need the fractional term base**(n + offset);
    # the error names the offset and comes before any term is built
    for offset in (-2, -3):
        with pytest.raises(ValueError, match="offset %d" % offset):
            generate_sequence(SequenceSpec.lacunary(2, offset=offset), 4)
    assert list(generate_sequence(SequenceSpec.lacunary(2, offset=-1), 4)) == [1, 2, 4, 8]


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec.monomial(0)
    with pytest.raises(ValueError):
        SequenceSpec.lacunary(1)
    with pytest.raises(ValueError):
        SequenceSpec(kind="mystery")


def test_spec_parse_round_trips():
    spec = SequenceSpec.parse("monomial:d=2")
    assert spec.kind == "monomial" and spec.degree == 2
    spec = SequenceSpec.parse("lacunary:base=3,offset=1")
    assert spec.kind == "lacunary" and spec.base == 3 and spec.offset == 1
    with pytest.raises(ValueError):
        SequenceSpec.parse("monomial:d")
    with pytest.raises(ValueError):
        SequenceSpec.parse("fibonacci:d=2")
    for text, key in (
        ("monomial:d=2,degre=5,ofset=3", "degre"),
        ("lacunary:base=3,d=7", "d"),
    ):
        with pytest.raises(ValueError, match="unknown .* option '%s'" % key):
            SequenceSpec.parse(text)


def test_labels_are_stable_and_distinct():
    assert SequenceSpec.monomial(2).label() == "monomial:d=2"
    assert SequenceSpec.lacunary(2).label() == "lacunary:base=2"
    a = SequenceSpec.custom([1, 2, 3]).label()
    b = SequenceSpec.custom([1, 2, 4]).label()
    assert a.startswith("custom:") and a != b


def test_sequence_file_format(tmp_path):
    path = tmp_path / "seq.txt"
    path.write_text("# header comment\n3\n\n1\n4\n-15\n", encoding="utf-8")
    spec = load_sequence_file(path)
    assert spec.values == (3, 1, 4, -15)

    bad = tmp_path / "bad.txt"
    bad.write_text("1\ntwo\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.txt:2"):
        load_sequence_file(bad)

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_sequence_file(empty)


def test_spec_parse_custom_file(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("7\n9\n11\n", encoding="utf-8")
    spec = SequenceSpec.parse("custom:%s" % path)
    assert spec.values == (7, 9, 11)


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilate_quarter_gives_quarters():
    seq = generate_sequence(SequenceSpec.custom([1, 2, 3, 4]), 4)
    pts = dilate_mod1(FixedPointReal.from_fraction(1, 4), seq)
    assert [pts.numerator(i) for i in range(4)] == [0, 1 << 126, 1 << 127, 3 << 126]
    # 4 * (1/4) wraps to 0, so the first sorted point is the image of term 4.
    assert pts.numerator(0) == FixedPointReal.from_fraction(1, 4).mul_int(4).numerator


def test_dilate_zero_alpha_collapses_to_origin():
    seq = generate_sequence(SequenceSpec.monomial(2), 6)
    pts = dilate_mod1(FixedPointReal(0), seq)
    assert all(pts.numerator(i) == 0 for i in range(6))


def test_dilate_rounded_third_times_three():
    # alpha = round(2**128 / 3) / 2**128; term 3 lands on
    # 3 * floor(2**128 / 3) = 2**128 - 1, one ulp below the origin --
    # not on 0.  Truncation semantics, checked in exact integers.
    seq = generate_sequence(SequenceSpec.custom([3]), 1)
    pts = dilate_mod1(FixedPointReal.from_fraction(1, 3), seq)
    assert pts.numerator(0) == MODULUS - 1


def test_dilate_matches_bigint_oracle():
    # The limb kernel must reproduce (alpha_num * a) mod 2**128 exactly,
    # including negative terms, for full-range 128-bit alpha.
    rng = np.random.default_rng(31337)
    for _ in range(20):
        alpha_num = (int(rng.integers(0, 1 << 63)) << 65) | int(rng.integers(0, 1 << 63))
        terms = rng.integers(-(1 << 62) + 1, 1 << 62, size=200)
        terms = np.unique(terms)
        seq = IntegerSequence(terms=terms, spec=SequenceSpec.custom([int(v) for v in terms]))
        pts = dilate_mod1(FixedPointReal(alpha_num), seq)
        expected = sorted((alpha_num * int(a)) % MODULUS for a in terms)
        got = [pts.numerator(i) for i in range(len(terms))]
        assert got == expected


def test_dilate_numerators_recover_terms():
    rng = np.random.default_rng(5)
    alpha_num = int(rng.integers(1, 1 << 63)) << 64 | 12345
    terms = [3, -8, 21, 55, -144]
    seq = generate_sequence(SequenceSpec.custom(terms), 5)
    pts = dilate_mod1(FixedPointReal(alpha_num), seq)
    # the images are distinct, so each sorted numerator names its term
    image = {(alpha_num * a) % MODULUS: a for a in terms}
    assert len(image) == 5
    assert [pts.numerator(i) for i in range(5)] == sorted(image)
    assert sorted(image[pts.numerator(i)] for i in range(5)) == sorted(terms)


def test_dilate_permutation_invariance():
    rng = np.random.default_rng(99)
    terms = [int(v) for v in rng.integers(-(10**9), 10**9, size=64)]
    terms = sorted(set(terms))
    shuffled = list(terms)
    rng.shuffle(shuffled)
    alpha = sample_alpha(2024, 0)
    a_pts = dilate_mod1(alpha, generate_sequence(SequenceSpec.custom(terms), len(terms)))
    b_pts = dilate_mod1(alpha, generate_sequence(SequenceSpec.custom(shuffled), len(terms)))
    assert [a_pts.numerator(i) for i in range(len(terms))] == [
        b_pts.numerator(i) for i in range(len(terms))
    ]


_EDGE = TERM_BOUND - 1  # the largest term magnitude


def _word_sort_oracle(alpha, seq):
    """The dilation from bigint products, sorted by argsort_words."""
    return PointSet.from_numerators((alpha.numerator * int(a)) % MODULUS for a in seq.terms)


def _assert_same_words(got, want):
    assert got.hi.dtype == got.lo.dtype == np.uint64
    assert np.array_equal(got.hi, want.hi) and np.array_equal(got.lo, want.lo)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    st.lists(
        st.integers(-_EDGE, _EDGE) | st.sampled_from([0, 1, -1, _EDGE, -_EDGE]),
        min_size=1, max_size=24, unique=True,
    ),
    st.integers(0, MODULUS - 1)
    | st.sampled_from([0, 1, MODULUS - 1, 1 << 64, FixedPointReal.from_fraction(1, 3).numerator]),
    st.sampled_from([None, 1, 3, 7]),
)
@example([_EDGE], MODULUS - 1, None)  # N = 1
@example([-_EDGE, 0], 1 << 127, 1)  # N = 2, both points at the origin
@example([_EDGE, -_EDGE], FixedPointReal.from_fraction(1, 3).numerator, 1)
def test_dilate_matches_word_sort_oracle(values, alpha_num, block):
    # the two-pass dilation gives the words of the unsorted multiply, sorted,
    # for either sign of term, at the term bound, and at every block edge
    seq = generate_sequence(SequenceSpec.custom(values), len(values))
    alpha = FixedPointReal(alpha_num)
    want = _word_sort_oracle(alpha, seq)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(fp, "_MUL_BLOCK", block)
        got = dilate_mod1(alpha, seq)
    _assert_same_words(got, want)


@pytest.mark.parametrize("block", [None, 1, 3, 7])
@pytest.mark.parametrize("p, q", [(1, 7), (3, 8), (0, 1), (1, 2**20)])
def test_dilate_rational_alpha_ties_match_oracle(p, q, block, monkeypatch):
    # squares at a rational alpha share high words above the index bits
    # (at 1/7 by the thousand, at 1/2**20 a few dozen), so the dilation
    # re-sorts its tie runs; the oracle must agree word for word
    seq = generate_sequence(SequenceSpec.monomial(2), 4096)
    alpha = FixedPointReal.from_fraction(p, q)
    want = _word_sort_oracle(alpha, seq)
    runs = []
    tie_runs = fp._tie_runs

    def spy(keys, bits):
        pos = tie_runs(keys, bits)
        runs.append(pos.size)
        return pos

    monkeypatch.setattr(fp, "_tie_runs", spy)
    if block is not None:
        monkeypatch.setattr(fp, "_MUL_BLOCK", block)
    got = dilate_mod1(alpha, seq)
    _assert_same_words(got, want)
    assert len(runs) == 1 and runs[0] > 0


def test_dilation_working_set():
    # besides the terms, the dilation holds the sort keys (8 bytes a point),
    # the bits they dropped (4) and the low words (8), plus block-sized
    # temporaries; the allowance of 2 MiB covers those.  The dilation that
    # built the unsorted words and gathered them by a permutation held about
    # 33 bytes a point and fails this bound.
    import tracemalloc

    n = 1 << 18
    seq = generate_sequence(SequenceSpec.monomial(2), n)
    alpha = sample_alpha(3, 0)
    tracemalloc.start()
    try:
        dilate_mod1(alpha, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * n + (2 << 20), peak


def test_three_distance_theorem_at_ten_thousand():
    # Multiples of a fixed alpha, sorted on the circle: consecutive gaps
    # take at most 3 distinct values.  Exact numerators make the gap
    # comparison an integer identity instead of a float heuristic.
    seq = generate_sequence(SequenceSpec.monomial(1), 10**4)
    for idx in range(3):
        alpha = sample_alpha(424242, idx)
        pts = dilate_mod1(alpha, seq)
        nums = np.array([pts.numerator(i) for i in range(len(pts))], dtype=object)
        gaps = set(int(g) for g in np.diff(nums))
        gaps.add(int(MODULUS - nums[-1] + nums[0]))
        assert len(gaps) <= 3


def test_point_set_sorted_and_in_range():
    seq = generate_sequence(SequenceSpec.monomial(2), 500)
    pts = dilate_mod1(sample_alpha(1, 0), seq)
    nums = [pts.numerator(i) for i in range(500)]
    assert nums == sorted(nums)
    assert 0 <= nums[0] and nums[-1] < MODULUS
    assert not np.any(less_words(pts.hi[1:], pts.lo[1:], pts.hi[:-1], pts.lo[:-1]))
    assert pts.hi.dtype == pts.lo.dtype == np.uint64 and pts.hi.size == pts.lo.size == 500


def test_point_set_from_floats_and_shift():
    pts = PointSet.from_floats([0.75, 0.25, 0.5])
    assert [pts.numerator(i) for i in range(3)] == [1 << 126, 1 << 127, 3 << 126]
    half = FixedPointReal.from_float(0.5)
    back = pts.shifted(half).shifted(half)
    assert [back.numerator(i) for i in range(3)] == [pts.numerator(i) for i in range(3)]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    st.lists(st.integers(0, MODULUS - 1), min_size=1, max_size=12),
    st.integers(0, MODULUS - 1) | st.sampled_from([1, MODULUS - 1, 1 << 64]),
)
def test_point_set_shift_matches_bigint(nums, offset):
    pts = PointSet.from_numerators(nums)
    moved = pts.shifted(FixedPointReal(offset))
    want = [(pts.numerator(i) + offset) % MODULUS for i in range(len(pts))]
    assert [moved.numerator(i) for i in range(len(moved))] == sorted(want)
    back = moved.shifted(FixedPointReal(-offset))
    assert [back.numerator(i) for i in range(len(back))] == [pts.numerator(i) for i in range(len(pts))]


def test_point_set_needs_points():
    with pytest.raises(ValueError):
        PointSet.from_numerators([])


# ---------------------------------------------------------------------------
# alpha sampling
# ---------------------------------------------------------------------------

def test_sample_alpha_deterministic_and_injective():
    assert sample_alpha(7, 0) == sample_alpha(7, 0)
    assert sample_alpha(7, 0) != sample_alpha(7, 1)
    assert sample_alpha(8, 0) != sample_alpha(7, 0)
    # negative seeds are legal (normalized into the key space)
    assert sample_alpha(-3, 2) == sample_alpha(-3, 2)
    with pytest.raises(ValueError):
        sample_alpha(7, -1)


def test_sample_alpha_order_free():
    # Counter-based draws: any index is reachable without generating
    # its predecessors, so order of evaluation cannot matter.
    forward = [sample_alpha(55, i).numerator for i in range(8)]
    backward = [sample_alpha(55, i).numerator for i in reversed(range(8))]
    assert forward == backward[::-1]


def test_sample_alpha_uniformity_ks():
    n = 10**4
    draws = np.array([sample_alpha(2026, i).to_float() for i in range(n)])
    ks = scipy_stats.kstest(draws, "uniform")
    assert ks.statistic < 0.02
