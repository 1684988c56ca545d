"""Exactness contract of the 128-bit circle arithmetic.

Everything downstream leans on three properties checked here: floats
embed into the grid mod 1 without rounding, integer scaling reduces
mod 1 with no precision loss, and the hex serialization round-trips
bit for bit.  The uint64 word operations, and the large-sieve spacings
that stats reads off sorted words, are checked property by property
against plain Python integers mod 2**128.
"""

import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numvar import FixedPointReal, FRACTION_BITS
from numvar import fixedpoint as fp
from numvar import stats
from numvar.fixedpoint import MODULUS


def test_fraction_bits_is_128():
    assert FRACTION_BITS == 128
    assert MODULUS == 1 << 128


def test_constructor_reduces_mod_one():
    assert FixedPointReal(MODULUS).numerator == 0
    assert FixedPointReal(MODULUS + 5).numerator == 5
    assert FixedPointReal(-1).numerator == MODULUS - 1


def test_constructor_rejects_non_int():
    with pytest.raises(TypeError):
        FixedPointReal(0.5)


def test_from_float_dyadic_values_are_exact():
    assert FixedPointReal.from_float(0.25).numerator == 1 << 126
    assert FixedPointReal.from_float(0.5).numerator == 1 << 127
    assert FixedPointReal.from_float(0.75).numerator == 3 << 126
    assert FixedPointReal.from_float(0.0).numerator == 0


def test_from_float_random_floats_embed_exactly():
    # Any float in [0, 1) has at most 53 significant bits, so its image
    # on the 128-bit grid is exact: as_fraction must equal the float's
    # own exact rational value.
    rng = np.random.default_rng(20260819)
    for value in rng.random(200):
        v = float(value)
        assert FixedPointReal.from_float(v).as_fraction() == Fraction(v)


def test_from_float_rejects_non_finite():
    with pytest.raises(ValueError):
        FixedPointReal.from_float(float("nan"))
    with pytest.raises(ValueError):
        FixedPointReal.from_float(float("inf"))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(1e300)  # frac = 0, once an OverflowError
@example(-1e300)
@example(2.0**-76)  # the least power of two whose ulp is 2**-128
@example(2.0**-77 + 2.0**-128)  # below it, on the grid
@example(5e-324)  # below it, off the grid
def test_from_float_exact_for_every_finite_float(v):
    # oracle: v * 2**128 mod 2**128 as an exact rational; off the grid
    # exactly when it is not an integer
    scaled = Fraction(v) * MODULUS
    if scaled.denominator == 1:
        assert FixedPointReal.from_float(v).numerator == scaled.numerator % MODULUS
    else:
        with pytest.raises(ValueError):
            FixedPointReal.from_float(v)


def test_from_fraction_one_third_rounds_to_nearest():
    # 2**128 = 3k + 1 with k = (2**128 - 1) / 3, so the nearest grid
    # point to 1/3 is k (remainder 1/3 rounds down).
    k = (MODULUS - 1) // 3
    assert FixedPointReal.from_fraction(1, 3).numerator == k


def test_from_fraction_exact_dyadics():
    assert FixedPointReal.from_fraction(1, 4).numerator == 1 << 126
    assert FixedPointReal.from_fraction(3, 8).numerator == 3 << 125
    assert FixedPointReal.from_fraction(0, 7).numerator == 0


def test_from_fraction_wraps_mod_one():
    # 5/4 and 1/4 are the same circle point.
    assert FixedPointReal.from_fraction(5, 4) == FixedPointReal.from_fraction(1, 4)
    assert FixedPointReal.from_fraction(-1, 4) == FixedPointReal.from_fraction(3, 4)


def test_from_fraction_ties_round_up():
    # 1 / 2**129 sits exactly halfway between grid points 0 and 2**-128.
    assert FixedPointReal.from_fraction(1, 1 << 129).numerator == 1


def test_from_fraction_rejects_bad_denominator():
    with pytest.raises(ValueError):
        FixedPointReal.from_fraction(1, 0)
    with pytest.raises(ValueError):
        FixedPointReal.from_fraction(1, -3)


def test_mul_int_one_third_times_three_is_one_minus_ulp():
    # The rounded 1/3 has numerator (2**128 - 1)/3; tripling it lands on
    # 2**128 - 1, i.e. 1 - 2**-128, not on 0.  This pins the truncation
    # semantics of rational dilation factors.
    alpha = FixedPointReal.from_fraction(1, 3)
    assert alpha.mul_int(3).numerator == MODULUS - 1


def test_mul_int_matches_bigint_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        num = int(rng.integers(0, 1 << 62)) << int(rng.integers(0, 66))
        num %= MODULUS
        a = int(rng.integers(-(1 << 62), 1 << 62))
        got = FixedPointReal(num).mul_int(a).numerator
        assert got == (num * a) % MODULUS


def test_mul_int_negative_scaling():
    quarter = FixedPointReal.from_fraction(1, 4)
    assert quarter.mul_int(-1) == FixedPointReal.from_fraction(3, 4)
    assert quarter.mul_int(-4).numerator == 0


def test_mul_int_rejects_non_int():
    with pytest.raises(TypeError):
        FixedPointReal.from_fraction(1, 4).mul_int(2.0)


def test_add_sub_wrap_exactly():
    a = FixedPointReal.from_float(0.75)
    b = FixedPointReal.from_float(0.5)
    assert a.add(b) == FixedPointReal.from_float(0.25)
    assert b.sub(a) == FixedPointReal.from_float(0.75)
    assert a.sub(a).numerator == 0


def test_hex_is_exactly_32_lowercase_digits():
    cases = [0, 1, MODULUS - 1, (MODULUS - 1) // 3, 1 << 126]
    for num in cases:
        text = FixedPointReal(num).to_hex()
        assert len(text) == 32
        assert text == text.lower()
        assert all(c in "0123456789abcdef" for c in text)


def test_hex_round_trip_sweep():
    rng = np.random.default_rng(11)
    for _ in range(300):
        num = (int(rng.integers(0, 1 << 63)) << 65) | int(rng.integers(0, 1 << 63))
        x = FixedPointReal(num)
        assert FixedPointReal.from_hex(x.to_hex()) == x


def test_from_hex_rejects_malformed_input():
    with pytest.raises(ValueError):
        FixedPointReal.from_hex("ab")  # wrong length
    with pytest.raises(ValueError):
        FixedPointReal.from_hex("A" * 32)  # uppercase
    with pytest.raises(ValueError):
        FixedPointReal.from_hex("g" * 32)  # not hex


def test_to_float_is_nearest_double():
    assert FixedPointReal(1 << 127).to_float() == 0.5
    # 1 - 2**-128 is closer to 1.0 than to the largest double below 1.
    assert FixedPointReal(MODULUS - 1).to_float() == 1.0
    assert FixedPointReal(1).to_float() == math.ldexp(1.0, -128)


def test_float_protocol_and_ordering():
    a = FixedPointReal.from_float(0.25)
    b = FixedPointReal.from_float(0.75)
    assert float(a) == 0.25
    assert a < b
    assert not (b < a)
    with pytest.raises(TypeError):
        a < 5
    assert a != b
    assert hash(a) == hash(FixedPointReal.from_fraction(1, 4))
    assert len({a, b, FixedPointReal.from_fraction(1, 4)}) == 2


def test_as_fraction_exact():
    assert FixedPointReal(1 << 126).as_fraction() == Fraction(1, 4)
    k = (MODULUS - 1) // 3
    assert FixedPointReal(k).as_fraction() == Fraction(k, MODULUS)


# ---------------------------------------------------------------------------
# word arrays, against Python ints mod 2**128
# ---------------------------------------------------------------------------

# derandomized and bounded, so every run checks the same examples
words_settings = settings(derandomize=True, max_examples=150, deadline=None, database=None)

TOP = (1 << 62) - 1
M64 = (1 << 64) - 1
numerators = st.integers(0, MODULUS - 1) | st.sampled_from(
    [0, 1, M64, 1 << 64, MODULUS - 1, MODULUS - (1 << 64), (M64 << 64) | 1]
)
terms = st.integers(-TOP, TOP) | st.sampled_from([0, 1, -1, TOP, -TOP, 1 << 32, -(1 << 32)])


def joined(hi, lo):
    return [fp.join(h, l) for h, l in zip(hi, lo)]


@words_settings
@given(numerators, st.integers(-(1 << 130), 1 << 130))
def test_split_join_round_trip(num, k):
    hi, lo = fp.split(num)
    assert 0 <= hi <= M64 and 0 <= lo <= M64
    assert fp.join(hi, lo) == num
    assert fp.join(*fp.split(k)) == k % MODULUS
    assert joined(*fp.to_words([k, num])) == [k % MODULUS, num]


@words_settings
@given(numerators, st.lists(terms, min_size=1, max_size=8))
@example(MODULUS - 1, [1, -1, TOP, -TOP])  # product words hi = 2**64 - 1 and 0
@example((M64 << 64) | M64, [TOP, -TOP, 2])
@example(1 << 64, [-(1 << 32), -1])
# |a| at the 32-bit limb edge with both signs; u_lo = 2**64 - 1 gives the
# largest middle carry of high64(u_lo * |a|), and u_hi = 0 leaves only it
@example((5 << 64) | M64, [s * ((1 << 32) + d) for s in (1, -1) for d in (-1, 0, 1)] + [TOP])
@example(M64, [s * ((1 << 32) + d) for s in (1, -1) for d in (-1, 0, 1)])
@example(0x9E3779B97F4A7C15, [(1 << 32) - 1, -(1 << 32), (1 << 32) + 1])
@example(M64, [-TOP])
# longer than one block of the multiply, signs alternating across the
# block boundaries at multiples of 2**14
@example((M64 << 64) | 12345,
         [(-1) ** k * (k * 7919 + TOP % (k + 1)) for k in range(3 * (1 << 14) + 5)])
# no negative term over two blocks: the high word is never corrected for a sign
@example((M64 << 64) | M64, [k * 7919 + TOP % (k + 1) for k in range((1 << 14) + 9)])
# one negative term, in the last slot of the first block
@example((3 << 64) | M64, [TOP - k for k in range((1 << 14) - 1)] + [-TOP, 5])
def test_mul_words_matches_bigint(num, values):
    hi, lo = fp.mul_words(num, np.array(values, dtype=np.int64))
    assert hi.dtype == lo.dtype == np.uint64
    assert joined(hi, lo) == [(num * a) % MODULUS for a in values]


@words_settings
@given(st.lists(numerators, min_size=1, max_size=8), st.integers(-(1 << 129), 1 << 129))
@example([M64, (5 << 64) | M64], 1)  # carry out of the low word
@example([1 << 64, 7 << 64], -1)  # borrow into the high word
@example([MODULUS - 1, 0], 1)  # wrap through 2**128
@example([0, 3], -(MODULUS - 1) - 4)
def test_add_words_matches_bigint(nums, k):
    hi, lo = fp.to_words(nums)
    assert joined(*fp.add_words(hi, lo, k)) == [(v + k) % MODULUS for v in nums]


@words_settings
@given(st.lists(st.tuples(numerators, numerators), min_size=1, max_size=8))
@example([((3 << 64) | 5, (3 << 64) | 6), ((3 << 64) | 6, (3 << 64) | 5), (7, 7)])
def test_less_words_matches_bigint(pairs):
    a_hi, a_lo = fp.to_words([a for a, _ in pairs])
    b_hi, b_lo = fp.to_words([b for _, b in pairs])
    assert list(fp.less_words(a_hi, a_lo, b_hi, b_lo)) == [a < b for a, b in pairs]


# few distinct high words, so runs of equal high words (the tie path) are
# common, plus a few whole numerators so exact repeats occur too
clustered = (
    st.builds(lambda h, l: (h << 64) | l, st.sampled_from([0, 1, 2, M64]), st.integers(0, M64))
    | st.sampled_from([5, (1 << 64) | 3, (M64 << 64) | M64])
    | numerators
)


@words_settings
@given(st.lists(clustered, min_size=1, max_size=20), st.lists(clustered, min_size=1, max_size=10))
# repeats out of order, and equal high words with different low words
@example([(2 << 64) | 9, (1 << 64) | 4, (2 << 64) | 1, (1 << 64) | 4, (2 << 64) | 9, 3],
         [(2 << 64) | 5])
def test_rank_and_sort_words_match_bisect(nums, queries):
    hi, lo = fp.to_words(nums)
    order = fp.argsort_words(hi, lo)
    # the same permutation as lexsort, so equal numerators keep input order
    assert np.array_equal(order, np.lexsort((lo, hi)))
    assert joined(hi[order], lo[order]) == sorted(nums)
    pts = sorted(nums)
    q_hi, q_lo = fp.to_words(queries + pts)
    rank = fp.rank_words(hi[order], lo[order], q_hi, q_lo)
    assert list(rank) == [bisect.bisect_left(pts, q) for q in queries + pts]


def test_sort_words_rational_alpha_matches_lexsort():
    # small rational alpha: exact repeats (1/8) and equal high words (1/7, 1/3)
    terms = np.arange(-500, 1500, dtype=np.int64) * 3
    for q in (8, 7, 3):
        hi, lo = fp.mul_words(FixedPointReal.from_fraction(1, q).numerator, terms)
        assert np.array_equal(fp.argsort_words(hi, lo), np.lexsort((lo, hi)))


def test_sort_words_long_tied_runs_match_lexsort():
    # the high-word sort is unstable, so every run of equal high words must
    # come back in (low word, input index) order: alpha = 0 puts 10**5 points
    # in one run, and long runs of fully equal words arrive scrambled
    terms = np.arange(1, 10**5 + 1, dtype=np.int64)
    hi, lo = fp.mul_words(0, terms)
    assert np.array_equal(fp.argsort_words(hi, lo), np.arange(10**5))
    rng = np.random.default_rng(44)
    nums = [(h << 64) | l for h in (0, 7, M64) for l in (0, 5, M64)] + [3 << 64]
    picks = rng.integers(0, len(nums), 20000)
    hi, lo = fp.to_words([nums[i] for i in picks])
    assert np.array_equal(fp.argsort_words(hi, lo), np.lexsort((lo, hi)))


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, (1 << 16) + 1])
def test_sort_words_packed_key_ties_match_lexsort(n):
    # the sort key is the high word with its low b bits replaced by the
    # input index, so high words that agree above those bits tie in the
    # key (whatever their low b bits), and so do fully equal words
    bits = max(1, (n - 1).bit_length())
    rng = np.random.default_rng(n)
    tops = np.array([0, 1 << bits, 5 << bits, M64 >> bits << bits], dtype=np.uint64)
    hi = tops[rng.integers(0, 4, n)] | rng.integers(0, 1 << bits, n, dtype=np.uint64)
    lo = rng.integers(0, 3, n, dtype=np.uint64) * np.uint64(M64 // 2)
    assert np.array_equal(fp.argsort_words(hi, lo), np.lexsort((lo, hi)))
    nums = [(h << 64) | l for h in (0, 7, M64) for l in (0, M64)]
    hi, lo = fp.to_words([nums[i] for i in rng.integers(0, len(nums), n)])
    assert np.array_equal(fp.argsort_words(hi, lo), np.lexsort((lo, hi)))


def test_sort_words_tied_runs_at_the_ends():
    # n = 8, so the key keeps the high word above its low 3 bits: runs of
    # equal tops sit at sorted positions 0-2 (a run at index 0), 4-5 and
    # 6-7 (a run ending at n - 1); the untied top 1 at position 3 separates
    # the first two runs and must stay out of the re-sorted positions
    tops = [2, 0, 3, 0, 1, 3, 0, 2]
    lows = [5, 7, 0, 7, 2, 0, 1, 5]
    hi = np.array([(t << 3) | b for t, b in zip(tops, lows)], dtype=np.uint64)
    lo = np.array([1, 0, 9, 0, 4, 2, 8, 0], dtype=np.uint64)
    order = fp.argsort_words(hi, lo)
    assert list(order) == [6, 1, 3, 4, 7, 0, 5, 2]
    assert np.array_equal(order, np.lexsort((lo, hi)))
    # n = 2, fully tied: high words that differ only in the index bit,
    # equal high words, and fully equal numerators
    for h, l, want in (([1, 0], [0, 0], [1, 0]), ([4, 4], [5, 3], [1, 0]),
                       ([4, 4], [3, 3], [0, 1])):
        hi, lo = np.array(h, dtype=np.uint64), np.array(l, dtype=np.uint64)
        assert list(fp.argsort_words(hi, lo)) == want


def test_sort_words_generic_alpha_matches_lexsort():
    # generic alpha: the high words differ above the 17 index bits, so no
    # key ties and the run fix-up never runs
    terms = np.arange(1, 10**5 + 1, dtype=np.int64) ** 2
    hi, lo = fp.mul_words(0x9E3779B97F4A7C15F39CC0605CEDC834, terms)
    assert np.unique(hi >> np.uint64(17)).size == terms.size
    assert np.array_equal(fp.argsort_words(hi, lo), np.lexsort((lo, hi)))


def test_rank_words_many_tie_blocks():
    # 1500 runs of equal high words, each queried inside its run
    rng = np.random.default_rng(3)
    nums = sorted({(int(h) << 64) | int(l)
                   for h in rng.integers(0, 1 << 62, 1500)
                   for l in rng.integers(0, 1 << 63, 3)})
    hi, lo = fp.to_words(nums)
    queries = [(v >> 64 << 64) | int(rng.integers(0, 1 << 63)) for v in nums]
    queries += [v + 1 for v in nums]
    q_hi, q_lo = fp.to_words(queries)
    assert np.unique(hi).size >= 1000
    rank = fp.rank_words(hi, lo, q_hi, q_lo)
    assert list(rank) == [bisect.bisect_left(nums, q) for q in queries]


def circular_gap_oracle(nums):
    pts = sorted(nums)
    return min([b - a for a, b in zip(pts, pts[1:])] + [pts[0] + MODULUS - pts[-1]])


@words_settings
@given(st.lists(clustered, min_size=1, max_size=20))
@example([7])  # one point: the whole circle
@example([(2 << 64) | 9, 3, (2 << 64) | 9])  # a tie: gap 0
@example([(3 << 64) | 1, (3 << 64) | 5, MODULUS - 2])  # equal high words; the wrap gap is 3
@example([(1 << 64) | 2, M64, 0, MODULUS - 1])  # a borrow from the high word; wrap gap 1
def test_min_gap_words_matches_bigint(nums):
    gap = stats._min_gap(*fp.to_words(sorted(nums)))
    assert type(gap) is int
    assert gap == circular_gap_oracle(nums)


def close_pairs_oracle(nums, d):
    return sum(min((a - b) % MODULUS, (b - a) % MODULUS) < d
               for i, a in enumerate(nums) for b in nums[i + 1:])


@words_settings
@given(st.lists(clustered, min_size=1, max_size=20),
       st.integers(1, 1 << 127) | st.sampled_from([1, 2, 1 << 64, (1 << 64) + 1, 1 << 127]))
@example([7], 1 << 127)  # one point: no pairs
@example([(2 << 64) | 9, 3, (2 << 64) | 9], 1)  # a tie is a close pair at any d
@example([1, MODULUS - 2, 1 << 126], 3)  # the pair 1, 2**128 - 2 is close across 0
@example([1, MODULUS - 2, 1 << 126], 4)
@example([(3 << 64) | 1, (3 << 64) | 5, (3 << 64) | 9], 8)  # equal high words
@example([0, 1 << 127], 1 << 127)  # exactly d apart both ways: not close
def test_close_pairs_words_matches_bigint(nums, d):
    # at blocks of rows that put block edges everywhere, also on the wrap
    words = fp.to_words(sorted(nums))
    for block in (stats._ROW_BLOCK, 1, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stats, "_ROW_BLOCK", block)
            pairs = stats._close_pairs(*words, d)
        assert type(pairs) is int
        assert pairs == close_pairs_oracle(nums, d)


# weights of either sign up to TOP = 2**62 - 1, the widest dot_words accepts
@words_settings
@given(st.lists(st.tuples(st.integers(-TOP, TOP) | st.sampled_from([0, 1, -1, 1 << 40]),
                          st.integers(-(1 << 40), 1 << 40),
                          numerators), min_size=1, max_size=12))
@example([(TOP, (1 << 40) - 1, MODULUS - 1), (TOP, 0, MODULUS - 1)])
@example([(-TOP, -(1 << 40), MODULUS - 1), (TOP, 1 << 40, M64)])
# bits(max c) + bits(n) > 63: 1-bit limbs alone would overflow the sum of
# eight products, so the columns go in chunks
@example([(TOP, 1, MODULUS - 1)] * 8)
def test_dot_words_matches_bigint(triples):
    c = np.array([[a for a, _, _ in triples], [b for _, b, _ in triples]], dtype=np.int64)
    words = fp.to_words([v for _, _, v in triples])
    assert fp.dot_words(c, words) == [sum(a * v for a, _, v in triples),
                                      sum(b * v for _, b, v in triples)]


@pytest.mark.parametrize("weight", [TOP + 1, -TOP - 1, -(1 << 63)])
def test_dot_words_rejects_weights_with_no_limb(weight):
    with pytest.raises(ValueError):
        fp.dot_words(np.array([[weight, 1]], dtype=np.int64), fp.to_words([1, 2]))


@words_settings
@given(
    st.lists(st.integers(0, M64), min_size=1, max_size=6),
    st.lists(numerators, min_size=1, max_size=6),
)
@example([(1 << 32) - 1, 1], [MODULUS - 1, M64])
# n = 2**32 - 1 with u_lo all ones and with u_lo = 2**32 - 1
@example([(1 << 32) - 1], [M64])
@example([(1 << 32) - 1], [(1 << 32) - 1])
# n across the 32-bit limb edge, and n = 2**64 - 1 with u_lo all ones: the
# largest carries into the high word
@example([(1 << 32) - 1, 1 << 32, (1 << 32) + 1, M64], [M64, MODULUS - 1])
def test_phase_top_bits_within_two_to_minus_64(ns, nums):
    u_hi, u_lo = fp.to_words(nums)
    theta = fp.phase_top_bits(np.array(ns, dtype=np.uint64), u_hi, u_lo)
    for i, n in enumerate(ns):
        for j, u in enumerate(nums):
            exact = (n * u) % MODULUS
            # the top word is exact; only the conversion to float64 rounds
            assert theta[i, j] == math.ldexp(float(exact >> 64), -64)
            err = abs(Fraction(float(theta[i, j])) - Fraction(exact, MODULUS))
            assert err < Fraction(1, 1 << 64) + Fraction(1, 1 << 54)
