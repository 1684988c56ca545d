"""Exact arithmetic on the unit circle R/Z at fixed dyadic resolution.

A point on the circle is stored as an integer numerator k with
0 <= k < 2**128, representing the real number k / 2**128.  All
operations (addition, subtraction, scaling by an integer) reduce the
numerator mod 2**128, i.e. they are exact arithmetic mod 1 on the
dyadic grid.  128 fractional bits are enough that multiplying by any
admissible sequence term (|a| < 2**62) keeps more than 64 significant
bits below the unit, so fractional parts of n*alpha never collapse to
float rounding artifacts.

Scaling by an integer is exact in the following sense: if alpha is
represented by numerator k then alpha.mul_int(a) is represented by
(k * a) mod 2**128, which is exactly the fractional part of a * (k /
2**128) scaled back to the grid.  No rounding ever occurs after
construction.

Bulk points are stored as two parallel uint64 arrays of words (hi, lo),
numerator = hi * 2**64 + lo.  The module-level word functions below
hold the exact arithmetic on this layout: splitting and joining
numerators, the dilation multiply, addition mod 2**128, comparison, rank
queries, sorting, dot products, and phases (stats takes only the least
circular gap off sorted words itself).  One kernel, _mul_hi, gives the
high word of every 64x64 product, for the dilation and the phases
alike; numpy's uint64 arithmetic wraps mod 2**64, so the low word of a
product is one multiply, and a negative term is its two's complement,
a mod 2**64.  The sort packs each input index into the low bits of its
high word and sorts those keys once.  sorted_mul_words, the dilation,
sorts such keys straight from the multiply and rebuilds the words from
the terms in sorted order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

import numpy as np

FRACTION_BITS = 128
MODULUS = 1 << FRACTION_BITS

_HEX_DIGITS = FRACTION_BITS // 4
_M64 = (1 << 64) - 1
_MASK32 = np.uint64(0xFFFFFFFF)
_U64 = np.uint64
# mul_words block: small enough that its temporaries stay in cache
_MUL_BLOCK = 1 << 14


class FixedPointReal:
    """A real number mod 1 with exactly 128 fractional bits."""

    __slots__ = ("_num",)

    def __init__(self, numerator: int):
        if not isinstance(numerator, int):
            raise TypeError("numerator must be an int")
        self._num = numerator % MODULUS

    # -- constructors -------------------------------------------------

    @classmethod
    def from_float(cls, value: float) -> "FixedPointReal":
        """Exact image of a finite float mod 1, which must lie on the grid.

        A float's exact value is p/q with q a power of two; it lies on the
        grid when q divides 2**128, which holds for every |value| >= 2**-76
        (53 significant bits then end at or above 2**-128).  Any other
        float raises ValueError, so the conversion is exact, never rounded.
        """
        if not math.isfinite(value):
            raise ValueError("value must be finite")
        num, den = value.as_integer_ratio()
        if MODULUS % den:
            raise ValueError("float does not lie on the dyadic grid")
        return cls(num * (MODULUS // den))

    @classmethod
    def from_fraction(cls, p: int, q: int) -> "FixedPointReal":
        """Nearest grid point to the rational p/q (ties round up)."""
        if q <= 0:
            raise ValueError("denominator must be positive")
        num, den = Fraction(p, q).as_integer_ratio()
        scaled = (num * MODULUS * 2 + den) // (2 * den)
        return cls(scaled)

    @classmethod
    def from_hex(cls, text: str) -> "FixedPointReal":
        """Inverse of to_hex()."""
        text = text.strip()
        if len(text) != _HEX_DIGITS or text.lower() != text:
            raise ValueError("expected %d lowercase hex digits" % _HEX_DIGITS)
        return cls(int(text, 16))

    # -- accessors ----------------------------------------------------

    @property
    def numerator(self) -> int:
        return self._num

    def to_float(self) -> float:
        """Nearest float64; loses all but the top ~53 bits."""
        return math.ldexp(self._num, -FRACTION_BITS)

    def to_hex(self) -> str:
        """Zero-padded 32-digit lowercase hex of the numerator."""
        return format(self._num, "0%dx" % _HEX_DIGITS)

    def as_fraction(self) -> Fraction:
        return Fraction(self._num, MODULUS)

    # -- arithmetic mod 1 ---------------------------------------------

    def mul_int(self, a: int) -> "FixedPointReal":
        """Exact product with an integer, reduced mod 1."""
        if not isinstance(a, int):
            raise TypeError("a must be an int")
        return FixedPointReal((self._num * a) % MODULUS)

    def add(self, other: "FixedPointReal") -> "FixedPointReal":
        return FixedPointReal((self._num + other._num) % MODULUS)

    def sub(self, other: "FixedPointReal") -> "FixedPointReal":
        return FixedPointReal((self._num - other._num) % MODULUS)

    # -- protocol -----------------------------------------------------

    def __float__(self) -> float:
        return self.to_float()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FixedPointReal):
            return self._num == other._num
        return NotImplemented

    def __lt__(self, other: object) -> bool:
        if isinstance(other, FixedPointReal):
            return self._num < other._num
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._num)

    def __repr__(self) -> str:
        return "FixedPointReal(0x%s)" % self.to_hex()


# ---------------------------------------------------------------------------
# word arrays: numerator = hi * 2**64 + lo, both uint64
# ---------------------------------------------------------------------------

def split(numerator: int) -> Tuple[int, int]:
    """(hi, lo) words of numerator mod 2**128, as Python ints."""
    numerator %= MODULUS
    return numerator >> 64, numerator & _M64


def join(hi, lo) -> int:
    """Numerator with words hi and lo, each taken mod 2**64."""
    return ((int(hi) & _M64) << 64) | (int(lo) & _M64)


def to_words(numerators: Iterable[int]) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 arrays of integer numerators, reduced mod 2**128."""
    pairs = [split(int(v)) for v in numerators]
    hi = np.array([h for h, _ in pairs], dtype=np.uint64)
    lo = np.array([l for _, l in pairs], dtype=np.uint64)
    return hi, lo


def mul_words(numerator: int, terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(numerator * a) mod 2**128 for each int64 term a (1-d), as (hi, lo) words.

    A term is taken as a' = a mod 2**64, its two's complement, so the low
    word is u_lo * a' mod 2**64, one wrapping uint64 multiply, and the
    high word is that of u * a' (_mul_hi) less u_lo where a < 0, since
    u * a = u * a' - u_lo * 2**64 mod 2**128 there.  The high words go
    through in fixed blocks written into the preallocated words, so the
    temporaries stay small.
    """
    u_hi, u_lo = (_U64(w) for w in split(numerator))
    hi = np.empty(terms.shape, dtype=np.uint64)
    for start in range(0, terms.size, _MUL_BLOCK):
        block = slice(start, start + _MUL_BLOCK)
        hi[block] = _term_hi(u_hi, u_lo, terms[block])
    return hi, terms.view(np.uint64) * u_lo


def _term_hi(u_hi, u_lo, terms: np.ndarray) -> np.ndarray:
    """High words of (u * a) mod 2**128 for int64 terms a, in two's complement."""
    hi = _mul_hi(u_hi, u_lo, terms.view(np.uint64))
    np.subtract(hi, u_lo, out=hi, where=terms < 0)
    return hi


def _mul_hi(x_hi, x_lo, y):
    """High word of (x * y) mod 2**128, x = x_hi * 2**64 + x_lo, for uint64 y.

    The words broadcast against each other.  The high word is
    x_hi * y + high64(x_lo * y) mod 2**64, and high64 comes from the four
    32-bit partial products of x_lo = x1:x0 and y = y1:y0, each < 2**64:
    t = x1*y0 + high32(x0*y0) <= 2**64 - 2**32 - 1 and
    s = x0*y1 + low32(t) <= 2**64 - 2**32 cannot overflow for any y, and
    high64 = x1*y1 + high32(t) + high32(s).
    """
    x0, x1 = x_lo & _MASK32, x_lo >> _U64(32)
    y0, y1 = y & _MASK32, y >> _U64(32)
    t = x1 * y0
    t += (x0 * y0) >> _U64(32)
    s = x0 * y1
    s += t & _MASK32
    hi = x1 * y1
    hi += t >> _U64(32)
    hi += s >> _U64(32)
    hi += x_hi * y
    return hi


def add_words(hi: np.ndarray, lo: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """(hi, lo) + k mod 2**128 for every word pair; a negative k subtracts."""
    k_hi, k_lo = (_U64(w) for w in split(k))
    out_lo = lo + k_lo
    out_hi = hi + k_hi
    np.add(out_hi, out_lo < lo, out=out_hi)  # the carry
    return out_hi, out_lo


def less_words(a_hi, a_lo, b_hi, b_lo) -> np.ndarray:
    """Elementwise a < b on numerators given as word pairs."""
    return (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo))


def argsort_words(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Stable permutation sorting the numerators ascending: np.lexsort((lo, hi)).

    Each high word has its low b = bit_length(n - 1) bits (at least 1)
    replaced by its input index, and one in-place sort of these keys gives
    the permutation as key & (2**b - 1).  Numerators whose high words
    agree above those b bits come out in index order; only these runs are
    re-sorted by (high word, low word, index), which restores the stable
    order inside them.  Runs are absent for generic alpha and routine for
    small rational alpha.
    """
    bits = _index_bits(hi.size)
    keys = _index_keys(hi, 0, bits, np.empty_like(hi))
    keys.sort()
    pos = _tie_runs(keys, bits)
    keys &= _U64((1 << bits) - 1)
    order = keys.view(np.int64)
    if pos.size:
        sub = order[pos]
        order[pos] = sub[np.lexsort((sub, lo[sub], hi[sub]))]
    return order


def _index_bits(n: int) -> int:
    """Low key bits that hold an index below n: bit_length(n - 1), at least 1."""
    return max(1, (n - 1).bit_length())


def _index_keys(hi: np.ndarray, start: int, bits: int, out: np.ndarray) -> np.ndarray:
    """Sort keys of the high words at indices start, start + 1, ..., into out.

    Each key is its high word with the low `bits` bits replaced by its index.
    """
    np.bitwise_and(hi, _U64(_M64 ^ ((1 << bits) - 1)), out=out)
    out |= np.arange(start, start + out.size, dtype=np.uint64)
    return out


def _tie_runs(keys: np.ndarray, bits: int) -> np.ndarray:
    """Ascending positions of sorted keys that agree with a neighbour above the low bits.

    The neighbour pairs are compared in blocks of _MUL_BLOCK, so no
    temporary is as long as the keys.
    """
    mask = _U64((1 << bits) - 1)
    tied = []
    for start in range(0, keys.size - 1, _MUL_BLOCK):
        block = keys[start:start + _MUL_BLOCK + 1]
        found = ((block[1:] ^ block[:-1]) <= mask).nonzero()[0]
        if found.size:
            tied.append(found + start)
    if not tied:
        return np.empty(0, dtype=np.intp)
    tied = np.concatenate(tied)
    run = np.zeros(keys.size, dtype=bool)
    run[tied] = run[tied + 1] = True
    return np.flatnonzero(run)


def sorted_mul_words(numerator: int, terms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The words of mul_words(numerator, terms), sorted ascending as numerators.

    The unsorted words are never built.  Pass 1 computes only the high
    words, as mul_words does, over the terms in blocks of _MUL_BLOCK and
    keeps only two arrays: the sort keys of argsort_words (each high word
    with its low b bits replaced by the term's index) and the b bits each
    key dropped, as uint32 while b <= 32.  The keys are sorted in place.
    Pass 2 walks the sorted keys in blocks and gathers each one's term and
    dropped bits by its index bits; the low word is u_lo * a mod 2**64,
    the wrapping multiply of mul_words, and the high word is rebuilt in
    place over the key.  Runs of keys equal
    above the b bits (rational alpha) are then re-sorted by (high word,
    low word).  Besides the terms, at most 8 + 4 + 8 bytes per point are
    alive at once (keys, dropped bits, low words), plus block temporaries
    and copies of the tied runs.
    """
    u_hi, u_lo = (_U64(w) for w in split(numerator))
    bits = _index_bits(terms.size)
    mask = _U64((1 << bits) - 1)
    keys = np.empty(terms.shape, dtype=np.uint64)
    dropped = np.empty(terms.shape, dtype=np.uint32 if bits <= 32 else np.uint64)
    for start in range(0, terms.size, _MUL_BLOCK):
        block = slice(start, start + _MUL_BLOCK)
        hi = _term_hi(u_hi, u_lo, terms[block])
        np.bitwise_and(hi, mask, out=dropped[block], casting="unsafe")
        _index_keys(hi, start, bits, keys[block])
    keys.sort()
    u_terms = terms.view(np.uint64)
    lo = np.empty(terms.shape, dtype=np.uint64)
    for start in range(0, terms.size, _MUL_BLOCK):
        block = slice(start, start + _MUL_BLOCK)
        key, low = keys[block], lo[block]
        index = (key & mask).view(np.int64)
        u_terms.take(index, out=low, mode="clip")  # every index is in range
        low *= u_lo
        key ^= index.view(np.uint64)  # clears the index bits
        key |= dropped.take(index, mode="clip")
    hi = keys
    pos = _tie_runs(hi, bits)
    if pos.size:
        run_hi, run_lo = hi[pos], lo[pos]
        sub = np.lexsort((run_lo, run_hi))
        hi[pos] = run_hi[sub]
        lo[pos] = run_lo[sub]
    return hi, lo


def rank_words(pts_hi, pts_lo, q_hi, q_lo) -> np.ndarray:
    """#sorted points strictly below each query numerator, vectorized.

    searchsorted on the high words settles every query except those
    whose high word occurs among the points; those finish with a
    vectorised binary search over the low words of their run of equal
    high words, one pass per bit of the longest run.
    """
    rank = np.searchsorted(pts_hi, q_hi, side="left").astype(np.int64, copy=False)
    tie = np.flatnonzero(pts_hi.take(rank, mode="clip") == q_hi)
    if tie.size:
        first = rank[tie]
        last = np.searchsorted(pts_hi, q_hi[tie], side="right").astype(np.int64, copy=False)
        key = q_lo[tie]
        while True:
            live = first < last
            if not live.any():
                break
            mid = (first + last) >> 1
            below = live & (pts_lo.take(mid, mode="clip") < key)
            first = np.where(below, mid + 1, first)
            last = np.where(live & ~below, mid, last)
        rank[tie] = first
    return rank


def dot_words(c: np.ndarray, words: Sequence[np.ndarray]) -> List[int]:
    """Exact sum_i c[j, i] * number_i for each row j of c, as Python ints.

    c is (m, n) int64 with |c| < 2**62, else ValueError; words are the
    numbers' uint64 word arrays, most significant first.  The words split
    into b-bit limbs and the columns into chunks of 2**k, b + k +
    bits(max |c|) = 63 and b = max(1, 63 - bits(max |c|) - bits(n)), so no
    int64 dot product of a limb chunk with c can overflow.
    """
    room = 63 - max(int(c.max(initial=0)), -int(c.min(initial=0))).bit_length()
    if room < 1:
        raise ValueError("dot weights must satisfy |c| < 2**62")
    bits = max(1, room - c.shape[-1].bit_length())
    step = 1 << (room - bits)
    mask = _U64((1 << bits) - 1)
    sums = [0] * c.shape[0]
    buf = np.empty(c.shape[-1], dtype=np.uint64)  # every limb in turn
    limb = buf.view(np.int64)
    for t, word in enumerate(reversed(words)):
        for shift in range(0, 64, bits):
            np.right_shift(word, _U64(shift), out=buf)
            buf &= mask
            for start in range(0, limb.size, step):
                part = (c[:, start:start + step] @ limb[start:start + step]).tolist()
                sums = [s + (v << (shift + 64 * t)) for s, v in zip(sums, part)]
    return sums


def phase_top_bits(nn: np.ndarray, u_hi: np.ndarray, u_lo: np.ndarray) -> np.ndarray:
    """Top 64 bits of (n * u) mod 2**128 as floats in [0, 1], one row per n.

    The top word is exact for every uint64 n (_mul_hi); the dropped low
    word perturbs each phase by < 2**-64 turns before the final rounding
    to float64.  The spectral kernel (stats._phase_sum) takes e(n u) as
    the product of two such phases, e(n0 u) * e(k u) with n = n0 + k, so
    its phase is off by < 2**-63 turns before rounding; it sums the
    products in fixed blocks, with no BLAS, so the order of the reduction
    is fixed too.
    """
    return _mul_hi(u_hi[None, :], u_lo[None, :], nn[:, None]).astype(np.float64) * 2.0**-64
