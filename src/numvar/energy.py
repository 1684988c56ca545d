"""Additive-structure statistics of integer sequences.

The additive energy of a sequence (a_1..a_N) of distinct integers is
the number of ordered quadruples (i, j, k, l) with a_i + a_j = a_k +
a_l.  It sits between 2N^2 - N (all pairwise sums distinct: Sidon sets,
lacunary sequences) and N^3 (arithmetic progressions), and it is the
quantity that separates sequences with Poissonian count statistics from
structured ones.

Counting runs on differences: a_i + a_j = a_k + a_l exactly when
a_i - a_k = a_l - a_j, so with W(w) = #{(i, j) : a_i - a_j = w} the
energy is sum_w W(w)^2 = N^2 + 2 sum_{w>0} W(w)^2 (W(0) = N for
distinct terms, and W(-w) = W(w)).  The N(N-1)/2 positive differences
are walked in ascending value bands [lo, hi) of at most _BAND_ENTRIES
entries, each gathered by sorted searches over the sorted terms as keys
d - lo and counted in one of two ways.  A band at most _COUNT_WIDTH
(2^17) values wide is counted by direct addressing, np.bincount over
its hi - lo bins: O(entries + width), so where the differences are
dense, as for the squares, the count costs O(N^2).  The walker takes
such a narrow window as a band only when it holds at least _COUNT_WIDTH/4
entries (a density of 1/4), so a sparse stretch is not cut into many
nearly empty windows.  A wider band is sorted in place, with 4-byte keys
when hi - lo <= 2^32 (8 otherwise), and read off at its run breaks:
O(N^2 log N) over sparse differences.  Memory is bounded by the band,
not by N^2.

Every statistic here is even in w, so the positive half is the one
representation of the difference multiset: difference_profile keeps
W(w) for w > 0 only, and difference_energy and gcd_sum_diagnostic fold
the negative half back in by symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

from .errors import BudgetError
from .sequences import IntegerSequence

# Most positive differences one band gathers, whatever N is.  An entry
# holds a slot in the 8-byte key space and the 8-byte column ramp, both
# kept across bands, and an 8-byte column index while it is gathered; in
# a sorted band each run of equal keys adds an 8-byte cut.
_BAND_ENTRIES = 1 << 19
# Widest band counted by np.bincount, whose int64 bins then take 1 MB.
# A window this wide is a band only when it holds at least a quarter as
# many entries as it has values.
_COUNT_WIDTH = 1 << 17
# Most distinct positive differences gcd_row_blocks pairs (O(D^2) gcds),
# and the cells of one row block of the gcd table
_GCD_MAX_DISTINCT = 10000
_GCD_BLOCK_CELLS = 1 << 18


@dataclass(frozen=True)
class EnergyProfile:
    """The additive energy of a sequence.

    energy is an exact Python int (arbitrary precision; values reach
    N^3).  terms holds the sorted terms for multiplicity queries.
    """

    N: int
    energy: int
    terms: np.ndarray = field(repr=False)

    def multiplicity(self, s: int) -> int:
        """r(s): how many ordered pairs add to s (0 if none)."""
        a = self.terms
        lo, hi = int(a[0]), int(a[-1])
        if not 2 * lo <= s <= 2 * hi:
            return 0
        # s - a_i is a term only for a_i in [s - hi, s - lo]; there it
        # lies in [lo, hi], so the int64 subtraction is exact
        first = np.searchsorted(a, max(s - hi, lo))
        last = np.searchsorted(a, min(s - lo, hi), side="right")
        want = s - a[first:last]
        return int(np.count_nonzero(a[np.searchsorted(a, want)] == want))


@dataclass(frozen=True)
class DifferenceProfile:
    """Multiplicities W(w) of the positive ordered-pair differences a_i - a_j.

    values holds every w > 0 that occurs, ascending, and counts their
    W(w).  W(-w) = W(w), so the positive half is the whole multiset.
    """

    N: int
    values: np.ndarray
    counts: np.ndarray

    def count(self, w: int) -> int:
        """W(w) = W(|w|); 0 for w = 0 and for differences that never occur."""
        w = abs(w)
        i = int(np.searchsorted(self.values, w))
        if i < self.values.size and int(self.values[i]) == w:
            return int(self.counts[i])
        return 0

    def items(self) -> Iterator[Tuple[int, int]]:
        for w, c in zip(self.values, self.counts):
            yield int(w), int(c)

    @property
    def distinct(self) -> int:
        return int(self.values.size)


def _offsets(a: np.ndarray) -> np.ndarray:
    """a - a[0] as uint64, for sorted terms a.

    Terms lie below 2^62 in magnitude, so offsets and the span stay
    below 2^63 and u_i + v < 2^64 for every 0 <= v <= span + 1.
    """
    return (a - a[0]).astype(np.uint64)


def _difference_key_bands(u: np.ndarray) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
    """(lo, offsets, counts) for the differences d = u_j - u_i > 0, band by band.

    u holds the sorted offsets of the terms (see _offsets).  Bands
    [lo, hi) ascend and tile 1..span.  offsets holds distinct values
    d - lo in ascending order and counts (int64) how many differences
    take each one, whichever way the band was counted (see _band_runs).
    A count may be 0 in any band, and offsets may be a read-only view:
    a band at most C = _COUNT_WIDTH wide lists every value 0..hi - lo - 1
    without dropping its empty bins, which would cost more than the count.

    With B = _BAND_ENTRIES, the walker first tries the narrow window
    [lo, lo + C).  It is the band when it holds between C/4 and B
    entries (a density of at least 1/4), or when it reaches the end of
    the span and holds at most B.  When it holds more than B, the band
    edge is searched inside it; when it holds fewer than C/4, beyond it,
    so a sparse stretch makes one wide sorted band, not many narrow
    ones.  An edge hi is searched on the exact count of entries below
    it.  The first probe is lo plus the previous band's width (for the
    first band, the mean width that B entries take), later ones bisect,
    and the search stops at the first probe whose band holds between B/2
    and B entries.  A band never holds more than B entries unless one
    value alone has more; then that value is a band of its own.
    """
    low32 = u.astype(np.uint32)
    span = int(u[-1])
    most = _BAND_ENTRIES
    least = (most + 1) // 2
    sparse = max(1, _COUNT_WIDTH // 4)  # a narrow window with fewer entries is passed over

    def ends(v: int) -> np.ndarray:
        # row i's entries below v end at column ends(v)[i]
        return np.searchsorted(u, u + np.uint64(v))

    # the ramp 0, 1, ... and the key space serve every band: fresh ones
    # per band would fault in their pages again each time
    ramp = space = np.zeros(0, dtype=np.int64)
    top = ends(span + 1)
    below_top = int(top.sum())
    lo, start = 1, ends(1)
    below_lo = int(start.sum())
    width = max(1, span * most // max(1, below_top - below_lo))
    while lo <= span:
        window = min(lo + _COUNT_WIDTH, span + 1)
        window_stop = top if window > span else ends(window)
        held = int(window_stop.sum()) - below_lo
        if held <= most and (held >= sparse or window > span):
            hi, stop = window, window_stop
        elif below_top - below_lo <= most:
            hi, stop = span + 1, top
        else:
            # invariant: [lo, good) fits in a band, [lo, bad) does not
            if held > most:
                good, good_stop, bad = lo, start, window
            else:
                good, good_stop, bad = window, window_stop, span + 1
            probe = min(max(lo + width, good + 1), bad - 1)
            while bad - good > 1:
                probe_stop = ends(probe)
                held = int(probe_stop.sum()) - below_lo
                if held > most:
                    bad = probe
                else:
                    good, good_stop = probe, probe_stop
                    if held >= least:
                        break
                probe = (good + bad) // 2
            # the value good alone overflows what is left of the band;
            # when nothing precedes it, it is the band
            if int(good_stop.sum()) > below_lo:
                hi, stop = good, good_stop
            else:
                hi, stop = bad, ends(bad)
        width = hi - lo
        total = int(stop.sum()) - below_lo
        need = max(total, width) if width <= _COUNT_WIDTH else total
        if ramp.size < need:
            ramp, space = np.arange(need), np.empty(need, dtype=np.int64)
            ramp.flags.writeable = False  # bincount bands yield views of it
        yield lo, *_band_runs(u, low32, lo, width, start, stop, ramp, space)
        lo, start, below_lo = hi, stop, below_lo + total


def _band_runs(u: np.ndarray, low32: np.ndarray, lo: int, width: int, start: np.ndarray,
               stop: np.ndarray, ramp: np.ndarray, space: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(offsets, counts) of the band [lo, lo + width) whose row i holds
    columns start[i] to stop[i] - 1.

    Each entry is gathered into space as the key d - lo, computed in
    k-bit words as u_j - u_i - lo mod 2^k, which is exact since
    0 <= d - lo < 2^k.  A band at most _COUNT_WIDTH wide has int64 keys
    and is counted by np.bincount over its width: O(entries + width),
    with ramp[:width] as its offsets.  A wider band has uint32 keys
    (from low32, the offsets' low words) when it is at most 2^32 wide,
    else uint64; they are sorted in place and read off at their run
    breaks, O(entries log entries).  ramp holds 0, 1, ... for at least
    the band's entries.
    """
    if width <= _COUNT_WIDTH:
        low = u.view(np.int64)  # np.bincount takes int64 keys without a copy
    else:
        low = low32 if width <= 1 << 32 else u
    lengths = stop - start
    rows = np.flatnonzero(lengths)
    lengths = lengths[rows]
    total = int(lengths.sum())
    cols = np.repeat(start[rows] - (np.cumsum(lengths) - lengths), lengths)
    cols += ramp[:total]
    keys = space.view(low.dtype)[:total]
    low.take(cols, out=keys, mode="clip")  # "raise" would buffer the whole take
    del cols  # before the row repeat, so the two never coexist
    base = low[rows]
    base += np.uint64(lo).astype(low.dtype)
    keys -= np.repeat(base, lengths)
    if width <= _COUNT_WIDTH:
        return ramp[:width], np.bincount(keys, minlength=width)
    keys.sort()
    # a run starts at each key that differs from the one before it, and
    # the last run ends at keys.size
    edges = np.ones(total + 1, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=edges[1:-1])
    cuts = np.flatnonzero(edges)
    return keys[cuts[:-1]], np.diff(cuts)


def additive_energy(seq: IntegerSequence) -> EnergyProfile:
    """#{(i,j,k,l) : a_i + a_j = a_k + a_l}, over ordered quadruples.

    Self-pairs i = j are included, matching the quadruple definition.
    Computed as N^2 + 2 sum_{w>0} W(w)^2 from the positive differences.
    """
    a = np.sort(seq.terms)
    n = len(seq)
    half = 0
    # each band's arrays stay bound until the next band replaces them:
    # freed first, they let malloc hand their pages back to the system,
    # and the next band faults them in again (a third slower on sparse sets)
    for _, _, counts in _difference_key_bands(_offsets(a)):
        half += int(np.dot(counts, counts))
    return EnergyProfile(N=n, energy=n * n + 2 * half, terms=a)


def difference_profile(seq: IntegerSequence) -> DifferenceProfile:
    """W(w) = #{i != j : a_i - a_j = w} for every difference w > 0.

    The positive half, counted band by band and read off as int64 values
    lo + offset, without the zero counts of bincount bands; the values
    come out ascending.
    """
    runs = []
    for lo, offsets, counts in _difference_key_bands(_offsets(np.sort(seq.terms))):
        occur = counts > 0
        runs.append((offsets[occur].astype(np.int64) + lo, counts[occur]))
    empty = np.zeros(0, dtype=np.int64)
    return DifferenceProfile(
        N=len(seq),
        values=np.concatenate([empty] + [v for v, _ in runs]),
        counts=np.concatenate([empty] + [c for _, c in runs]),
    )


def difference_count(seq: IntegerSequence, w: int) -> int:
    """W(w) = #{i != j : a_i - a_j = w}, by one sorted search.

    Equals difference_profile(seq).count(w) without building the
    profile: 0 for w = 0 and for |w| beyond the span of the terms.
    """
    u = _offsets(np.sort(seq.terms))
    w = abs(w)
    span = int(u[-1])
    if w == 0 or w > span:
        return 0
    # only u_i <= span - w can reach a term; then u_i + w <= span
    want = u[: np.searchsorted(u, np.uint64(span - w), side="right")] + np.uint64(w)
    return int(np.count_nonzero(u[np.searchsorted(u, want)] == want))


def difference_energy(profile: DifferenceProfile) -> int:
    """sum_{w != 0} W(w)^2 = 2 sum_{w>0} W(w)^2: ordered quadruples with
    equal nonzero differences.

    Equals the additive energy minus N^2: a_i + a_j = a_k + a_l exactly
    when a_i - a_k = a_l - a_j, and the N^2 quadruples with i = k (so
    j = l) are the ones with difference zero.
    """
    return 2 * int(np.dot(profile.counts, profile.counts))


def gcd_row_blocks(profile: DifferenceProfile):
    """The D x D table gcd(w, w') of the profile's positive values, by rows.

    Yields (i0, i1, np.gcd.outer(w[i0:i1], w)) over row blocks of about
    _GCD_BLOCK_CELLS cells.  BudgetError at once, before any gcd is
    taken, when D > _GCD_MAX_DISTINCT.
    """
    d = profile.distinct
    if d > _GCD_MAX_DISTINCT:
        raise BudgetError(
            "profile has %d distinct positive differences > cap %d" % (d, _GCD_MAX_DISTINCT)
        )
    w = profile.values
    rows = max(1, _GCD_BLOCK_CELLS // max(d, 1))
    return (
        (i0, min(i0 + rows, d), np.gcd.outer(w[i0 : i0 + rows], w)) for i0 in range(0, d, rows)
    )


def gcd_sum_diagnostic(profile: DifferenceProfile) -> float:
    """sum over signed w, w' != 0 of W(w) W(w') gcd(w, w') / sqrt(|w w'|).

    The quantity whose boundedness relative to sum W^2 signals low
    additive structure.  The summand depends only on |w| and |w'|, and
    W(-w) = W(w), so the sum is 4 times the one over the D positive
    values of the profile; only those are paired.

    O(D^2); BudgetError when D > _GCD_MAX_DISTINCT (10000 positive
    values, 20000 signed ones), ValueError for an empty profile.
    """
    if profile.distinct == 0:
        raise ValueError("difference profile is empty")
    blocks = gcd_row_blocks(profile)
    weight = profile.counts / np.sqrt(profile.values.astype(np.float64))
    chunk_sums = [
        np.dot(weight[i0:i1], g.astype(np.float64) @ weight) for i0, i1, g in blocks
    ]
    return 4.0 * float(np.sum(np.asarray(chunk_sums)))
