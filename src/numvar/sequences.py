"""Integer sequences and their exact dilations mod 1.

The pipeline is: a SequenceSpec names a family (monomial, lacunary, or
an explicit list), generate_sequence materializes the first N terms as
int64, and dilate_mod1 maps each term a to the circle point
frac(alpha * a) computed exactly on the 128-bit dyadic grid.  The
resulting PointSet keeps the exact numerators only, as two uint64 words
per point in ascending order; which term a point came from is not kept.
dilate_mod1 never builds the unsorted words: it sorts index-packed keys
and rebuilds the words from the terms in sorted order, so it holds about
20 bytes per point besides the terms.

Exactness of the bulk dilation is the load-bearing property: at N near
1e5 and terms near 2**34, float64 reduction of a*alpha mod 1 would lose
the low bits that local statistics live on.  The word arithmetic lives
in fixedpoint and reproduces (numerator * a) mod 2**128 bit for bit.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.random import Philox

from .errors import DuplicateError
from .fixedpoint import (
    FixedPointReal,
    add_words,
    argsort_words,
    join,
    sorted_mul_words,
    to_words,
)

# Terms must satisfy |a| < 2**62: then a * alpha keeps more than 64
# significant bits below the unit on the 128-bit grid.
TERM_BITS = 62
TERM_BOUND = 1 << TERM_BITS

_ALPHA_STREAM = 0x616C7068  # distinct Philox counter tag for alpha draws

# option keys SequenceSpec.parse accepts, per family
_SPEC_OPTIONS = {"monomial": {"d", "degree", "offset"}, "lacunary": {"base", "offset"}}


# ---------------------------------------------------------------------------
# sequence family recipes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for an integer sequence family.

    kind is one of "monomial" (a_n = (n + offset)**degree),
    "lacunary" (a_n = base**(n + offset)), or "custom" (explicit values,
    offset ignored).  Indexing starts at n = 1.
    """

    kind: str
    degree: int = 0
    base: int = 0
    values: Optional[Tuple[int, ...]] = None
    offset: int = 0

    def __post_init__(self):
        if self.kind not in ("monomial", "lacunary", "custom"):
            raise ValueError("unknown sequence kind %r" % (self.kind,))
        if self.kind == "monomial" and self.degree < 1:
            raise ValueError("monomial degree must be >= 1")
        if self.kind == "lacunary" and self.base < 2:
            raise ValueError("lacunary base must be >= 2")
        if self.kind == "lacunary" and self.offset < -1:
            raise ValueError(
                "lacunary offset %d gives the fractional term base**%d; need offset >= -1"
                % (self.offset, 1 + self.offset)
            )
        if self.kind == "custom" and not self.values:
            raise ValueError("custom spec needs a nonempty value tuple")

    @classmethod
    def monomial(cls, degree: int, offset: int = 0) -> "SequenceSpec":
        return cls(kind="monomial", degree=degree, offset=offset)

    @classmethod
    def lacunary(cls, base: int, offset: int = 0) -> "SequenceSpec":
        return cls(kind="lacunary", base=base, offset=offset)

    @classmethod
    def custom(cls, values: Sequence[int]) -> "SequenceSpec":
        vals = tuple(int(v) for v in values)
        if len(set(vals)) != len(vals):
            raise DuplicateError("custom sequence has repeated terms")
        return cls(kind="custom", values=vals)

    @classmethod
    def parse(cls, text: str) -> "SequenceSpec":
        """Parse compact spec strings like "monomial:d=2" or "lacunary:base=3".

        Accepted forms:
            monomial:d=<degree>[,offset=<k>]
            lacunary:base=<b>[,offset=<k>]
            custom:<path>          (newline-delimited integer file)
        """
        head, _, rest = text.partition(":")
        head = head.strip()
        if head == "custom":
            return load_sequence_file(rest.strip())
        if head not in _SPEC_OPTIONS:
            raise ValueError("unknown sequence kind %r" % (head,))
        opts = {}
        if rest.strip():
            for item in rest.split(","):
                key, sep, val = item.partition("=")
                if not sep:
                    raise ValueError("malformed spec option %r" % (item,))
                opts[key.strip()] = int(val)
        unknown = sorted(set(opts) - _SPEC_OPTIONS[head])
        if unknown:
            raise ValueError("unknown %s option %r" % (head, unknown[0]))
        offset = opts.pop("offset", 0)
        if head == "monomial":
            return cls.monomial(opts.pop("d", opts.pop("degree", 0)), offset)
        return cls.lacunary(opts.pop("base", 0), offset)

    def label(self) -> str:
        """Stable short identifier used in result tables."""
        if self.kind == "monomial":
            s = "monomial:d=%d" % self.degree
        elif self.kind == "lacunary":
            s = "lacunary:base=%d" % self.base
        else:
            digest = hashlib.sha256(
                (",".join(str(v) for v in self.values)).encode()
            ).hexdigest()[:12]
            s = "custom:%s" % digest
        if self.offset:
            s += ",offset=%d" % self.offset
        return s


@dataclass(frozen=True)
class IntegerSequence:
    """The first N terms of a family, validated distinct and in range."""

    terms: np.ndarray
    spec: SequenceSpec

    def __post_init__(self):
        t = np.asarray(self.terms, dtype=np.int64)
        object.__setattr__(self, "terms", t)
        if t.ndim != 1 or t.size == 0:
            raise ValueError("terms must be a nonempty 1-d array")
        if t.min() <= -TERM_BOUND or t.max() >= TERM_BOUND:
            raise OverflowError(
                "sequence term magnitude reaches the exact-dilation bound 2**%d"
                % TERM_BITS
            )
        # increasing terms, as in every monomial and lacunary family, need no sort
        if not (t[1:] > t[:-1]).all():
            s = np.sort(t)
            if np.any(s[1:] == s[:-1]):
                raise DuplicateError("sequence terms are not distinct")

    def __len__(self) -> int:
        return int(self.terms.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(v) for v in self.terms)


def generate_sequence(spec: SequenceSpec, count: int) -> IntegerSequence:
    """Materialize the first `count` terms (n = 1 .. count) of a family."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if spec.kind == "custom":
        if count > len(spec.values):
            raise ValueError(
                "custom spec holds %d terms, %d requested"
                % (len(spec.values), count)
            )
        terms = np.array(spec.values[:count], dtype=np.int64)
    elif spec.kind == "monomial":
        # largest |n + offset|; 2**(b-1) <= top < 2**b bounds top**degree
        # below 2**(b*degree), so the power is only built when it is small
        top = max(abs(1 + spec.offset), abs(count + spec.offset))
        b = top.bit_length()
        if top > 1 and ((b - 1) * spec.degree >= TERM_BITS or top**spec.degree >= TERM_BOUND):
            raise _term_overflow(top, spec.degree)
        n = np.arange(1 + spec.offset, count + 1 + spec.offset, dtype=np.int64)
        terms = n**spec.degree
    else:  # lacunary: terms grow with n, so stop at the first one too large
        vals = []
        for e in range(1 + spec.offset, count + 1 + spec.offset):
            vals.append(spec.base**e)
            if vals[-1] >= TERM_BOUND:
                raise _term_overflow(spec.base, e)
        terms = np.array(vals, dtype=np.int64)
    return IntegerSequence(terms=terms, spec=spec)


def _term_overflow(base: int, exponent: int) -> OverflowError:
    return OverflowError(
        "term magnitude %d**%d reaches the exact-dilation bound 2**%d"
        % (base, exponent, TERM_BITS)
    )


def load_sequence_file(path: str | os.PathLike) -> SequenceSpec:
    """Read a newline-delimited integer file into a custom spec.

    UTF-8 text, one signed decimal integer per line; blank lines and
    lines starting with '#' are ignored.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(
                    "%s:%d: not an integer: %r" % (path, lineno, line)
                ) from None
    if not values:
        raise ValueError("%s holds no integers" % (path,))
    return SequenceSpec.custom(values)


# ---------------------------------------------------------------------------
# exact dilation
# ---------------------------------------------------------------------------

class PointSet:
    """Sorted exact points on the unit circle, e.g. frac(alpha * a_j).

    Stores the 128-bit numerators, ascending, as parallel uint64 arrays
    (hi, lo).  The points only: alpha, the sequence and the order the
    points came in are not kept.
    """

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo):
        self.hi = hi
        self.lo = lo

    def __len__(self) -> int:
        return int(self.hi.size)

    def numerator(self, i: int) -> int:
        """Exact 128-bit numerator of point i (sorted order)."""
        return join(self.hi[i], self.lo[i])

    @classmethod
    def _from_words(cls, hi, lo) -> "PointSet":
        """Point set from unsorted (hi, lo) word arrays."""
        order = argsort_words(hi, lo)
        return cls(hi=hi[order], lo=lo[order])

    @classmethod
    def from_numerators(cls, numerators) -> "PointSet":
        """Point set from explicit 128-bit numerators (order-free)."""
        hi, lo = to_words(numerators)
        if not hi.size:
            raise ValueError("need at least one point")
        return cls._from_words(hi, lo)

    @classmethod
    def from_floats(cls, values) -> "PointSet":
        """Point set from floats, each mapped exactly mod 1 (FixedPointReal.from_float)."""
        return cls.from_numerators(
            FixedPointReal.from_float(float(v)).numerator for v in values
        )

    def shifted(self, offset: FixedPointReal) -> "PointSet":
        """New point set with every point rotated by offset mod 1, exactly."""
        return PointSet._from_words(*add_words(self.hi, self.lo, offset.numerator))


def dilate_mod1(alpha: FixedPointReal, seq: IntegerSequence) -> PointSet:
    """Map each term a to frac(alpha * a), exactly, and sort.

    Two passes over the terms (fixedpoint.sorted_mul_words), and the
    unsorted words are never built.  Pass 1 multiplies in blocks and keeps
    only each point's sort key (its high word with the low
    b = bit_length(N - 1) bits replaced by its index) and the b bits that
    key dropped; the keys are sorted in place.  Pass 2 gathers each sorted
    key's term and dropped bits, recomputes the low word and rebuilds the
    high word over the key.  So the dilation holds about 20 bytes per
    point besides the terms, and the point set keeps 16.
    """
    return PointSet(*sorted_mul_words(alpha.numerator, seq.terms))


# ---------------------------------------------------------------------------
# reproducible alpha draws
# ---------------------------------------------------------------------------

def sample_alpha(seed: int, index: int) -> FixedPointReal:
    """index-th uniform dilation factor of the stream keyed by seed.

    Counter-based: draw (seed, index) is a pure function, so any subset
    of indices can be generated in any order or on any worker and the
    values match.  The two 64-bit Philox outputs are concatenated into a
    full-resolution 128-bit numerator, so alpha is uniform on the grid.
    """
    if index < 0:
        raise ValueError("index must be >= 0")
    bits = Philox(key=seed % (1 << 128), counter=[index, 0, 0, _ALPHA_STREAM])
    w = bits.random_raw(2)
    return FixedPointReal(join(w[0], w[1]))
