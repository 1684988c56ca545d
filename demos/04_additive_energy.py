#!/usr/bin/env python3
"""Additive energy and difference structure of integer sequences.

E(A) counts quadruples a + b = c + d; it sits between 2N^2 - N (all
pair sums distinct: Sidon sets) and N^3 (arithmetic progressions, up to
constants).  Sequences with E = O(N^(2+eps)) are the ones whose
dilations show Poissonian count variance, so the scaling exponent
log E / log N is the headline diagnostic here.
"""

import math

from numvar import (
    SequenceSpec,
    additive_energy,
    difference_energy,
    difference_profile,
    gcd_sum_diagnostic,
    generate_sequence,
)

print("== energy scaling: squares vs lacunary ==")
print("%-8s %-14s %-12s %-14s" % ("N", "E(squares)", "logE/logN", "E(2^k)/N^2"))
for n in (64, 128, 256, 512, 1024):
    sq = generate_sequence(SequenceSpec.monomial(2), n)
    e_sq = additive_energy(sq).energy
    if n <= 61:
        lac_ratio = "-"
    else:
        # base-2 terms overflow the 62-bit budget past 61 terms, so the
        # lacunary column reuses the largest admissible length
        lac = generate_sequence(SequenceSpec.lacunary(2), min(n, 61))
        e_lac = additive_energy(lac).energy
        lac_ratio = "%.4f" % (e_lac / min(n, 61) ** 2)
    print("%-8d %-14d %-12.4f %-14s"
          % (n, e_sq, math.log(e_sq) / math.log(n), lac_ratio))

print()
print("The square exponent drifts down toward 2; the lacunary ratio is")
print("pinned below 2 because every pair sum 2^i + 2^j is distinct.")

print()
print("== difference profiles ==")
for vals in ([1, 2, 3], [1, 2, 4], [1, 2, 4, 8, 13, 21, 31, 45]):
    seq = generate_sequence(SequenceSpec.custom(vals), len(vals))
    prof = difference_profile(seq)
    e = additive_energy(seq).energy
    de = difference_energy(prof)
    n = len(vals)
    tag = "Sidon" if e == 2 * n * n - n else "     "
    print("A=%-28s E=%-5d diffE=%-4d distinct w>0=%-3d %s"
          % (vals, e, de, prof.distinct, tag))
    assert de <= e

print()
print("== gcd-sum diagnostic along the squares ==")
print("the pairwise gcd-weighted sum over the difference profile,")
print("normalized by sum W^2, must grow slower than any power of N")
print("%-8s %-10s %-16s %-12s" % ("N", "dist. w>0", "gcd sum", "per unit W^2"))
prev_ratio, prev_growth = None, None
for n in (16, 32, 64, 128):
    seq = generate_sequence(SequenceSpec.monomial(2), n)
    prof = difference_profile(seq)
    gcd_sum = gcd_sum_diagnostic(prof)
    ratio = gcd_sum / difference_energy(prof)
    line = "%-8d %-10d %-16.2f %-12.3f" % (n, prof.distinct, gcd_sum, ratio)
    if prev_ratio is not None:
        growth = ratio / prev_ratio
        line += "  (x%.3f per octave)" % growth
        if prev_growth is not None:
            assert growth < prev_growth
        prev_growth = growth
    prev_ratio = ratio
    print(line)
print("[OK] octave growth factors shrink: sub-power growth, as required")
