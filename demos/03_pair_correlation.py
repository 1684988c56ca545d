#!/usr/bin/env python3
"""Pair correlation: direct window sums against the spectral route.

R2(f) averages f((x_i - x_j)/ell) over ordered pairs of dilated points.
The direct route slides a window along the sorted circle; the spectral
route expands f in frequencies and truncates with an explicit bound
no larger than 2 N(N-1) / (pi^2 L M).  Halving the tolerance must never
move the answer by more than the old tolerance; the two routes must
agree to the declared bound everywhere.
"""

import numpy as np

from numvar import (
    SequenceSpec,
    TestFunction,
    WindowParams,
    dilate_mod1,
    generate_sequence,
    pair_correlation_direct,
    pair_correlation_fourier,
    sample_alpha,
)

N = 48
seq = generate_sequence(SequenceSpec.monomial(2), N)
params = WindowParams.from_beta(N, 0.3)
alpha = sample_alpha(2026, 0)
points = dilate_mod1(alpha, seq)

print("squares, N=%d, L=%.4f, alpha=%s..." % (N, params.L, alpha.to_hex()[:12]))
print()

direct = pair_correlation_direct(points, params, TestFunction.tent())
print("direct tent pair sum: %.12f" % direct.r2)
print()

print("%-10s %-16s %-14s %-10s" % ("tol", "spectral", "|gap to direct|", "bound"))
prev = None
for tol in (1e-2, 1e-3, 1e-4, 1e-5):
    spectral = pair_correlation_fourier(seq, alpha, params, tol)
    gap = abs(spectral.r2 - direct.r2)
    print("%-10.0e %-16.12f %-14.3e %-10.3e" % (tol, spectral.r2, gap, spectral.truncation_bound))
    assert gap <= tol + 1e-9
    assert spectral.truncation_bound <= tol
    if prev is not None:
        assert abs(spectral.r2 - prev[1]) <= prev[0] + 1e-12
    prev = (tol, spectral.r2)
print("[OK] spectral route converges onto the direct value as tol shrinks")

print()
print("== different test functions, same machinery ==")
chi = TestFunction.indicator()
print("half-open indicator [-1/2, 1/2): R2 = %.6f"
      % pair_correlation_direct(points, params, chi).r2)
table = TestFunction.custom([-1.0, -0.5, 0.0, 0.5, 1.0],
                            [0.0, 0.75, 1.0, 0.75, 0.0], radius=1.0)
print("tabulated bump:              R2 = %.6f"
      % pair_correlation_direct(points, params, table).r2)

print()
print("== rotation invariance ==")
from numvar import FixedPointReal

base = pair_correlation_direct(points, params, TestFunction.tent()).r2
rng = np.random.default_rng(5)
worst = 0.0
for _ in range(20):
    offset = FixedPointReal(int(rng.integers(1 << 62)) << 60)
    rotated = pair_correlation_direct(points.shifted(offset), params,
                                      TestFunction.tent()).r2
    worst = max(worst, abs(rotated - base))
print("worst shift in R2 over 20 random rotations: %.3e" % worst)
assert worst <= 1e-9 * max(1.0, params.L)
print("[OK] pair statistics depend only on gaps, never on the origin")
