#!/usr/bin/env python3
"""Spectral inequalities behind the variance bound, checked numerically.

Two inequalities power the second-moment analysis:

  single frequency:  sum_{n != 0} sinc(a n)^4         <  1/|a|
  paired frequency:  ell * sum_{n != 0} sinc(f_r n)^2
                         * sinc(f_s n)^2              <  g/sqrt|w_r w_s|

with f = ell |w| / g and g = gcd(w_r, w_s).  Both left sides are one
closed form, the tent overlap Phi(u, v) = sum_{n != 0} sinc^2(n u)
sinc^2(n v) through the Bernoulli polynomial B4, and a check passes only
when the left side plus its rounding bound stays below the right side.
"""

import numpy as np

from numvar import WindowParams, lemma1_check, lemma2_check

print("== single-frequency bound across six decades ==")
print("%-12s %-14s %-12s %-6s" % ("a", "lhs", "bound 1/|a|", "ok"))
for a in (0.001, 0.02, 0.5, 1.0, 3.7, 100.0):
    res = lemma1_check(a)
    print("%-12g %-14.6e %-12.4g %-6s" % (a, res.lhs, res.bound, res.ok))
    assert res.ok

print()
print("closed half-integer case: lhs(1/2) telescopes to 1/3 exactly")
res = lemma1_check(0.5)
print("lhs = %.15f, |lhs - 1/3| = %.2e" % (res.lhs, abs(res.lhs - 1 / 3)))
assert abs(res.lhs - 1 / 3) < 1e-10
print("[OK] the sum over odd n of (2/(pi n))^4 is 32/pi^4 * pi^4/96 = 1/3")

print()
print("== paired-frequency bound ==")
params = WindowParams.from_L(2, 1.0)  # ell = 1/2
res = lemma2_check(1, 1, params)
print("w=(1,1), ell=1/2: lhs = %.12f (= 1/6), bound = %g" % (res.lhs, res.bound))
assert abs(res.lhs - 1 / 6) < 1e-8

params = WindowParams.from_L(4, 4.0)  # ell = 1
res = lemma2_check(2, 3, params)
print("w=(2,3), ell=1:   lhs = %.3e (coprime integer frequencies kill" % res.lhs)
print("                  every term), bound = 1/sqrt(6) = %.6f" % res.bound)
assert res.lhs < 1e-12

print()
print("== randomized stress sweep ==")
rng = np.random.default_rng(99)
checked = 0
for _ in range(2000):
    w_r = int(rng.integers(1, 10**6)) * (1 if rng.random() < 0.5 else -1)
    w_s = int(rng.integers(1, 10**6)) * (1 if rng.random() < 0.5 else -1)
    n = int(10 ** rng.uniform(2, 5))
    params = WindowParams.from_beta(n, float(rng.uniform(0.0, 0.5)))
    res = lemma2_check(w_r, w_s, params)
    assert res.ok
    checked += 1
print("[OK] %d random (w_r, w_s, N, beta) tuples, every bound holds" % checked)
