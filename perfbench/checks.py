"""Output checks for the benchmark's CLI commands.

check_command() returns a list of problems (empty when the output is
correct).  Two kinds of check run:

- invariants that hold at every seed: row layout, the alpha of every
  cell re-derived from the seed, sigma2_over_L * L == sigma2, the
  variance/pair-correlation identity, spectral R2 within its declared
  truncation bound of direct R2, Monte Carlo within 5% of the exact
  variance, 2N^2 - N <= energy <= N^3, and Fourier coefficients
  recomputed here from the difference counts;
- comparison with a stored reference output when one exists for the
  seed: exact for identifiers, integers and N/L, 1e-9 relative for
  statistics.

Floats in the outputs are shortest round-trip decimals, so exact field
comparison is meaningful.
"""

from __future__ import annotations

import csv
import io
import math
from typing import Dict, List, Optional

import numpy as np

IDENTITY_RTOL = 1e-9
MC_RTOL = 0.05  # >= 15 standard errors at 200000 centers
POISSON_BAND = (0.25, 10.0)  # sigma2 / L far outside this is not a variance
_MASK64 = (1 << 64) - 1

VARIANCE_HEADER = ["seq_id", "N", "beta", "L", "alpha_hex", "sigma2",
                   "sigma2_over_L", "r2_tent", "method"]
PAIRCORR_HEADER = ["seq_id", "N", "beta", "L", "alpha_hex", "r2_direct",
                   "r2_fourier", "truncation_bound"]
ENERGY_HEADER = ["N", "energy", "energy_over_N2", "log_energy_over_log_N",
                 "difference_energy"]
COEFFS_HEADER = ["k", "value", "N", "L"]

# Fields compared to the reference exactly; every other field to IDENTITY_RTOL.
# r2_fourier and truncation_bound are checked against r2_direct instead,
# so a different truncation may pass if it keeps its own bound.
_EXACT_FIELDS = {"seq_id", "N", "beta", "L", "alpha_hex", "method", "energy",
                 "difference_energy", "k"}
_UNREFERENCED_FIELDS = {"r2_fourier", "truncation_bound"}


def options(argv: List[str]) -> Dict[str, str]:
    """--flag value pairs of one CLI command."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def schedule_values(text: str) -> List[int]:
    head, _, rest = text.partition("=")
    values: List[int] = []
    for tok in rest.split(","):
        lo, dots, hi = tok.partition("..")
        values.extend(range(int(lo), int(hi) + 1) if dots else [int(tok)])
    return [v * v for v in values] if head == "m" else values


def parse_rows(text: str, header: List[str], problems: List[str]) -> List[Dict[str, str]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        problems.append("header %r, expected %r" % (rows[0] if rows else None, header))
        return []
    return [dict(zip(header, r)) for r in rows[1:] if r]


def count_rows(text: str) -> int:
    return max(0, sum(1 for line in text.splitlines() if line) - 1)


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)


def _cell_alpha_hex(seed: int, n_value: int, index: int) -> str:
    from numvar import sample_alpha

    return sample_alpha(((n_value & _MASK64) << 64) | (seed & _MASK64), index).to_hex()


def _check_cells(rows, opts, seed, problems) -> None:
    """Layout shared by variance and paircorr: (N, alpha index) cells."""
    beta = float(opts.get("beta", "0.3"))
    alphas = int(opts.get("alphas", "100"))
    cells = [(n, i) for n in schedule_values(opts["schedule"]) for i in range(alphas)]
    if len(rows) != len(cells):
        problems.append("%d rows, expected %d" % (len(rows), len(cells)))
        return
    for row, (n_value, idx) in zip(rows, cells):
        where = "N=%d sample=%d" % (n_value, idx)
        if row["seq_id"] != opts["seq"] or int(row["N"]) != n_value:
            problems.append("%s: cell is %s N=%s" % (where, row["seq_id"], row["N"]))
        if float(row["beta"]) != beta or not _close(float(row["L"]), n_value ** beta, 1e-12):
            problems.append("%s: beta %s L %s" % (where, row["beta"], row["L"]))
        if row["alpha_hex"] != _cell_alpha_hex(seed, n_value, idx):
            problems.append("%s: alpha %s not derived from seed %d" % (where, row["alpha_hex"], seed))


def _check_variance(rows, opts, seed, problems) -> None:
    _check_cells(rows, opts, seed, problems)
    mc = int(opts.get("mc", "0"))
    first_cells = {}
    for row in rows:
        where = "N=%s alpha=%s" % (row["N"], row["alpha_hex"])
        L = float(row["L"])
        sigma2 = float(row["sigma2"])
        if row["method"] != ("monte_carlo" if mc else "exact_tent"):
            problems.append("%s: method %s" % (where, row["method"]))
        if not (math.isfinite(sigma2) and POISSON_BAND[0] <= sigma2 / L <= POISSON_BAND[1]):
            problems.append("%s: sigma2/L = %r outside %r" % (where, sigma2 / L, POISSON_BAND))
            continue
        if not _close(float(row["sigma2_over_L"]) * L, sigma2, IDENTITY_RTOL):
            problems.append("%s: sigma2_over_L * L != sigma2" % where)
        # sigma2 = L - L^2 + L * R2(tent), compared on the scale of L^2
        err = abs(sigma2 - (L - L * L + L * float(row["r2_tent"])))
        if err > IDENTITY_RTOL * max(1.0, L * L):
            problems.append("%s: identity error %.3e" % (where, err))
        first_cells.setdefault(int(row["N"]), (row["alpha_hex"], sigma2))
    if mc:
        for n_value, (alpha_hex, estimate) in first_cells.items():
            exact = _exact_variance(opts, n_value, alpha_hex)
            if abs(estimate - exact) > MC_RTOL * exact:
                problems.append("N=%d: Monte Carlo %r vs exact %r" % (n_value, estimate, exact))


def _exact_variance(opts, n_value: int, alpha_hex: str) -> float:
    from numvar import (FixedPointReal, SequenceSpec, WindowParams, dilate_mod1,
                        generate_sequence, number_variance_exact)

    seq = generate_sequence(SequenceSpec.parse(opts["seq"]), n_value)
    points = dilate_mod1(FixedPointReal(int(alpha_hex, 16)), seq)
    params = WindowParams.from_beta(n_value, float(opts.get("beta", "0.3")))
    return number_variance_exact(points, params).sigma2


def _check_paircorr(rows, opts, seed, problems) -> None:
    _check_cells(rows, opts, seed, problems)
    tol = float(opts.get("tol", "1e-6"))
    for row in rows:
        where = "N=%s alpha=%s" % (row["N"], row["alpha_hex"])
        direct = float(row["r2_direct"])
        spectral = float(row["r2_fourier"])
        bound = float(row["truncation_bound"])
        if not (0.0 < bound <= tol):
            problems.append("%s: truncation_bound %r not in (0, %r]" % (where, bound, tol))
        if not (direct >= 0.0 and abs(spectral - direct) <= bound):
            problems.append("%s: |r2_fourier - r2_direct| = %r > bound %r"
                            % (where, abs(spectral - direct), bound))


def _check_energy(rows, opts, seed, problems) -> None:
    ns = schedule_values(opts["schedule"])
    if [int(r["N"]) for r in rows] != ns:
        problems.append("N column %r, expected %r" % ([r["N"] for r in rows], ns))
        return
    for row, n in zip(rows, ns):
        energy = int(row["energy"])
        diff_energy = int(row["difference_energy"])
        if not (2 * n * n - n <= energy <= n**3):
            problems.append("N=%d: energy %d outside [2N^2 - N, N^3]" % (n, energy))
            continue
        if not (n * (n - 1) <= diff_energy <= energy):
            problems.append("N=%d: difference_energy %d outside [N(N-1), energy]" % (n, diff_energy))
        if not _close(float(row["energy_over_N2"]), energy / n**2, 1e-12):
            problems.append("N=%d: energy_over_N2 inconsistent" % n)
        if not _close(float(row["log_energy_over_log_N"]), math.log(energy) / math.log(n), 1e-12):
            problems.append("N=%d: log_energy_over_log_N inconsistent" % n)


def _monomial_terms(spec: str, n: int) -> np.ndarray:
    degree = int(spec.split("d=")[1])
    return np.arange(1, n + 1, dtype=np.int64) ** degree


def _check_coeffs(rows, opts, seed, problems) -> None:
    n = schedule_values(opts["schedule"])[0]
    kmax = int(opts.get("kmax", "32"))
    beta = float(opts.get("beta", "0.3"))
    if [int(r["k"]) for r in rows] != list(range(1, kmax + 1)):
        problems.append("k column is not 1..%d" % kmax)
        return
    # Recompute from the definition: value_k = (L / N^2) *
    # sum over divisors d of k of (W(k/d) + W(-k/d)) * sinc(ell d)^2,
    # where W(w) counts ordered pairs with a_i - a_j = w, and W(-w) = W(w).
    terms = _monomial_terms(opts["seq"], n)
    L = n ** beta
    ell = L / n
    for row in rows:
        k = int(row["k"])
        if int(row["N"]) != n or not _close(float(row["L"]), L, 1e-12):
            problems.append("k=%d: N %s L %s" % (k, row["N"], row["L"]))
        total = 0.0
        for d in range(1, k + 1):
            if k % d == 0:
                mult = 2 * int(np.isin(terms + k // d, terms).sum())
                if mult:
                    total += mult * float(np.sinc(ell * d) ** 2)
        expect = (L / (n * n)) * total
        if not _close(float(row["value"]), expect, IDENTITY_RTOL):
            problems.append("k=%d: value %s, recomputed %r" % (k, row["value"], expect))


_CHECKS = {
    "variance": (VARIANCE_HEADER, _check_variance),
    "paircorr": (PAIRCORR_HEADER, _check_paircorr),
    "energy": (ENERGY_HEADER, _check_energy),
    "coeffs": (COEFFS_HEADER, _check_coeffs),
}


def _compare_reference(rows, ref_rows, problems) -> None:
    if len(rows) != len(ref_rows):
        problems.append("%d rows, reference has %d" % (len(rows), len(ref_rows)))
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for key, want in ref.items():
            got = row[key]
            if key in _UNREFERENCED_FIELDS or got == want:
                continue
            if key in _EXACT_FIELDS or not _close(float(got), float(want), IDENTITY_RTOL):
                problems.append("row %d %s: %s, reference %s" % (i + 1, key, got, want))


def check_command(argv: List[str], output: str, seed: int,
                  reference: Optional[str]) -> List[str]:
    """Problems found in one command's CSV output; [] when correct."""
    header, check = _CHECKS[argv[0]]
    problems: List[str] = []
    rows = parse_rows(output, header, problems)
    if problems:
        return problems
    try:
        check(rows, options(argv), seed, problems)
        if reference is not None:
            _compare_reference(rows, parse_rows(reference, header, problems), problems)
    except (KeyError, ValueError) as exc:  # malformed field in the output
        problems.append("unparseable output: %r" % (exc,))
    return problems
