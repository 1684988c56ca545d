"""Experiment runner: configs, deterministic sweeps, CSV/JSON emission.

The headline experiment dilates a sequence family by many sampled
dilation factors at each N in a schedule (typically N = m^2 along a
subsequence of m values), computes the exact number variance per
(N, dilation) cell, and summarizes how tightly the variance hugs L.

Determinism is the design constraint throughout: every cell's dilation
factor is a pure function of (seed, N, sample index), work is
distributed over a thread pool but aggregated in (N, index) order, and
floats are serialized as shortest round-trip decimals - so re-running
any configuration yields byte-identical output at any worker count.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple, get_type_hints

import numpy as np
from numpy.random import Philox

from .energy import additive_energy
from .energy import difference_profile  # unused here; perfbench/tracing.py wraps this binding
from .errors import BudgetError, ConfigError, NumvarError
from .fixedpoint import FixedPointReal, join
from .sequences import (
    IntegerSequence,
    SequenceSpec,
    dilate_mod1,
    generate_sequence,
    sample_alpha,
)
from .stats import (
    TestFunction,
    WindowParams,
    number_variance_exact,
    number_variance_montecarlo,
    pair_correlation_direct,
)
from . import theory

MAX_N = 10**6
# entries in one schedule; each range is counted before it is expanded
MAX_SCHEDULE_LEN = 10**4
# worker threads: a pool starts one per submitted cell up to this count
MAX_WORKERS = 64
MAX_ALPHA_SAMPLES = 10**4
# coeffs indices k = 1..kmax: the divisor sums grow faster than kmax
MAX_KMAX = 10**4
# trials of the lemma sweeps in the verify suites
MAX_TRIALS = 10**5
# Monte Carlo centers per cell; a counting cell holds about 48 bytes per
# center, so 480 MB at the cap
MAX_MC_SAMPLES = 10**7
# energy sweep ceiling: O(N^2 log N) time per N; memory is bounded by
# the difference band, not by N
MAX_ENERGY_N = 1 << 13

ENERGY_HEADER = (
    "N",
    "energy",
    "energy_over_N2",
    "log_energy_over_log_N",
    "difference_energy",
)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_schedule(text: str) -> Tuple[int, ...]:
    """Parse a schedule clause.

    "m=100..317" or "m=100,224,317": N values m^2 along the listed or
    ranged m.  "n=1000,2000,...": explicit N values.  Range syntax A..B
    is inclusive and valid in any comma-separated position.  A range past
    MAX_N, or one that would take the schedule past MAX_SCHEDULE_LEN
    entries, raises BudgetError before it is expanded.
    """
    head, sep, rest = text.strip().partition("=")
    head = head.strip()
    if not sep or head not in ("m", "n") or not rest.strip():
        raise ConfigError("schedule must look like m=A..B or n=N1,N2 (got %r)" % text)
    raw: List[int] = []
    for tok in rest.split(","):
        tok = tok.strip()
        lo, dots, hi = tok.partition("..")
        try:
            if dots:
                a, b = int(lo), int(hi)
                if b < a:
                    raise ValueError
                # checked before expanding, so a huge range fails at once
                top = max(abs(a), abs(b)) ** (2 if head == "m" else 1)
                if top > MAX_N:
                    raise BudgetError("schedule N=%d exceeds budget %d" % (top, MAX_N))
            else:
                a = b = int(tok)
        except ValueError:
            raise ConfigError("bad schedule token %r" % tok) from None
        if len(raw) + b - a + 1 > MAX_SCHEDULE_LEN:
            raise BudgetError("schedule has more than %d entries" % MAX_SCHEDULE_LEN)
        raw.extend(range(a, b + 1))
    if head == "m":
        values = [m * m for m in raw]
    else:
        values = raw
    below = next((v for v in values if v < 1), None)
    if below is not None:
        raise ConfigError("schedule N=%d is below 1" % below)
    return tuple(values)


@dataclass(frozen=True)
class ExperimentConfig:
    seq: SequenceSpec
    schedule: Tuple[int, ...]
    beta: float = 0.3
    alpha_samples: int = 100
    seed: int = 0
    delta: float = 0.25
    mc_samples: Optional[int] = None
    tol: float = 1e-6
    workers: int = 1

    def validate(self) -> None:
        if not self.schedule:
            raise ConfigError("schedule is empty")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError("beta must lie in [0, 1) so windows stay <= 1")
        if self.alpha_samples < 1:
            raise ConfigError("alpha_samples must be >= 1")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigError("delta must be finite and positive, got %r" % self.delta)
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.mc_samples is not None and self.mc_samples < 2:
            raise ConfigError("mc must be 0 (the exact route) or >= 2")
        if max(self.schedule) > MAX_N:
            raise BudgetError("schedule N=%d exceeds budget %d" % (max(self.schedule), MAX_N))
        if len(self.schedule) > MAX_SCHEDULE_LEN:
            raise BudgetError("schedule has more than %d entries" % MAX_SCHEDULE_LEN)
        if self.workers > MAX_WORKERS:
            raise BudgetError("workers=%d exceeds budget %d" % (self.workers, MAX_WORKERS))
        if self.alpha_samples > MAX_ALPHA_SAMPLES:
            raise BudgetError(
                "alpha_samples=%d exceeds budget %d" % (self.alpha_samples, MAX_ALPHA_SAMPLES)
            )
        if self.mc_samples is not None and self.mc_samples > MAX_MC_SAMPLES:
            raise BudgetError("mc=%d exceeds budget %d" % (self.mc_samples, MAX_MC_SAMPLES))
        # after the budget checks, so an overlong schedule is a BudgetError
        seen = set()
        for n_value in self.schedule:
            if n_value in seen:
                raise ConfigError("schedule repeats N=%d" % n_value)
            seen.add(n_value)

    @property
    def regime_flag(self) -> bool:
        """True when beta >= 1/2: outside the small-window variance regime."""
        return self.beta >= 0.5


def _parse_seq(text: str) -> SequenceSpec:
    try:
        return SequenceSpec.parse(text)
    except (ValueError, OSError) as exc:
        raise ConfigError("bad seq: %s" % exc) from None


# config key (also the CLI flag) -> (ExperimentConfig field, cast from text),
# in the order the values are checked; a ValueError from a cast is a bad value
CONFIG_KEYS = {
    "seq": ("seq", _parse_seq),
    "mc": ("mc_samples", lambda text: int(text) or None),  # 0 is the exact route
    "schedule": ("schedule", parse_schedule),
    "beta": ("beta", float),
    "alphas": ("alpha_samples", int),
    "seed": ("seed", int),
    "delta": ("delta", float),
    "tol": ("tol", float),
    "workers": ("workers", int),
}
_REQUIRED_KEYS = ("seq", "schedule")


def load_config_file(path: str) -> Dict[str, str]:
    """Flat key = value text; '#' comments and blank lines ignored."""
    out: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError("%s:%d: expected key = value" % (path, lineno))
            if key not in CONFIG_KEYS:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            out[key] = value.strip()
    return out


def config_value(mapping: Dict[str, str], key: str):
    """mapping[key] cast as CONFIG_KEYS says; absent or empty, the ExperimentConfig default."""
    name, cast = CONFIG_KEYS[key]
    text = mapping.get(key, "")
    if text == "" and key not in _REQUIRED_KEYS:
        return getattr(ExperimentConfig, name)
    try:
        return cast(text)
    except ValueError:
        raise ConfigError("bad value for %s: %r" % (key, text)) from None


def config_from_mapping(mapping: Dict[str, str]) -> ExperimentConfig:
    """Build a validated config from string key/value pairs."""
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(sorted(unknown)))
    for key in _REQUIRED_KEYS:
        if key not in mapping:
            raise ConfigError("config needs a %s entry" % key)
    values = {name: config_value(mapping, key) for key, (name, _) in CONFIG_KEYS.items()}
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# experiment rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentRow:
    seq_id: str
    N: int
    beta: float
    L: float
    alpha_hex: str
    sigma2: float
    sigma2_over_L: float
    r2_tent: float
    method: str

    @classmethod
    def from_fields(cls, fields: Sequence[str]) -> "ExperimentRow":
        if len(fields) != len(CSV_HEADER):
            raise ConfigError("row has %d fields, expected %d" % (len(fields), len(CSV_HEADER)))
        return cls(*(cast(text) for cast, text in zip(_ROW_CASTS, fields)))


CSV_HEADER = tuple(f.name for f in fields(ExperimentRow))
_ROW_CASTS = tuple(get_type_hints(ExperimentRow).values())  # str, int, float per field


def table_to_csv(header: Sequence[str], rows) -> str:
    """CSV text with CRLF line ends; floats as repr (shortest round trip),
    and the csv module writes None as an empty field and others by str()."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def rows_to_csv(rows: Sequence[ExperimentRow]) -> str:
    return table_to_csv(CSV_HEADER, [astuple(row) for row in rows])


def rows_from_csv(text: str) -> List[ExperimentRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise ConfigError("unexpected CSV header: %r" % (header,))
    return [ExperimentRow.from_fields(fields) for fields in reader if fields]


# ---------------------------------------------------------------------------
# variance experiment
# ---------------------------------------------------------------------------

def _generate(cfg: ExperimentConfig, n_value: int) -> IntegerSequence:
    """The first n_value terms of cfg.seq; a sequence that cannot be built is a ConfigError."""
    try:
        return generate_sequence(cfg.seq, n_value)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(
            "cannot generate %s at N=%d: %s" % (cfg.seq.label(), n_value, exc)
        ) from exc


def _task_alpha(seed: int, n_value: int, index: int) -> FixedPointReal:
    """Dilation factor for one (N, index) cell: stream keyed by (seed, N)."""
    return sample_alpha(join(n_value, seed), index)


def _variance_cell(
    seq: IntegerSequence,
    params: WindowParams,
    seed: int,
    index: int,
    mc_samples: Optional[int] = None,
) -> ExperimentRow:
    alpha = _task_alpha(seed, params.N, index)
    points = dilate_mod1(alpha, seq)
    if mc_samples is None:
        result = number_variance_exact(points, params)
    else:
        # per-cell center stream: distinct key for every (N, index) cell
        cell_key = join(params.N, seed) + index
        result = number_variance_montecarlo(points, params, mc_samples, cell_key)
    L = params.L
    # r2 via the exact algebraic identity with the tent pair correlation
    r2 = (result.sigma2 - L + L * L) / L
    return ExperimentRow(
        seq_id=seq.spec.label(),
        N=params.N,
        beta=params.beta,
        L=L,
        alpha_hex=alpha.to_hex(),
        sigma2=result.sigma2,
        sigma2_over_L=result.sigma2 / L,
        r2_tent=r2,
        method=result.method,
    )


def run_variance_experiment(
    cfg: ExperimentConfig,
) -> Tuple[List[ExperimentRow], Dict]:
    """Sweep (N in schedule) x (alpha_samples dilations); exact variance rows.

    Rows come back in (schedule order, sample index) order regardless of
    cfg.workers; values are worker-count independent because each cell
    is a pure function of (seed, N, index).
    """
    cfg.validate()
    sequences = {n_value: _generate(cfg, n_value) for n_value in cfg.schedule}
    params_by_n = {n_value: WindowParams.from_beta(n_value, cfg.beta) for n_value in sequences}

    tasks = [(n_value, idx) for n_value in cfg.schedule for idx in range(cfg.alpha_samples)]

    def work(task: Tuple[int, int]) -> ExperimentRow:
        n_value, idx = task
        try:
            return _variance_cell(
                sequences[n_value], params_by_n[n_value], cfg.seed, idx, cfg.mc_samples
            )
        except Exception as exc:
            # keep the error class, so the CLI still maps it to its exit code
            mapped = isinstance(exc, (NumvarError, ValueError, OverflowError))
            raise (type(exc) if mapped else RuntimeError)(
                "variance cell failed at N=%d sample=%d: %s" % (n_value, idx, exc)
            ) from exc

    if cfg.workers == 1:
        # kept serial: a one-thread pool lifts peak RSS at N = 10^6, 4 alphas, from 66.1 to 68.0 MB
        rows = list(map(work, tasks))
    else:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(work, tasks))  # pool.map preserves task order

    summary = _summarize(cfg, rows)
    return rows, summary


def _summarize(cfg: ExperimentConfig, rows: Sequence[ExperimentRow]) -> Dict:
    per_n = []
    for n_value in cfg.schedule:
        ratios = np.array([r.sigma2_over_L for r in rows if r.N == n_value])
        sigma2s = np.array([r.sigma2 for r in rows if r.N == n_value])
        L = WindowParams.from_beta(n_value, cfg.beta).L
        per_n.append(
            {
                "N": n_value,
                "L": L,
                "n_alpha": int(ratios.size),
                "median_ratio": float(np.median(ratios)),
                "mean_ratio": float(np.mean(ratios)),
                "deviation_fraction": float(np.mean(np.abs(sigma2s - L) > cfg.delta * L)),
                "delta": cfg.delta,
            }
        )
    return {
        "seq": cfg.seq.label(),
        "beta": cfg.beta,
        "seed": cfg.seed,
        "alpha_samples": cfg.alpha_samples,
        "outside_small_window_regime": cfg.regime_flag,
        "per_N": per_n,
    }


def summary_to_json(summary: Dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# energy sweep
# ---------------------------------------------------------------------------

def run_energy_sweep(cfg: ExperimentConfig) -> List[Dict]:
    """Additive energy along the schedule: scaling table for one family."""
    cfg.validate()
    if max(cfg.schedule) > MAX_ENERGY_N:
        raise BudgetError(
            "energy sweep takes O(N^2 log N) time (memory is bounded by the difference band); "
            "capped at N <= %d" % MAX_ENERGY_N
        )
    table = []
    for n_value in cfg.schedule:
        energy = additive_energy(_generate(cfg, n_value)).energy
        table.append(
            {
                "N": n_value,
                "energy": energy,
                "energy_over_N2": energy / n_value**2,
                # undefined at N = 1: null in JSON, an empty CSV field
                "log_energy_over_log_N": (
                    math.log(energy) / math.log(n_value) if n_value > 1 else None
                ),
                "difference_energy": energy - n_value**2,
            }
        )
    return table


def energy_table_to_csv(table: Sequence[Dict]) -> str:
    return table_to_csv(ENERGY_HEADER, [[row[h] for h in ENERGY_HEADER] for row in table])


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

_SUITE_NAMES = ("lemma1", "lemma2", "identity", "mean", "parseval")


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.Generator(Philox(key=seed % (1 << 128), counter=[0, 0, 0, tag]))


def _random_sequence(
    rng: np.random.Generator, n_value: int, degrees: int, lo: int, hi: int
) -> IntegerSequence:
    """A monomial of degree 1..degrees, or n_value distinct terms from [lo, hi) shuffled."""
    kind = int(rng.integers(0, degrees + 1))
    if kind < degrees:
        return generate_sequence(SequenceSpec.monomial(kind + 1), n_value)
    pool = rng.integers(lo, hi, size=3 * n_value + 8)
    vals = np.unique(pool)[:n_value]
    rng.shuffle(vals)
    return generate_sequence(SequenceSpec.custom([int(v) for v in vals]), n_value)


def _report(name: str, trials: int, failures: int, detail: str) -> Dict:
    """One suite's report, in one key order."""
    return dict(name=name, trials=trials, failures=failures, passed=failures == 0, detail=detail)


def _suite_lemma1(trials: int, seed: int) -> Dict:
    rng = _rng(seed, 0x4C31)
    failures = 0
    margins = []
    for _ in range(trials):
        a = float(10.0 ** rng.uniform(-3.0, 3.0))
        res = theory.lemma1_check(a)
        margins.append((res.bound - res.lhs) * a)  # scale-free margin
        failures += not res.ok
    return _report("lemma1", trials, failures, "worst scaled margin %.6f" % min(margins))


def _suite_lemma2(trials: int, seed: int) -> Dict:
    rng = _rng(seed, 0x4C32)
    failures = 0
    margins = []
    for _ in range(trials):
        w_r = int(rng.integers(1, 10**6 + 1)) * (1 if rng.integers(0, 2) else -1)
        w_s = int(rng.integers(1, 10**6 + 1)) * (1 if rng.integers(0, 2) else -1)
        n_value = int(10 ** rng.uniform(2.0, 6.0))
        beta = float(rng.uniform(0.0, 0.5))
        res = theory.lemma2_check(w_r, w_s, WindowParams.from_beta(n_value, beta))
        margins.append((res.bound - res.lhs) / res.bound)
        failures += not res.ok
    return _report("lemma2", trials, failures, "worst relative margin %.6f" % min(margins))


def _suite_identity(instances: int, seed: int) -> Dict:
    rng = _rng(seed, 0x4944)
    failures = 0
    errors = []
    f_tent = TestFunction.tent()
    for i in range(instances):
        n_value = int(rng.integers(2, 501))
        beta = float(rng.uniform(0.0, 0.5))
        seq = _random_sequence(rng, n_value, 3, -(10**7), 10**7)
        params = WindowParams.from_beta(n_value, beta)
        points = dilate_mod1(sample_alpha(seed, i), seq)
        sigma2 = number_variance_exact(points, params).sigma2
        r2 = pair_correlation_direct(points, params, f_tent).r2
        L = params.L
        err = abs(sigma2 - (L - L * L + L * r2))
        scale = max(1.0, L * L)
        errors.append(err / scale)
        failures += err > 1e-9 * scale
    return _report("identity", instances, failures, "worst scaled error %.3e" % max(errors))


# Prime dilation-grid size for the mean suite: differences of the test
# families stay below it, so the grid average carries no low-frequency
# spectral leakage at the 1e-4 comparison scale.
MEAN_SUITE_GRID = 6151


def _suite_mean(instances: int, seed: int) -> Dict:
    rng = _rng(seed, 0x4D45)
    failures = 0
    errors = []
    for _ in range(instances):
        n_value = int(rng.integers(4, 65))
        beta = float(rng.uniform(0.0, 0.5))
        seq = _random_sequence(rng, n_value, 2, -2047, 2048)
        params = WindowParams.from_beta(n_value, beta)
        grid_vals = theory.pair_correlation_grid(seq, params, MEAN_SUITE_GRID)
        mean = float(np.mean(grid_vals))
        expect = theory.mean_pair_correlation(params)
        rel = abs(mean - expect) / expect
        errors.append(rel)
        failures += rel > 1e-4
    return _report("mean", instances, failures, "worst relative error %.3e" % max(errors))


def _suite_parseval(seed: int, tol: float) -> Dict:
    seq = generate_sequence(SequenceSpec.custom([1, 2, 3, 5]), 4)
    params = WindowParams.from_beta(4, 0.3)
    via_parseval = theory.x_second_moment(seq, params, method="parseval", tol=min(tol, 1e-6))
    exact = theory.x_second_moment(seq, params, method="exact")
    rel = abs(via_parseval - exact) / max(exact, 1e-300)
    checks = [rel <= 1e-3]

    # closure: grid quadrature of R2^2 against mean^2 + coefficient-sum
    # moment.  The grid lands on exact rationals where R2 spikes, so the
    # quadrature may exceed the spectral reconstruction by a small
    # grid-resolution excess, but never fall materially below it.
    rng = _rng(seed, 0x5053)
    n_value = 24
    seq2 = generate_sequence(SequenceSpec.monomial(2), n_value)
    params2 = WindowParams.from_beta(n_value, float(rng.uniform(0.2, 0.45)))
    grid_vals = theory.pair_correlation_grid(seq2, params2, 4096)
    quad_second = float(np.mean(grid_vals**2))
    mean2 = theory.mean_pair_correlation(params2) ** 2
    moment = theory.x_second_moment(seq2, params2, method="parseval", tol=1e-4)
    gap = (quad_second - (mean2 + moment)) / quad_second
    checks.append(-0.01 <= gap <= 0.05)
    return _report(
        "parseval", 2, checks.count(False), "dual-route rel %.3e, closure gap %.3e" % (rel, gap)
    )


def run_verification_suite(
    selection: Sequence[str] = ("all",),
    tol: float = 1e-6,
    seed: int = 0,
    trials: int = 10000,
    instances: int = 200,
) -> Dict:
    """Run the named analytic-check suites; machine-readable report.

    selection: subset of {lemma1, lemma2, identity, mean, parseval} or
    ("all",).  trials (at most MAX_TRIALS) scales the lemma sweeps,
    instances the identity suite (the mean suite uses min(instances, 20)).
    """
    wanted = set(_SUITE_NAMES) if "all" in selection else set(selection)
    unknown = wanted - set(_SUITE_NAMES)
    if unknown:
        raise ConfigError("unknown suites: %s" % ", ".join(sorted(unknown)))
    for name, count in (("trials", trials), ("instances", instances)):
        if count < 1:
            raise ConfigError("%s must be >= 1, got %d" % (name, count))
    if trials > MAX_TRIALS:
        raise BudgetError("trials=%d exceeds budget %d" % (trials, MAX_TRIALS))
    if tol <= 0 or not math.isfinite(tol):
        raise BudgetError(
            "tol must be positive: the parseval suite's truncated sum would "
            "need infinitely many terms"
        )
    # looked up when called, so each suite can be swapped out by name
    runs = {
        "lemma1": lambda: _suite_lemma1(trials, seed),
        "lemma2": lambda: _suite_lemma2(trials, seed),
        "identity": lambda: _suite_identity(instances, seed),
        "mean": lambda: _suite_mean(min(instances, 20), seed),
        "parseval": lambda: _suite_parseval(seed, tol),
    }
    suites = [runs[name]() for name in _SUITE_NAMES if name in wanted]
    return {
        "passed": all(s["passed"] for s in suites),
        "seed": seed,
        "tol": tol,
        "suites": suites,
    }
