"""Command-line front end.

Subcommands: variance (experiment sweep), paircorr (both pair
correlation routes), energy (scaling sweep), verify (analytic check
suites), coeffs (Fourier coefficients of the dilation-averaged pair
correlation).  Exit codes: 0 success, 1 verification failure, 2 bad
configuration, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, astuple
from typing import Dict, List, Optional

from .errors import BudgetError, ConfigError, NumvarError
from .harness import (
    CONFIG_KEYS,
    MAX_KMAX,
    ExperimentConfig,
    config_from_mapping,
    config_value,
    energy_table_to_csv,
    load_config_file,
    rows_to_csv,
    run_energy_sweep,
    run_variance_experiment,
    run_verification_suite,
    summary_to_json,
    table_to_csv,
)
from .harness import _task_alpha
from .sequences import dilate_mod1, generate_sequence
from .stats import (
    TestFunction,
    WindowParams,
    pair_correlation_direct,
    pair_correlation_fourier,
)
from .theory import fourier_coefficient


_FLAGS = {
    "seq": dict(help="sequence spec: monomial:d=2 | lacunary:base=2 | custom:FILE"),
    "beta": dict(type=float, help="window exponent, L = N^beta"),
    "schedule": dict(help="N schedule: m=A..B (N = m^2) or n=N1,N2,..."),
    "alphas": dict(type=int, help="dilation samples per N"),
    "delta": dict(type=float, help="deviation threshold (fraction of L)"),
    "tol": dict(type=float, help="spectral truncation tolerance"),
    "mc": dict(type=int, help="Monte Carlo window samples (0 = exact route)"),
    "workers": dict(type=int, help="worker threads"),
    "format": dict(choices=("csv", "json"), help="output format"),
    "suites": dict(default="all", help="comma list: lemma1,lemma2,identity,mean,parseval"),
    "trials": dict(type=int, default=10000, help="trials for the lemma sweeps"),
    "kmax": dict(type=int, default=32, help="emit coefficients for k = 1..kmax"),
    # on every subcommand, so a script may append --seed to any command
    "seed": dict(type=int, help="experiment seed"),
    "config": dict(help="key = value config file; flags override"),
    "out": dict(help="output path (default stdout)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numvar",
        description="Fine-scale statistics of dilated integer sequences mod 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, desc, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=desc)
        for flag in flags + ("seed", "config", "out"):
            p.add_argument("--" + flag, **_FLAGS[flag])
    return parser


def _merge_config(args: argparse.Namespace, defaults: Dict[str, str]) -> ExperimentConfig:
    mapping = dict(defaults)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            mapping[key] = str(value)
    return config_from_mapping(mapping)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        # newline='' keeps CSV's \r\n intact on every platform
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_variance(args: argparse.Namespace, defaults: Dict[str, str]) -> int:
    cfg = _merge_config(args, defaults)
    rows, summary = run_variance_experiment(cfg)
    if (args.format or "csv") == "json":
        _emit(summary_to_json(summary), args.out)
    else:
        _emit(rows_to_csv(rows), args.out)
    return 0


def _cmd_paircorr(args: argparse.Namespace, defaults: Dict[str, str]) -> int:
    cfg = _merge_config(args, defaults)
    f_tent = TestFunction.tent()
    records: List[Dict] = []
    for n_value in cfg.schedule:
        seq = generate_sequence(cfg.seq, n_value)
        params = WindowParams.from_beta(n_value, cfg.beta)
        for idx in range(cfg.alpha_samples):
            alpha = _task_alpha(cfg.seed, n_value, idx)
            points = dilate_mod1(alpha, seq)
            direct = pair_correlation_direct(points, params, f_tent)
            spectral = pair_correlation_fourier(seq, alpha, params, cfg.tol)
            records.append(
                {
                    "seq_id": seq.spec.label(),
                    "N": n_value,
                    "beta": cfg.beta,
                    "L": params.L,
                    "alpha_hex": alpha.to_hex(),
                    "r2_direct": direct.r2,
                    "r2_fourier": spectral.r2,
                    "truncation_bound": spectral.truncation_bound,
                }
            )
    if (args.format or "csv") == "json":
        _emit(json.dumps(records, indent=2) + "\n", args.out)
    else:
        _emit(table_to_csv(list(records[0]), [rec.values() for rec in records]), args.out)
    return 0


def _cmd_energy(args: argparse.Namespace, defaults: Dict[str, str]) -> int:
    cfg = _merge_config(args, defaults)
    table = run_energy_sweep(cfg)
    if (args.format or "csv") == "json":
        _emit(json.dumps(table, indent=2) + "\n", args.out)
    else:
        _emit(energy_table_to_csv(table), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace, defaults: Dict[str, str]) -> int:
    selection = tuple(s.strip() for s in args.suites.split(",") if s.strip())
    tol = args.tol if args.tol is not None else config_value(defaults, "tol")
    seed = args.seed if args.seed is not None else config_value(defaults, "seed")
    report = run_verification_suite(
        selection=selection or ("all",), tol=tol, seed=seed, trials=args.trials
    )
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if report["passed"] else 1


def _cmd_coeffs(args: argparse.Namespace, defaults: Dict[str, str]) -> int:
    cfg = _merge_config(args, defaults)
    if args.kmax < 1:
        raise ConfigError("--kmax must be >= 1")
    if args.kmax > MAX_KMAX:
        raise BudgetError("--kmax %d exceeds budget %d" % (args.kmax, MAX_KMAX))
    if len(cfg.schedule) != 1:
        raise ConfigError(
            "coeffs takes one N, the schedule gives %d: %s"
            % (len(cfg.schedule), ",".join(map(str, cfg.schedule)))
        )
    n_value = cfg.schedule[0]
    seq = generate_sequence(cfg.seq, n_value)
    params = WindowParams.from_beta(n_value, cfg.beta)
    coeffs = [fourier_coefficient(seq, k, params) for k in range(1, args.kmax + 1)]
    if (args.format or "csv") == "json":
        _emit(json.dumps([asdict(c) for c in coeffs], indent=2) + "\n", args.out)
    else:
        _emit(table_to_csv(("k", "value", "N", "L"), [astuple(c) for c in coeffs]), args.out)
    return 0


# a subcommand takes only the flags it reads, plus --seed, --config and --out
_COMMANDS = {
    "variance": (_cmd_variance, "number variance sweep over a schedule of N",
                 ("seq", "beta", "schedule", "alphas", "delta", "mc", "workers", "format")),
    "paircorr": (_cmd_paircorr, "pair correlation by direct and spectral routes",
                 ("seq", "beta", "schedule", "alphas", "tol", "format")),
    "energy": (_cmd_energy, "additive energy scaling along a schedule",
               ("seq", "schedule", "format")),
    "verify": (_cmd_verify, "analytic verification suites", ("suites", "trials", "tol")),
    "coeffs": (_cmd_coeffs, "Fourier coefficients of the averaged pair correlation",
               ("seq", "beta", "schedule", "kmax", "format")),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        defaults = load_config_file(args.config) if args.config else {}
        return _COMMANDS[args.command][0](args, defaults)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 3
    except NumvarError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (OverflowError, ValueError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
