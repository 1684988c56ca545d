"""Command-line interface: subcommands, exit codes, formats, config files.

Runs main() in process so stdout/stderr and exit codes can be asserted
cheaply; one subprocess smoke test confirms the installed entry point.
"""

import dataclasses
import json
import math
import subprocess
import sys

import pytest

import numvar.cli as cli
import numvar.harness as harness
from numvar import ConfigError, ExperimentConfig, WindowError, rows_from_csv
from numvar.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# variance
# ---------------------------------------------------------------------------

def test_variance_csv_stdout(capsys):
    code, out, err = run_cli(
        capsys, "variance", "--seq", "monomial:d=2",
        "--schedule", "n=30", "--alphas", "3",
    )
    assert code == 0 and err == ""
    rows = rows_from_csv(out)
    assert len(rows) == 3
    assert all(r.N == 30 and r.method == "exact_tent" for r in rows)


def test_variance_json_summary(capsys):
    code, out, _ = run_cli(
        capsys, "variance", "--seq", "monomial:d=2",
        "--schedule", "n=30", "--alphas", "3", "--format", "json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["per_N"][0]["N"] == 30
    assert summary["per_N"][0]["n_alpha"] == 3


def test_variance_out_file_preserves_crlf(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "variance", "--seq", "monomial:d=2",
        "--schedule", "n=20", "--alphas", "2", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    data = out_path.read_bytes()
    assert data.count(b"\r\n") == 3
    assert rows_from_csv(data.decode("utf-8"))[0].N == 20


def test_variance_montecarlo_mode(capsys):
    code, out, _ = run_cli(
        capsys, "variance", "--seq", "monomial:d=2",
        "--schedule", "n=25", "--alphas", "2", "--mc", "500",
    )
    assert code == 0
    assert all(r.method == "monte_carlo" for r in rows_from_csv(out))


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "seq = monomial:d=2\nschedule = n=30\nalphas = 2\nbeta = 0.45\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "variance", "--config", str(cfg), "--beta", "0.25",
    )
    assert code == 0
    assert all(r.beta == 0.25 for r in rows_from_csv(out))  # flag wins


# per config key: a config-file value and a flag value, both unlike the default
PRECEDENCE_VALUES = {
    "seq": ("monomial:d=3", "lacunary:base=3"),
    "mc": ("100", "200"),
    "schedule": ("n=10", "n=20"),
    "beta": ("0.2", "0.4"),
    "alphas": ("7", "9"),
    "seed": ("3", "5"),
    "delta": ("0.5", "0.125"),
    "tol": ("0.001", "0.0001"),
    "workers": ("2", "3"),
}


@pytest.mark.parametrize("key", list(harness.CONFIG_KEYS))
def test_config_precedence_flag_then_file_then_default(tmp_path, key):
    # the CLI flag beats the config file, which beats the ExperimentConfig
    # default; seq and schedule have no default and must be given
    name, cast = harness.CONFIG_KEYS[key]
    file_text, flag_text = PRECEDENCE_VALUES[key]
    command = next(c for c, (_, _, flags) in cli._COMMANDS.items() if key in flags + ("seed",))
    base = {k: v for k, v in (("seq", "monomial:d=2"), ("schedule", "n=30")) if k != key}
    path = tmp_path / "exp.cfg"

    def merged(entries, argv):
        path.write_text("".join("%s = %s\n" % kv for kv in entries.items()), encoding="utf-8")
        args = cli._build_parser().parse_args([command, *argv])
        return getattr(cli._merge_config(args, harness.load_config_file(str(path))), name)

    with_file = dict(base, **{key: file_text})
    assert merged(with_file, ["--" + key, flag_text]) == cast(flag_text)
    assert merged(with_file, []) == cast(file_text)
    field = {f.name: f for f in dataclasses.fields(ExperimentConfig)}[name]
    if field.default is dataclasses.MISSING:
        with pytest.raises(ConfigError, match="needs a %s entry" % key):
            merged(base, [])
    else:
        assert field.default not in (cast(file_text), cast(flag_text))
        assert merged(base, []) == field.default


def test_custom_sequence_file(tmp_path, capsys):
    seq_file = tmp_path / "terms.txt"
    seq_file.write_text("# hand-picked terms\n3\n1\n4\n15\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "variance", "--seq", "custom:%s" % seq_file,
        "--schedule", "n=4", "--alphas", "2",
    )
    assert code == 0
    assert all(r.seq_id.startswith("custom:") for r in rows_from_csv(out))


# ---------------------------------------------------------------------------
# paircorr
# ---------------------------------------------------------------------------

def test_paircorr_routes_agree(capsys):
    code, out, _ = run_cli(
        capsys, "paircorr", "--seq", "monomial:d=2",
        "--schedule", "n=32", "--alphas", "2", "--tol", "1e-3",
        "--format", "json",
    )
    assert code == 0
    records = json.loads(out)
    assert len(records) == 2
    for rec in records:
        assert abs(rec["r2_direct"] - rec["r2_fourier"]) <= 1e-3 + 1e-9
        assert rec["truncation_bound"] <= 1e-3


def test_paircorr_csv_header(capsys):
    code, out, _ = run_cli(
        capsys, "paircorr", "--seq", "monomial:d=2",
        "--schedule", "n=16", "--alphas", "1", "--tol", "1e-3",
    )
    assert code == 0
    assert out.split("\r\n")[0] == (
        "seq_id,N,beta,L,alpha_hex,r2_direct,r2_fourier,truncation_bound"
    )


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_energy_table(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--seq", "lacunary:base=2",
        "--schedule", "n=8,16,32", "--format", "json",
    )
    assert code == 0
    table = json.loads(out)
    assert [row["energy"] for row in table] == [120, 496, 2016]  # 2N^2 - N


def test_energy_at_one_term_writes_valid_json_and_csv(capsys):
    # log E / log N is undefined at N = 1: null in JSON (NaN is not
    # JSON), an empty field in CSV
    code, out, _ = run_cli(
        capsys, "energy", "--seq", "monomial:d=2", "--schedule", "n=1,4", "--format", "json",
    )
    assert code == 0

    def reject(name):
        raise AssertionError("non-JSON constant %s" % name)

    table = json.loads(out, parse_constant=reject)
    assert [row["log_energy_over_log_N"] for row in table] == [None, math.log(28) / math.log(4)]
    code, out, _ = run_cli(capsys, "energy", "--seq", "monomial:d=2", "--schedule", "n=1,4")
    assert code == 0
    assert out.split("\r\n")[1:3] == ["1,1,1.0,,0", "4,28,1.75,%r,12" % (math.log(28) / math.log(4))]


def test_energy_budget_exit_code(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("sequence generated before the budget check")

    monkeypatch.setattr(harness, "generate_sequence", never)
    code, _, err = run_cli(
        capsys, "energy", "--seq", "monomial:d=2", "--schedule", "n=64,9000",
    )
    assert code == 3
    assert "budget" in err


def test_energy_generation_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "energy", "--seq", "lacunary:base=2", "--schedule", "n=100",
    )
    assert code == 2
    assert "config error" in err


def test_repeated_schedule_entry_is_config_error(capsys, monkeypatch):
    # a repeated N used to run, summarise and print every row twice
    def never(*args):
        raise AssertionError("sequence generated before the schedule check")

    monkeypatch.setattr(harness, "generate_sequence", never)
    for schedule, n_value in (("n=100,100", 100), ("m=-3,3", 9)):
        code, out, err = run_cli(
            capsys, "variance", "--seq", "monomial:d=2", "--schedule", schedule,
            "--alphas", "2", "--format", "json",
        )
        assert (code, out) == (2, "")
        assert "config error" in err and "repeats N=%d" % n_value in err


def test_bad_mc_exit_codes(capsys, monkeypatch):
    # checked before any sequence is generated: -5 and 1 are config
    # errors (exit 2), above the cap a budget error (exit 3)
    def never(*args):
        raise AssertionError("sequence generated before the mc check")

    monkeypatch.setattr(harness, "generate_sequence", never)
    for mc, code_want, word in (("-5", 2, "config error"), ("1", 2, "config error"),
                                (str(harness.MAX_MC_SAMPLES + 1), 3, "budget")):
        code, out, err = run_cli(
            capsys, "variance", "--seq", "monomial:d=2", "--schedule", "n=25", "--mc", mc,
        )
        assert (code, out) == (code_want, "")
        assert word in err and "mc" in err


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_non_finite_delta_is_config_error(capsys, monkeypatch, delta):
    # a NaN delta once exited 0 with "delta": NaN, which is not JSON
    def never(*args):
        raise AssertionError("sequence generated before the delta check")

    monkeypatch.setattr(harness, "generate_sequence", never)
    code, out, err = run_cli(
        capsys, "variance", "--seq", "monomial:d=2", "--schedule", "n=25",
        "--delta", delta, "--format", "json",
    )
    assert (code, out) == (2, "")
    assert "config error" in err and "delta" in err


def test_failed_cell_keeps_exit_code(capsys, monkeypatch):
    # a cell error reaches main() as its own class, with N and sample
    def boom(*args):
        raise WindowError("synthetic fault")

    monkeypatch.setattr(harness, "number_variance_exact", boom)
    code, out, err = run_cli(
        capsys, "variance", "--seq", "monomial:d=2", "--schedule", "n=25", "--alphas", "2",
    )
    assert (code, out) == (2, "")
    assert "N=25 sample=0: synthetic fault" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suites", "identity", "--seed", "4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert report["suites"][0]["name"] == "identity"


def test_verify_bad_suite_name(capsys):
    code, _, err = run_cli(capsys, "verify", "--suites", "nope")
    assert code == 2 and "config error" in err


def test_verify_zero_tol_budget(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suites", "identity", "--tol", "0",
    )
    assert code == 3 and "budget" in err


def test_verify_trials_below_one_fails_fast(capsys, monkeypatch):
    # rejected before any suite runs, so no "worst ... inf" report exits 0
    def never(*args):
        raise AssertionError("suite ran before the trials check")

    monkeypatch.setattr(harness, "_suite_lemma1", never)
    monkeypatch.setattr(harness, "_suite_lemma2", never)
    for trials in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "verify", "--suites", "lemma1,lemma2", "--trials", trials,
        )
        assert (code, out) == (2, "")
        assert "config error" in err and "trials" in err


def test_verify_trials_budget_fails_before_any_suite(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("suite ran before the trials budget check")

    monkeypatch.setattr(harness, "_suite_lemma1", never)
    code, out, err = run_cli(
        capsys, "verify", "--suites", "lemma1", "--trials", str(harness.MAX_TRIALS + 1),
    )
    assert (code, out) == (3, "")
    assert "budget" in err and "trials" in err


def test_verify_reads_config_values_like_every_command(tmp_path, capsys, monkeypatch):
    # tol and seed go through CONFIG_KEYS: empty is the ExperimentConfig
    # default, as for paircorr, and a bad value names its key
    runs = []

    def suite(selection, tol, seed, trials):
        runs.append((tol, seed))
        return {"passed": True}

    monkeypatch.setattr(cli, "run_verification_suite", suite)
    path = tmp_path / "verify.cfg"
    path.write_text("tol =\nseed = 4\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "verify", "--config", str(path), "--suites", "lemma1")
    assert (code, runs) == (0, [(ExperimentConfig.tol, 4)])
    path.write_text("tol = abc\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--suites", "lemma1")
    assert (code, out, runs) == (2, "", [(ExperimentConfig.tol, 4)])
    assert err == "config error: bad value for tol: 'abc'\n"


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------

def test_coeffs_output(capsys):
    code, out, _ = run_cli(
        capsys, "coeffs", "--seq", "monomial:d=2", "--schedule", "n=12",
        "--kmax", "5", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [c["k"] for c in payload] == [1, 2, 3, 4, 5]
    assert all(c["N"] == 12 for c in payload)


def test_coeffs_kmax_validated(capsys, monkeypatch):
    # both checked before any work: below 1 a config error, above the cap
    # a budget error
    def never(*args):
        raise AssertionError("work started before the kmax check")

    monkeypatch.setattr(cli, "generate_sequence", never)
    monkeypatch.setattr(cli, "fourier_coefficient", never)
    for kmax, code_want, word in (("0", 2, "config error"),
                                  (str(harness.MAX_KMAX + 1), 3, "budget")):
        code, out, err = run_cli(
            capsys, "coeffs", "--seq", "monomial:d=2", "--schedule", "n=1024",
            "--kmax", kmax,
        )
        assert (code, out) == (code_want, "")
        assert word in err and "kmax" in err


def test_coeffs_rejects_several_n(capsys, monkeypatch):
    # every N after the first used to be dropped without a word
    def never(*args):
        raise AssertionError("sequence generated before the schedule check")

    monkeypatch.setattr(cli, "generate_sequence", never)
    code, out, err = run_cli(
        capsys, "coeffs", "--seq", "monomial:d=2", "--schedule", "n=64,128",
    )
    assert (code, out) == (2, "")
    assert "config error" in err and "64,128" in err


# ---------------------------------------------------------------------------
# shared error handling
# ---------------------------------------------------------------------------

def test_missing_schedule_is_config_error(capsys):
    code, _, err = run_cli(capsys, "variance", "--seq", "monomial:d=2")
    assert code == 2 and "config error" in err


@pytest.mark.parametrize("argv", [
    ("verify", "--suites", "identity", "--format", "csv"),  # verify only writes JSON
    ("coeffs", "--seq", "monomial:d=2", "--schedule", "n=12", "--mc", "3"),
])
def test_flag_the_subcommand_does_not_read_is_usage_error(capsys, argv):
    # such a flag used to be parsed and then ignored, with exit 0
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_every_subcommand_takes_seed(capsys):
    for argv in (("energy", "--seq", "lacunary:base=2", "--schedule", "n=8"),
                 ("coeffs", "--seq", "monomial:d=2", "--schedule", "n=12", "--kmax", "1")):
        code, out, _ = run_cli(capsys, *argv, "--seed", "7")
        assert code == 0 and out


def test_missing_config_file_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "variance", "--config", "/nonexistent/path.cfg",
    )
    assert code == 2


def test_overflowing_sequence_is_config_error(capsys):
    code, _, err = run_cli(
        capsys, "variance", "--seq", "lacunary:base=2", "--schedule", "n=256",
    )
    assert code == 2 and "config error" in err
    code, _, err = run_cli(
        capsys, "variance", "--seq", "lacunary:base=2", "--schedule", "n=20000",
    )
    assert code == 2 and "exact-dilation bound 2**62" in err and len(err) < 200


def test_int64_minimum_term_is_config_error(capsys, tmp_path):
    # -2**63 is outside |a| < 2**62; variance used to print a row for it,
    # and energy failed inside numpy
    seq_file = tmp_path / "terms.txt"
    seq_file.write_text("%d\n5\n7\n" % -(2**63), encoding="utf-8")
    for command in ("variance", "energy"):
        code, out, err = run_cli(
            capsys, command, "--seq", "custom:%s" % seq_file, "--schedule", "n=3",
        )
        assert code == 2 and "exact-dilation bound 2**62" in err and not out


def test_lacunary_negative_offset_is_config_error(capsys):
    code, out, err = run_cli(
        capsys, "variance", "--seq", "lacunary:base=2,offset=-2", "--schedule", "n=4",
    )
    assert code == 2 and "config error" in err and "offset -2" in err and out == ""


def test_installed_entry_point_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "numvar.cli"],
        capture_output=True,
        text=True,
    )
    # argparse usage error for the missing subcommand
    assert proc.returncode == 2
    proc = subprocess.run(
        [
            "numvar", "energy", "--seq", "monomial:d=2",
            "--schedule", "n=4,8",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("N,")
