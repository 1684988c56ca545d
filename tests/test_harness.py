"""Experiment harness: schedules, configs, CSV rows, determinism, suites.

Determinism is the core contract here: every cell of a sweep is a pure
function of (seed, N, sample index), so the emitted CSV must be byte
identical no matter how many worker threads split the loop.
"""

import json
import math

import numpy as np
import pytest

import numvar.harness as harness
from numvar import (
    BudgetError,
    ConfigError,
    ExperimentConfig,
    SequenceSpec,
    WindowParams,
    additive_energy,
    config_from_mapping,
    generate_sequence,
    load_config_file,
    parse_schedule,
    rows_from_csv,
    rows_to_csv,
    run_energy_sweep,
    run_variance_experiment,
    run_verification_suite,
    summary_to_json,
)
from numvar.harness import ExperimentRow, energy_table_to_csv


def make_config(**kw):
    base = dict(
        seq=SequenceSpec.monomial(2),
        schedule=(30,),
        beta=0.3,
        alpha_samples=4,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_schedule_square_range():
    assert parse_schedule("m=100..102") == (10000, 10201, 10404)


def test_schedule_square_list():
    assert parse_schedule("m=100,224,317") == (10000, 50176, 100489)


def test_schedule_explicit_and_mixed():
    assert parse_schedule("n=1000,2000") == (1000, 2000)
    assert parse_schedule("n=5..8") == (5, 6, 7, 8)
    assert parse_schedule("n=3, 10..12, 20") == (3, 10, 11, 12, 20)
    assert parse_schedule(" m = 4..5 ") == (16, 25)


def test_schedule_rejects_malformed():
    for bad in ("x=5", "m=", "m=5..3", "m=a..b", "n=0", "", "5..8", "n=1.5"):
        with pytest.raises(ConfigError):
            parse_schedule(bad)


def test_schedule_names_first_value_below_one(capsys):
    import numvar.cli

    for text, n_value in (("n=0,5", 0), ("n=-3,4", -3), ("n=4,-2..1", -2), ("m=2,0", 0)):
        with pytest.raises(ConfigError, match=r"^schedule N=%d is below 1$" % n_value):
            parse_schedule(text)
    code = numvar.cli.main(["variance", "--seq", "monomial:d=2", "--schedule", "n=0,5"])
    assert code == 2
    assert "schedule N=0 is below 1" in capsys.readouterr().err


def test_schedule_range_over_budget_fails_before_expanding():
    for text in ("n=1..2000000", "m=1..1001", "n=5, 1..2000000", "m=-1001..3"):
        with pytest.raises(BudgetError, match="exceeds budget"):
            parse_schedule(text)
    assert parse_schedule("m=998..1000")[-1] == harness.MAX_N


def test_schedule_length_budget_fails_before_expanding():
    # every range is within MAX_N, but together they are too many entries
    for text in ("n=" + ",".join(["1..1000000"] * 2), "n=1..10000,1", "m=" + ",".join(["1..1000"] * 11)):
        with pytest.raises(BudgetError, match="entries"):
            parse_schedule(text)
    assert len(parse_schedule("n=1..10000")) == harness.MAX_SCHEDULE_LEN
    assert len(parse_schedule("m=1..1000")) == 1000
    with pytest.raises(BudgetError, match="entries"):
        make_config(schedule=(1,) * (harness.MAX_SCHEDULE_LEN + 1)).validate()


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    with pytest.raises(ConfigError):
        make_config(beta=1.0).validate()
    with pytest.raises(ConfigError):
        make_config(beta=-0.1).validate()
    with pytest.raises(ConfigError):
        make_config(alpha_samples=0).validate()
    for delta in (0.0, math.nan, math.inf):
        with pytest.raises(ConfigError, match="delta"):
            make_config(delta=delta).validate()
    with pytest.raises(ConfigError):
        make_config(workers=0).validate()
    with pytest.raises(ConfigError):
        make_config(schedule=()).validate()
    with pytest.raises(ConfigError, match="repeats N=4"):
        make_config(schedule=(4, 9, 4)).validate()


def test_config_budget_errors():
    with pytest.raises(BudgetError):
        make_config(schedule=(10**6 + 1,)).validate()
    with pytest.raises(BudgetError):
        make_config(alpha_samples=10**4 + 1).validate()
    with pytest.raises(BudgetError, match="workers"):
        make_config(workers=harness.MAX_WORKERS + 1).validate()
    make_config(workers=harness.MAX_WORKERS).validate()


def test_regime_flag():
    assert not make_config(beta=0.49).regime_flag
    assert make_config(beta=0.5).regime_flag
    assert make_config(beta=0.5).validate() is None  # allowed, just flagged


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "seq = monomial:d=2\n"
        "schedule = n=30,40\n"
        "beta = 0.4\n"
        "alphas = 7\n"
        "mc = 0\n"
        "workers = 2\n",
        encoding="utf-8",
    )
    cfg = config_from_mapping(load_config_file(str(path)))
    assert cfg.schedule == (30, 40)
    assert cfg.beta == 0.4
    assert cfg.alpha_samples == 7
    assert cfg.mc_samples is None
    assert cfg.workers == 2


def test_config_file_errors(tmp_path):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("seq = monomial:d=2\nbogus = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"a\.cfg:2"):
        load_config_file(str(bad_key))
    no_eq = tmp_path / "b.cfg"
    no_eq.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"b\.cfg:1"):
        load_config_file(str(no_eq))
    eps = tmp_path / "c.cfg"
    eps.write_text("seq = monomial:d=2\nepsilon = 0.1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"c\.cfg:2: unknown key 'epsilon'"):
        load_config_file(str(eps))


def test_config_from_mapping_errors():
    with pytest.raises(ConfigError, match="seq"):
        config_from_mapping({"schedule": "n=10"})
    with pytest.raises(ConfigError, match="schedule"):
        config_from_mapping({"seq": "monomial:d=2"})
    with pytest.raises(ConfigError, match="bad seq"):
        config_from_mapping({"seq": "monomial:d=0", "schedule": "n=10"})
    with pytest.raises(ConfigError, match="bad value for beta"):
        config_from_mapping(
            {"seq": "monomial:d=2", "schedule": "n=10", "beta": "fast"}
        )
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_mapping(
            {"seq": "monomial:d=2", "schedule": "n=10", "extra": "1"}
        )


def test_config_mapping_mc_zero_means_exact():
    cfg = config_from_mapping(
        {"seq": "monomial:d=2", "schedule": "n=10", "mc": "0"}
    )
    assert cfg.mc_samples is None
    cfg = config_from_mapping(
        {"seq": "monomial:d=2", "schedule": "n=10", "mc": "500"}
    )
    assert cfg.mc_samples == 500


def test_bad_mc_fails_before_generation(monkeypatch):
    # mc < 0 and mc = 1 are config errors, mc above the cap a budget
    # error, all raised before any sequence is generated
    def never(*args):
        raise AssertionError("sequence generated before the mc check")

    monkeypatch.setattr(harness, "generate_sequence", never)
    base = {"seq": "monomial:d=2", "schedule": "n=10"}
    for mc in ("-5", "1"):
        with pytest.raises(ConfigError, match="mc"):
            config_from_mapping(dict(base, mc=mc))
        with pytest.raises(ConfigError, match="mc"):
            run_variance_experiment(make_config(mc_samples=int(mc)))
    too_many = str(harness.MAX_MC_SAMPLES + 1)
    with pytest.raises(BudgetError, match="mc"):
        config_from_mapping(dict(base, mc=too_many))
    with pytest.raises(BudgetError, match="mc"):
        run_variance_experiment(make_config(mc_samples=int(too_many)))
    at_cap = config_from_mapping(dict(base, mc=str(harness.MAX_MC_SAMPLES)))
    assert at_cap.mc_samples == harness.MAX_MC_SAMPLES


# ---------------------------------------------------------------------------
# experiment rows and CSV
# ---------------------------------------------------------------------------

def test_experiment_rows_well_formed():
    cfg = make_config(schedule=(20, 30), alpha_samples=3)
    rows, _ = run_variance_experiment(cfg)
    assert len(rows) == 6
    assert [r.N for r in rows] == [20, 20, 20, 30, 30, 30]
    for row in rows:
        params = WindowParams.from_beta(row.N, row.beta)
        assert row.seq_id == "monomial:d=2"
        assert row.L == params.L
        assert row.method == "exact_tent"
        assert len(row.alpha_hex) == 32
        assert row.alpha_hex == row.alpha_hex.lower()
        assert row.sigma2_over_L == row.sigma2 / row.L
        # algebraic identity linking the two reported statistics
        assert math.isclose(
            row.r2_tent, (row.sigma2 - row.L + row.L**2) / row.L, rel_tol=1e-15
        )


def test_distinct_alphas_across_cells():
    cfg = make_config(schedule=(20, 30), alpha_samples=5)
    rows, _ = run_variance_experiment(cfg)
    assert len({r.alpha_hex for r in rows}) == len(rows)


def test_csv_round_trip_and_line_endings():
    cfg = make_config(alpha_samples=5)
    rows, _ = run_variance_experiment(cfg)
    text = rows_to_csv(rows)
    assert text.count("\r\n") == len(rows) + 1
    assert rows_from_csv(text) == rows


def test_table_to_csv_formats_fields():
    text = harness.table_to_csv(("a", "b", "c"), [(1, 0.1, "x,y"), (2, 1e-300, "z")])
    assert text == 'a,b,c\r\n1,0.1,"x,y"\r\n2,1e-300,z\r\n'


def test_csv_header_checked():
    with pytest.raises(ConfigError):
        rows_from_csv("a,b,c\r\n1,2,3\r\n")


def test_csv_row_width_checked():
    with pytest.raises(ConfigError):
        ExperimentRow.from_fields(("only", "four", "fields", "here"))


def test_worker_count_does_not_change_bytes_exact():
    one = rows_to_csv(run_variance_experiment(make_config(alpha_samples=6))[0])
    three = rows_to_csv(
        run_variance_experiment(make_config(alpha_samples=6, workers=3))[0]
    )
    assert one == three


def test_worker_count_does_not_change_bytes_montecarlo():
    # cells with more centers than points (N = 30) and fewer (N = 6000)
    cfg = dict(schedule=(30, 6000), alpha_samples=3, mc_samples=5000)
    one = rows_to_csv(run_variance_experiment(make_config(**cfg))[0])
    three = rows_to_csv(run_variance_experiment(make_config(workers=3, **cfg))[0])
    assert one == three
    assert one.count("monte_carlo") == 6


def test_rerun_reproduces_rows():
    cfg = make_config(alpha_samples=4, seed=11)
    assert run_variance_experiment(cfg)[0] == run_variance_experiment(cfg)[0]


def test_seed_changes_rows():
    a = run_variance_experiment(make_config(seed=1))[0]
    b = run_variance_experiment(make_config(seed=2))[0]
    assert a != b


def test_beta_zero_runs():
    rows, summary = run_variance_experiment(make_config(beta=0.0, alpha_samples=2))
    assert all(r.L == 1.0 for r in rows)
    assert not summary["outside_small_window_regime"]


def test_generation_failure_wrapped_as_config_error():
    cfg = make_config(seq=SequenceSpec.lacunary(2), schedule=(200,))
    with pytest.raises(ConfigError, match="N=200"):
        run_variance_experiment(cfg)


def test_cell_failure_carries_location(monkeypatch):
    def boom(points, params):
        if params.N == 25:
            raise ValueError("synthetic fault")
        return real(points, params)

    real = harness.number_variance_exact
    monkeypatch.setattr(harness, "number_variance_exact", boom)
    cfg = make_config(schedule=(16, 25), alpha_samples=2)
    # the error keeps its class, so the CLI maps it to its exit code
    with pytest.raises(ValueError, match="N=25 sample=0: synthetic fault"):
        run_variance_experiment(cfg)


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------

def test_summary_shape_and_values():
    cfg = make_config(schedule=(30, 40), alpha_samples=8, delta=0.25)
    rows, summary = run_variance_experiment(cfg)
    assert set(summary) == {
        "seq", "beta", "seed", "alpha_samples",
        "outside_small_window_regime", "per_N",
    }
    assert summary["seq"] == "monomial:d=2"
    assert len(summary["per_N"]) == 2
    for entry, n_value in zip(summary["per_N"], (30, 40)):
        assert set(entry) == {
            "N", "L", "n_alpha", "median_ratio", "mean_ratio",
            "deviation_fraction", "delta",
        }
        assert entry["N"] == n_value
        assert entry["n_alpha"] == 8
        assert 0.0 <= entry["deviation_fraction"] <= 1.0
        assert entry["delta"] == 0.25
        ratios = sorted(r.sigma2_over_L for r in rows if r.N == n_value)
        assert entry["median_ratio"] == pytest.approx(
            (ratios[3] + ratios[4]) / 2, rel=1e-15
        )


def test_summary_json_stable():
    cfg = make_config(alpha_samples=3)
    _, summary = run_variance_experiment(cfg)
    text = summary_to_json(summary)
    assert text.endswith("\n")
    assert json.loads(text) == summary
    assert summary_to_json(json.loads(text)) == text  # sorted keys: stable


def test_square_dilations_near_poisson_at_ten_thousand():
    # At N = 100^2 the window count variance for generic dilations of
    # the squares should sit near the Poisson value L: median within
    # twenty percent with a few dozen dilation samples.
    cfg = make_config(schedule=(10000,), alpha_samples=40)
    _, summary = run_variance_experiment(cfg)
    assert 0.8 <= summary["per_N"][0]["median_ratio"] <= 1.2


# ---------------------------------------------------------------------------
# energy sweep
# ---------------------------------------------------------------------------

def test_energy_sweep_values_and_csv():
    cfg = make_config(schedule=(4, 8, 16))
    table = run_energy_sweep(cfg)
    assert [row["N"] for row in table] == [4, 8, 16]
    for row in table:
        seq = generate_sequence(SequenceSpec.monomial(2), row["N"])
        e = additive_energy(seq).energy
        assert row["energy"] == e
        assert row["energy_over_N2"] == e / row["N"] ** 2
        assert row["log_energy_over_log_N"] == pytest.approx(
            math.log(e) / math.log(row["N"])
        )
    text = energy_table_to_csv(table)
    lines = text.split("\r\n")
    assert lines[0] == ",".join(harness.ENERGY_HEADER)
    assert len(lines) == 5  # header + 3 rows + trailing empty


def test_energy_sweep_budget(monkeypatch):
    # the cap is checked before any sequence is generated, also when a
    # smaller N comes first in the schedule
    def never(*args):
        raise AssertionError("sequence generated before the budget check")

    monkeypatch.setattr(harness, "generate_sequence", never)
    with pytest.raises(BudgetError, match="N <= 8192"):
        run_energy_sweep(make_config(schedule=(64, harness.MAX_ENERGY_N + 1)))


def test_energy_sweep_generation_error():
    cfg = make_config(seq=SequenceSpec.lacunary(2), schedule=(100,))
    with pytest.raises(ConfigError, match="N=100"):
        run_energy_sweep(cfg)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def test_suite_selection_and_report_shape():
    report = run_verification_suite(("identity",), seed=3, instances=5)
    assert report["passed"] is True
    assert [s["name"] for s in report["suites"]] == ["identity"]
    assert report["suites"][0]["trials"] == 5
    assert set(report["suites"][0]) == {
        "name", "trials", "failures", "passed", "detail",
    }
    again = run_verification_suite(("identity",), seed=3, instances=5)
    assert json.dumps(report, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_suite_lemma_sweeps_small():
    report = run_verification_suite(("lemma1", "lemma2"), seed=1, trials=150)
    assert report["passed"] is True
    names = [s["name"] for s in report["suites"]]
    assert names == ["lemma1", "lemma2"]
    for suite in report["suites"]:
        assert suite["failures"] == 0
        assert suite["trials"] == 150


def test_suite_report_key_order():
    report = run_verification_suite(
        ("lemma1", "lemma2", "identity"), seed=2, trials=5, instances=2
    )
    assert [list(s) for s in report["suites"]] == [
        ["name", "trials", "failures", "passed", "detail"],
        ["name", "trials", "failures", "passed", "detail"],
        ["name", "trials", "failures", "passed", "detail"],
    ]


def test_suite_mean_and_parseval_small():
    report = run_verification_suite(("mean", "parseval"), seed=0, instances=2)
    assert report["passed"] is True


def test_suite_unknown_name():
    with pytest.raises(ConfigError):
        run_verification_suite(("identity", "nonsense"))


def test_suite_counts_below_one_rejected():
    # zero instances would pass the identity suite on no evidence
    with pytest.raises(ConfigError, match="instances"):
        run_verification_suite(("identity",), instances=0)
    with pytest.raises(ConfigError, match="trials"):
        run_verification_suite(("lemma1",), trials=-1)


def test_suite_tol_budget_checked_up_front():
    with pytest.raises(BudgetError):
        run_verification_suite(("identity",), tol=0.0)
    with pytest.raises(BudgetError):
        run_verification_suite(("lemma1",), tol=-1.0)
