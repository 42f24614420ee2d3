"""Command-line interface: parsing, exit codes, file outputs."""

import csv
import json
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import ricianfusion as rf
from ricianfusion import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")


# ------------------------------------------------------------ grid parsing

def test_parse_grid_forms():
    assert cli.parse_grid("0") == (0.0,)
    assert cli.parse_grid("-10:2:10") == tuple(float(v) for v in range(-10, 12, 2))
    assert cli.parse_grid("5:-1:3") == (5.0, 4.0, 3.0)
    assert cli.parse_grid("0:2.5:5") == (0.0, 2.5, 5.0)


# non-finite values and points outside [-DBM_LIMIT, DBM_LIMIT] dBm too
@pytest.mark.parametrize("bad", ["a:b:c", "0:0:5", "0:1", "0:-1:5", "1:2:3:4", "",
                                 "0:1:inf", "0:nan:5", "inf", "nan", "3100", "-3300",
                                 "-3300:100:0", "1000.5", "-1001", "0:1:1001"])
def test_parse_grid_rejects_malformed_input(bad):
    with pytest.raises(cli.UsageError, match="--sigma-grid"):
        cli.parse_grid(bad)


def test_parse_grid_bounds_the_point_count_before_building_the_grid():
    grid = cli.parse_grid("0:0.1:999.9")     # inside the noise-power domain
    assert len(grid) == cli.MAX_GRID_POINTS and grid[-1] <= cli.DBM_LIMIT
    for huge in ("0:0.1:1000", "0:1e-300:1", "-1e308:1:1e308"):
        with pytest.raises(cli.UsageError, match="more than"):
            cli.parse_grid(huge)


@pytest.mark.parametrize("argv,flag", [
    (["run", "--sigma-grid", "0:1:inf"], "--sigma-grid"),
    (["run", "--sigma-grid", "0:nan:5"], "--sigma-grid"),
    (["run", "--sigma-grid", "inf"], "--sigma-grid"),
    (["roc", "--sigma-dbm=nan"], "--sigma-dbm"),
    (["roc", "--sigma-dbm=3100"], "--sigma-dbm"),
    (["roc", "--sigma-dbm=-3300"], "--sigma-dbm"),
    (["roc", "--levels", "0.1,abc"], "--levels"),
    (["roc", "--sigma-dbm=1200"], "--sigma-dbm"),
    (["run", "--rules", "is", "--sigma-grid=-3230", "--pf0", "0.1"], "--sigma-grid"),
])
def test_noise_and_level_flags_are_checked_before_any_draw(tmp_path, monkeypatch, capsys,
                                                           argv, flag):
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before the flags were checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--k", "3", "--n", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["run", "--preset", "los,los", "--n", "2"], "--preset"),
    (["run", "--rules", "is,nlos,is", "--n", "2"], "--rules"),
    (["run", "--n", "2,3,2"], "--n"),
    (["run", "--preset=", "--n", "2"], "preset"),
    (["roc", "--levels=", "--n", "2"], "--levels"),
    (["roc", "--levels", "0.1,0.10", "--n", "2"], "--levels"),
])
def test_repeated_or_empty_list_entries_are_rejected_before_any_draw(
        tmp_path, monkeypatch, capsys, argv, flag):
    # a repeated preset would draw two deployments under one label, and a
    # repeated rule or antenna count would write duplicate CSV rows
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before the lists were checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    out = tmp_path / "x.csv"
    assert cli.main(argv + ["--k", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("battery", [[], ["--kappa-zero"], ["--kappa-zero", "--is-assumption"]])
def test_verify_with_pd_equal_to_pf_exits_2_before_any_draw(monkeypatch, capsys, battery):
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before --pd/--pf were checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    argv = ["verify", *battery, "--pd", "0.3", "--pf", "0.3", "--k", "4", "--n", "3"]
    assert cli.main(argv) == 2
    assert "identical transmit probabilities" in capsys.readouterr().err


def test_verify_is_assumption_alone_runs_at_pd_equal_to_pf(capsys):
    # that battery forces ideal sensors, so the shared operating point is moot
    argv = ["verify", "--is-assumption", "--pd", "0.3", "--pf", "0.3", "--k", "4", "--n", "3"]
    assert cli.main(argv) == 0
    assert "checks passed" in capsys.readouterr().out


# ------------------------------------------------------------ exit codes

def test_unknown_rule_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--rules", "psycho", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "unknown rule" in capsys.readouterr().err


def test_jam_rule_without_jammer_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--rules", "is-glrt", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "needs --jammer" in capsys.readouterr().err


def test_empty_rules_exit_2(tmp_path, capsys):
    rc = cli.main(["run", "--rules", " , ", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "no rules" in capsys.readouterr().err


def test_exponential_rule_with_too_many_sensors_exits_2(tmp_path, capsys):
    rc = cli.main(["run", "--rules", "llr", "--k", "20",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "K <= 16" in capsys.readouterr().err


def test_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("matrix is not positive definite")

    monkeypatch.setattr(cli.montecarlo, "sweep", broken)
    rc = cli.main(["run", "--rules", "nlos", "--k", "3", "--n", "2",
                   "--trials", "2000", "--pf0", "0.05", "--out", str(tmp_path / "x.csv")])
    assert rc == 4
    err = capsys.readouterr().err
    assert "numerical error: matrix is not positive definite" in err
    assert "usage error" not in err


# the failing rule alone, after another rule, after a jammed rule, and under roc
@pytest.mark.parametrize("argv", [
    ["run", "--rules", "nlos", "--n", "2", "--pf0", "0.1"],
    ["run", "--rules", "is,nlos,llr", "--n", "2", "--pf0", "0.1"],
    ["run", "--rules", "igmm-glrt,nlos", "--jammer", "los-jam", "--n", "4", "--pf0", "0.1"],
    ["roc", "--n", "2", "--levels", "0.1"],
])
def test_a_statistic_that_is_not_finite_exits_4_and_writes_no_csv(tmp_path, monkeypatch,
                                                                  capsys, argv):
    # no noise power in the domain makes a statistic overflow (that is the
    # library's case: Engine.eval), so a kernel gives NaN here; RULES looks
    # kernels up by name when it calls them
    monkeypatch.setattr(rf.fusion_rules, "nlos_rule", lambda y: np.full(len(y), np.nan))
    out = tmp_path / "x.csv"
    rc = cli.main([*argv, "--k", "3", "--trials", "1000", "--out", str(out)])
    assert rc == 4
    err = capsys.readouterr().err
    assert "numerical error" in err and "'nlos'" in err and "usage error" not in err
    assert not out.exists()


@pytest.mark.parametrize("extra, message", [
    (["--trials", "500", "--pf0", "0.01"], "--trials >= 10000"),
    (["--pf0", "0"], "must lie in (0, 1)"),
    (["--pf0", "1.5"], "must lie in (0, 1)"),
    (["--threads", "0"], "--threads >= 1"),
    (["--rules", "bogus"], "unknown rule"),
    (["--jammer", "los-jam", "--n", "6,2"], "jammer rank 2 must be smaller"),
    (["--n", "6,0"], "antenna counts >= 1"),
])
def test_run_validates_sizes_before_drawing_a_deployment(tmp_path, monkeypatch, capsys,
                                                         extra, message):
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before the inputs were checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    rc = cli.main(["run", "--rules", "nlos", *extra, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run", "--rules", "nlos", "--out", "x.csv"],
                                     ["roc", "--out", "x.csv"], ["verify"]])
def test_thread_counts_above_the_bound_are_rejected_before_any_work(tmp_path, monkeypatch,
                                                                   capsys, command):
    # nothing is drawn and no pool is started for the rejected count
    def started(*args, **kwargs):
        raise AssertionError("work started before --threads was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.montecarlo, "generate_wsn", started)
    monkeypatch.setattr(cli.montecarlo, "ThreadPoolExecutor", started)
    monkeypatch.setattr(cli.montecarlo.Engine, "_draw", started)
    assert cli.main([*command, "--threads", str(cli.MAX_THREADS + 1)]) == 2
    assert f"--threads >= 1 and <= {cli.MAX_THREADS}" in capsys.readouterr().err
    assert not os.path.exists("x.csv")


@pytest.mark.parametrize("argv", [
    ["roc", "--jammer", "los-jam", "--n", "2", "--out", "x.csv"],
    ["verify", "--n", "2"],
    ["verify", "--is-assumption", "--jammer", "los-jam", "--n", "2"],
])
def test_roc_and_verify_check_the_jammer_rank_before_drawing(tmp_path, monkeypatch,
                                                             capsys, argv):
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before the inputs were checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    assert cli.main(argv) == 2
    assert "jammer rank 2 must be smaller than the antenna count 2" in capsys.readouterr().err
    assert not os.path.exists("x.csv")


def test_scenario_jammer_rank_is_checked_against_every_antenna_count(tmp_path, capsys):
    scenario = str(tmp_path / "s.json")
    assert cli.main(["generate", "--k", "3", "--n", "4", "--jammer", "los-jam",
                     "--r", "2", "--out", scenario]) == 0
    capsys.readouterr()
    out = tmp_path / "x.csv"
    assert cli.main(["run", "--scenario", scenario, "--rules", "nlos-glrt", "--n", "4,2",
                     "--trials", "1000", "--pf0", "0.1", "--out", str(out)]) == 2
    assert "jammer rank 2 must be smaller" in capsys.readouterr().err
    assert not out.exists()


def test_verify_kappa_zero_draws_no_jammer_and_accepts_two_antennas(capsys):
    assert cli.main(["verify", "--kappa-zero", "--k", "3", "--n", "2",
                     "--trials", "10000"]) == 0
    assert "# 2/2 checks passed" in capsys.readouterr().out


def test_verify_is_assumption_without_a_jammer_accepts_two_antennas(capsys):
    # that battery draws a jammer only when --jammer names one
    assert cli.main(["verify", "--is-assumption", "--k", "4", "--n", "2",
                     "--trials", "10000"]) == 0
    assert "# 3/3 checks passed" in capsys.readouterr().out


def test_generate_checks_the_jammer_rank_before_drawing(tmp_path, monkeypatch, capsys):
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before the inputs were checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    out = tmp_path / "s.json"
    assert cli.main(["generate", "--jammer", "los-jam", "--n", "2", "--out", str(out)]) == 2
    assert "jammer rank 2 must be smaller than the antenna count 2" in capsys.readouterr().err
    assert not out.exists()


def test_generate_takes_no_threads_option():
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--threads", "0"])
    assert exc.value.code == 2


def test_bad_grid_exits_2(tmp_path):
    rc = cli.main(["run", "--rules", "nlos", "--sigma-grid", "0:0:5",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_unwritable_output_exits_3(tmp_path, monkeypatch, capsys):
    def drawn(*args, **kwargs):
        raise AssertionError("a deployment was drawn before the output was checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    missing = str(tmp_path / "no" / "such" / "dir" / "x.csv")
    a_file = tmp_path / "a_file"
    a_file.write_text("kept\n")
    small = ["--rules", "nlos", "--k", "3", "--n", "2", "--trials", "2000"]
    for argv in (["run", *small, "--pf0", "0.05", "--out", missing],
                 ["run", *small, "--pf0", "0.05", "--out", str(tmp_path / "x.csv"),
                  "--plot-data", str(a_file / "plots")],
                 ["roc", *small, "--levels", "0.1", "--out", missing]):
        assert cli.main(argv) == 3, argv
        assert "i/o error" in capsys.readouterr().err
    assert a_file.read_text() == "kept\n"


def test_usage_error_after_the_output_check_leaves_the_output_as_it_was(tmp_path, capsys):
    scenario = str(tmp_path / "kz.json")
    assert cli.main(["generate", "--kappa-zero", "--k", "4", "--n", "4",
                     "--out", scenario]) == 0
    capsys.readouterr()
    kept, fresh = tmp_path / "kept.csv", tmp_path / "fresh.csv"
    kept.write_text("kept\n")
    for out in (kept, fresh):
        # with no line-of-sight component the widely-linear direction
        # vanishes, which only the evaluation of the rule finds out, after
        # --out was checked
        assert cli.main(["run", "--scenario", scenario, "--rules", "wl0",
                         "--trials", "1000", "--pf0", "0.1", "--out", str(out)]) == 2
        assert "weight direction vanishes" in capsys.readouterr().err
    assert kept.read_text() == "kept\n" and not fresh.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--rules", "nlos,wl0", "--pd", "0.3", "--pf", "0.3"],
    ["roc", "--rules", "wl1", "--pd", "0.3", "--pf", "0.3"],
    ["run", "--scenario", "same.json", "--rules", "wl0", "--trials", "1000", "--pf0", "0.1"],
])
def test_widely_linear_rule_with_pd_equal_to_pf_exits_2_before_drawing(
        tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["generate", "--k", "3", "--n", "2", "--pd", "0.3", "--pf", "0.3",
                     "--out", "same.json"]) == 0
    capsys.readouterr()

    def drawn(*args, **kwargs):
        raise AssertionError("a deployment or trials were drawn before the rules were checked")

    monkeypatch.setattr(cli.montecarlo, "generate_wsn", drawn)
    monkeypatch.setattr(cli.montecarlo, "sweep", drawn)
    assert cli.main(argv + ["--out", "x.csv"]) == 2
    assert "is undefined: identical transmit probabilities" in capsys.readouterr().err
    assert not os.path.exists("x.csv")


def test_bad_subcommand_choice_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--preset", "volcano"])
    assert exc.value.code == 2


def test_verify_reports_failures_with_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_verify_battery",
                        lambda args: [("good", True, "d"), ("bad", False, "d")])
    rc = cli.main(["verify"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "good: pass" in out and "bad: FAIL" in out and "1/2 checks passed" in out


def test_environment_seed_is_honored(tmp_path, monkeypatch, capsys):
    args = ["run", "--rules", "nlos", "--k", "3", "--n", "2", "--trials", "2000",
            "--pf0", "0.05", "--preset", "los"]
    out_env = tmp_path / "env.csv"
    out_explicit = tmp_path / "explicit.csv"
    out_default = tmp_path / "default.csv"
    monkeypatch.setenv(cli.SEED_ENV, "77")
    assert cli.main(args + ["--out", str(out_env)]) == 0
    monkeypatch.delenv(cli.SEED_ENV)
    assert cli.main(args + ["--out", str(out_explicit), "--seed", "77"]) == 0
    assert cli.main(args + ["--out", str(out_default)]) == 0
    assert out_env.read_bytes() == out_explicit.read_bytes()
    assert out_default.read_bytes() != out_env.read_bytes()   # default seed is 0
    capsys.readouterr()


def test_garbage_environment_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV, "not-a-number")
    rc = cli.main(["run", "--rules", "nlos", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert cli.SEED_ENV in capsys.readouterr().err


@pytest.mark.parametrize("flag,env,named", [(["--seed", "-1"], None, "--seed"),
                                            ([], "-3", cli.SEED_ENV)])
def test_negative_seed_is_a_named_usage_error(tmp_path, monkeypatch, capsys,
                                              flag, env, named):
    if env is not None:
        monkeypatch.setenv(cli.SEED_ENV, env)
    out = tmp_path / "x.csv"
    rc = cli.main(["run", "--rules", "nlos", "--out", str(out), *flag])
    assert rc == 2 and not out.exists()
    err = capsys.readouterr().err
    assert named in err and "non-negative" in err


# ------------------------------------------------------------ generate

def test_generate_prints_table_and_writes_scenario(tmp_path, capsys):
    path = tmp_path / "scn.json"
    rc = cli.main(["generate", "--preset", "los", "--jammer", "los-jam",
                   "--k", "4", "--n", "5", "--seed", "12", "--out", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sensor  theta_deg" in out and "jammer  phi_deg" in out
    wsn, jam = rf.load_scenario(path)
    assert wsn.k_sensors == 4 and wsn.n_antennas == 5
    assert jam is not None and jam.rank == 2
    with open(path) as fh:
        assert json.load(fh)["config"]["seed"] == 12


def test_generate_kappa_zero_flag(tmp_path, capsys):
    path = tmp_path / "flat.json"
    rc = cli.main(["generate", "--preset", "nlos", "--k", "3", "--n", "4",
                   "--kappa-zero", "--out", str(path)])
    assert rc == 0
    wsn, _ = rf.load_scenario(path)
    np.testing.assert_array_equal(wsn.kappa, np.zeros(3))
    # every sensor's Rician factor goes to zero; a jammer keeps its own
    jammed = {}
    for flags in ([], ["--kappa-zero"]):
        out = tmp_path / f"jammed{len(flags)}.json"
        assert cli.main(["generate", "--preset", "nlos", "--k", "3", "--n", "4", "--jammer",
                         "los-jam", *flags, "--out", str(out)]) == 0
        jammed[bool(flags)] = rf.load_scenario(out)
    np.testing.assert_array_equal(jammed[True][0].kappa, np.zeros(3))
    assert np.all(jammed[False][0].kappa > 0)
    np.testing.assert_array_equal(jammed[True][1].kappa, jammed[False][1].kappa)
    capsys.readouterr()


# ------------------------------------------------------------ run / roc

def test_run_writes_csv_with_expected_grid(tmp_path, capsys):
    out = tmp_path / "perf.csv"
    plot_dir = tmp_path / "series"
    rc = cli.main(["run", "--preset", "los,nlos", "--rules", "is,nlos",
                   "--sigma-grid", "0:5:5", "--n", "2,4", "--k", "4",
                   "--trials", "2000", "--pf0", "0.05", "--seed", "5",
                   "--out", str(out), "--plot-data", str(plot_dir)])
    assert rc == 0
    assert "# wrote 16 rows" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2 * 2
    assert set(rows[0]) == set(rf.CSV_COLUMNS)
    assert {r["preset"] for r in rows} == {"los", "nlos"}
    series = os.listdir(plot_dir)
    assert len(series) == 2 * 2 * 2               # preset x rule x antennas
    assert all(name.startswith("pd0__") for name in series)


def test_run_from_scenario_file_uses_frozen_deployment(tmp_path, capsys):
    scn = tmp_path / "frozen.json"
    assert cli.main(["generate", "--preset", "intermediate", "--jammer", "los-jam",
                     "--k", "4", "--n", "4", "--seed", "3", "--out", str(scn)]) == 0
    out = tmp_path / "perf.csv"
    rc = cli.main(["run", "--scenario", str(scn), "--rules", "nlos,nlos-glrt",
                   "--trials", "2000", "--pf0", "0.05", "--n", "4",
                   "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["preset"] for r in rows} == {"frozen"}
    assert {r["jammer"] for r in rows} == {"custom"}
    assert {r["rule"] for r in rows} == {"nlos", "nlos-glrt"}
    capsys.readouterr()


def test_run_from_scenario_file_runs_at_its_antenna_count_unless_n_is_given(tmp_path,
                                                                            capsys):
    scn = tmp_path / "four.json"
    assert cli.main(["generate", "--k", "4", "--n", "4", "--out", str(scn)]) == 0
    for extra, want in (([], {"4"}), (["--n", "3,5"], {"3", "5"})):
        out = tmp_path / "n.csv"
        assert cli.main(["run", "--scenario", str(scn), "--rules", "nlos", "--trials",
                         "1000", "--pf0", "0.1", "--out", str(out), *extra]) == 0
        with open(out) as fh:
            assert {r["n_antennas"] for r in csv.DictReader(fh)} == want
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--jammer", "los-jam"], ["--jammer", "none"],
                                  ["--preset", "nlos"], ["--k", "9"], ["--pd", "0.9"],
                                  ["--pf", "0.1"]])
def test_run_from_scenario_file_rejects_deployment_flags(tmp_path, monkeypatch, capsys,
                                                         flag):
    def loaded(*args, **kwargs):
        raise AssertionError("the scenario file was read before the flags were checked")

    monkeypatch.setattr(cli, "load_scenario", loaded)
    rc = cli.main(["run", "--scenario", str(tmp_path / "plain.json"), "--rules", "nlos",
                   *flag, "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "the scenario file fixes the deployment" in capsys.readouterr().err


def test_jam_rule_on_a_jammer_free_scenario_file_names_the_file(tmp_path, capsys):
    scn = tmp_path / "plain.json"
    assert cli.main(["generate", "--k", "4", "--n", "4", "--out", str(scn)]) == 0
    capsys.readouterr()
    rc = cli.main(["run", "--scenario", str(scn), "--rules", "nlos,is-glrt",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "rule 'is-glrt' needs a jammer in the scenario file" in err
    assert str(scn) in err


def test_roc_writes_operating_points(tmp_path, capsys):
    out = tmp_path / "roc.csv"
    rc = cli.main(["roc", "--preset", "los", "--rules", "is,nlos", "--k", "4",
                   "--n", "3", "--levels", "0.3,0.1", "--trials", "2000",
                   "--out", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2
    assert set(rows[0]) == {"rule", "target_pf0", "gamma", "pf0", "pd0", "trials"}
    capsys.readouterr()


def test_roc_rejects_unresolvable_levels(tmp_path, capsys):
    rc = cli.main(["roc", "--levels", "0.01", "--trials", "2000",
                   "--out", str(tmp_path / "roc.csv")])
    assert rc == 2
    capsys.readouterr()


def test_negative_grid_start_needs_no_equals_sign(tmp_path, capsys):
    outs = [tmp_path / "space.csv", tmp_path / "equals.csv"]
    common = ["run", "--rules", "nlos", "--k", "3", "--n", "2", "--trials", "1000",
              "--pf0", "0.1"]
    assert cli.main(common + ["--sigma-grid", "-10:5:-5", "--out", str(outs[0])]) == 0
    assert cli.main(common + ["--sigma-grid=-10:5:-5", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    with open(outs[0]) as fh:
        assert [float(r["sigma_w2_dbm"]) for r in csv.DictReader(fh)] == [-10.0, -5.0]
    capsys.readouterr()


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, ricianfusion.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                          check=True, timeout=120)
    assert proc.stdout.strip() == "False"


# ------------------------------------------------------------ documentation

# appended to each README command to keep the test fast; argparse keeps the
# last value given for an option.  `run` gets a smaller K only where it draws
# the deployment: a scenario file fixes K and rejects --k.
README_OVERRIDES = {
    "generate": [],
    "run": ["--trials", "1000", "--pf0", "0.1"],
    "roc": ["--k", "4"],
    "verify": ["--trials", "10000"],
}


def readme_commands():
    """Every `ricianfusion ...` command in the README's fenced blocks."""
    with open(README) as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"^```[a-z]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("ricianfusion "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert [c[0] for c in commands] == ["generate", "run", "run", "roc", "verify", "verify"]
    for argv in commands:
        extra = README_OVERRIDES[argv[0]]
        if argv[0] == "run" and "--scenario" not in argv:
            extra = extra + ["--k", "4"]
        rc = cli.main(argv + extra)
        out, err = capsys.readouterr()
        assert rc == 0, (argv, out, err)
    assert os.path.exists("sweep.csv") and os.path.exists("jammed.csv")
    assert os.path.exists("roc.csv") and os.listdir("plots")


def test_rule_table_matches_readme_help_and_kernel_shapes(jammed_pair, monkeypatch,
                                                          capsys):
    with open(README) as fh:
        section = fh.read().split("## Fusion rules")[1].split("\n## ")[0]
    documented = [name for line in section.splitlines() if line.startswith("| `")
                  for name in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert documented == list(rf.RULES)
    monkeypatch.setenv("COLUMNS", "1000")     # one help line per option
    for sub in ("run", "roc"):
        with pytest.raises(SystemExit):
            cli.main([sub, "--help"])
        listed = re.search(r"comma list of rules: (.*)", capsys.readouterr().out)
        assert listed.group(1).strip().split(", ") == list(rf.RULES)
    assert rf.FREE_RULES + rf.JAM_RULES == tuple(rf.RULES)

    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    ws = rf.build_workspace(ctx, jam)
    rng = np.random.default_rng(5)
    for t in (1, 3):
        y = rf.crandn(rng, (t, wsn.n_antennas))
        psi = rf.draw_psi(jam, rng, t)
        for name, rule in rf.RULES.items():
            vals = rule.kernel(y, ctx, jam, ws, psi)
            assert vals.shape == (t,), name
            assert np.all(np.isfinite(vals)), name


# ------------------------------------------------------------ verify

def test_verify_kappa_zero_battery_passes(capsys):
    rc = cli.main(["verify", "--kappa-zero", "--k", "6", "--n", "4",
                   "--trials", "10000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "lemma1-is-nlos: pass" in out
    assert "lemma1-igmm-nlos: pass" in out
    assert "2/2 checks passed" in out


def test_verify_ideal_sensor_battery_passes(capsys):
    rc = cli.main(["verify", "--is-assumption", "--jammer", "los-jam",
                   "--k", "6", "--n", "4", "--trials", "10000", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0, out
    for name in ("lemma3-igmm-is", "wl-pair", "lemma3-llr-is",
                 "jam-lemma-igmm-is-glrt"):
        assert f"{name}: pass" in out


def test_verify_full_battery_passes(capsys, monkeypatch):
    # no battery flag: every check, including lemma2, the subspace-GLRT
    # reductions, the projector and the floor-solver oracle
    calls = []
    engine_eval = rf.Engine.eval

    def recorded(self, rule, batch):
        calls.append((rule, batch.y.shape[0]))
        return engine_eval(self, rule, batch)
    monkeypatch.setattr(rf.Engine, "eval", recorded)
    rc = cli.main(["verify", "--k", "6", "--n", "4", "--trials", "10000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0, out
    # the piecewise reductions evaluate through the engine, on min(trials, 2000) rows
    for rule in ("nlos-glrt", "is-glrt", "igmm-glrt"):
        assert (rule, 2000) in calls
    for name in ("lemma1-is-nlos", "lemma1-igmm-nlos", "lemma2-rankcorr",
                 "lemma3-igmm-is", "wl-pair", "lemma3-llr-is", "jam-lemma-igmm-is-glrt",
                 "piecewise-is-glrt", "piecewise-igmm-glrt", "projector",
                 "sigma-poly-oracle"):
        assert f"{name}: pass" in out
    assert "# 11/11 checks passed" in out
