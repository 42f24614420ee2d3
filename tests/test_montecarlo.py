"""Monte Carlo engine: quantiles, calibration, equivalence, sweeps."""

import csv
import math

import numpy as np
import pytest
from scipy.stats import norm

import ricianfusion as rf
from ricianfusion.montecarlo import roc_points
from conftest import force_kappa_zero, make_deployment


# ------------------------------------------------------------ upper_quantile

def test_upper_quantile_small_sample_order_statistics():
    v = np.arange(1.0, 11.0)          # 1..10
    assert rf.upper_quantile(v, 0.2) == 8.0    # exactly 2 of 10 strictly above
    assert rf.upper_quantile(v, 0.5) == 5.0
    assert rf.upper_quantile(v, 0.05) == 10.0  # tail unresolvable -> max, 0 above
    shuffled = v[np.random.default_rng(0).permutation(10)]
    assert rf.upper_quantile(shuffled, 0.2) == 8.0


def test_upper_quantile_exceedance_count_is_exact():
    rng = np.random.default_rng(1)
    v = rng.random(1000)              # continuous, ties have probability zero
    for p in (0.3, 0.1, 0.05, 0.01):
        gamma = rf.upper_quantile(v, p)
        assert int(np.sum(v > gamma)) == int(round(p * 1000))


def test_upper_quantile_matches_normal_tail():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(1_000_000)
    assert rf.upper_quantile(v, 0.05) == pytest.approx(norm.ppf(0.95), abs=0.02)
    assert rf.upper_quantile(v, 0.01) == pytest.approx(norm.ppf(0.99), abs=0.03)


def test_upper_quantile_validation():
    with pytest.raises(ValueError):
        rf.upper_quantile(np.arange(5.0), 0.0)
    with pytest.raises(ValueError):
        rf.upper_quantile(np.arange(5.0), 1.0)
    with pytest.raises(ValueError):
        rf.upper_quantile(np.array([]), 0.1)


# ------------------------------------------------------------ engine

def test_engine_draws_are_seed_deterministic_and_stream_split():
    wsn, _ = make_deployment(k=4, n=3, seed=70)
    a = rf.Engine(wsn, seed=5)
    b = rf.Engine(wsn, seed=5)
    np.testing.assert_array_equal(a.stats("nlos", rf.H0, 3000, stream=0),
                                  b.stats("nlos", rf.H0, 3000, stream=0))
    assert not np.array_equal(a.stats("nlos", rf.H0, 3000, stream=0),
                              a.stats("nlos", rf.H0, 3000, stream=1))
    c = rf.Engine(wsn, seed=6)
    assert not np.array_equal(a.stats("nlos", rf.H0, 3000, stream=0),
                              c.stats("nlos", rf.H0, 3000, stream=0))


def test_engine_results_do_not_depend_on_thread_count():
    wsn, jam = make_deployment(preset="los", k=5, n=4, seed=71, jammer="los-jam")
    serial = rf.Engine(wsn, jammer=jam, seed=9, threads=1)
    threaded = rf.Engine(wsn, jammer=jam, seed=9, threads=4)
    for rule in ("is", "nlos", "igmm", "is-glrt", "nlos-glrt"):
        np.testing.assert_array_equal(serial.stats(rule, rf.H1, 20_000, 0),
                                      threaded.stats(rule, rf.H1, 20_000, 0))


def test_engine_blocking_is_invisible_in_the_sample():
    # trials that are not a multiple of the block size still concatenate the
    # same leading draws as a larger request on the same stream
    block = rf.montecarlo.BLOCK
    wsn, _ = make_deployment(k=4, n=3, seed=72)
    small = rf.Engine(wsn, seed=1).sample(rf.H0, block + 300, stream=0)
    big = rf.Engine(wsn, seed=1).sample(rf.H0, 2 * block, stream=0)
    np.testing.assert_array_equal(small.y[:block], big.y[:block])
    np.testing.assert_array_equal(small.x[:block], big.x[:block])
    assert small.y.shape == (block + 300, 3)


@pytest.mark.parametrize("jammer", [None, "los-jam"])
def test_engines_at_noise_sample_like_fresh_engines_and_free_the_shared_draws(jammer):
    wsn, jam = make_deployment(preset="los", k=4, n=3, seed=74, jammer=jammer)
    trials = rf.montecarlo.BLOCK + 300  # two blocks
    powers = (0.1, 1.0, 4.0)
    base = rf.Engine(wsn, jammer=jam, seed=5)
    for p, eng in zip(powers, base.at_noise(powers)):
        fresh = rf.Engine(wsn.with_(noise_power=p), jammer=jam, seed=5)
        assert eng.scenario.noise_power == p
        for h, stream in ((rf.H0, 0), (rf.H0, 1), (rf.H1, 2)):
            got, want = eng.sample(h, trials, stream), fresh.sample(h, trials, stream)
            np.testing.assert_array_equal(got.y, want.y)
            np.testing.assert_array_equal(got.x, want.x)
            if jam is not None:
                np.testing.assert_array_equal(got.psi, want.psi)
    assert base._signals == {}  # the last engine dropped every noise-free draw
    # a fresh engine's block 1 is the samplers' draw on that block's generator
    rng = np.random.default_rng(np.random.SeedSequence([5, 2, rf.H1, 1]))
    x = rf.draw_decisions(fresh.scenario, rf.H1, rng, size=300)
    y = (rf.draw_received(fresh.scenario, x, rng) if jam is None
         else rf.draw_jammed(fresh.scenario, jam, x, rng)[0])
    np.testing.assert_array_equal(want.y[rf.montecarlo.BLOCK:], y)


def test_engine_sample_cache_returns_same_object():
    wsn, _ = make_deployment(k=4, n=3, seed=73)
    eng = rf.Engine(wsn, seed=2)
    assert eng.sample(rf.H0, 1000, 0) is eng.sample(rf.H0, 1000, 0)


def test_engine_rejects_unknown_and_jammerless_rules(small_wsn, monkeypatch):
    eng = rf.Engine(small_wsn, seed=0)
    with pytest.raises(ValueError):
        eng.stats("bogus", rf.H0, 100, 0)
    batch = eng.sample(rf.H0, 100, 0)

    def no_kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")
    # the engine rejects a rule that needs a jammer before any kernel runs
    monkeypatch.setattr(rf.jamming_rules, "evaluate_jam", no_kernel)
    for rule in ("is-glrt", "igmm-glrt", "nlos-glrt"):
        with pytest.raises(ValueError, match=f"rule '{rule}' needs a jammer scenario"):
            eng.eval(rule, batch)


@pytest.mark.parametrize("noise_dbm,rule,n,jammer", [(-3230.0, "is", 2, None),
                                                     (3080.0, "nlos", 2, None),
                                                     (3080.0, "llr", 2, None),
                                                     (3080.0, "igmm-glrt", 4, "los-jam")])
def test_engine_eval_rejects_a_statistic_that_is_not_finite(noise_dbm, rule, n, jammer):
    # noise powers far outside the CLI's domain, whose linear value is finite
    # but at the edge of the float range: the kernels overflow, so their
    # overflow warnings are expected here
    wsn, jam = make_deployment(k=3, n=n, seed=0, jammer=jammer)
    eng = rf.Engine(wsn.with_(noise_power=float(rf.db_to_lin(noise_dbm))), jammer=jam, seed=0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match=f"rule '{rule}'|must be finite"):
            eng.stats(rule, rf.H0, 1000, 0)


def test_engine_rejects_nonpositive_thread_counts(small_wsn):
    with pytest.raises(ValueError):
        rf.Engine(small_wsn, threads=0)


# ------------------------------------------------------------ calibration

def test_calibration_requires_enough_tail_mass(small_wsn):
    eng = rf.Engine(small_wsn, seed=0)
    with pytest.raises(ValueError):
        rf.calibrate_threshold(eng, "nlos", target_pf0=0.01, trials=5000)


def test_calibration_achieves_the_target_rate(small_wsn):
    eng = rf.Engine(small_wsn, seed=3)
    trials = 40_000
    test = rf.calibrate_threshold(eng, "nlos", target_pf0=0.01, trials=trials)
    se = math.sqrt(0.01 * 0.99 / trials)
    assert abs(test.achieved_pf0 - 0.01) < 4 * se
    assert test.achieved_ci95[0] <= test.achieved_pf0 <= test.achieved_ci95[1]
    assert np.isfinite(test.gamma)


def test_calibration_hits_the_band_at_high_trial_count(small_wsn):
    eng = rf.Engine(small_wsn, seed=8)
    test = rf.calibrate_threshold(eng, "nlos", target_pf0=0.01, trials=100_000)
    assert 0.008 <= test.achieved_pf0 <= 0.012


def test_constant_statistic_never_fires():
    # with pd = pf both hypotheses share their moments, so igmm is exactly 0
    wsn, _ = make_deployment(k=3, n=2, seed=74, pd=0.3, pf=0.3)
    eng = rf.Engine(wsn, seed=0)
    test = rf.calibrate_threshold(eng, "igmm", target_pf0=0.05, trials=4000)
    assert test.gamma == 0.0
    assert test.achieved_pf0 == 0.0   # strict inequality: never exceeds


def test_detection_estimate_and_stderr(small_wsn):
    eng = rf.Engine(small_wsn, seed=4)
    test = rf.calibrate_threshold(eng, "is", target_pf0=0.05, trials=10_000)
    est = rf.estimate_pd0(eng, test, trials=10_000)
    assert 0.0 <= est.estimate <= 1.0
    assert est.estimate > test.achieved_pf0          # informative scenario
    assert est.stderr == pytest.approx(
        math.sqrt(est.estimate * (1 - est.estimate) / 10_000), rel=1e-12)


def test_detection_estimate_with_degenerate_thresholds(small_wsn):
    from dataclasses import replace
    eng = rf.Engine(small_wsn, seed=4)
    test = rf.calibrate_threshold(eng, "is", target_pf0=0.05, trials=10_000)
    always = rf.estimate_pd0(eng, replace(test, gamma=-math.inf), trials=5000)
    never = rf.estimate_pd0(eng, replace(test, gamma=math.inf), trials=5000)
    assert always.estimate == 1.0
    assert never.estimate == 0.0


# ------------------------------------------------------------ equivalence

def test_rule_is_equivalent_to_itself_and_to_monotone_transforms(small_wsn):
    eng = rf.Engine(small_wsn, seed=5)
    res = rf.equivalence_check(eng, "nlos", "nlos", trials=10_000)
    assert res.verdict == "equivalent"
    assert res.spearman == pytest.approx(1.0, abs=1e-12)
    assert res.max_disagreement == 0.0
    # without LOS, is = (nu_bar / sigma_w^2) nlos: a monotone transform
    flat = rf.Engine(force_kappa_zero(small_wsn), seed=5)
    res2 = rf.equivalence_check(flat, "nlos", "is", trials=10_000)
    assert res2.verdict == "equivalent"


def test_genuinely_different_rules_are_distinct():
    wsn, _ = make_deployment(preset="los", k=6, n=4, seed=75)
    eng = rf.Engine(wsn, seed=6)
    res = rf.equivalence_check(eng, "is", "nlos", trials=10_000)
    assert res.verdict == "distinct"
    assert res.max_disagreement > 0.0
    assert res.spearman < 1.0 - 1e-12


def test_wl_and_igmm_rules_are_distinct_under_strong_los():
    wsn, _ = make_deployment(preset="los", k=6, n=4, seed=75)
    eng = rf.Engine(wsn, seed=9)
    res = rf.equivalence_check(eng, "wl0", "igmm", trials=10_000)
    assert res.verdict == "distinct"
    assert res.max_disagreement > 0.0


def test_equivalence_requires_enough_trials(small_wsn):
    eng = rf.Engine(small_wsn, seed=7)
    with pytest.raises(ValueError):
        rf.equivalence_check(eng, "is", "nlos", trials=2000)


# ------------------------------------------------------------ deployments

def test_draw_deployment_keeps_sensors_with_and_without_a_jammer():
    config = rf.preset_config("los", k_sensors=5, n_antennas=4, seed=3)
    plain, none = rf.draw_deployment(config, None, [3, 1])
    jammed, jam = rf.draw_deployment(config, "los-jam", [3, 1])
    assert none is None and jam is not None and jam.rank == config.jammer_rank
    links = ("positions", "beta", "kappa", "theta", "pd", "pf")
    assert all(np.array_equal(getattr(jammed, f), getattr(plain, f)) for f in links)
    other, _ = rf.draw_deployment(config, None, [3, 2])
    assert not all(np.array_equal(getattr(other, f), getattr(plain, f)) for f in links)


def test_draw_deployment_rejects_unknown_jammer_preset():
    config = rf.preset_config("los", k_sensors=4, n_antennas=4)
    with pytest.raises(ValueError):
        rf.draw_deployment(config, "loud", [0])


# ------------------------------------------------------------ sweep / csv

def preset_deployments(presets, k, n, seed, jammer=None):
    """Labelled deployments drawn the way `ricianfusion run` draws them."""
    out = []
    for pi, preset in enumerate(presets):
        config = rf.preset_config(preset, k_sensors=k, n_antennas=n, seed=seed)
        out.append((preset, jammer or "none",
                    *rf.draw_deployment(config, jammer, [seed, pi])))
    return out


def run_small_sweep(tmp_seed=11):
    return rf.sweep(preset_deployments(["intermediate"], k=4, n=3, seed=tmp_seed),
                    sigma_w2_dbm=(0.0, 5.0), n_antennas=(2, 3), rules=("is", "nlos"),
                    trials=10_000, target_pf0=0.01, seed=tmp_seed)


def test_sweep_produces_one_row_per_grid_cell():
    rows = run_small_sweep()
    assert len(rows) == 2 * 2 * 2
    for row in rows:
        for col in rf.CSV_COLUMNS:
            assert col in row
        assert 0.0 <= row["pd0"] <= 1.0
        assert 0.0 <= row["achieved_pf0"] <= 1.0
        assert row["trials"] == 10_000 and row["seed"] == 11
        assert row["jammer"] == "none"
        assert row["wall_time_s"] > 0.0
    combos = {(r["rule"], r["sigma_w2_dbm"], r["n_antennas"]) for r in rows}
    assert len(combos) == 8


def test_sweep_is_deterministic_apart_from_timing():
    a = run_small_sweep()
    b = run_small_sweep()
    for ra, rb in zip(a, b):
        for col in rf.CSV_COLUMNS:
            assert ra[col] == rb[col], col


def test_sweep_accepts_frozen_deployments():
    wsn, jam = make_deployment(preset="los", k=4, n=4, seed=76, jammer="los-jam")
    rows = rf.sweep([("stored", "custom", wsn, jam)], sigma_w2_dbm=(0.0,),
                    n_antennas=(4,), rules=("nlos-glrt",), trials=10_000,
                    target_pf0=0.01, seed=3)
    assert len(rows) == 1
    assert rows[0]["preset"] == "stored"
    assert rows[0]["jammer"] == "custom"


def test_sweep_empty_grid_writes_header_only(tmp_path):
    rows = rf.sweep(preset_deployments(["los"], k=4, n=3, seed=1), sigma_w2_dbm=(),
                    n_antennas=(3,), rules=("nlos",), trials=10_000, seed=1)
    assert rows == []
    path = tmp_path / "empty.csv"
    rf.write_csv(rows, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines == [",".join(rf.CSV_COLUMNS)]


def test_sweep_single_cell_matches_direct_calibration():
    from ricianfusion.montecarlo import _engine_seed
    seed, s_dbm, n, trials, pf0 = 9, 2.0, 3, 10_000, 0.05
    rows = rf.sweep(preset_deployments(["intermediate"], k=4, n=n, seed=seed),
                    sigma_w2_dbm=(s_dbm,), n_antennas=(n,), rules=("is",),
                    trials=trials, target_pf0=pf0, seed=seed)
    assert len(rows) == 1
    # reproduce the sweep's deployment and engine seeding by hand
    config = rf.preset_config("intermediate", k_sensors=4, n_antennas=n,
                              pd=0.5, pf=0.05, seed=seed)
    wsn_ss, _ = np.random.SeedSequence([seed, 0]).spawn(2)
    wsn = rf.generate_wsn(config, np.random.default_rng(wsn_ss))
    scenario = wsn.with_(noise_power=float(rf.db_to_lin(s_dbm)))
    eng = rf.Engine(scenario, seed=_engine_seed(seed, 0, 0, 0))
    test = rf.calibrate_threshold(eng, "is", target_pf0=pf0, trials=trials)
    pd0 = rf.estimate_pd0(eng, test, trials=trials)
    assert rows[0]["gamma"] == test.gamma
    assert rows[0]["achieved_pf0"] == test.achieved_pf0
    assert rows[0]["pd0"] == pd0.estimate
    assert rows[0]["pd0_stderr"] == pd0.stderr


@pytest.mark.parametrize("jammer,rule", [(None, "is"), ("los-jam", "is-glrt")])
def test_sweep_second_noise_point_matches_direct_calibration(jammer, rule):
    from ricianfusion.montecarlo import _engine_seed
    seed, grid, n, trials, pf0 = 9, (2.0, 6.0), 3, 10_000, 0.05
    deployments = preset_deployments(["los"], k=4, n=n, seed=seed, jammer=jammer)
    rows = rf.sweep(deployments, sigma_w2_dbm=grid, n_antennas=(n,), rules=(rule,),
                    trials=trials, target_pf0=pf0, seed=seed)
    # every noise point of a (deployment, antennas) pair is seeded by the pair
    _, _, wsn, jam = deployments[0]
    eng = rf.Engine(wsn.with_(noise_power=float(rf.db_to_lin(grid[1]))), jammer=jam,
                    seed=_engine_seed(seed, 0, 0))
    test = rf.calibrate_threshold(eng, rule, target_pf0=pf0, trials=trials)
    pd0 = rf.estimate_pd0(eng, test, trials=trials)
    assert rows[1]["sigma_w2_dbm"] == grid[1]
    assert rows[1]["gamma"] == test.gamma
    assert rows[1]["achieved_pf0"] == test.achieved_pf0
    assert rows[1]["pd0"] == pd0.estimate


def test_llr_detection_degrades_with_noise():
    grid = np.linspace(-6.0, 12.0, 10)
    rows = rf.sweep(preset_deployments(["los"], k=4, n=3, seed=5), sigma_w2_dbm=grid,
                    n_antennas=(3,), rules=("llr",), trials=10_000, target_pf0=0.05,
                    seed=5)
    assert len(rows) == 10
    for lo, hi in zip(rows, rows[1:]):
        slack = 2.0 * math.hypot(lo["pd0_stderr"], hi["pd0_stderr"])
        assert hi["pd0"] <= lo["pd0"] + slack, (lo["sigma_w2_dbm"], hi["sigma_w2_dbm"])


def test_csv_schema_and_round_trip(tmp_path):
    rows = run_small_sweep()
    path = tmp_path / "sweep.csv"
    rf.write_csv(rows, path)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == list(rf.CSV_COLUMNS)
    assert len(got) == 1 + len(rows)
    for rec, row in zip(got[1:], rows):
        parsed = dict(zip(rf.CSV_COLUMNS, rec))
        assert float(parsed["pd0"]) == row["pd0"]           # repr round-trips
        assert float(parsed["gamma"]) == row["gamma"]
        assert int(parsed["trials"]) == row["trials"]
        assert parsed["rule"] == row["rule"]
    assert "wall_time_s" not in got[0]


def test_roc_points_track_their_targets():
    wsn, _ = make_deployment(preset="los", k=5, n=4, seed=77)
    eng = rf.Engine(wsn, seed=8)
    pts = roc_points(eng, "is", trials=20_000, levels=(0.3, 0.1, 0.05))
    assert [p["target_pf0"] for p in pts] == [0.3, 0.1, 0.05]
    for p in pts:
        se = math.sqrt(p["target_pf0"] * (1 - p["target_pf0"]) / 20_000)
        assert abs(p["pf0"] - p["target_pf0"]) < 5 * se
        assert p["pd0"] > p["pf0"]        # informative rule on a LOS scenario
