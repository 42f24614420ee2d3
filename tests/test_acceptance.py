"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every stochastic criterion runs with a frozen seed that was verified once to
leave clear statistical margin; tolerances below are the acceptance bands,
not tuned to the realized draws.  Runtimes are printed for budgeting, not
asserted.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

import ricianfusion as rf
from conftest import (complex_char, force_ideal, force_kappa_zero, make_deployment,
                      moment_zscores)
from test_jamming_rules import grid_refine_floor, profile_loglik

RESULTS = []


def _report(name, ok, detail, t0):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail} ({time.perf_counter() - t0:.1f}s)"
    RESULTS.append(line)
    print(line)
    assert ok, line


def _margin(a, b):
    """(a - b) in units of the combined Monte Carlo stderr."""
    return (a.estimate - b.estimate) / math.sqrt(a.stderr ** 2 + b.stderr ** 2 + 1e-300)


def _pd0(engine, rule, trials=20_000, target=0.01):
    test = rf.calibrate_threshold(engine, rule, target, trials)
    return rf.estimate_pd0(engine, test, trials)


def test_criterion_1_zero_rician_equivalences():
    t0 = time.perf_counter()
    wsn, _ = make_deployment(preset="nlos", k=14, n=6, seed=101)
    eng = rf.Engine(force_kappa_zero(wsn), seed=11)
    r_is = rf.equivalence_check(eng, "is", "nlos", 10_000)
    r_igmm = rf.equivalence_check(eng, "igmm", "nlos", 10_000)
    ok = r_is.verdict == "equivalent" and r_igmm.verdict == "equivalent"
    _report("criterion 1 (all-kappa-zero: is~nlos, igmm~nlos)", ok,
            f"verdicts is={r_is.verdict}, igmm={r_igmm.verdict} "
            f"over 1e4 trials at levels {r_is.levels}", t0)


def test_criterion_2_ideal_sensor_equivalences():
    t0 = time.perf_counter()
    wsn, _ = make_deployment(preset="intermediate", k=10, n=6, seed=102)
    ideal = force_ideal(wsn)
    eng = rf.Engine(ideal, seed=12)
    r_igmm = rf.equivalence_check(eng, "igmm", "is", 10_000)
    r_wl = rf.equivalence_check(eng, "wl0", "wl1", 10_000)
    rng = np.random.default_rng(13)
    x = rf.draw_decisions(ideal, rf.H1, rng, size=1000)
    y = rf.draw_received(ideal, x, rng)
    rho = float(spearmanr(rf.llr(y, eng.ctx), rf.is_rule(y, eng.ctx)).statistic)
    ok = (r_igmm.verdict == "equivalent" and r_wl.verdict == "equivalent"
          and rho >= 1.0 - 1e-12)
    _report("criterion 2 (ideal sensors: igmm~is, wl0~wl1, llr rank-matches is)",
            ok, f"verdicts igmm={r_igmm.verdict}, wl={r_wl.verdict}, "
            f"llr-is spearman={rho:.12f} over 1e3 draws", t0)


def test_criterion_3_ideal_sensor_jammer_equivalence():
    t0 = time.perf_counter()
    verdicts = {}
    for jp in ("los-jam", "weak-los-jam"):
        wsn, jam = make_deployment(preset="los", k=14, n=6, seed=103, jammer=jp)
        eng = rf.Engine(force_ideal(wsn), jammer=jam, seed=14)
        verdicts[jp] = rf.equivalence_check(eng, "igmm-glrt", "is-glrt", 10_000).verdict
    ok = all(v == "equivalent" for v in verdicts.values())
    _report("criterion 3 (ideal sensors + jammer: igmm-glrt~is-glrt)", ok,
            f"verdicts {verdicts} over 1e4 trials", t0)


def test_criterion_4_closed_form_moments_match_sampling():
    t0 = time.perf_counter()
    wsn, _ = make_deployment(preset="intermediate", k=14, n=6, seed=2026)
    rng = np.random.default_rng(4)
    worst_z, worst_rel, compared = 0.0, 0.0, 0
    for h in (rf.H0, rf.H1):
        char = complex_char(wsn, h)
        x = rf.draw_decisions(wsn, h, rng, size=100_000)
        y = rf.draw_received(wsn, x, rng)
        z, n_cmp = moment_zscores(char, y)
        worst_z = max(worst_z, z)
        compared += n_cmp
        d = y - char.mean
        emp_diag = np.mean(np.abs(d) ** 2, axis=0)
        rel = np.abs(emp_diag - np.diag(char.cov).real) / np.diag(char.cov).real
        worst_rel = max(worst_rel, float(rel.max()))
    ok = worst_z < 3.0 and worst_rel < 0.05
    _report("criterion 4 (mean/cov/pseudo-cov vs 1e5 draws)", ok,
            f"max |z|={worst_z:.2f} over {compared} entries (limit 3), "
            f"max diag rel err={worst_rel:.4f} (limit 0.05)", t0)


def test_criterion_5_floor_solver_versus_grid_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(501)
    worst_gap, worst_resid, interior = 0.0, 0.0, 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        la = rng.uniform(0.1, 50.0, size=2 * n)
        lc = rng.uniform(0.1, 50.0, size=2 * (n - r))
        v2 = rng.uniform(0.0, 200.0, size=2 * (n - r))
        s_hat = rf.solve_sigma_poly(la, lc, v2)
        l_hat = profile_loglik(la, lc, v2, [s_hat])[0]
        _, l_ref = grid_refine_floor(la, lc, v2)
        worst_gap = max(worst_gap, abs(l_ref - l_hat))
        if s_hat > 1e-9:
            interior += 1
            scale = float(np.sum(1.0 / (la + s_hat)))
            resid = abs(np.sum(1.0 / (la + s_hat)) - np.sum(v2 / (lc + s_hat) ** 2))
            worst_resid = max(worst_resid, resid / scale)
    ok = worst_gap <= 1e-6 and worst_resid <= 1e-6 and interior > 0
    _report("criterion 5 (floor-solver likelihood vs grid+refine, 100 instances)",
            ok, f"max |loglik gap|={worst_gap:.2e} (limit 1e-6), "
            f"max stationarity resid={worst_resid:.2e} rel over {interior} "
            f"interior optima", t0)


def test_criterion_6_zero_rician_glrt_piecewise_reduction():
    t0 = time.perf_counter()
    wsn, jam = make_deployment(preset="los", k=14, n=6, seed=601, jammer="los-jam")
    flat = force_kappa_zero(wsn)
    ctx = rf.make_context(flat)
    rng = np.random.default_rng(61)
    scales = np.geomspace(0.03, 30.0, 1000)
    y = rf.crandn(rng, (1000, 6)) * scales[:, None]
    e = rf.nlos_glrt(y, jam)
    n = flat.n_antennas
    pairs = {
        "is-glrt": (rf.is_glrt(y, ctx, jam),
                    flat.noise_power, flat.noise_power + float(flat.nu.sum())),
        "igmm-glrt": (rf.igmm_glrt(y, ctx, rf.build_workspace(ctx, jam)),
                      float(flat.beta @ flat.pf + flat.noise_power),
                      float(flat.beta @ flat.pd + flat.noise_power)),
    }
    worst = 0.0
    branches_ok = True
    for rule, (got, s_a, s_b) in pairs.items():
        ref = rf.nlos_piecewise_reference(e, s_a, s_b, n)
        worst = max(worst, float(np.max(np.abs(got - ref))))
        avg = e / n
        counts = (int(np.sum(avg < s_a)), int(np.sum((avg >= s_a) & (avg < s_b))),
                  int(np.sum(avg >= s_b)))
        branches_ok &= all(c > 0 for c in counts)
    ok = worst <= 1e-9 and branches_ok
    _report("criterion 6 (all-kappa-zero GLRTs equal piecewise reference)", ok,
            f"max |diff|={worst:.2e} over 1e3 draws (limit 1e-9), "
            f"all three branches exercised={branches_ok}", t0)


def test_criterion_7_likelihood_ratio_dominance():
    t0 = time.perf_counter()
    details = []
    worst = math.inf
    for preset in ("los", "intermediate", "nlos"):
        for n in (2, 6):
            wsn, _ = make_deployment(preset=preset, k=10, n=n, seed=710)
            eng = rf.Engine(wsn, seed=71)
            ref = _pd0(eng, "llr")
            for rule in ("is", "nlos", "wl0", "wl1", "igmm"):
                m = _margin(ref, _pd0(eng, rule))
                worst = min(worst, m)
            details.append(f"{preset}/N={n}: llr pd0={ref.estimate:.3f}")
    wsn, jam = make_deployment(preset="los", k=10, n=6, seed=711, jammer="los-jam")
    eng = rf.Engine(wsn, jammer=jam, seed=72)
    ref = _pd0(eng, "clairvoyant")
    worst_jam = min(_margin(ref, _pd0(eng, rule))
                    for rule in ("is-glrt", "nlos-glrt", "igmm-glrt"))
    ok = worst >= -2.0 and worst_jam >= -2.0
    _report("criterion 7 (llr dominates free rules; clairvoyant dominates GLRTs)",
            ok, f"worst free margin={worst:.1f} sigma, worst jammed margin="
            f"{worst_jam:.1f} sigma (limit -2); clairvoyant pd0={ref.estimate:.3f}",
            t0)


def test_criterion_8_qualitative_performance_trends():
    t0 = time.perf_counter()
    # (a) exact-LLR detection never improves when the noise floor rises
    wsn, _ = make_deployment(preset="los", k=10, n=6, seed=810)
    series = []
    for s_dbm in (-10.0, -5.0, 0.0, 5.0, 10.0):
        eng = rf.Engine(wsn.with_(noise_power=float(rf.db_to_lin(s_dbm))), seed=81)
        series.append(_pd0(eng, "llr"))
    worst_a = min(_margin(series[i], series[i + 1]) for i in range(len(series) - 1))
    ok_a = worst_a >= -2.0

    # (b) under jamming, projecting the jammer out buys a significant gain
    wsn, jam = make_deployment(preset="los", k=14, n=6, seed=811, jammer="los-jam")
    eng = rf.Engine(wsn, jammer=jam, seed=82)
    pd0 = {rule: _pd0(eng, rule) for rule in ("is", "nlos", "is-glrt", "nlos-glrt")}
    m_is = _margin(pd0["is-glrt"], pd0["is"])
    m_nlos = _margin(pd0["nlos-glrt"], pd0["nlos"])
    ok_b = m_is > 2.0 and m_nlos > 2.0

    # (c) every interference-aware rule improves with more antennas
    # (rank-1 jammer so the N=2 point satisfies r < N)
    wsn, jam = make_deployment(preset="los", k=14, n=8, seed=2, jammer="los-jam",
                               jammer_rank=1)
    worst_c = math.inf
    for rule in ("is-glrt", "nlos-glrt", "igmm-glrt"):
        pts = []
        for n in (2, 4, 6, 8):
            eng = rf.Engine(wsn.with_(n_antennas=n), jammer=jam.with_(n_antennas=n),
                            seed=902)
            pts.append(_pd0(eng, rule))
        worst_c = min(worst_c, min(_margin(pts[i + 1], pts[i]) for i in range(3)))
    ok_c = worst_c >= -2.0

    ok = ok_a and ok_b and ok_c
    _report("criterion 8 (trend reproduction)", ok,
            f"(a) llr monotone in noise: worst step={worst_a:.1f} sigma; "
            f"(b) glrt gains under jamming: +{m_is:.1f}/+{m_nlos:.1f} sigma; "
            f"(c) glrt family monotone in antennas: worst step={worst_c:.1f} sigma "
            f"(limits -2/+2/-2)", t0)


def test_criterion_9_calibration_accuracy():
    t0 = time.perf_counter()
    wsn, jam = make_deployment(preset="intermediate", k=10, n=6, seed=910,
                               jammer="los-jam")
    free_eng = rf.Engine(wsn, seed=91)
    jam_eng = rf.Engine(wsn, jammer=jam, seed=92)
    errs = {}
    for rule in rf.FREE_RULES + rf.JAM_RULES:
        eng = jam_eng if rule in rf.JAM_RULES else free_eng
        test = rf.calibrate_threshold(eng, rule, 0.01, 100_000)
        errs[rule] = abs(test.achieved_pf0 - 0.01)
    worst_rule = max(errs, key=errs.get)
    ok = errs[worst_rule] <= 0.004
    _report("criterion 9 (all rules calibrate to pf0=0.01 at 1e5 trials)", ok,
            f"worst |achieved-target|={errs[worst_rule]:.5f} ({worst_rule}) "
            f"over {len(errs)} rules (limit 0.004)", t0)
