"""Jammer-aware statistics: subspace GLRTs, floor solver, clairvoyant LRT."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import ricianfusion as rf
from conftest import aug_cov, force_ideal, force_kappa_zero, make_deployment
from test_fusion_rules import iid_pmf, mp_mixture_llr


def profile_loglik(la, lc, v2, s):
    s = np.asarray(s, dtype=float)[:, None]
    return (-np.sum(np.log(la[None, :] + s), axis=1)
            - np.sum(v2[None, :] / (lc[None, :] + s), axis=1))


def grid_refine_floor(la, lc, v2):
    """Independent maximizer of the concentrated log-likelihood.

    Dense log grid over a generous range, then bounded scalar refinement
    around the best grid point.  Shares no code with the bracket search of
    ``SigmaPolySolver``: it never looks at the slope or the curvature of L.
    """
    hi = 1e3 * max(la.max(), lc.max(), v2.max(), 1.0)
    grid = np.concatenate([[0.0], np.geomspace(1e-9, hi, 6000)])
    vals = profile_loglik(la, lc, v2, grid)
    i = int(np.argmax(vals))
    lo_b = grid[max(i - 1, 0)]
    hi_b = grid[min(i + 1, len(grid) - 1)]
    if hi_b <= lo_b:
        return grid[i], vals[i]
    res = minimize_scalar(lambda s: -profile_loglik(la, lc, v2, [s])[0],
                          bounds=(lo_b, hi_b), method="bounded",
                          options={"xatol": 1e-12})
    cands = np.array([0.0, grid[i], float(res.x)])
    cvals = profile_loglik(la, lc, v2, cands)
    j = int(np.argmax(cvals))
    return float(cands[j]), float(cvals[j])


# ------------------------------------------------------------------ solver

def test_floor_solver_matches_grid_refine_oracle():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(30):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, n))
        la = rng.uniform(0.1, 50.0, size=2 * n)
        lc = rng.uniform(0.1, 50.0, size=2 * (n - r))
        v2 = rng.uniform(0.0, 200.0, size=2 * (n - r))
        s_hat = rf.solve_sigma_poly(la, lc, v2)
        l_hat = profile_loglik(la, lc, v2, [s_hat])[0]
        _, l_ref = grid_refine_floor(la, lc, v2)
        worst = max(worst, l_ref - l_hat)
        assert s_hat >= 0.0
    assert worst <= 1e-6, f"solver log-likelihood trails the oracle by {worst:.2e}"


def test_floor_solver_interior_optima_are_stationary():
    rng = np.random.default_rng(901)
    checked = 0
    for _ in range(60):
        la = rng.uniform(0.5, 5.0, size=8)
        lc = rng.uniform(0.5, 5.0, size=4)
        v2 = rng.uniform(0.0, 80.0, size=4)
        s = rf.solve_sigma_poly(la, lc, v2)
        if s <= 1e-12:
            continue
        resid = abs(np.sum(1.0 / (la + s)) - np.sum(v2 / (lc + s) ** 2))
        scale = np.sum(1.0 / (la + s))
        assert resid <= 1e-6 * scale, (s, resid, scale)
        checked += 1
    assert checked >= 10       # the draw ranges make interior optima common


def test_floor_solver_known_answers():
    # identical eigenvalues collapse the stationarity condition to
    # 2N/(a+s) = V/(a+s)^2, i.e. s = V/(2N) - a when that is positive
    la = np.full(8, 2.0)
    lc = np.full(4, 2.0)
    v2 = np.full(4, 10.0)      # V = 40, 2N = 8 -> s = 5 - 2 = 3
    assert rf.solve_sigma_poly(la, lc, v2) == pytest.approx(3.0, rel=1e-9)
    # all measured energy zero: likelihood decreasing in s -> boundary 0
    assert rf.solve_sigma_poly(la, lc, np.zeros(4)) == 0.0
    # tiny energies: optimum stays at the boundary
    assert rf.solve_sigma_poly(la, lc, np.full(4, 1e-6)) == 0.0
    # no energy on a zero clean eigenvalue: [0, S] is a single point
    assert rf.solve_sigma_poly(np.array([0.5, 1.0]), np.array([0.0, 2.0]), np.zeros(2)) == 0.0
    # ... and with energy elsewhere: that term adds 0 to L at s = 0, not 0/0
    assert rf.solve_sigma_poly([0.5, 1.0], [0.0, 2.0], [0.0, 3.0]) == 0.0


def test_floor_solver_scale_equivariance():
    rng = np.random.default_rng(902)
    la = rng.uniform(0.2, 3.0, size=6)
    lc = rng.uniform(0.2, 3.0, size=4)
    v2 = rng.uniform(1.0, 60.0, size=4)
    base = rf.solve_sigma_poly(la, lc, v2)
    for c in (1e-3, 1e3):
        scaled = rf.solve_sigma_poly(c * la, c * lc, c * v2)
        assert scaled == pytest.approx(c * base, rel=1e-8, abs=1e-12)


def test_floor_solver_handles_near_equal_eigenvalues():
    la = np.array([1.0, 1.0 + 1e-12, 3.0, 3.0, 3.0 - 1e-12, 7.0])
    lc = np.array([2.0, 2.0 + 1e-13, 5.0])
    solver = rf.SigmaPolySolver(la, lc)
    v2 = np.array([30.0, 11.0, 60.0])
    s = solver.solve_batch(v2[None, :])[0]
    _, l_ref = grid_refine_floor(la, lc, v2)
    assert profile_loglik(la, lc, v2, [s])[0] >= l_ref - 1e-6


def slope_sign_changes(la, lc, v2, grid):
    """Sign changes of dL/ds over a grid of floors."""
    s = grid[:, None]
    slope = np.sum(v2 / (lc + s) ** 2, axis=1) - np.sum(1.0 / (la + s), axis=1)
    return int(np.count_nonzero(np.diff(np.sign(slope))))


def test_floor_solver_at_folds_and_boundary_optima():
    # one small clean eigenvalue with little energy and three large ones with
    # much: as v2 = t * v0 grows, a local maximum and a local minimum of L
    # appear or merge.  Bisecting t on the number of slope sign changes puts
    # v2 on such a fold, where the slope has a near-double root.
    rng = np.random.default_rng(907)
    grid = np.r_[0.0, np.geomspace(1e-4, 1e5, 4000)]
    ts = np.geomspace(1e-2, 1e1, 100)
    folds = boundary = 0
    worst = 0.0
    for _ in range(8):
        la = 10 ** rng.uniform(-0.5, 0.5, size=8)
        lc = 10 ** np.r_[rng.uniform(-2.5, -1.5), rng.uniform(1.5, 2.5, size=3)]
        v0 = 10 ** np.r_[-4.0, rng.uniform(3.5, 4.5, size=3)]

        def changes(t):
            return slope_sign_changes(la, lc, t * v0, grid)

        counts = np.array([changes(t) for t in ts])
        cases = [1e-3 * ts[0] * v0]          # L decreases throughout
        for k in np.flatnonzero(np.abs(np.diff(counts)) == 2):
            # t_in keeps the extra pair of stationary points, t_out lacks it
            pair = k if counts[k] > counts[k + 1] else k + 1
            t_in, t_out = ts[pair], ts[2 * k + 1 - pair]
            for _ in range(60):
                t_mid = np.sqrt(t_in * t_out)
                if changes(t_mid) == counts[pair]:
                    t_in = t_mid
                else:
                    t_out = t_mid
            cases += [t_in * v0, t_out * v0]
            folds += 1
        for v2 in cases:
            s = rf.solve_sigma_poly(la, lc, v2)
            s_ref, l_ref = grid_refine_floor(la, lc, v2)
            worst = max(worst, l_ref - profile_loglik(la, lc, v2, [s])[0])
            if s_ref == 0.0:
                assert s == 0.0, (la, lc, v2)
                boundary += 1
    assert folds >= 8 and boundary >= 16, (folds, boundary)
    assert worst <= 1e-9, f"solver log-likelihood trails the oracle by {worst:.2e}"


def test_floor_solver_batch_matches_single():
    rng = np.random.default_rng(903)
    la = rng.uniform(0.5, 4.0, size=10)
    lc = rng.uniform(0.5, 4.0, size=6)
    solver = rf.SigmaPolySolver(la, lc)
    v2 = rng.uniform(0.0, 100.0, size=(40, 6))
    batch = solver.solve_batch(v2)
    singles = np.array([solver.solve_batch(v[None, :])[0] for v in v2])
    # batched BLAS paths may differ from single-row ones in the last ulp
    np.testing.assert_allclose(batch, singles, rtol=1e-9, atol=1e-12)


def test_floor_solver_validation():
    with pytest.raises(ValueError):
        rf.SigmaPolySolver(np.array([]), np.array([1.0]))
    with pytest.raises(ValueError):
        rf.SigmaPolySolver(np.array([1.0, -0.1]), np.array([1.0]))
    with pytest.raises(ValueError):
        rf.SigmaPolySolver(np.array([1.0, np.inf]), np.array([1.0]))
    solver = rf.SigmaPolySolver(np.ones(4), np.ones(2))
    with pytest.raises(ValueError):
        solver.solve_batch(np.array([[1.0, 2.0, 3.0]]))
    with pytest.raises(ValueError):
        solver.solve_batch(np.array([[1.0, -2.0]]))
    with pytest.raises(ValueError):          # batches only
        solver.solve_batch(np.array([1.0, 2.0]))


# ------------------------------------------------------------------ piecewise

def test_piecewise_reference_branches_and_continuity():
    n, a2, b2 = 4, 1.0, 3.0
    f = lambda e: rf.nlos_piecewise_reference(e, a2, b2, n)
    # branch values
    assert f(0.0) == pytest.approx(n * np.log(a2 / b2), rel=1e-12)
    assert f(n * b2) == 0.0
    assert f(10 * n * b2) == 0.0
    # continuity at both knots
    for knot in (n * a2, n * b2):
        assert f(knot - 1e-9) == pytest.approx(f(knot + 1e-9), abs=1e-6)
    # larger projected energy never lowers the statistic
    e = np.linspace(0.0, n * b2, 500)
    vals = f(e)
    assert np.all(np.diff(vals) >= -1e-12)
    assert vals[0] < 0.0
    with pytest.raises(ValueError):
        rf.nlos_piecewise_reference(1.0, 3.0, 1.0, n)
    with pytest.raises(ValueError):
        rf.nlos_piecewise_reference(-1.0, 1.0, 3.0, n)


# ------------------------------------------------------------------ workspace

def test_workspace_invariants(jammed_pair):
    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    ws = rf.build_workspace(ctx, jam)
    n, r = wsn.n_antennas, jam.rank
    # halves of the real coordinates: [0..n) real parts, [n..2n) imaginary
    # parts; the first r coordinates of each half carry the jammer
    np.testing.assert_array_equal(ws.clean, [*range(r, n), *range(n + r, 2 * n)])
    # rotated as igmm_glrt rotates a measurement, the jammer's mixing columns
    # leave nothing in the clean coordinates
    rotated = rf.real_coords(jam.a_j.T @ jam.u_j.conj())
    np.testing.assert_allclose(rotated[:, ws.clean], 0.0, atol=1e-12 * np.abs(rotated).max())
    for i, char in enumerate(ctx.char):
        solver = ws.solvers[i]
        # the basis change preserves the spectrum of the real covariance,
        # which is half that of the augmented one
        np.testing.assert_allclose(solver.lambda_a, np.linalg.eigvalsh(char.real_cov),
                                   atol=1e-8)
        np.testing.assert_allclose(2.0 * solver.lambda_a,
                                   np.linalg.eigvalsh(aug_cov(char)), atol=1e-8)
        assert solver.lambda_c.shape == (2 * (n - r),)
        assert solver.lambda_c.min() >= 0.0
        uc = ws.u_c[i]        # real orthonormal eigenbasis of the clean block
        assert np.isrealobj(uc)
        np.testing.assert_allclose(uc.T @ uc, np.eye(2 * (n - r)), atol=1e-10)
    mismatched = rf.make_context(wsn.with_(n_antennas=n + 1))
    with pytest.raises(ValueError):
        rf.build_workspace(mismatched, jam)


# ------------------------------------------------------------------ clairvoyant

def test_clairvoyant_without_jammer_is_the_plain_llr(small_ctx):
    rng = np.random.default_rng(600)
    n = small_ctx.scenario.n_antennas
    y = rf.crandn(rng, (25, n), var=2.0)
    got = rf.evaluate_jam("clairvoyant", y, small_ctx, None)
    np.testing.assert_array_equal(got, rf.llr(y, small_ctx))


def test_clairvoyant_matches_shift_and_inflation_oracle_k1():
    wsn, jam = make_deployment(k=1, n=3, seed=51, jammer="los-jam")
    ctx = rf.make_context(wsn)
    pmf0, pmf1 = iid_pmf(wsn.pf, 1), iid_pmf(wsn.pd, 1)
    rng = np.random.default_rng(52)
    psi = rf.draw_psi(jam, rng, size=10)
    y = rf.crandn(rng, (10, 3), var=5.0)
    got = rf.llr(y, ctx, jam, psi)
    shift = jam.los(psi)
    inflated = wsn.with_(noise_power=wsn.noise_power + float(jam.nu.sum()))
    for i in range(10):
        want = mp_mixture_llr(y[i] - shift[i], inflated, pmf0, pmf1)
        assert got[i] == pytest.approx(want, abs=1e-9)


def test_clairvoyant_cancels_matched_mean_shifts(jammed_pair):
    # the scattered power does not depend on the symbol phases; shifting the
    # received signal by the matching LOS image must cancel exactly
    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(57)
    psi = rf.draw_psi(jam, rng, size=15)
    psi2 = psi * np.exp(2j * np.pi * rng.random(psi.shape))
    y = rf.crandn(rng, (15, wsn.n_antennas), var=4.0)
    delta = jam.los(psi2) - jam.los(psi)
    got = rf.llr(y + delta, ctx, jam, psi2)
    want = rf.llr(y, ctx, jam, psi)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


def test_clairvoyant_pure_los_jammer_reduces_to_shifted_llr(jammed_pair):
    wsn, jam = jammed_pair
    los_only = jam.with_(kappa=np.full(jam.rank, 1e16))
    assert float(los_only.nu.sum()) == 0.0      # no scattered inflation at all
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(53)
    psi = rf.draw_psi(los_only, rng, size=12)
    y = rf.crandn(rng, (12, wsn.n_antennas), var=3.0)
    got = rf.llr(y, ctx, los_only, psi)
    want = rf.llr(y - los_only.los(psi), ctx)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


# ------------------------------------------------------------------ GLRTs

def test_glrts_ignore_interference_subspace_shifts(jammed_pair):
    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    ws = rf.build_workspace(ctx, jam)
    rng = np.random.default_rng(54)
    y = rf.crandn(rng, (30, wsn.n_antennas), var=4.0)
    delta = 10.0 * rf.crandn(rng, (30, jam.rank))
    y_shift = y + delta @ jam.a_j.T
    pairs = [
        (rf.is_glrt(y, ctx, jam), rf.is_glrt(y_shift, ctx, jam)),
        (rf.nlos_glrt(y, jam), rf.nlos_glrt(y_shift, jam)),
        (rf.igmm_glrt(y, ctx, jam, ws), rf.igmm_glrt(y_shift, ctx, jam, ws)),
    ]
    for base, shifted in pairs:
        scale = np.abs(base).max() + 1.0
        np.testing.assert_allclose(shifted, base, atol=1e-7 * scale)


def test_ideal_sensors_collapse_subspace_glrts_onto_each_other(jammed_pair):
    wsn, jam = jammed_pair
    ideal = force_ideal(wsn)
    ctx = rf.make_context(ideal)
    rng = np.random.default_rng(56)
    x = rf.draw_decisions(ideal, rf.H1, rng, size=400)
    y, _ = rf.draw_jammed(ideal, jam, x, rng)
    a = rf.igmm_glrt(y, ctx, jam)
    b = rf.is_glrt(y, ctx, jam)
    scale = np.abs(b).max() + 1.0
    np.testing.assert_allclose(a, b, atol=1e-9 * scale)


def test_zero_rician_factors_reduce_glrts_to_piecewise_energy_forms(jammed_pair):
    wsn, jam = jammed_pair
    flat = force_kappa_zero(wsn)
    ctx = rf.make_context(flat)
    rng = np.random.default_rng(57)
    x = rf.draw_decisions(flat, rf.H1, rng, size=600)
    y, _ = rf.draw_jammed(flat, jam, x, rng)
    e = rf.nlos_glrt(y, jam)
    n = flat.n_antennas
    ref_is = rf.nlos_piecewise_reference(
        e, flat.noise_power, flat.noise_power + float(flat.nu.sum()), n)
    np.testing.assert_allclose(rf.is_glrt(y, ctx, jam), ref_is, atol=1e-9)
    s0 = float(flat.beta @ flat.pf + flat.noise_power)
    s1 = float(flat.beta @ flat.pd + flat.noise_power)
    ref_igmm = rf.nlos_piecewise_reference(e, s0, s1, n)
    np.testing.assert_allclose(rf.igmm_glrt(y, ctx, jam), ref_igmm, atol=1e-9)


def test_is_glrt_clamps_on_received_signals_inside_the_jammer_subspace(jammed_pair):
    # y_s in range(A_J): the H0 residual vanishes, the H0 floor estimate
    # clamps to the noise power, and the statistic reduces to a closed form
    # driven only by the projected all-active mean
    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(58)
    y = 3.0 * rf.crandn(rng, (20, jam.rank)) @ jam.a_j.T
    n = wsn.n_antennas
    s0 = wsn.noise_power
    s1 = s0 + float(wsn.nu.sum())
    n1 = np.sum(np.abs((y - wsn.a_tilde.sum(axis=1)) @ jam.p_perp.T) ** 2, axis=1)
    v1 = s1 + np.maximum(n1 / n - s1, 0.0)
    want = n * np.log(s0 / v1) - n1 / v1
    np.testing.assert_allclose(rf.is_glrt(y, ctx, jam), want, rtol=1e-9, atol=1e-9)


def test_nlos_glrt_vanishes_inside_the_jammer_subspace(jammed_pair):
    wsn, jam = jammed_pair
    rng = np.random.default_rng(59)
    y = 5.0 * rf.crandn(rng, (20, jam.rank)) @ jam.a_j.T
    scale = float(np.sum(np.abs(y) ** 2, axis=1).max())
    assert np.abs(rf.nlos_glrt(y, jam)).max() < 1e-12 * scale


def test_nlos_glrt_broadside_jammer_closed_form():
    # single all-ones mixing column: the clean-subspace energy is the total
    # energy minus the energy of the coherent sum
    n = 6
    jam = rf.JammerScenario(phi=np.array([np.pi / 2]), beta=np.array([3.0]),
                            kappa=np.array([9.0]), n_antennas=n)
    y = rf.crandn(np.random.default_rng(60), (40, n), var=2.0)
    want = np.sum(np.abs(y) ** 2, axis=1) - np.abs(y.sum(axis=1)) ** 2 / n
    np.testing.assert_allclose(rf.nlos_glrt(y, jam), want, rtol=1e-10, atol=1e-12)


def test_nlos_glrt_decisions_match_direct_energy_thresholding(jammed_pair):
    # calibrated decisions agree with thresholding the projected energy itself
    wsn, jam = jammed_pair
    eng = rf.Engine(wsn, jammer=jam, seed=31)
    trials = 4000
    test = rf.calibrate_threshold(eng, "nlos-glrt", target_pf0=0.05, trials=trials)
    for h in (rf.H0, rf.H1):
        batch = eng.sample(h, trials, stream=2)
        vals = eng.eval("nlos-glrt", batch)
        energy = np.sum(np.abs(batch.y @ jam.p_perp.T) ** 2, axis=1)
        gamma_e = rf.upper_quantile(
            np.sum(np.abs(eng.sample(rf.H0, trials, 0).y @ jam.p_perp.T) ** 2, axis=1),
            test.target_pf0)
        np.testing.assert_array_equal(vals > test.gamma, energy > gamma_e)


def test_igmm_glrt_vanishes_when_hypotheses_coincide(jammed_pair):
    wsn, jam = jammed_pair
    same = wsn.with_(pd=0.3, pf=0.3)
    ctx = rf.make_context(same)
    y = rf.crandn(np.random.default_rng(62), (25, wsn.n_antennas), var=3.0)
    np.testing.assert_allclose(rf.igmm_glrt(y, ctx, jam), 0.0, atol=1e-9)


def test_nlos_glrt_equals_clean_subspace_energy(jammed_pair):
    wsn, jam = jammed_pair
    rng = np.random.default_rng(58)
    y = rf.crandn(rng, (40, wsn.n_antennas), var=2.0)
    want = np.sum(np.abs(y @ jam.u_j[:, jam.rank:].conj()) ** 2, axis=1)
    np.testing.assert_allclose(rf.nlos_glrt(y, jam), want, rtol=1e-10)


def test_jam_dispatch(jammed_pair):
    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    y = rf.crandn(np.random.default_rng(59), (5, wsn.n_antennas))
    for rule in rf.JAM_RULES:
        psi = rf.draw_psi(jam, np.random.default_rng(60), 5)
        vals = rf.evaluate_jam(rule, y, ctx, jam, psi=psi)
        assert vals.shape == (5,) and np.all(np.isfinite(vals))
    with pytest.raises(ValueError):
        rf.evaluate_jam("unknown", y, ctx, jam)
    with pytest.raises(ValueError):
        rf.evaluate_jam("nlos", y, ctx, jam)
    with pytest.raises(ValueError):
        rf.evaluate_jam("is-glrt", y, ctx, None)


def test_igmm_glrt_precomputed_workspace_matches_ad_hoc(jammed_pair):
    wsn, jam = jammed_pair
    ctx = rf.make_context(wsn)
    ws = rf.build_workspace(ctx, jam)
    y = rf.crandn(np.random.default_rng(61), (16, wsn.n_antennas), var=2.0)
    np.testing.assert_array_equal(rf.igmm_glrt(y, ctx, jam, ws),
                                  rf.igmm_glrt(y, ctx, jam))
