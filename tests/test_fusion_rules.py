"""Interference-free fusion statistics against independent oracles."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import ricianfusion as rf
from conftest import (aug_cov, augment, force_ideal, force_kappa_zero, make_deployment,
                      real_to_aug)

mp.mp.dps = 60


def mp_mixture_llr(y, scenario, pmf0, pmf1):
    """Full-precision Gaussian-mixture log-likelihood ratio (mpmath, no shared code).

    Uses the complete log-densities including the pi^N constant, which cancels
    in the ratio; the library's logsumexp implementation must agree.
    """
    k, n = scenario.k_sensors, scenario.n_antennas
    table = rf.enumerate_decisions(k)

    def log_mixture(pmf):
        terms = []
        for j, x in enumerate(table):
            if pmf[j] == 0.0:
                continue
            s2 = mp.mpf(float(scenario.noise_power + x @ scenario.nu))
            mu = scenario.a_tilde @ x
            d2 = mp.mpf(0)
            for i in range(n):
                di = complex(y[i] - mu[i])
                d2 += mp.mpf(di.real) ** 2 + mp.mpf(di.imag) ** 2
            terms.append(mp.log(mp.mpf(float(pmf[j]))) - n * mp.log(mp.pi * s2) - d2 / s2)
        peak = max(terms)
        return peak + mp.log(mp.fsum(mp.e ** (t - peak) for t in terms))

    return float(log_mixture(pmf1) - log_mixture(pmf0))


def iid_pmf(p, k):
    table = rf.enumerate_decisions(k).astype(float)
    return np.prod(np.where(table == 1, np.asarray(p), 1 - np.asarray(p)), axis=1)


# ------------------------------------------------------------------- llr

def test_llr_matches_high_precision_mixture_oracle_k1():
    wsn, _ = make_deployment(k=1, n=2, seed=31)
    ctx = rf.make_context(wsn)
    pmf0, pmf1 = iid_pmf(wsn.pf, 1), iid_pmf(wsn.pd, 1)
    rng = np.random.default_rng(7)
    for _ in range(20):
        y = rf.crandn(rng, 2, var=4.0)
        got = rf.llr(y[None, :], ctx)[0]
        want = mp_mixture_llr(y, wsn, pmf0, pmf1)
        assert abs(got - want) < 1e-9, (got, want)


def test_llr_matches_oracle_with_an_ideal_sensor_k2():
    wsn, _ = make_deployment(k=2, n=3, seed=32)
    # an ideal first sensor (pd = 1, pf = 0) gives half of each mixture's
    # components probability zero: the log(0) = -inf component path
    wsn = wsn.with_(pd=[1.0, wsn.pd[1]], pf=[0.0, wsn.pf[1]])
    pmf0, pmf1 = iid_pmf(wsn.pf, 2), iid_pmf(wsn.pd, 2)
    assert np.sum(pmf0 == 0.0) == 2 and np.sum(pmf1 == 0.0) == 2
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(11)
    for _ in range(20):
        y = rf.crandn(rng, 3, var=2.0)
        got = rf.llr(y[None, :], ctx)[0]
        want = mp_mixture_llr(y, wsn, pmf0, pmf1)
        assert abs(got - want) < 1e-9, (got, want)


def test_llr_stays_finite_deep_in_the_tails(small_ctx):
    n = small_ctx.scenario.n_antennas
    rng = np.random.default_rng(3)
    y = rf.crandn(rng, (1, n))
    for scale in (0.0, 1.0, 1e3, 1e6):
        v = rf.llr(scale * y, small_ctx)
        assert np.all(np.isfinite(v))
    # ideal sensors put zero mass on mixed decision patterns yet stay finite
    ideal = force_ideal(small_ctx.scenario)
    v = rf.llr(y, rf.make_context(ideal))
    assert np.all(np.isfinite(v))


def test_llr_batch_equals_single_calls(small_ctx):
    rng = np.random.default_rng(4)
    ys = rf.crandn(rng, (17, small_ctx.scenario.n_antennas))
    batch = rf.llr(ys, small_ctx)
    singles = np.array([rf.llr(y[None, :], small_ctx)[0] for y in ys])
    # batched matmuls may round differently from single-row ones
    np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-12)


def test_llr_enumeration_cap_raises_cleanly():
    wsn, jam = make_deployment(k=rf.MAX_ENUM_K + 1, n=3, seed=17, jammer="los-jam")
    ctx = rf.make_context(wsn)
    y = np.ones((1, 3), dtype=complex)
    # the context builds, and rules that do not enumerate keep working
    assert np.all(np.isfinite(rf.evaluate("is", y, ctx)))
    with pytest.raises(rf.UnsupportedSizeError, match="K <= 16"):
        rf.llr(y, ctx)
    with pytest.raises(rf.UnsupportedSizeError):
        rf.evaluate("clairvoyant", y, ctx, jam, psi=rf.draw_psi(
            jam, np.random.default_rng(0), 1))
    assert issubclass(rf.UnsupportedSizeError, ValueError)


def test_llr_tables_are_built_on_first_read_only(small_ctx):
    assert "llr_tables" not in vars(small_ctx)
    y = np.zeros((1, small_ctx.scenario.n_antennas), dtype=complex)
    rf.evaluate("is", y, small_ctx)
    assert "llr_tables" not in vars(small_ctx)
    rf.llr(y, small_ctx)
    tables = small_ctx.llr_tables
    rf.llr(y, small_ctx)
    assert small_ctx.llr_tables is tables


# ------------------------------------------------------------------- is / nlos

def test_is_statistic_matches_scalar_hand_expansion():
    wsn, _ = make_deployment(k=3, n=2, seed=41)
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(5)
    ys = rf.crandn(rng, (16, 2), var=3.0)
    for y, got in zip(ys, rf.is_rule(ys, ctx)):
        mu_bar = [sum(wsn.a_tilde[i, k] for k in range(3)) / 3 for i in range(2)]
        cross = sum((mu_bar[i].conjugate() * y[i]).real for i in range(2))
        energy = sum(abs(y[i]) ** 2 for i in range(2))
        nu_bar = sum(wsn.nu) / 3
        want = 2 * cross + (nu_bar / wsn.noise_power) * energy
        assert got == pytest.approx(want, rel=1e-12)


def test_nlos_is_energy_and_unitarily_invariant(small_ctx):
    rng = np.random.default_rng(6)
    n = small_ctx.scenario.n_antennas
    y = rf.crandn(rng, (50, n))
    np.testing.assert_allclose(rf.nlos_rule(y), np.sum(np.abs(y) ** 2, axis=1),
                               rtol=1e-14)
    q, _ = np.linalg.qr(rf.crandn(rng, (n, n)))
    np.testing.assert_allclose(rf.nlos_rule(y @ q.T), rf.nlos_rule(y), rtol=1e-10)


def test_zero_and_unit_inputs_hit_closed_form_values(small_ctx):
    n = small_ctx.scenario.n_antennas
    zero = np.zeros((1, n), dtype=complex)
    np.testing.assert_array_equal(rf.is_rule(zero, small_ctx), [0.0])
    np.testing.assert_array_equal(rf.nlos_rule(zero), [0.0])
    np.testing.assert_array_equal(rf.nlos_rule(np.ones((1, n), dtype=complex)), [n])
    np.testing.assert_array_equal(rf.wl_rule(zero, rf.wl_weights(small_ctx, 0)), [0.0])


def test_zero_rician_factors_make_is_proportional_to_energy(small_wsn):
    # with no LOS component the mean channel matrix vanishes and the
    # matched-filter term drops out: is == (mean scattered power / noise) * energy
    wsn = force_kappa_zero(small_wsn)
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(12)
    y = rf.crandn(rng, (200, wsn.n_antennas), var=2.0)
    const = wsn.beta.sum() / (wsn.k_sensors * wsn.noise_power)
    np.testing.assert_allclose(rf.is_rule(y, ctx), const * rf.nlos_rule(y), rtol=1e-10)


def test_zero_rician_factors_make_igmm_proportional_to_energy(small_wsn):
    wsn = force_kappa_zero(small_wsn)
    ctx = rf.make_context(wsn)
    rng = np.random.default_rng(13)
    y = rf.crandn(rng, (200, wsn.n_antennas), var=2.0)
    s0 = wsn.noise_power + wsn.beta @ wsn.pf
    s1 = wsn.noise_power + wsn.beta @ wsn.pd
    const = 2.0 * (s1 - s0) / (s0 * s1)
    np.testing.assert_allclose(rf.igmm_rule(y, ctx), const * rf.nlos_rule(y),
                               rtol=1e-9, atol=1e-12)


# ------------------------------------------------------------------- wl

def random_augmented_direction(rng, n):
    u = rf.crandn(rng, n)
    z = np.concatenate([u, u.conj()])
    return z / np.linalg.norm(z)


def deflection(z, ctx, h):
    delta = augment(ctx.char[1].mean) - augment(ctx.char[0].mean)
    cov = aug_cov(ctx.scenario, h)
    num = abs(np.vdot(z, delta)) ** 2
    den = np.real(np.vdot(z, cov @ z))
    return num / den


def augmented_weights(w):
    """The augmented weights z = T w / 2 that read z^H [y; conj(y)] = w^T [Re y; Im y]."""
    return real_to_aug(w.size // 2) @ w / 2


@pytest.mark.parametrize("h", [0, 1])
def test_wl_weights_maximize_deflection_over_random_probes(small_ctx, h):
    z_opt = augmented_weights(rf.wl_weights(small_ctx, h))
    best = deflection(z_opt, small_ctx, h)
    rng = np.random.default_rng(100 + h)
    n = small_ctx.scenario.n_antennas
    for _ in range(1000):
        z = random_augmented_direction(rng, n)
        assert deflection(z, small_ctx, h) <= best * (1 + 1e-10)
    # and a perturbation of the optimum itself cannot improve it
    for eps in (1e-3, 1e-6):
        z = z_opt + eps * random_augmented_direction(rng, n)
        assert deflection(z, small_ctx, h) <= best * (1 + 1e-10)


def test_wl_weights_are_unit_norm(small_ctx):
    # unit norm in augmented coordinates: ||w|| = sqrt(2) in real ones
    for h in (0, 1):
        w = rf.wl_weights(small_ctx, h)
        assert np.isrealobj(w)
        assert np.linalg.norm(w) == pytest.approx(math.sqrt(2.0), rel=1e-12)
        assert np.linalg.norm(augmented_weights(w)) == pytest.approx(1.0, rel=1e-12)


def test_wl_statistic_with_basis_weights_reads_twice_the_real_part(small_ctx):
    # augmented z = [e1; e1] from the first standard basis vector picks out
    # 2*Re(y_1); its real weights are w = T^H z
    n = small_ctx.scenario.n_antennas
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    w = real_to_aug(n).conj().T @ augment(e1)
    np.testing.assert_array_equal(w.imag, 0.0)
    y = rf.crandn(np.random.default_rng(21), (25, n), var=2.0)
    np.testing.assert_allclose(rf.wl_rule(y, w.real), 2.0 * y[:, 0].real, rtol=1e-12)


def test_wl_statistic_is_real_linear(small_ctx):
    rng = np.random.default_rng(14)
    n = small_ctx.scenario.n_antennas
    y1, y2 = rf.crandn(rng, (1, n)), rf.crandn(rng, (1, n))
    z = rf.wl_weights(small_ctx, 0)
    s = lambda y: rf.wl_rule(y, z)
    assert s(y1 + y2) == pytest.approx(s(y1) + s(y2), rel=1e-10, abs=1e-12)
    assert s(2.5 * y1) == pytest.approx(2.5 * s(y1), rel=1e-12)


def test_wl_rule_rejects_inconsistent_weights(small_ctx):
    # weights are real and of length 2N; complex ones (even with a zero
    # imaginary part) or any other length are rejected
    n = small_ctx.scenario.n_antennas
    rng = np.random.default_rng(15)
    y = rf.crandn(rng, (1, n))
    for bad in (rf.crandn(rng, 2 * n), np.ones(2 * n, dtype=complex), np.ones(3),
                np.ones(2 * n + 2), np.ones((2 * n, 1))):
        with pytest.raises(ValueError, match="real vector of length"):
            rf.wl_rule(y, bad)


def test_wl_weights_degenerate_when_hypotheses_coincide(small_wsn):
    same = small_wsn.with_(pd=0.4, pf=0.4)
    ctx = rf.make_context(same)
    for h, rule in ((0, "wl0"), (1, "wl1")):
        with pytest.raises(rf.DegenerateWeightsError, match="identical transmit"):
            rf.wl_weights(ctx, h)
        with pytest.raises(rf.DegenerateWeightsError):
            rf.evaluate(rule, np.zeros((1, small_wsn.n_antennas), dtype=complex), ctx)


def test_wl_weights_degenerate_without_any_los(small_wsn):
    ctx = rf.make_context(force_kappa_zero(small_wsn))
    for h in (0, 1):
        with pytest.raises(rf.DegenerateWeightsError, match="vanishes"):
            rf.wl_weights(ctx, h)


# ------------------------------------------------------------------- igmm

def test_igmm_matches_direct_solve_mahalanobis_difference(small_ctx):
    rng = np.random.default_rng(16)
    ys = rf.crandn(rng, (32, small_ctx.scenario.n_antennas), var=2.0)
    got = rf.igmm_rule(ys, small_ctx)
    c0, c1 = small_ctx.char
    s0, s1 = (aug_cov(small_ctx.scenario, h) for h in (rf.H0, rf.H1))
    for y, g in zip(ys, got):
        ya = augment(y)
        d0 = ya - augment(c0.mean)
        d1 = ya - augment(c1.mean)
        q0 = np.real(np.vdot(d0, np.linalg.solve(s0, d0)))
        q1 = np.real(np.vdot(d1, np.linalg.solve(s1, d1)))
        assert g == pytest.approx(q0 - q1, rel=1e-9, abs=1e-9)


def test_llr_vanishes_when_hypotheses_coincide(small_wsn):
    same = small_wsn.with_(pd=0.3, pf=0.3)
    ctx = rf.make_context(same)
    y = rf.crandn(np.random.default_rng(19), (30, small_wsn.n_antennas), var=5.0)
    np.testing.assert_allclose(rf.llr(y, ctx), 0.0, atol=1e-12)


def test_igmm_vanishes_when_hypotheses_coincide(small_wsn):
    same = small_wsn.with_(pd=0.25, pf=0.25)
    ctx = rf.make_context(same)
    y = rf.crandn(np.random.default_rng(17), (20, small_wsn.n_antennas))
    np.testing.assert_allclose(rf.igmm_rule(y, ctx), 0.0, atol=1e-9)


# ------------------------------------------------------------------- shared

def test_rules_are_deterministic(small_ctx):
    y = rf.crandn(np.random.default_rng(18), (8, small_ctx.scenario.n_antennas))
    for rule in rf.FREE_RULES:
        a = rf.evaluate(rule, y, small_ctx)
        b = rf.evaluate(rule, y, small_ctx)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))


# the corners of the parameter range: few sensors, N = r + 1, extreme noise,
# sensors that always or never transmit, and no or nearly pure LOS
@settings(max_examples=25, deadline=None, derandomize=True)
@given(k=st.integers(1, 6),
       n_r=st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1))),
       noise_dbm=st.floats(-150.0, 80.0),
       rates=st.sampled_from([(0.5, 0.05), (1.0, 0.0), (1.0, 0.05), (0.5, 0.0)]),
       kappa=st.sampled_from([0.0, 1e8]), jammer_kappa=st.sampled_from([None, 1e8]),
       seed=st.integers(0, 1000))
def test_every_kernel_is_finite_or_raises_a_named_error(k, n_r, noise_dbm, rates, kappa,
                                                        jammer_kappa, seed):
    n, r = n_r
    wsn, jam = make_deployment(k=k, n=n, seed=seed, jammer="los-jam", jammer_rank=r,
                               pd=rates[0], pf=rates[1])
    wsn = wsn.with_(kappa=kappa, noise_power=float(rf.db_to_lin(noise_dbm)))
    if jammer_kappa is not None:
        jam = jam.with_(kappa=np.full(r, jammer_kappa))
    ctx = rf.make_context(wsn)
    ws = rf.build_workspace(ctx, jam)
    for h in (rf.H0, rf.H1):
        rng = np.random.default_rng(seed)
        y, psi = rf.draw_jammed(wsn, jam, rf.draw_decisions(wsn, h, rng, 64), rng)
        for name, rule in rf.RULES.items():
            try:
                vals = rule.kernel(y, ctx, jam, ws, psi)
            except (rf.DegenerateWeightsError, rf.UnsupportedSizeError):
                continue
            assert vals.shape == (64,) and np.all(np.isfinite(vals)), (name, h)


# the edges of the noise-power domain the CLI accepts (cli.DBM_LIMIT): every
# statistic stays finite there, without a warning, for every kind of sensor
# (wl0/wl1 have no direction without LOS, a named error at any noise power)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(preset=st.sampled_from(sorted(rf.PRESETS)), k=st.sampled_from([1, 3, 10]),
       n=st.sampled_from([3, 6]), noise_dbm=st.sampled_from([-1000.0, 1000.0]),
       rates=st.sampled_from([(0.5, 0.05), (1.0, 0.0), (1.0, 0.05)]),
       kappa=st.sampled_from([None, 0.0, 1e8]), seed=st.integers(0, 1000))
def test_every_rule_is_finite_at_the_edges_of_the_noise_power_domain(preset, k, n, noise_dbm,
                                                                     rates, kappa, seed):
    wsn, jam = make_deployment(preset, k=k, n=n, seed=seed, jammer="los-jam",
                               pd=rates[0], pf=rates[1])
    wsn = wsn.with_(noise_power=float(rf.db_to_lin(noise_dbm)))
    if kappa is not None:
        wsn = wsn.with_(kappa=kappa)
    ctx = rf.make_context(wsn)
    ws = rf.build_workspace(ctx, jam)
    for h in (rf.H0, rf.H1):
        rng = np.random.default_rng(seed)
        x = rf.draw_decisions(wsn, h, rng, 64)
        clean = rf.draw_received(wsn, x, rng)
        y, psi = rf.draw_jammed(wsn, jam, x, rng)
        for name, rule in rf.RULES.items():
            for batch in ((y,) if rule.jammer_aware else (clean, y)):
                try:
                    vals = rule.kernel(batch, ctx, jam, ws, psi)
                except rf.DegenerateWeightsError:
                    assert kappa == 0.0, name
                    continue
                assert vals.shape == (64,) and np.all(np.isfinite(vals)), (name, h)


def test_widely_linear_weights_that_underflow_are_a_numerical_error(small_wsn):
    # at 2000 dBm the weights shrink like 1/sigma^2 until their norm
    # underflows: a numerical failure, not a degenerate direction
    ctx = rf.make_context(small_wsn.with_(noise_power=float(rf.db_to_lin(2000.0))))
    for h in (rf.H0, rf.H1):
        with pytest.raises(np.linalg.LinAlgError, match="weight norm is 0"):
            rf.wl_weights(ctx, h)


def test_wl_weights_solve_at_a_badly_conditioned_corner():
    # K = 1, N = 2, -83 dBm, kappa = 80 dB: the H1 covariance has condition
    # number ~6e7, and both weight vectors must match the augmented reference
    wsn, jam = make_deployment(k=1, n=2, seed=0, jammer="los-jam", jammer_rank=1)
    wsn = wsn.with_(kappa=1e8, pd=0.5, pf=0.05, noise_power=float(rf.db_to_lin(-83.0)))
    ctx = rf.make_context(wsn)
    gap = augment(wsn.a_tilde @ (wsn.pd - wsn.pf))
    rng = np.random.default_rng(0)
    y, _ = rf.draw_jammed(wsn, jam, rf.draw_decisions(wsn, rf.H1, rng, 64), rng)
    for h, name in ((rf.H1, "wl1"), (rf.H0, "wl0")):
        got = rf.evaluate(name, y, ctx)
        z = np.linalg.solve(aug_cov(wsn, h), gap)
        z /= np.linalg.norm(z)
        ref = (augment(y) @ z.conj()).real
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, ref, rtol=1e-6, atol=1e-6 * np.abs(ref).max())
        w = rf.wl_weights(ctx, h)
        assert np.all(np.isfinite(w))
        np.testing.assert_allclose(augmented_weights(w), z, rtol=1e-6,
                                   atol=1e-6 * np.abs(z).max())


def test_llr_collapses_to_is_rule_when_scattering_dominates():
    # weak-LOS regime: the exact LLR orders samples like the ideal-sensor
    # statistic once the deterministic component is far below the noise floor
    wsn, _ = make_deployment(preset="intermediate", k=6, n=4, seed=77)
    weak = wsn.with_(noise_power=1e4 * float(wsn.beta.sum()))
    ctx = rf.make_context(weak)
    rng = np.random.default_rng(55)
    x = rf.draw_decisions(weak, rf.H1, rng, size=1500)
    y = rf.draw_received(weak, x, rng)
    corr = spearmanr(rf.llr(y, ctx), rf.is_rule(y, ctx)).statistic
    assert corr >= 0.999, corr
