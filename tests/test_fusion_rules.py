"""Interference-free fusion statistics against independent oracles."""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy.stats import spearmanr

import ricianfusion as rf
from conftest import force_ideal, force_kappa_zero, make_deployment

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
    sensors = (replace(wsn.sensors[0], pd=1.0, pf=0.0),) + wsn.sensors[1:]
    wsn = type(wsn)(sensors=sensors, n_antennas=wsn.n_antennas,
                    noise_power=wsn.noise_power)
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
    wsn, _ = make_deployment(k=rf.MAX_ENUM_K + 1, n=3, seed=17)
    ctx = rf.make_context(wsn)
    assert ctx.llr_tables is None
    with pytest.raises(rf.UnsupportedSizeError):
        rf.llr(np.zeros((1, 3), dtype=complex), ctx)
    # other rules keep working without the enumeration tables
    assert np.all(np.isfinite(rf.is_rule(np.ones((1, 3), dtype=complex), ctx)))


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
    delta = rf.augment(ctx.char1.mean) - rf.augment(ctx.char0.mean)
    cov = (ctx.char1 if h else ctx.char0).aug_cov
    num = abs(np.vdot(z, delta)) ** 2
    den = np.real(np.vdot(z, cov @ z))
    return num / den


@pytest.mark.parametrize("h", [0, 1])
def test_wl_weights_maximize_deflection_over_random_probes(small_ctx, h):
    z_opt = rf.wl_weights(small_ctx, h)
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
    for h in (0, 1):
        assert np.linalg.norm(rf.wl_weights(small_ctx, h)) == pytest.approx(1.0, rel=1e-12)


def test_wl_statistic_with_basis_weights_reads_twice_the_real_part(small_ctx):
    # z built from the first standard basis vector picks out 2*Re(y_1)
    n = small_ctx.scenario.n_antennas
    e1 = np.zeros(n, dtype=complex)
    e1[0] = 1.0
    z = rf.augment(e1)
    y = rf.crandn(np.random.default_rng(21), (25, n), var=2.0)
    np.testing.assert_allclose(rf.wl_rule(y, z), 2.0 * y[:, 0].real, rtol=1e-12)


def test_wl_statistic_is_real_linear(small_ctx):
    rng = np.random.default_rng(14)
    n = small_ctx.scenario.n_antennas
    y1, y2 = rf.crandn(rng, (1, n)), rf.crandn(rng, (1, n))
    z = rf.wl_weights(small_ctx, 0)
    s = lambda y: rf.wl_rule(y, z)
    assert s(y1 + y2) == pytest.approx(s(y1) + s(y2), rel=1e-10, abs=1e-12)
    assert s(2.5 * y1) == pytest.approx(2.5 * s(y1), rel=1e-12)


def test_wl_rule_rejects_inconsistent_weights(small_ctx):
    n = small_ctx.scenario.n_antennas
    rng = np.random.default_rng(15)
    bad = rf.crandn(rng, 2 * n)          # generic vector: not augmented-consistent
    with pytest.raises(ValueError):
        rf.wl_rule(rf.crandn(rng, (1, n)), bad)
    with pytest.raises(ValueError):
        rf.wl_rule(rf.crandn(rng, (1, n)), np.ones(3, dtype=complex))


def test_wl_weights_degenerate_when_hypotheses_coincide(small_wsn):
    same = type(small_wsn)(
        sensors=tuple(replace(s, pd=0.4, pf=0.4) for s in small_wsn.sensors),
        n_antennas=small_wsn.n_antennas, noise_power=small_wsn.noise_power)
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
    for y, g in zip(ys, got):
        ya = rf.augment(y)
        d0 = ya - rf.augment(small_ctx.char0.mean)
        d1 = ya - rf.augment(small_ctx.char1.mean)
        q0 = np.real(np.vdot(d0, np.linalg.solve(small_ctx.char0.aug_cov, d0)))
        q1 = np.real(np.vdot(d1, np.linalg.solve(small_ctx.char1.aug_cov, d1)))
        assert g == pytest.approx(q0 - q1, rel=1e-9, abs=1e-9)


def test_llr_vanishes_when_hypotheses_coincide(small_wsn):
    same = type(small_wsn)(
        sensors=tuple(replace(s, pd=0.3, pf=0.3) for s in small_wsn.sensors),
        n_antennas=small_wsn.n_antennas, noise_power=small_wsn.noise_power)
    ctx = rf.make_context(same)
    y = rf.crandn(np.random.default_rng(19), (30, small_wsn.n_antennas), var=5.0)
    np.testing.assert_allclose(rf.llr(y, ctx), 0.0, atol=1e-12)


def test_igmm_vanishes_when_hypotheses_coincide(small_wsn):
    same = type(small_wsn)(
        sensors=tuple(replace(s, pd=0.25, pf=0.25) for s in small_wsn.sensors),
        n_antennas=small_wsn.n_antennas, noise_power=small_wsn.noise_power)
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


def test_unknown_rule_rejected(small_ctx):
    with pytest.raises(ValueError):
        rf.evaluate("maximum-ratio", np.zeros((1, small_ctx.scenario.n_antennas)),
                    small_ctx)
    with pytest.raises(ValueError):      # jammer-aware rules go through evaluate_jam
        rf.evaluate("clairvoyant", np.zeros((1, small_ctx.scenario.n_antennas)),
                    small_ctx)


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
