"""Per-trial generation and closed-form second-order statistics."""

import math

import numpy as np
import pytest

import ricianfusion as rf
from conftest import (augment, aug_cov, complex_char, make_deployment, moment_zscores,
                      real_to_aug)


# ------------------------------------------------------------ primitives

def test_complex_normal_variance_convention():
    # CN(0, s): total variance s, split evenly between real and imaginary parts
    rng = np.random.default_rng(303)
    z = rf.crandn(rng, 200_000, var=3.0)
    t = z.size
    se_total = 3.0 / math.sqrt(t)          # |z|^2 is exponential(mean 3) -> std 3
    assert abs(np.mean(np.abs(z) ** 2) - 3.0) < 4 * se_total
    se_part = (1.5 * math.sqrt(2)) / math.sqrt(t)
    assert abs(np.var(z.real) - 1.5) < 4 * se_part
    assert abs(np.var(z.imag) - 1.5) < 4 * se_part
    assert abs(np.mean(z)) < 4 * math.sqrt(3.0 / t)


def test_enumerate_decisions_bit_layout():
    table = rf.enumerate_decisions(3)
    assert table.shape == (8, 3)
    np.testing.assert_array_equal(table[0], [0, 0, 0])
    np.testing.assert_array_equal(table[5], [1, 0, 1])   # 5 = 0b101, sensor k = bit k
    np.testing.assert_array_equal(table[7], [1, 1, 1])
    with pytest.raises(rf.UnsupportedSizeError):
        rf.enumerate_decisions(17)


def test_real_coords_layout():
    v = np.array([1 + 2j, 3 - 1j])
    np.testing.assert_array_equal(rf.real_coords(v), [1.0, 3.0, 2.0, -1.0])
    assert np.isrealobj(rf.real_coords(v))
    # a batch of any row count, one row included, is converted row by row
    for batch in (np.array([[1j, 2.0]]), np.array([[1j, 2.0], [0.5, -1j]]),
                  np.arange(6, dtype=complex).reshape(3, 2) * (1 + 1j)):
        got = rf.real_coords(batch)
        assert got.shape == (batch.shape[0], 2 * batch.shape[1])
        np.testing.assert_array_equal(got, [rf.real_coords(row) for row in batch])
        # T maps the real coordinates onto the augmented vector
        np.testing.assert_allclose(got @ real_to_aug(2).T, augment(batch), rtol=1e-15)


# ------------------------------------------------------------ decisions

def test_decision_marginals_match_operating_point(small_wsn):
    rng = np.random.default_rng(8)
    t = 60_000
    x1 = rf.draw_decisions(small_wsn, rf.H1, rng, size=t)
    x0 = rf.draw_decisions(small_wsn, rf.H0, rng, size=t)
    assert x1.dtype == np.int8 and x1.shape == (t, small_wsn.k_sensors)
    se1 = np.sqrt(small_wsn.pd * (1 - small_wsn.pd) / t)
    se0 = np.sqrt(small_wsn.pf * (1 - small_wsn.pf) / t)
    assert np.all(np.abs(x1.mean(axis=0) - small_wsn.pd) < 4.5 * se1)
    assert np.all(np.abs(x0.mean(axis=0) - small_wsn.pf) < 4.5 * se0)


def test_perfect_sensors_always_report_the_true_hypothesis(small_wsn):
    from conftest import force_ideal
    wsn = force_ideal(small_wsn)
    k = wsn.k_sensors
    x1 = rf.draw_decisions(wsn, rf.H1, np.random.default_rng(1), size=40)
    x0 = rf.draw_decisions(wsn, rf.H0, np.random.default_rng(2), size=40)
    np.testing.assert_array_equal(x1, np.ones((40, k), dtype=np.int8))
    np.testing.assert_array_equal(x0, np.zeros((40, k), dtype=np.int8))


# ------------------------------------------------------------ channel draws

def test_received_matches_explicit_channel_matrix_construction(small_wsn):
    # y must equal (A_tilde + H*diag(sqrt(nu))) x + w built from the same draws
    t, n, k = 64, small_wsn.n_antennas, small_wsn.k_sensors
    x = rf.draw_decisions(small_wsn, rf.H1, np.random.default_rng(1), size=t)
    y = rf.draw_received(small_wsn, x, np.random.default_rng(77))
    rng = np.random.default_rng(77)
    h = rf.crandn(rng, (t, n, k))
    w = rf.crandn(rng, (t, n), var=small_wsn.noise_power)
    chan = small_wsn.a_tilde[None, :, :] + h * np.sqrt(small_wsn.nu)[None, None, :]
    y_ref = np.einsum("tnk,tk->tn", chan, x.astype(float)) + w
    np.testing.assert_allclose(y, y_ref, atol=1e-10)


def test_received_vanishes_without_decisions_or_noise(small_wsn):
    # all sensors silent and vanishing noise power: the output collapses to 0
    wsn = small_wsn.with_(noise_power=1e-300)
    x = np.zeros((20, wsn.k_sensors))
    y = rf.draw_received(wsn, x, np.random.default_rng(7))
    assert np.abs(y).max() < 1e-140


def test_received_conditional_moments_for_fixed_decisions(small_wsn):
    t = 200_000
    x = np.array([1, 0, 1, 1, 0], dtype=float)
    y = rf.draw_received(small_wsn, np.tile(x, (t, 1)), np.random.default_rng(5150))
    s2 = small_wsn.noise_power + x @ small_wsn.nu
    mean = small_wsn.a_tilde @ x
    # conditional on x the vector is proper: cov = sigma_e2 * I, pcov = 0
    d = y - mean
    np.testing.assert_allclose(np.abs(y.mean(axis=0) - mean), 0,
                               atol=5 * math.sqrt(s2 / t))
    emp_cov = d.conj().T @ d / t
    np.testing.assert_allclose(emp_cov, s2 * np.eye(small_wsn.n_antennas),
                               atol=6 * s2 / math.sqrt(t))
    emp_pcov = d.T @ d / t
    np.testing.assert_allclose(emp_pcov, 0, atol=6 * s2 / math.sqrt(t))


def test_unconditional_moments_match_closed_form(small_wsn):
    t = 120_000
    rng = np.random.default_rng(918)
    for h in (rf.H0, rf.H1):
        x = rf.draw_decisions(small_wsn, h, rng, size=t)
        y = rf.draw_received(small_wsn, x, rng)
        max_z, compared = moment_zscores(complex_char(small_wsn, h), y)
        assert compared > 0
        assert max_z < 5.0, f"h={h}: worst moment z-score {max_z:.2f}"


def test_char_structure(small_wsn):
    t = real_to_aug(small_wsn.n_antennas)
    for h in (rf.H0, rf.H1):
        c = rf.second_order_char(small_wsn, h)
        np.testing.assert_array_equal(c.mean, complex_char(small_wsn, h).mean)
        # real_cov = T^H Sigma_aug T / 4, a real symmetric positive definite
        # matrix, with Sigma_aug built from the complex cov and pcov
        ref = t.conj().T @ aug_cov(small_wsn, h) @ t / 4
        tol = 1e-12 * np.abs(ref).max()
        assert np.isrealobj(c.real_cov)
        np.testing.assert_allclose(c.real_cov, c.real_cov.T, atol=tol)
        assert np.linalg.eigvalsh(c.real_cov).min() > 0
        np.testing.assert_allclose(ref.imag, 0.0, atol=tol)
        np.testing.assert_allclose(c.real_cov, ref.real, atol=tol)


def test_identical_operating_points_make_hypotheses_indistinguishable(small_wsn):
    wsn = small_wsn.with_(pd=0.3, pf=0.3)
    c0 = rf.second_order_char(wsn, rf.H0)
    c1 = rf.second_order_char(wsn, rf.H1)
    np.testing.assert_array_equal(c0.mean, c1.mean)
    np.testing.assert_array_equal(c0.real_cov, c1.real_cov)


def _reference_draw(wsn, jam, x, rng):
    """draw_received, and with a jammer draw_jammed, written with crandn and
    complex einsums over k."""
    t, n = x.shape[0], wsn.n_antennas
    los = x @ wsn.a_tilde.T
    h = rf.crandn(rng, (t, n, wsn.k_sensors))
    scat = np.einsum("tnk,tk->tn", h, x * np.sqrt(wsn.nu)[None, :])
    y = los + scat + rf.crandn(rng, (t, n), var=wsn.noise_power)
    if jam is None:
        return y, None
    psi = np.exp(2j * np.pi * rng.random((t, jam.rank)))
    g = rf.crandn(rng, (t, n, jam.rank))
    return y + jam.los(psi) + np.einsum("tnr,tr->tn", g, psi * np.sqrt(jam.nu)[None, :]), psi


@pytest.mark.parametrize("k,n", [(14, 6), (10, 6), (14, 2), (3, 4), (1, 2)])
@pytest.mark.parametrize("jammer", [None, "los-jam"])
def test_samplers_equal_the_crandn_einsum_reference_bit_for_bit(k, n, jammer):
    wsn, jam = make_deployment(preset="los", k=k, n=n, seed=k + n, jammer=jammer,
                               jammer_rank=min(2, n - 1))
    x = rf.draw_decisions(wsn, rf.H1, np.random.default_rng(k), size=8192)
    y_ref, psi_ref = _reference_draw(wsn, jam, x.astype(float), np.random.default_rng(n))
    rng = np.random.default_rng(n)
    if jam is None:
        np.testing.assert_array_equal(rf.draw_received(wsn, x, rng), y_ref)
    else:
        y, psi = rf.draw_jammed(wsn, jam, x, rng)
        np.testing.assert_array_equal(psi, psi_ref)
        np.testing.assert_array_equal(y, y_ref)


# ------------------------------------------------------------ jammer draws

def test_zero_jammer_symbols_reproduce_clean_channel(jammed_pair, monkeypatch):
    wsn, jam = jammed_pair
    # draw_jammed looks draw_psi up when called: silence the jammer symbols
    monkeypatch.setattr(rf.signal_model, "draw_psi",
                        lambda jammer, rng, size: np.zeros((size, jammer.rank), complex))
    x = rf.draw_decisions(wsn, rf.H1, np.random.default_rng(3), size=32)
    y = rf.draw_received(wsn, x, np.random.default_rng(55))
    y_s, psi = rf.draw_jammed(wsn, jam, x, np.random.default_rng(55))
    np.testing.assert_array_equal(psi, np.zeros((32, jam.rank)))
    np.testing.assert_array_equal(y_s, y)


def test_pure_los_jammer_lives_in_the_interference_subspace(jammed_pair):
    wsn, jam = jammed_pair
    los_only = jam.with_(kappa=np.full(jam.rank, 1e16))
    x = rf.draw_decisions(wsn, rf.H1, np.random.default_rng(4), size=64)
    y = rf.draw_received(wsn, x, np.random.default_rng(66))
    y_s, _ = rf.draw_jammed(wsn, los_only, x, np.random.default_rng(66))
    resid = (y_s - y) @ los_only.u_c.conj()  # coordinates in the clean subspace
    scale = np.abs(y_s - y).max()
    assert np.abs(resid).max() < 1e-6 * scale


def test_uniform_phase_symbols_have_unit_modulus(jammed_pair):
    _, jam = jammed_pair
    psi = rf.draw_psi(jam, np.random.default_rng(9), size=500)
    assert psi.shape == (500, jam.rank)
    np.testing.assert_allclose(np.abs(psi), 1.0, atol=1e-12)


def test_jammer_increment_moments_at_fixed_symbols(jammed_pair, monkeypatch):
    # hold the jammer symbols constant: the received-signal increment is a
    # mean shift through the mixing matrix plus white scattered leakage
    wsn, fixed = jammed_pair
    psi0 = np.exp(2j * np.pi * np.random.default_rng(77).random(fixed.rank))
    monkeypatch.setattr(rf.signal_model, "draw_psi",
                        lambda jammer, rng, size: np.tile(psi0, (size, 1)))
    t = 100_000
    x = np.zeros((t, wsn.k_sensors))
    y = rf.draw_received(wsn, x, np.random.default_rng(808))
    y_s, psi = rf.draw_jammed(wsn, fixed, x, np.random.default_rng(808))
    np.testing.assert_array_equal(psi, np.tile(psi0, (t, 1)))
    d = y_s - y
    mean = fixed.los(psi0[None, :])[0]
    sj2 = float(fixed.nu.sum())     # unit-modulus symbols
    assert np.abs(d.mean(axis=0) - mean).max() < 5 * math.sqrt(sj2 / t)
    c = d - mean
    emp_cov = c.conj().T @ c / t
    diag = np.real(np.diag(emp_cov))
    np.testing.assert_allclose(diag, sj2, rtol=0.05)
    off = emp_cov - np.diag(np.diag(emp_cov))
    assert np.abs(off).max() < 6 * sj2 / math.sqrt(t)


def test_jammed_moments_match_projector_split(jammed_pair):
    # jammer power must land outside the clean-subspace projector's null space:
    # P_perp (y_s - y) has only the scattered part, whose power is sum(nu)
    wsn, jam = jammed_pair
    t = 80_000
    x = np.zeros((t, wsn.k_sensors))
    rng = np.random.default_rng(1234)
    y_s, psi = rf.draw_jammed(wsn, jam, x, rng)
    n, r = jam.n_antennas, jam.rank
    perp = y_s @ jam.u_c.conj()  # coordinates in the jammer-free subspace
    # per complex coordinate: noise + jammer scattered power
    expect = wsn.noise_power + float(jam.nu.sum())
    emp = np.mean(np.abs(perp) ** 2)
    se = expect / math.sqrt(t * (n - r))
    assert abs(emp - expect) < 5 * se
