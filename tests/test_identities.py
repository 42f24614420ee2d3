"""Closed-form identities of acceptance criteria 1-3 and 6, as properties.

Each identity holds exactly in the model, so it is checked statistic by
statistic on drawn deployments over K = 1..8, N = 3..6, all three presets and
noise powers from 1e-3 to 1e3, with received vectors whose magnitudes span two
decades around the signal level.  The observed residuals are roundoff, at most
~5e-13 relative; TOL = 1e-9 leaves four orders of magnitude for other BLAS
paths and platforms, while a broken identity misses by O(1).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

import ricianfusion as rf
from conftest import force_ideal, force_kappa_zero, make_deployment

TOL = 1e-9
TRIALS = 64

deployments = dict(preset=st.sampled_from(["los", "intermediate", "nlos"]),
                   k=st.integers(1, 8), n=st.integers(3, 6),
                   log_noise=st.floats(-3.0, 3.0), seed=st.integers(0, 1000))
few = settings(max_examples=30, deadline=None, derandomize=True)


def draw(preset, k, n, log_noise, seed):
    """A deployment with a los-jam jammer, and received vectors spread over two decades."""
    wsn, jam = make_deployment(preset=preset, k=k, n=n, seed=seed, jammer="los-jam")
    wsn = wsn.with_(noise_power=10.0 ** log_noise)
    level = np.sqrt(wsn.noise_power + wsn.beta.sum())
    y = rf.crandn(np.random.default_rng(seed), (TRIALS, n))
    return wsn, jam, y * (level * np.geomspace(0.1, 10.0, TRIALS))[:, None]


@few
@given(**deployments)
def test_zero_rician_factors_make_is_and_igmm_multiples_of_the_energy(preset, k, n,
                                                                      log_noise, seed):
    wsn, _, y = draw(preset, k, n, log_noise, seed)
    ctx = rf.make_context(force_kappa_zero(wsn))
    energy = rf.nlos_rule(y)
    for stat in (rf.is_rule(y, ctx), rf.igmm_rule(y, ctx)):
        ratio = stat / energy  # positive: pd > pf
        assert ratio.min() > 0 and np.ptp(ratio) <= TOL * ratio.max()


@few
@given(**deployments)
def test_ideal_sensors_collapse_igmm_wl_and_llr_onto_is(preset, k, n, log_noise, seed):
    wsn, _, y = draw(preset, k, n, log_noise, seed)
    ctx = rf.make_context(force_ideal(wsn))
    s_is, s_igmm = rf.is_rule(y, ctx), rf.igmm_rule(y, ctx)
    slope, intercept = np.polyfit(s_is, s_igmm, 1)
    assert slope > 0
    assert np.abs(s_igmm - (slope * s_is + intercept)).max() <= TOL * np.abs(s_igmm).max()
    np.testing.assert_allclose(rf.wl_weights(ctx, rf.H0), rf.wl_weights(ctx, rf.H1),
                               rtol=0, atol=TOL)
    assert spearmanr(rf.llr(y, ctx), s_is).statistic == pytest.approx(1.0, abs=1e-12)


@few
@given(**deployments)
def test_subspace_glrts_reduce_for_ideal_sensors_and_without_los(preset, k, n,
                                                                 log_noise, seed):
    wsn, jam, y = draw(preset, k, n, log_noise, seed)
    ideal = rf.make_context(force_ideal(wsn))
    a, b = rf.igmm_glrt(y, ideal, rf.build_workspace(ideal, jam)), rf.is_glrt(y, ideal, jam)
    assert np.abs(a - b).max() <= TOL * (1.0 + np.abs(b).max())

    flat = force_kappa_zero(wsn)
    ctx = rf.make_context(flat)
    e = rf.nlos_glrt(y, jam)
    floors = {
        "is-glrt": (rf.is_glrt(y, ctx, jam),
                    flat.noise_power, flat.noise_power + float(flat.nu.sum())),
        "igmm-glrt": (rf.igmm_glrt(y, ctx, rf.build_workspace(ctx, jam)),
                      float(flat.beta @ flat.pf + flat.noise_power),
                      float(flat.beta @ flat.pd + flat.noise_power)),
    }
    for rule, (got, s_a, s_b) in floors.items():
        ref = rf.nlos_piecewise_reference(e, s_a, s_b, n)
        assert np.abs(got - ref).max() <= TOL, rule
