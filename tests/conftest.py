"""Shared fixtures: small fixed-seed deployments for fast unit tests."""

import numpy as np
import pytest

import ricianfusion as rf
from ricianfusion.cli import _force_ideal as force_ideal  # noqa: F401
from ricianfusion.cli import _force_kappa_zero as force_kappa_zero  # noqa: F401


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria verdicts uncaptured at the end of the run."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


def make_deployment(preset="intermediate", k=6, n=4, seed=0, jammer=None, **kw):
    config = rf.preset_config(preset, k_sensors=k, n_antennas=n, seed=seed, **kw)
    root = np.random.SeedSequence([seed, 99])
    wsn_ss, jam_ss = root.spawn(2)
    wsn = rf.generate_wsn(config, np.random.default_rng(wsn_ss))
    jam = (rf.generate_jammer(config, np.random.default_rng(jam_ss), preset=jammer)
           if jammer is not None else None)
    return wsn, jam


@pytest.fixture
def small_wsn():
    wsn, _ = make_deployment(k=5, n=3, seed=17)
    return wsn


@pytest.fixture
def small_ctx(small_wsn):
    return rf.make_context(small_wsn)


@pytest.fixture
def jammed_pair():
    wsn, jam = make_deployment(preset="los", k=6, n=5, seed=23, jammer="los-jam")
    return wsn, jam


def moment_zscores(char, y):
    """Per-entry z-scores of empirical mean/cov/pcov of y against ``char``.

    Every real/imaginary entry of the three moment blocks is compared with the
    sampling stderr of its own Monte Carlo average.  Entries whose stderr is
    degenerate (identically-zero products, e.g. the imaginary part of a
    diagonal of y*conj(y)) carry no statistical spread, so they are asserted
    to match (nearly) exactly instead and excluded from the z list.

    Returns (max_abs_z, n_compared).
    """
    y = np.asarray(y)
    t = y.shape[0]
    d = y - char.mean
    blocks = []
    for part in (np.real, np.imag):
        blocks.append((part(y), part(char.mean)))
    prods_cov = d[:, :, None] * d[:, None, :].conj()   # entry (i, j): d_i conj(d_j)
    prods_pcov = d[:, :, None] * d[:, None, :]
    for prods, target in ((prods_cov, char.cov), (prods_pcov, char.pcov)):
        for part in (np.real, np.imag):
            blocks.append((part(prods), part(target)))
    zs, compared = [], 0
    for samples, target in blocks:
        se = samples.std(axis=0, ddof=1) / np.sqrt(t)
        diff = samples.mean(axis=0) - target
        degenerate = se < 1e-12
        assert np.all(np.abs(diff[degenerate]) < 1e-9), \
            "zero-spread moment entry does not match exactly"
        live = ~degenerate
        zs.append(np.abs(diff[live] / se[live]))
        compared += int(live.sum())
    return float(np.max(np.concatenate([z.ravel() for z in zs]))), compared
