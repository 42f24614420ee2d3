"""Shared fixtures: small fixed-seed deployments for fast unit tests."""

from typing import NamedTuple

import numpy as np
import pytest

import ricianfusion as rf


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


def force_ideal(wsn):
    return wsn.with_(pd=1.0, pf=0.0)


def force_kappa_zero(wsn):
    return wsn.with_(kappa=0.0)


def make_deployment(preset="intermediate", k=6, n=4, seed=0, jammer=None, **kw):
    config = rf.preset_config(preset, k_sensors=k, n_antennas=n, seed=seed, **kw)
    return rf.draw_deployment(config, jammer, [seed, 99])


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


def augment(a):
    """Augmented form [a; conj(a)] along the last axis, the oracles' coordinates."""
    a = np.asarray(a)
    return np.concatenate([a, a.conj()], axis=-1)


class ComplexChar(NamedTuple):
    mean: np.ndarray
    cov: np.ndarray
    pcov: np.ndarray


def complex_char(scenario, h):
    """Mean, covariance and pseudo-covariance E{(y-m)(y-m)^T} of y under ``h``
    in complex form: the oracle for ``second_order_char``'s real coordinates."""
    rho = scenario.rho(h)
    sigma_x = np.diag(rho * (1.0 - rho))
    at = scenario.a_tilde
    sigma_e2 = float(scenario.nu @ rho + scenario.noise_power)
    cov = at @ sigma_x @ at.conj().T + sigma_e2 * np.eye(scenario.n_antennas)
    return ComplexChar(mean=at @ rho, cov=cov, pcov=at @ sigma_x @ at.T)


def aug_cov(scenario, h):
    """Covariance of the augmented vector [y; conj(y)] under ``h``, from ``complex_char``."""
    c = complex_char(scenario, h)
    return np.block([[c.cov, c.pcov], [c.pcov.conj(), c.cov.conj()]])


def real_to_aug(n):
    """T = [[I, iI], [I, -iI]], which maps [Re y; Im y] to [y; conj(y)]."""
    i = np.eye(n)
    return np.block([[i, 1j * i], [i, -1j * i]])


def moment_zscores(char, y):
    """Per-entry z-scores of empirical mean/cov/pcov of y against ``char``
    (a ``complex_char``).

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
