"""Per-trial signal generation and second-order statistics.

The received vector at the N-antenna fusion center for one channel use is

    y = A_tilde x + sum_k sqrt(nu_k) h_k x_k + w,

with x the K on/off sensor decisions, h_k ~ CN(0, I_N) fresh scattered
fading, and w ~ CN(0, sigma_w^2 I_N) thermal noise.  A jammer with
unit-modulus symbols psi adds its LOS term ``JammerScenario.los(psi)`` plus
sum_l sqrt(nu_l) g_l psi_l, g_l ~ CN(0, I_N): the same Rician link as a
sensor's.  Complex-normal convention throughout: CN(0, s) has real and
imaginary parts N(0, s/2).  y is improper (its pseudo-covariance is nonzero
under LOS), so its second-order statistics are kept in the real coordinates
[Re y; Im y], whose real symmetric covariance carries both.

All drawing functions take and return batches with a leading trial axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import JammerScenario, WsnScenario

H0 = 0
H1 = 1

# Largest sensor count whose 2^K decision vectors are enumerated (the exact
# mixture statistics sum over all of them).
MAX_ENUM_K = 16


class UnsupportedSizeError(ValueError):
    """Raised when the 2^K decision vectors are asked for with K > MAX_ENUM_K."""


def crandn(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Circular complex normal CN(0, var) entries of the given shape."""
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def enumerate_decisions(k: int) -> np.ndarray:
    """All 2^k decision vectors, row j holding the bits of j (sensor k = bit k)."""
    if k > MAX_ENUM_K:
        raise UnsupportedSizeError(
            f"exact mixture statistics need K <= {MAX_ENUM_K} (K={k})")
    j = np.arange(2 ** k, dtype=np.uint32)
    return ((j[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int8)


def draw_decisions(scenario: WsnScenario, h: int, rng: np.random.Generator,
                   size: int) -> np.ndarray:
    """Independent Bernoulli decisions under hypothesis ``h``: pd (h=1) or pf (h=0).

    Returns int8 of shape (size, K).
    """
    p = scenario.rho(h)
    return (rng.random((int(size), scenario.k_sensors)) < p[None, :]).astype(np.int8)


def draw_received(scenario: WsnScenario, x, rng: np.random.Generator) -> np.ndarray:
    """Channel uses: LOS term plus per-sensor scattered fading plus noise.

    ``x`` has shape (T, K); the result has shape (T, N).  Draw order
    (scattered fading first, then noise) is fixed so equal seeds give equal
    samples.
    """
    x = np.asarray(x, dtype=float)
    t, k = x.shape
    if k != scenario.k_sensors:
        raise ValueError(f"decision vector length {k} != K={scenario.k_sensors}")
    n = scenario.n_antennas
    los = x @ scenario.a_tilde.T
    h_scat = crandn(rng, (t, n, k))
    scat = np.einsum("tnk,tk->tn", h_scat, x * np.sqrt(scenario.nu)[None, :])
    w = crandn(rng, (t, n), var=scenario.noise_power)
    return los + scat + w


def draw_psi(jammer: JammerScenario, rng: np.random.Generator, size: int) -> np.ndarray:
    """Unit-modulus jammer symbols with uniform phases, shape (size, r)."""
    return np.exp(2j * np.pi * rng.random((size, jammer.rank)))


def draw_jammed(scenario: WsnScenario, jammer: JammerScenario, x,
                rng: np.random.Generator):
    """Channel uses with the jammer active; returns (y_s, psi), (T, N) and (T, r).

    The interference-free part is drawn first (so with a common seed it
    matches draw_received exactly), then the jammer symbols psi, the jammer
    LOS term ``jammer.los(psi)`` and its scattered fading are added.
    """
    t = np.shape(x)[0]
    y = draw_received(scenario, x, rng)
    psi = draw_psi(jammer, rng, t)
    h_j = crandn(rng, (t, scenario.n_antennas, jammer.rank))
    scat = np.einsum("tnr,tr->tn", h_j, psi * np.sqrt(jammer.nu)[None, :])
    return y + jammer.los(psi) + scat, psi


def real_coords(a: np.ndarray) -> np.ndarray:
    """Real coordinates [Re a; Im a] along the last axis: (..., N) -> (..., 2N)."""
    a = np.asarray(a)
    return np.concatenate([a.real, a.imag], axis=-1)


@dataclass(frozen=True)
class SecondOrderChar:
    """Mean of y and covariance of ``real_coords(y)`` under one hypothesis;
    ``real_cov`` (2N x 2N, real symmetric) carries both the covariance and
    the pseudo-covariance of the improper y."""

    mean: np.ndarray
    real_cov: np.ndarray


def second_order_char(scenario: WsnScenario, h: int) -> SecondOrderChar:
    """Closed-form conditional second-order statistics of y under ``h``.

    Decisions are independent, Sigma_x = diag(rho (1 - rho)), so A_tilde x
    adds G Sigma_x G^T with G = A_tilde in real coordinates.  Scatter plus
    noise is proper, of power sigma_e^2 = nu . rho + noise per antenna:
    sigma_e^2 / 2 per real coordinate.
    """
    rho = scenario.rho(h)
    sigma_e2 = float(scenario.nu @ rho + scenario.noise_power)
    g = real_coords(scenario.a_tilde.T).T  # (2N, K)
    real_cov = (g * (rho * (1.0 - rho))) @ g.T + 0.5 * sigma_e2 * np.eye(g.shape[0])
    return SecondOrderChar(mean=scenario.a_tilde @ rho, real_cov=real_cov)
