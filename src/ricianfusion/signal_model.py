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


def _scatter(rng: np.random.Generator, weights: np.ndarray, n: int) -> np.ndarray:
    """The (T, n) scatter sum_k h_k weights_k, h_k ~ CN(0, I_n), of (T, K) weights:
    ``einsum("tnk,tk->tn", crandn(rng, (T, n, K)), weights)`` bit for bit, from
    the same normals scaled in place and summed in k order, in cached row chunks."""
    t, k = weights.shape
    g = rng.standard_normal((2, t, n, k))  # crandn's real, then imaginary parts
    out = np.empty((t, n), dtype=complex)
    step = max(1, (1 << 15) // (n * k))
    for lo in range(0, t, step):
        gc, w = g[:, lo:lo + step], weights[lo:lo + step, None, :]
        gc *= np.sqrt(0.5)
        gc = (np.stack([gc[0] * w.real - gc[1] * w.imag, gc[0] * w.imag + gc[1] * w.real])
              if np.iscomplexobj(w) else gc * w)
        acc = gc[..., 0].copy()
        for j in range(1, k):
            acc += gc[..., j]
        out.real[lo:lo + step], out.imag[lo:lo + step] = acc
    return out


def draw_signal(scenario: WsnScenario, x, rng: np.random.Generator) -> np.ndarray:
    """Noise-free channel uses, (T, K) decisions to (T, N): LOS term plus
    per-sensor scattered fading; ``receive`` adds the noise."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != scenario.k_sensors:
        raise ValueError(f"decisions of shape {x.shape} need K={scenario.k_sensors} columns")
    s = x @ scenario.a_tilde.T
    s += _scatter(rng, x * np.sqrt(scenario.nu)[None, :], scenario.n_antennas)
    return s


def draw_received(scenario: WsnScenario, x, rng: np.random.Generator) -> np.ndarray:
    """Channel uses, (T, K) decisions to (T, N): ``draw_signal``, then ``receive``'s
    noise (a fixed order, so equal seeds give equal samples)."""
    return receive(scenario, draw_signal(scenario, x, rng), rng)[0]


def draw_psi(jammer: JammerScenario, rng: np.random.Generator, size: int) -> np.ndarray:
    """Unit-modulus jammer symbols with uniform phases, shape (size, r)."""
    return np.exp(2j * np.pi * rng.random((size, jammer.rank)))


def draw_jammer(jammer: JammerScenario, rng: np.random.Generator, size: int):
    """Jammer symbols psi (size, r), their LOS term and the jammer scatter (size, N)."""
    psi = draw_psi(jammer, rng, size)
    scat = _scatter(rng, psi * np.sqrt(jammer.nu)[None, :], jammer.n_antennas)
    return psi, jammer.los(psi), scat


def receive(scenario: WsnScenario, s: np.ndarray, rng: np.random.Generator,
            jammer: JammerScenario | None = None, out=None):
    """(y, psi) from noise-free channel uses s: y = ((s + noise) + jammer LOS) +
    jammer scatter, the noise drawn first; psi is None without a jammer."""
    y = np.add(s, crandn(rng, s.shape, var=scenario.noise_power), out=out)
    if jammer is None:
        return y, None
    psi, los, scat = draw_jammer(jammer, rng, y.shape[0])
    y += los
    y += scat
    return y, psi


def draw_jammed(scenario: WsnScenario, jammer: JammerScenario, x,
                rng: np.random.Generator):
    """Channel uses with the jammer active, (y_s, psi) of shapes (T, N) and (T, r): with a
    common seed, ``draw_received``'s sample plus ``receive``'s jammer term."""
    return receive(scenario, draw_signal(scenario, x, rng), rng, jammer)


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
