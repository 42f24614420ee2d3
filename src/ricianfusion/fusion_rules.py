"""Interference-free fusion statistics at the fusion center, and the rule table.

Six statistics, all real-valued and all "large under H1":

  llr   exact log-likelihood ratio (2^K-term Gaussian-mixture ratio)
  is    ideal-sensor approximation: 2 Re(mu_bar^H y) + (nu_bar/sigma_w^2) ||y||^2
  nlos  energy detector ||y||^2
  wl0   widely-linear weights maximizing the H0-normalized deflection
  wl1   same with H1-normalized deflection
  igmm  improper-Gaussian moment-matched quadratic statistic

Every kernel maps a batch of received vectors (T, N) to a (T,) array.
``RuleContext`` carries the per-hypothesis moments and inverse covariances of
the real coordinates yr = [Re y; Im y], in which ``wl0``, ``wl1`` and ``igmm``
work, and the mixture tables once first read; ``wl0``/``wl1`` derive their
weights from it per call.  ``RULES`` lists all ten statistics (these
six and the four jammer-aware ones of ``jamming_rules``) with what each needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from .scenario import JammerScenario, WsnScenario
from .signal_model import (H0, H1, SecondOrderChar, enumerate_decisions, real_coords,
                           second_order_char)

# why a widely-linear rule has no weight direction when pd = pf everywhere
SAME_RATES = "identical transmit probabilities under both hypotheses"


class DegenerateWeightsError(ValueError):
    """Raised when the deflection-optimal weight direction is undefined."""


def _symmetric_inv(m: np.ndarray) -> np.ndarray:
    # max-abs, not Frobenius, norms: squares would overflow at extreme noise powers
    if np.abs(m - m.T).max() > 1e-10 * max(np.abs(m).max(), 1e-300):
        raise np.linalg.LinAlgError("covariance matrix is not symmetric within tolerance")
    c, low = scipy.linalg.cho_factor(m)
    return scipy.linalg.cho_solve((c, low), np.eye(m.shape[0]))


@dataclass(frozen=True)
class _LlrTables:
    """Enumeration tables for the exact mixture LLR."""

    mu_all: np.ndarray       # (N, 2^K) conditional means A_tilde x
    mu_norm2: np.ndarray     # (2^K,)
    sigma_e2_all: np.ndarray  # (2^K,) equivalent variances
    log_p: tuple[np.ndarray, np.ndarray]  # (2^K,) log P(x | h), indexed by h


def _log_pmf_iid(x_all: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logp = np.log(p)
        logq = np.log1p(-p)
    # selection, not multiplication: 0 * (-inf) must never appear
    return np.where(x_all == 1, logp[None, :], logq[None, :]).sum(axis=1)


@dataclass(frozen=True)
class RuleContext:
    """Per-scenario quantities shared by all fusion rules; pairs are indexed by h."""

    scenario: WsnScenario
    char: tuple[SecondOrderChar, SecondOrderChar]
    real_inv: tuple[np.ndarray, np.ndarray]

    @cached_property
    def llr_tables(self) -> _LlrTables:
        """The exact mixture's tables, built on the first read; raises
        ``UnsupportedSizeError`` when K > MAX_ENUM_K."""
        sc = self.scenario
        x_all = enumerate_decisions(sc.k_sensors)
        xf = x_all.astype(float)
        mu_all = sc.a_tilde @ xf.T
        return _LlrTables(mu_all=mu_all,
                          mu_norm2=np.sum(np.abs(mu_all) ** 2, axis=0),
                          sigma_e2_all=sc.noise_power + xf @ sc.nu,
                          log_p=tuple(_log_pmf_iid(x_all, sc.rho(h)) for h in (H0, H1)))


def make_context(scenario: WsnScenario) -> RuleContext:
    """Build a RuleContext; the mixture tables wait for their first reader."""
    char = tuple(second_order_char(scenario, h) for h in (H0, H1))
    return RuleContext(scenario, char, tuple(_symmetric_inv(c.real_cov) for c in char))


def llr(y, ctx: RuleContext, jammer: JammerScenario | None = None, psi=None):
    """Exact log-likelihood ratio.

    Both conditional densities are 2^K-component Gaussian mixtures; each
    mixture is evaluated in the log domain via logsumexp, so the result
    stays finite for ||y|| far into the tails and for sensors that always
    or never transmit.  Given a jammer and its per-trial unit-modulus
    symbols psi (T, r), each component mean is shifted by ``jammer.los(psi)``
    and each component variance inflated by the constant scattered power
    sum(jammer.nu): the clairvoyant LRT.  Requires K <= MAX_ENUM_K
    (``UnsupportedSizeError`` otherwise).
    """
    tab = ctx.llr_tables
    s2 = tab.sigma_e2_all[None, :]
    if jammer is not None and psi is not None:
        y = y - jammer.los(psi)
        s2 = s2 + jammer.nu.sum()
    t = y.shape[0]
    n = ctx.scenario.n_antennas
    m = tab.mu_all.shape[1]
    out = np.empty(t)
    chunk = max(1, (1 << 23) // m)
    for lo in range(0, t, chunk):
        ysl = y[lo:lo + chunk]
        g = ysl @ tab.mu_all.conj()
        d2 = (np.sum(np.abs(ysl) ** 2, axis=1)[:, None]
              + tab.mu_norm2[None, :] - 2.0 * g.real)
        np.maximum(d2, 0.0, out=d2)
        base = -n * np.log(s2) - d2 / s2
        out[lo:lo + chunk] = (logsumexp(base + tab.log_p[H1][None, :], axis=1)
                              - logsumexp(base + tab.log_p[H0][None, :], axis=1))
    return out


def is_rule(y, ctx: RuleContext):
    """Ideal-sensor statistic 2 Re(mu_bar^H y) + (nu_bar / sigma_w^2) ||y||^2."""
    sc = ctx.scenario
    return (2.0 * (y @ sc.mu_bar.conj()).real
            + (sc.nu_bar / sc.noise_power) * np.sum(np.abs(y) ** 2, axis=1))


def nlos_rule(y):
    """Energy detector ||y||^2 (context-free)."""
    return np.sum(np.abs(y) ** 2, axis=1)


def wl_weights(ctx: RuleContext, h: int) -> np.ndarray:
    """Deflection-optimal widely-linear weights for hypothesis-h normalization.

    w = R(h)^{-1} [Re m; Im m] with m = A_tilde (rho1 - rho0) and R(h) the
    real-coordinate covariance, scaled to norm sqrt(2) so that w^T yr reads
    as the unit-norm augmented weights T w / 2 (T = [[I, iI], [I, -iI]]).
    The direction is undefined (``DegenerateWeightsError``) when the two
    hypotheses have identical transmit-probability vectors or m is exactly
    zero; a norm of w that underflows to 0 or is not finite is a numerical
    failure (``LinAlgError``).
    """
    rho10 = ctx.scenario.pd - ctx.scenario.pf
    if np.all(rho10 == 0.0):
        raise DegenerateWeightsError(SAME_RATES)
    mean_gap = ctx.scenario.a_tilde @ rho10
    if not np.any(mean_gap):
        raise DegenerateWeightsError(
            "weight direction vanishes (A_tilde (pd - pf) is zero)")
    w = ctx.real_inv[h] @ real_coords(mean_gap)
    norm = np.linalg.norm(w)
    if not (np.isfinite(norm) and norm > 0.0):
        raise np.linalg.LinAlgError(f"widely-linear weight norm is {norm:g} (out of range)")
    return w * (np.sqrt(2.0) / norm)


def wl_rule(y, w: np.ndarray):
    """Widely-linear statistic w^T [Re y; Im y] for real weights w of length 2N."""
    w = np.asarray(w)
    if not np.isrealobj(w) or w.shape != (2 * y.shape[1],):
        raise ValueError(f"weights must be a real vector of length {2 * y.shape[1]}")
    return real_coords(y) @ w


def _quad_form_batch(d: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    # d^T M^{-1} d for each row d
    return np.sum(d * (d @ m_inv), axis=1)


def igmm_rule(y, ctx: RuleContext):
    """Moment-matched improper-Gaussian quadratic statistic.

    Difference of the Mahalanobis distances of [Re y; Im y] under the two
    hypotheses' real-coordinate covariances; each equals the augmented
    distance of [y; conj(y)] exactly.
    """
    q0, q1 = (_quad_form_batch(real_coords(y - c.mean[None, :]), inv)
              for c, inv in zip(ctx.char, ctx.real_inv))
    return q0 - q1


# The jammer-aware kernels build on RuleContext and llr above.
from . import jamming_rules  # noqa: E402


@dataclass(frozen=True)
class Rule:
    """A fusion statistic and what evaluating it needs.

    ``kernel(y, ctx, jammer, ws, psi)`` maps a (T, N) batch to (T,).  The
    kernels look their statistic up by name when called, so a module
    function rebound after import is the one evaluated.
    """

    kernel: Callable[..., np.ndarray]
    jammer_aware: bool = False  # evaluated through jamming_rules.evaluate_jam
    needs_jammer: bool = False  # undefined without a jammer scenario
    enumerates: bool = False    # sums 2^K mixture terms, so K <= MAX_ENUM_K
    needs_rate_gap: bool = False  # undefined when every sensor has pd = pf


RULES = {
    "llr": Rule(lambda y, ctx, jam, ws, psi: llr(y, ctx), enumerates=True),
    "is": Rule(lambda y, ctx, jam, ws, psi: is_rule(y, ctx)),
    "nlos": Rule(lambda y, ctx, jam, ws, psi: nlos_rule(y)),
    "wl0": Rule(lambda y, ctx, jam, ws, psi: wl_rule(y, wl_weights(ctx, H0)),
                needs_rate_gap=True),
    "wl1": Rule(lambda y, ctx, jam, ws, psi: wl_rule(y, wl_weights(ctx, H1)),
                needs_rate_gap=True),
    "igmm": Rule(lambda y, ctx, jam, ws, psi: igmm_rule(y, ctx)),
    "clairvoyant": Rule(lambda y, ctx, jam, ws, psi: llr(y, ctx, jam, psi),
                        jammer_aware=True, enumerates=True),
    "is-glrt": Rule(lambda y, ctx, jam, ws, psi: jamming_rules.is_glrt(y, ctx, jam),
                    jammer_aware=True, needs_jammer=True),
    "nlos-glrt": Rule(lambda y, ctx, jam, ws, psi: jamming_rules.nlos_glrt(y, jam),
                      jammer_aware=True, needs_jammer=True),
    "igmm-glrt": Rule(lambda y, ctx, jam, ws, psi: jamming_rules.igmm_glrt(y, ctx, jam, ws),
                      jammer_aware=True, needs_jammer=True),
}
FREE_RULES = tuple(name for name, rule in RULES.items() if not rule.jammer_aware)
JAM_RULES = tuple(name for name, rule in RULES.items() if rule.jammer_aware)


def evaluate(rule: str, y, ctx: RuleContext):
    """Evaluate an interference-free rule by name on a (T, N) batch."""
    if rule not in FREE_RULES:
        raise ValueError(f"unknown fusion rule {rule!r}; choose from {FREE_RULES}")
    return RULES[rule].kernel(y, ctx, None, None, None)
