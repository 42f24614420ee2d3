"""Interference-free fusion statistics at the fusion center, and the rule table.

Six statistics, all real-valued and all "large under H1":

  llr   exact log-likelihood ratio (2^K-term Gaussian-mixture ratio)
  is    ideal-sensor approximation: 2 Re(mu_bar^H y) + (nu_bar/sigma_w^2) ||y||^2
  nlos  energy detector ||y||^2
  wl0   widely-linear weights maximizing the H0-normalized deflection
  wl1   same with H1-normalized deflection
  igmm  improper-Gaussian moment-matched quadratic statistic

Every kernel maps a batch of received vectors (T, N) to a (T,) array.
``RuleContext`` carries the scenario's moments, inverse augmented
covariances and mixture tables; the ``wl0``/``wl1`` kernels derive their
weights from it per call.  ``RULES`` lists all ten statistics (these six
and the four jammer-aware ones of ``jamming_rules``) with what each needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from .scenario import JammerScenario, WsnScenario
from .signal_model import (H0, H1, MAX_ENUM_K, SecondOrderChar, augment,
                           enumerate_decisions, second_order_char)

_HERM_RTOL = 1e-10
_IMAG_TOL = 1e-10
# why a widely-linear rule has no weight direction when pd = pf everywhere
SAME_RATES = "identical transmit probabilities under both hypotheses"


class UnsupportedSizeError(ValueError):
    """Raised when an exact-enumeration rule is asked for too many sensors."""


class DegenerateWeightsError(ValueError):
    """Raised when the deflection-optimal weight direction is undefined."""


def _hermitian_inv(m: np.ndarray) -> np.ndarray:
    asym = np.linalg.norm(m - m.conj().T)
    if asym > _HERM_RTOL * max(np.linalg.norm(m), 1e-300):
        raise np.linalg.LinAlgError("covariance matrix is not Hermitian within tolerance")
    c, low = scipy.linalg.cho_factor(m)
    return scipy.linalg.cho_solve((c, low), np.eye(m.shape[0], dtype=complex))


@dataclass(frozen=True)
class _LlrTables:
    """Enumeration tables for the exact mixture LLR."""

    mu_all: np.ndarray       # (N, 2^K) conditional means A_tilde x
    mu_norm2: np.ndarray     # (2^K,)
    sigma_e2_all: np.ndarray  # (2^K,) equivalent variances
    log_p0: np.ndarray       # (2^K,) log P(x | H0)
    log_p1: np.ndarray       # (2^K,) log P(x | H1)


def _log_pmf_iid(x_all: np.ndarray, p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logp = np.log(p)
        logq = np.log1p(-p)
    # selection, not multiplication: 0 * (-inf) must never appear
    return np.where(x_all == 1, logp[None, :], logq[None, :]).sum(axis=1)


def _build_llr_tables(scenario: WsnScenario) -> _LlrTables:
    x_all = enumerate_decisions(scenario.k_sensors)
    xf = x_all.astype(float)
    mu_all = scenario.a_tilde @ xf.T
    return _LlrTables(mu_all=mu_all,
                      mu_norm2=np.sum(np.abs(mu_all) ** 2, axis=0),
                      sigma_e2_all=scenario.noise_power + xf @ scenario.nu,
                      log_p0=_log_pmf_iid(x_all, scenario.pf),
                      log_p1=_log_pmf_iid(x_all, scenario.pd))


@dataclass(frozen=True)
class RuleContext:
    """Precomputed per-scenario quantities shared by all fusion rules."""

    scenario: WsnScenario
    char0: SecondOrderChar
    char1: SecondOrderChar
    aug_inv0: np.ndarray
    aug_inv1: np.ndarray
    llr_tables: _LlrTables | None


def make_context(scenario: WsnScenario) -> RuleContext:
    """Build a RuleContext.

    The exact-LLR enumeration tables are built only when K <= MAX_ENUM_K.
    """
    char0 = second_order_char(scenario, H0)
    char1 = second_order_char(scenario, H1)
    tables = None
    if scenario.k_sensors <= MAX_ENUM_K:
        tables = _build_llr_tables(scenario)
    return RuleContext(scenario=scenario, char0=char0, char1=char1,
                       aug_inv0=_hermitian_inv(char0.aug_cov),
                       aug_inv1=_hermitian_inv(char1.aug_cov),
                       llr_tables=tables)


def llr(y, ctx: RuleContext, jammer: JammerScenario | None = None, psi=None):
    """Exact log-likelihood ratio.

    Both conditional densities are 2^K-component Gaussian mixtures; each
    mixture is evaluated in the log domain via logsumexp, so the result
    stays finite for ||y|| far into the tails and for sensors that always
    or never transmit.  Given a jammer and its per-trial unit-modulus
    symbols psi (T, r), each component mean is shifted by ``jammer.los(psi)``
    and each component variance inflated by the constant scattered power
    sum(jammer.nu): the clairvoyant LRT.  Requires K <= MAX_ENUM_K
    (enumeration tables).
    """
    tab = ctx.llr_tables
    if tab is None:
        raise UnsupportedSizeError(
            f"exact mixture statistics need K <= {MAX_ENUM_K} "
            f"(K={ctx.scenario.k_sensors})")
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
        out[lo:lo + chunk] = (logsumexp(base + tab.log_p1[None, :], axis=1)
                              - logsumexp(base + tab.log_p0[None, :], axis=1))
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

    z = Sigma_aug(h)^{-1} A_aug (rho1 - rho0), normalized to unit length.
    The direction is undefined (``DegenerateWeightsError``) when the two
    hypotheses have identical transmit-probability vectors or the mean
    channel matrix vanishes.
    """
    rho10 = ctx.char1.rho - ctx.char0.rho
    if np.all(rho10 == 0.0):
        raise DegenerateWeightsError(SAME_RATES)
    a = ctx.scenario.a_tilde
    a_aug = np.vstack([a, a.conj()])
    inv = ctx.aug_inv1 if h else ctx.aug_inv0
    z = inv @ (a_aug @ rho10)
    n = ctx.scenario.n_antennas
    # the solution of the structured system is augmented-consistent by
    # construction; enforce it exactly to kill roundoff drift
    mismatch = np.abs(z[n:] - z[:n].conj()).max()
    if mismatch > 1e-8 * max(np.abs(z).max(), 1e-300):
        raise np.linalg.LinAlgError("widely-linear weight solve lost augmented structure")
    z = augment(z[:n])
    norm = np.linalg.norm(z)
    if norm < 1e-150:
        raise DegenerateWeightsError(
            "weight direction vanishes (zero mean channel matrix)")
    return z / norm


def wl_rule(y, z: np.ndarray):
    """Widely-linear statistic z^H [y; conj(y)].

    ``z`` must be augmented-consistent (second half the conjugate of the
    first); the inner product is then real up to roundoff, which is checked
    before the imaginary part is dropped.
    """
    z = np.asarray(z, dtype=complex)
    n2 = z.shape[0]
    if n2 % 2:
        raise ValueError("augmented weight vector must have even length")
    n = n2 // 2
    if np.abs(z[n:] - z[:n].conj()).max() > 1e-8 * max(np.abs(z).max(), 1e-300):
        raise ValueError("weight vector is not augmented-consistent")
    if y.shape[1] != n:
        raise ValueError(f"received vector length {y.shape[1]} != {n}")
    vals = augment(y) @ z.conj()
    imag_max = np.abs(vals.imag).max(initial=0.0)
    scale = max(np.abs(vals).max(initial=0.0), 1.0)
    if imag_max > _IMAG_TOL * scale:
        raise ValueError(f"widely-linear statistic has imaginary residue {imag_max:g}")
    return vals.real


def _quad_form_batch(d: np.ndarray, m_inv: np.ndarray) -> np.ndarray:
    # d^H M^{-1} d for each row d; M Hermitian so M^T = conj(M)
    return np.sum(d.conj() * (d @ m_inv.conj()), axis=1).real


def igmm_rule(y, ctx: RuleContext):
    """Moment-matched improper-Gaussian quadratic statistic.

    Difference of Mahalanobis distances of the augmented vector under the
    two hypotheses' augmented covariances.
    """
    ya = augment(y)
    d1 = ya - augment(ctx.char1.mean)[None, :]
    d0 = ya - augment(ctx.char0.mean)[None, :]
    return _quad_form_batch(d0, ctx.aug_inv0) - _quad_form_batch(d1, ctx.aug_inv1)


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
