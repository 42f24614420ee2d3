"""Fusion statistics that tolerate (or exploit) a rank-r subspace interferer.

  clairvoyant  exact LRT given the jammer symbols and scattered power
               (fusion_rules.llr with the jammer shift and inflation)
  is-glrt      ideal-sensor GLRT: project out the jammer subspace, estimate
               the residual interference floor by ML, plug back in
  nlos-glrt    energy in the interference-free subspace
  igmm-glrt    improper-Gaussian moment-matched GLRT with the same
               projection/ML-floor treatment in augmented coordinates

The residual-floor ML step reduces to the nonnegative real roots of a fixed
polynomial whose coefficients depend on the trial only through the rotated
measurement energies; ``SigmaPolySolver`` precompiles everything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import fusion_rules
from .fusion_rules import RuleContext
from .scenario import JammerScenario
from .signal_model import H0, H1, augment

_ROOT_IMAG_TOL = 1e-8
_MERGE_RTOL = 1e-9


def _perp_energy(ys: np.ndarray, jammer: JammerScenario) -> np.ndarray:
    r = ys @ jammer.p_perp.T
    return np.sum(np.abs(r) ** 2, axis=1)


def is_glrt(y_s, ctx: RuleContext, jammer: JammerScenario):
    """Ideal-sensor GLRT after projecting out the jammer subspace.

    Residual interference floors under the two hypotheses are estimated as
    [||P y||^2 / N - noise]_+ and plugged back into the projected Gaussian
    likelihood ratio.
    """
    sc = ctx.scenario
    n = sc.n_antennas
    mu1 = sc.a_tilde.sum(axis=1)
    n0 = _perp_energy(y_s, jammer)
    n1 = _perp_energy(y_s - mu1[None, :], jammer)
    s0 = sc.noise_power
    s1 = float(sc.noise_power + sc.nu.sum())
    v0 = s0 + np.maximum(n0 / n - s0, 0.0)
    v1 = s1 + np.maximum(n1 / n - s1, 0.0)
    return n * np.log(v0 / v1) - n1 / v1 + n0 / v0


def nlos_glrt(y_s, jammer: JammerScenario):
    """Energy in the interference-free subspace: ||P_perp y_s||^2."""
    return _perp_energy(y_s, jammer)


def nlos_piecewise_reference(r0_norm2, sigma_a2: float, sigma_b2: float, n: int):
    """Closed-form energy-GLRT statistic for a white-signal model.

    For projected energy e = ||r0||^2, noise-only floor sigma_a2 and
    signal-plus-noise floor sigma_b2 (0 < sigma_a2 < sigma_b2):

      e/N <  sigma_a2           : N log(sigma_a2/sigma_b2) - e/sigma_b2 + e/sigma_a2
      sigma_a2 <= e/N < sigma_b2: N log(e/(N sigma_b2)) - e/sigma_b2 + N
      e/N >= sigma_b2           : 0

    Continuous and monotone nondecreasing in e, saturating at 0 from
    e = N*sigma_b2 onward.
    """
    if not (0.0 < sigma_a2 < sigma_b2):
        raise ValueError(f"need 0 < sigma_a2 < sigma_b2, got ({sigma_a2}, {sigma_b2})")
    e = np.asarray(r0_norm2, dtype=float)
    if np.any(e < 0):
        raise ValueError("projected energy must be nonnegative")
    avg = e / n
    with np.errstate(divide="ignore", invalid="ignore"):
        mid = n * np.log(avg / sigma_b2) - e / sigma_b2 + n
    low = n * np.log(sigma_a2 / sigma_b2) - e / sigma_b2 + e / sigma_a2
    out = np.select([avg < sigma_a2, avg < sigma_b2], [low, mid], default=0.0)
    return float(out) if out.ndim == 0 else out


def jammer_permutation(n: int, r: int) -> np.ndarray:
    """Index permutation gathering jammer-subspace coordinates first.

    Applied to an augmented 2N vector whose halves are expressed in the
    jammer SVD basis, it brings the 2r interference coordinates to the top
    and the 2(N-r) clean coordinates to the bottom.
    """
    if not (1 <= r < n):
        raise ValueError(f"need 1 <= r < n, got r={r}, n={n}")
    return np.concatenate([np.arange(r), np.arange(n, n + r),
                           np.arange(r, n), np.arange(n + r, 2 * n)])


def _group_indices(values: np.ndarray):
    """Sorted group representatives and a membership matrix (groups x raw)."""
    order = np.argsort(values)
    v = values[order]
    reps = []
    member = np.zeros(len(values), dtype=int)
    i = 0
    g = 0
    while i < len(v):
        j = i + 1
        while j < len(v) and v[j] - v[i] <= _MERGE_RTOL * (1.0 + abs(v[i])):
            j += 1
        reps.append(v[i:j].mean())
        member[order[i:j]] = g
        i = j
        g += 1
    mat = np.zeros((g, len(values)))
    mat[member, np.arange(len(values))] = 1.0
    return np.array(reps), mat


def _prods_without_one(factors: list[np.ndarray]):
    """Full product and the leave-one-out products of coefficient arrays."""
    n = len(factors)
    pre = [np.array([1.0])]
    for f in factors:
        pre.append(npoly.polymul(pre[-1], f))
    suf = [np.array([1.0])] * (n + 1)
    for i in range(n - 1, -1, -1):
        suf[i] = npoly.polymul(factors[i], suf[i + 1])
    full = pre[n]
    without = [npoly.polymul(pre[i], suf[i + 1]) for i in range(n)]
    return full, without


def _pad(coeffs: np.ndarray, length: int) -> np.ndarray:
    out = np.zeros(length)
    out[:len(coeffs)] = coeffs
    return out


class SigmaPolySolver:
    """ML estimator of the residual interference floor sigma_j^2.

    The concentrated log-likelihood for floor s >= 0 is

        L(s) = -1/2 sum_n log(lambda_a[n] + s) - 1/2 sum_l v2[l] / (lambda_c[l] + s)

    (additive constants dropped).  Stationary points satisfy

        sum_n 1/(lambda_a[n] + s) = sum_l v2[l] / (lambda_c[l] + s)^2,

    which after merging repeated eigenvalues and clearing denominators is a
    polynomial with trial-independent structure; only the weights v2 move.
    Roots come from companion-matrix eigenvalues; candidates are the
    nonnegative real roots plus the boundary s = 0, and ties prefer the
    smaller floor.
    """

    def __init__(self, lambda_a: np.ndarray, lambda_c: np.ndarray):
        la = np.asarray(lambda_a, dtype=float)
        lc = np.asarray(lambda_c, dtype=float)
        if la.ndim != 1 or lc.ndim != 1 or la.size == 0 or lc.size == 0:
            raise ValueError("lambda_a and lambda_c must be nonempty 1-d arrays")
        if np.any(~np.isfinite(la)) or np.any(~np.isfinite(lc)):
            raise ValueError("eigenvalues must be finite")
        if np.any(la < 0) or np.any(lc < 0):
            raise ValueError("eigenvalues must be nonnegative")
        self.lambda_a = la
        self.lambda_c = lc
        self.scale = float(max(la.max(), lc.max(), 1e-300))
        a = la / self.scale
        c = lc / self.scale
        self._a_vals, a_member = _group_indices(a)
        self._a_cnts = a_member.sum(axis=1)
        self._c_vals, self._c_member = _group_indices(c)
        m = len(self._a_vals)
        q = len(self._c_vals)
        a_factors = [np.array([av, 1.0]) for av in self._a_vals]
        a_full, a_without = _prods_without_one(a_factors)
        c_factors = [npoly.polymul(np.array([cv, 1.0]), np.array([cv, 1.0]))
                     for cv in self._c_vals]
        c_full, c_without = _prods_without_one(c_factors)
        deg = (m - 1) + 2 * q
        lhs = np.zeros(deg + 1)
        for cnt, aw in zip(self._a_cnts, a_without):
            lhs += cnt * _pad(npoly.polymul(aw, c_full), deg + 1)
        g_cols = [
            _pad(npoly.polymul(a_full, cw), deg + 1) for cw in c_without
        ]
        self._deg = deg
        self._lhs = lhs
        self._g = np.stack(g_cols, axis=1)  # (deg+1, Q)

    def solve_batch(self, v_abs2: np.ndarray) -> np.ndarray:
        """ML floors for (T, len(lambda_c)) rotated measurement energies."""
        v = np.asarray(v_abs2, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.lambda_c.size:
            raise ValueError("expected (T, len(lambda_c)) energies")
        if np.any(v < 0) or np.any(~np.isfinite(v)):
            raise ValueError("squared magnitudes must be finite and nonnegative")
        t = v.shape[0]
        w = (v / self.scale) @ self._c_member.T
        coeffs = self._lhs[None, :] - w @ self._g.T  # (T, deg+1) ascending
        deg = self._deg
        out = np.empty(t)
        sub = (np.arange(1, deg), np.arange(deg - 1))
        chunk = max(1, (1 << 22) // max(deg * deg, 1))
        for lo in range(0, t, chunk):
            hi = min(lo + chunk, t)
            blk = hi - lo
            comp = np.zeros((blk, deg, deg))
            desc = coeffs[lo:hi, ::-1]
            comp[:, 0, :] = -desc[:, 1:] / desc[:, :1]
            comp[:, sub[0], sub[1]] = 1.0
            roots = np.linalg.eigvals(comp)
            keep = np.abs(roots.imag) <= _ROOT_IMAG_TOL * (1.0 + np.abs(roots))
            keep &= roots.real > 0.0
            # candidates per row, ascending, boundary 0 first; rejected roots
            # park at +inf where the log-likelihood is -inf
            re = np.sort(np.where(keep, roots.real, np.inf), axis=1)
            cands = np.concatenate([np.zeros((blk, 1)), re], axis=1)
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                logdet = np.log(self._a_vals[None, None, :]
                                + cands[:, :, None]) @ self._a_cnts
                quad = np.sum(w[lo:hi, None, :]
                              / (self._c_vals[None, None, :] + cands[:, :, None]),
                              axis=-1)
            loglik = -logdet - quad
            # first argmax <=> smallest floor on exact ties
            idx = np.argmax(loglik, axis=1)
            out[lo:hi] = cands[np.arange(blk), idx] * self.scale
        return out


def solve_sigma_poly(lambda_a, lambda_c, v_abs2) -> float:
    """One-shot ML residual floor (see SigmaPolySolver)."""
    v = np.asarray(v_abs2, dtype=float)[None, :]
    return float(SigmaPolySolver(lambda_a, lambda_c).solve_batch(v)[0])


@dataclass(frozen=True)
class JammerWorkspace:
    """Trial-independent machinery for the moment-matched subspace GLRT.

    Everything here depends only on (scenario, jammer): the augmented basis
    change into the jammer SVD coordinates, the permutation isolating the
    clean coordinates, the clean-block eigensystems and the precompiled
    floor solvers, one per hypothesis.
    """

    n_antennas: int
    rank: int
    perm: np.ndarray
    u_j: np.ndarray
    t_mean: tuple[np.ndarray, np.ndarray]
    lambda_a: tuple[np.ndarray, np.ndarray]
    u_c: tuple[np.ndarray, np.ndarray]
    lambda_c: tuple[np.ndarray, np.ndarray]
    solvers: tuple[SigmaPolySolver, SigmaPolySolver]


def build_workspace(ctx: RuleContext, jammer: JammerScenario) -> JammerWorkspace:
    """Precompute the subspace-GLRT workspace for both hypotheses."""
    n = ctx.scenario.n_antennas
    if jammer.n_antennas != n:
        raise ValueError("jammer and scenario disagree on the antenna count")
    r = jammer.rank
    uj = jammer.u_j
    u_aug = np.zeros((2 * n, 2 * n), dtype=complex)
    u_aug[:n, :n] = uj
    u_aug[n:, n:] = uj.conj()
    perm = jammer_permutation(n, r)
    t_mean, lam_a, u_c, lam_c, solvers = [], [], [], [], []
    for char in (ctx.char0, ctx.char1):
        s_a = u_aug.conj().T @ char.aug_cov @ u_aug
        la = np.linalg.eigvalsh(s_a)
        s_perm = s_a[np.ix_(perm, perm)]
        s_c = s_perm[2 * r:, 2 * r:]
        lc, uc = np.linalg.eigh(s_c)
        lc = np.maximum(lc, 0.0)
        t_mean.append(char.mean)
        lam_a.append(la)
        u_c.append(uc)
        lam_c.append(lc)
        solvers.append(SigmaPolySolver(la, lc))
    return JammerWorkspace(
        n_antennas=n, rank=r, perm=perm, u_j=uj,
        t_mean=tuple(t_mean), lambda_a=tuple(lam_a), u_c=tuple(u_c),
        lambda_c=tuple(lam_c),
        solvers=tuple(solvers))


def igmm_glrt(y_s, ctx: RuleContext, jammer: JammerScenario,
              ws: JammerWorkspace | None = None):
    """Moment-matched subspace GLRT.

    Per hypothesis: rotate the centered measurement into the jammer SVD
    basis, keep the 2(N-r) clean augmented coordinates, estimate the
    residual floor by ML there, and form the concentrated log-likelihood
    difference.
    """
    if ws is None:
        ws = build_workspace(ctx, jammer)
    r = ws.rank
    per_h = []
    for i in (H0, H1):
        s = (y_s - ws.t_mean[i][None, :]) @ ws.u_j.conj()
        m_c = augment(s)[:, ws.perm[2 * r:]]
        v = m_c @ ws.u_c[i].conj()
        v2 = np.abs(v) ** 2
        floors = ws.solvers[i].solve_batch(v2)
        logdet = np.sum(np.log(ws.lambda_a[i][None, :] + floors[:, None]), axis=1)
        quad = np.sum(v2 / (ws.lambda_c[i][None, :] + floors[:, None]), axis=1)
        per_h.append((logdet, quad))
    return (-0.5 * (per_h[1][0] - per_h[0][0])
            - 0.5 * (per_h[1][1] - per_h[0][1]))


def evaluate_jam(rule: str, y_s, ctx: RuleContext, jammer: JammerScenario | None,
                 ws: JammerWorkspace | None = None, psi=None):
    """Evaluate a jammer-aware rule by name on a (T, N) batch.

    ``psi`` (T, r) holds the jammer symbols the clairvoyant LRT is given.
    """
    if rule not in fusion_rules.JAM_RULES:
        raise ValueError(f"unknown jammer-aware rule {rule!r}; "
                         f"choose from {fusion_rules.JAM_RULES}")
    spec = fusion_rules.RULES[rule]
    if spec.needs_jammer and jammer is None:
        raise ValueError(f"rule {rule!r} needs a jammer scenario")
    return spec.kernel(y_s, ctx, jammer, ws, psi)
