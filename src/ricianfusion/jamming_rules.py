"""Fusion statistics that tolerate (or exploit) a rank-r subspace interferer.

  clairvoyant  exact LRT given the jammer symbols and scattered power
               (fusion_rules.llr with the jammer's LOS shift and its
               constant scattered-power inflation)
  is-glrt      ideal-sensor GLRT: project out the jammer subspace, estimate
               the residual interference floor by ML, plug back in
  nlos-glrt    energy in the interference-free subspace
  igmm-glrt    improper-Gaussian moment-matched GLRT with the same
               projection/ML-floor treatment in real coordinates

The residual-floor ML step maximises a one-dimensional concentrated
log-likelihood that depends on the trial only through the rotated
measurement energies; ``SigmaPolySolver`` finds that maximum by a certified
bracket search over all trials of a batch at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusion_rules
from .fusion_rules import RuleContext
from .scenario import JammerScenario
from .signal_model import real_coords

_LEVELS = 60  # halvings of [0, S], and bisection steps on a concave piece


def is_glrt(y_s, ctx: RuleContext, jammer: JammerScenario):
    """Ideal-sensor GLRT after projecting out the jammer subspace.

    Residual interference floors under the two hypotheses are estimated as
    [||P y||^2 / N - noise]_+ and plugged back into the projected Gaussian
    likelihood ratio.
    """
    sc = ctx.scenario
    n = sc.n_antennas
    mu1 = sc.a_tilde.sum(axis=1)
    n0 = nlos_glrt(y_s, jammer)
    n1 = nlos_glrt(y_s - mu1[None, :], jammer)
    s0 = sc.noise_power
    s1 = float(sc.noise_power + sc.nu.sum())
    v0 = s0 + np.maximum(n0 / n - s0, 0.0)
    v1 = s1 + np.maximum(n1 / n - s1, 0.0)
    return n * np.log(v0 / v1) - n1 / v1 + n0 / v0


def nlos_glrt(y_s, jammer: JammerScenario):
    """Energy in the interference-free subspace: ||P_perp y_s||^2."""
    return np.sum(np.abs(y_s @ jammer.p_perp.T) ** 2, axis=1)


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


class SigmaPolySolver:
    """ML estimator of the residual interference floor sigma_j^2.

    The concentrated log-likelihood for floor s >= 0 is

        L(s) = -sum_n log(lambda_a[n] + s) - sum_l v2[l] / (lambda_c[l] + s)

    (constants dropped).  L' = P - Q and L'' = U - R, where P = sum v2/(c+s)^2,
    Q = sum 1/(a+s), U = sum 1/(a+s)^2 and R = 2 sum v2/(c+s)^3 are positive
    and decrease in s, so their values at the ends of a piece [lo, hi] bound
    them on it.  No stationary point lies beyond
    S = (W + sqrt(W^2 + 4 M W max a)) / 2M (W = sum v2, M = len(a)).
    [0, S] is halved until each piece is certified: where L' keeps one sign
    or L is convex the maximum is an end, where L is concave bisection on
    the sign of L' finds it.  The ends, s = 0 and S are compared by L; ties
    go to the smaller floor.  The name survives from a solver that took the
    roots of a polynomial, because ``perfbench`` traces the class by name.
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

    def loglik(self, v_abs2: np.ndarray, s: np.ndarray) -> np.ndarray:
        """L at floor s[i] for the energies in row i of v_abs2; a zero energy adds 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return (-np.sum(np.log(self.lambda_a + s[:, None]), axis=1)
                    - np.sum(np.where(v_abs2 > 0, v_abs2 / (self.lambda_c + s[:, None]), 0.0),
                             axis=1))

    def _sums(self, v, s):
        """(P, Q, U, R) at floor s[i] for the energies in row i of v."""
        with np.errstate(divide="ignore", invalid="ignore"):
            ia = 1.0 / (self.lambda_a + s[:, None])
            ic = 1.0 / (self.lambda_c + s[:, None])
            vc = v * ic * ic
            return vc.sum(axis=1), ia.sum(axis=1), (ia * ia).sum(axis=1), 2 * (vc * ic).sum(axis=1)

    def solve_batch(self, v_abs2: np.ndarray) -> np.ndarray:
        """ML floors for (T, len(lambda_c)) rotated measurement energies."""
        v = np.asarray(v_abs2, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.lambda_c.size:
            raise ValueError("expected (T, len(lambda_c)) energies")
        if np.any(v < 0) or np.any(~np.isfinite(v)):
            raise ValueError("squared magnitudes must be finite and nonnegative")
        t, m, w = v.shape[0], self.lambda_a.size, v.sum(axis=1)
        row, lo = np.arange(t), np.zeros(t)
        hi = (w + np.sqrt(w * w + 4.0 * m * w * self.lambda_a.max())) / (2.0 * m)
        ends, concave = [(row, lo), (row, hi)], []
        for _ in range(_LEVELS):
            p_lo, q_lo, u_lo, r_lo = self._sums(v[row], lo)
            p_hi, q_hi, u_hi, r_hi = self._sums(v[row], hi)
            # an empty piece (S = 0) is done even where a sum is 0 * inf
            done = (hi <= lo) | (p_lo <= q_hi) | (p_hi >= q_lo) | (u_hi >= r_lo)
            # L' decreases on a concave piece: bisect it where L' changes sign
            bent = ~done & (u_lo <= r_hi)
            root = bent & (p_lo > q_lo) & (p_hi < q_hi)
            done |= bent & ~root
            ends += [(row[done], lo[done]), (row[done], hi[done])]
            concave.append((row[root], lo[root], hi[root]))
            split = ~done & ~root
            row, lo, hi = row[split], lo[split], hi[split]
            if not row.size:
                break
            mid = 0.5 * (lo + hi)
            row, lo, hi = np.r_[row, row], np.r_[lo, mid], np.r_[mid, hi]
        ends += [(row, lo), (row, hi)]
        row, lo, hi = (np.concatenate(a) for a in zip(*concave))
        vr = v[row]
        for _ in range(_LEVELS):
            mid = 0.5 * (lo + hi)
            p, q = self._sums(vr, mid)[:2]
            lo, hi = np.where(p > q, mid, lo), np.where(p > q, hi, mid)
        ends += [(row, lo), (row, hi)]
        row, s = (np.concatenate(a) for a in zip(*ends))
        # per row, the largest L first and the smaller floor on a tie
        order = np.lexsort((s, -self.loglik(v[row], s), row))
        _, first = np.unique(row[order], return_index=True)
        return s[order[first]]


def solve_sigma_poly(lambda_a, lambda_c, v_abs2) -> float:
    """One-shot ML residual floor (see SigmaPolySolver)."""
    v = np.asarray(v_abs2, dtype=float)[None, :]
    return float(SigmaPolySolver(lambda_a, lambda_c).solve_batch(v)[0])


@dataclass(frozen=True)
class JammerWorkspace:
    """Trial-independent machinery of the moment-matched subspace GLRT.

    Depends only on (scenario, jammer) and holds what neither of them nor
    the context holds: the indices of the 2(N-r) clean coordinates of a
    real-coordinate vector [Re s; Im s] with s = U_j^H y in the jammer SVD
    basis, and per hypothesis the eigenbasis of the clean covariance block
    and the precompiled floor solver, which keeps both eigenvalue sets.
    """

    clean: np.ndarray
    u_c: tuple[np.ndarray, np.ndarray]
    solvers: tuple[SigmaPolySolver, SigmaPolySolver]


def build_workspace(ctx: RuleContext, jammer: JammerScenario) -> JammerWorkspace:
    """Precompute the subspace-GLRT workspace for both hypotheses."""
    n = ctx.scenario.n_antennas
    if jammer.n_antennas != n:
        raise ValueError("jammer and scenario disagree on the antenna count")
    r = jammer.rank
    clean = np.r_[r:n, n + r:2 * n]
    u = jammer.u_j
    q = np.block([[u.real, -u.imag], [u.imag, u.real]])  # U_j in real coordinates
    u_c, solvers = [], []
    for char in ctx.char:
        s_r = q.T @ char.real_cov @ q
        lc, uc = np.linalg.eigh(s_r[np.ix_(clean, clean)])
        u_c.append(uc)
        solvers.append(SigmaPolySolver(np.linalg.eigvalsh(s_r), np.maximum(lc, 0.0)))
    return JammerWorkspace(clean=clean, u_c=tuple(u_c), solvers=tuple(solvers))


def igmm_glrt(y_s, ctx: RuleContext, jammer: JammerScenario,
              ws: JammerWorkspace | None = None):
    """Moment-matched subspace GLRT.

    Per hypothesis: rotate the centered measurement into the jammer SVD
    basis, keep its 2(N-r) clean real coordinates, estimate the residual
    floor by ML there, and form the concentrated log-likelihood difference.
    That of the augmented [s; conj(s)] is the same: its eigenvalues and
    energies are twice these, which shifts each maximum by -2N log 2.
    """
    if ws is None:
        ws = build_workspace(ctx, jammer)
    loglik = []
    for char, uc, solver in zip(ctx.char, ws.u_c, ws.solvers):
        s = real_coords((y_s - char.mean[None, :]) @ jammer.u_j.conj())
        v2 = (s[:, ws.clean] @ uc) ** 2
        loglik.append(solver.loglik(v2, solver.solve_batch(v2)))
    return 0.5 * (loglik[1] - loglik[0])


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
