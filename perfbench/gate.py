"""The numerical half of the output gate, run once per benchmark run.

Usage: python3 perfbench/gate.py '<json spec>'

Two checks, both on inputs the benchmark generates from its seed with its
own random generator, so they hold at any seed and survive sampler rewrites:

* Kernel exactness.  Every rule the workload runs is evaluated by the
  program on a batch drawn by the sampler below and compared with a
  reference written from the model in PAPER.md: the mixture rules by a
  direct per-component sum, igmm-glrt with its floor from a grid + refine
  maximisation of the concentrated log-likelihood.  The program's floor
  solver is also held to criterion 5's 1e-6 log-likelihood gap.
* Sampler moments.  The program's sampler is drawn under both hypotheses and
  its empirical mean, covariance and pseudo-covariance are compared with the
  closed forms, entry by entry, in units of their own Monte Carlo stderr.

The process also records the manifest (versions, BLAS, threads, caches).
"""

from __future__ import annotations

import json
import os
import platform
import sys

import numpy as np

# |got - ref| <= TOL_EXACT * (1 + |ref|).  Float64 carries ~2.2e-16 relative;
# the program's mixture kernel loses up to ~|y|^2 / sigma^2 ~ 1e4 of that to
# cancellation in |y - mu|^2, and the moment-matched rules lose cond(Sigma) ~
# 1e5 in the solve, so 1e-9 leaves three orders of margin and still sees a
# statistic moved by one part in 1e6.
TOL_EXACT = 1e-9
# Criterion 5: the floor solver's log-likelihood may trail the oracle by 1e-6.
FLOOR_GAP = 1e-6
# Moment z-scores: ~160 entries per hypothesis; |z| > 6 has probability
# ~2e-9 each under a correct sampler.
Z_MAX = 6.0
CHECK_TRIALS = 256        # per hypothesis, kernel exactness
MOMENT_TRIALS = 40_000    # per hypothesis, sampler moments
MOMENT_NOISE_DBM = 10.0   # noise large enough that a wrong variance shows


def steering(angles: np.ndarray, n: int) -> np.ndarray:
    """Half-wavelength ULA responses, one column per angle."""
    return np.exp(1j * np.pi * np.arange(n)[:, None] * np.cos(angles)[None, :])


def crandn(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class Model:
    """The received-signal model of PAPER.md, rebuilt from a deployment's
    per-sensor parameters (and a jammer's per-component parameters)."""

    def __init__(self, wsn, jammer=None):
        s = wsn.sensors
        beta = np.array([p.beta for p in s])
        kappa = np.array([p.kappa for p in s])
        self.n = wsn.n_antennas
        self.noise = float(wsn.noise_power)
        self.a = steering(np.array([p.theta for p in s]), self.n) * np.sqrt(
            beta * kappa / (1.0 + kappa))
        self.nu = beta / (1.0 + kappa)
        self.pf = np.array([p.pf for p in s])
        self.pd = np.array([p.pd for p in s])
        self.jam = None
        if jammer is not None:
            jb, jk = np.asarray(jammer.beta), np.asarray(jammer.kappa)
            # A_J's columns are sqrt(beta) b a(phi), and the symbol vector is
            # zeta(psi) = sqrt(beta) b psi, as the program defines them
            zeta = np.sqrt(jb * jk / (1.0 + jk))
            a_j = steering(np.asarray(jammer.phi), self.n) * zeta
            q, _ = np.linalg.qr(a_j, mode="complete")
            self.jam = {"a": a_j, "zeta": zeta, "nu": jb / (1.0 + jk),
                        "r": a_j.shape[1], "u_perp": q[:, a_j.shape[1]:]}

    def rho(self, h: int) -> np.ndarray:
        return self.pd if h else self.pf

    def moments(self, h: int, jammed: bool = False):
        """Closed-form mean, covariance and pseudo-covariance of y under h.

        The rules model the interference-free signal; the jammed sampler adds
        uniform-phase symbols (zero mean, E[psi psi^H] = I, E[psi psi^T] = 0).
        """
        rho = self.rho(h)
        sx = np.diag(rho * (1.0 - rho))
        mean = self.a @ rho
        cov = self.a @ sx @ self.a.conj().T + (self.noise + self.nu @ rho) * np.eye(self.n)
        pcov = self.a @ sx @ self.a.T
        if jammed:
            aj = self.jam["a"] * self.jam["zeta"]
            cov = cov + aj @ aj.conj().T + self.jam["nu"].sum() * np.eye(self.n)
        return mean, cov, pcov

    def aug_cov(self, h: int) -> np.ndarray:
        _, cov, pcov = self.moments(h)
        return np.block([[cov, pcov], [pcov.conj(), cov.conj()]])

    def draw(self, h: int, rng, t: int):
        """The benchmark's own sampler: (y, psi) for t trials under h."""
        x = (rng.random((t, self.nu.size)) < self.rho(h)[None, :]).astype(float)
        y = (x @ self.a.T
             + np.einsum("tnk,tk->tn", crandn(rng, (t, self.n, x.shape[1])),
                         x * np.sqrt(self.nu))
             + np.sqrt(self.noise) * crandn(rng, (t, self.n)))
        psi = None
        if self.jam is not None:
            r = self.jam["r"]
            psi = np.exp(2j * np.pi * rng.random((t, r)))
            y = (y + (psi * self.jam["zeta"]) @ self.jam["a"].T
                 + np.einsum("tnr,tr->tn", crandn(rng, (t, self.n, r)),
                             psi * np.sqrt(self.jam["nu"])))
        return y, psi


# ---------------------------------------------------------------------------
# references


def ref_mixture(m: Model, y: np.ndarray, psi=None) -> np.ndarray:
    """log p(y|H1) - log p(y|H0) by a direct sum over the 2^K components.

    With jammer symbols psi, each component mean moves by A_J psi and each
    variance grows by sum_l nu_l |psi_l|^2 (the clairvoyant LRT).
    """
    k = m.nu.size
    t = y.shape[0]
    shift = np.zeros_like(y)
    extra = np.zeros(t)
    if psi is not None:
        shift = (psi * m.jam["zeta"]) @ m.jam["a"].T
        extra = (np.abs(psi) ** 2) @ m.jam["nu"]
    yc = y - shift
    acc = [np.full(t, -np.inf), np.full(t, -np.inf)]
    with np.errstate(divide="ignore"):
        logs = [(np.log(p), np.log1p(-p)) for p in (m.pf, m.pd)]
    for j in range(1 << k):
        x = (j >> np.arange(k)) & 1
        s2 = m.noise + m.nu @ x + extra
        d2 = np.sum(np.abs(yc - m.a @ x) ** 2, axis=1)
        ll = -m.n * np.log(s2) - d2 / s2
        for h in (0, 1):
            lp = np.where(x == 1, logs[h][0], logs[h][1]).sum()
            acc[h] = np.logaddexp(acc[h], lp + ll)
    return acc[1] - acc[0]


def _augment(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v, v.conj()], axis=-1)


def ref_is(m: Model, y):
    mu_bar = m.a.mean(axis=1)
    return 2.0 * (y @ mu_bar.conj()).real + (m.nu.mean() / m.noise) * np.sum(np.abs(y) ** 2, 1)


def ref_nlos(m: Model, y):
    return np.sum(np.abs(y) ** 2, axis=1)


def ref_wl(m: Model, y, h: int):
    a_aug = np.vstack([m.a, m.a.conj()])
    z = np.linalg.solve(m.aug_cov(h), a_aug @ (m.pd - m.pf))
    z = z / np.linalg.norm(z)
    return (_augment(y) @ z.conj()).real


def ref_igmm(m: Model, y):
    ya = _augment(y)
    q = []
    for h in (0, 1):
        d = ya - _augment(m.moments(h)[0])
        q.append(np.sum(d.conj() * np.linalg.solve(m.aug_cov(h), d.T).T, axis=1).real)
    return q[0] - q[1]


def ref_is_glrt(m: Model, y):
    up = m.jam["u_perp"]
    n = m.n
    n0 = np.sum(np.abs(y @ up.conj()) ** 2, axis=1)
    n1 = np.sum(np.abs((y - m.a.sum(axis=1)) @ up.conj()) ** 2, axis=1)
    s0, s1 = m.noise, m.noise + m.nu.sum()
    v0, v1 = np.maximum(n0 / n, s0), np.maximum(n1 / n, s1)
    return n * np.log(v0 / v1) - n1 / v1 + n0 / v0


def ref_nlos_glrt(m: Model, y):
    return np.sum(np.abs(y @ m.jam["u_perp"].conj()) ** 2, axis=1)


def profile_loglik(la, lc, v2, s):
    """Concentrated log-likelihood of floor s (rows of v2 x columns of s)."""
    s = np.asarray(s)
    return (-np.log(la[None, None, :] + s[:, :, None]).sum(-1)
            - (v2[:, None, :] / (lc[None, None, :] + s[:, :, None])).sum(-1))


def oracle_floor(la, lc, v2):
    """Grid over [0, 1e3 * scale] plus golden-section refinement, per row."""
    t = v2.shape[0]
    hi = 1e3 * max(la.max(), lc.max(), v2.max(), 1.0)
    grid = np.concatenate([[0.0], np.geomspace(1e-9, hi, 4000)])
    vals = profile_loglik(la, lc, v2, np.broadcast_to(grid, (t, grid.size)))
    i = np.argmax(vals, axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    up = grid[np.minimum(i + 1, grid.size - 1)]
    g = (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c = up - g * (up - lo)
        d = lo + g * (up - lo)
        fc, fd = profile_loglik(la, lc, v2, np.stack([c, d], axis=1)).T
        left = fc >= fd
        up = np.where(left, d, up)
        lo = np.where(left, lo, c)
    cands = np.stack([grid[i], lo, up, np.zeros(t)], axis=1)
    cvals = profile_loglik(la, lc, v2, cands)
    return cvals.max(axis=1)


def igmm_glrt_parts(m: Model, y, h: int):
    """(lambda_a, lambda_c, v2) of the moment-matched GLRT under h.

    The clean augmented coordinates are [c; conj(c)] with c = U_perp^H (y -
    mean); any orthonormal basis of the clean subspace gives the same
    eigenvalues and energies.
    """
    mean, cov, pcov = m.moments(h)
    up = m.jam["u_perp"]
    la = np.linalg.eigvalsh(m.aug_cov(h))
    c_cov = up.conj().T @ cov @ up
    c_pcov = up.conj().T @ pcov @ up.conj()
    sc = np.block([[c_cov, c_pcov], [c_pcov.conj(), c_cov.conj()]])
    lc, uc = np.linalg.eigh(sc)
    lc = np.maximum(lc, 0.0)
    c = (y - mean) @ up.conj()
    v2 = np.abs(_augment(c) @ uc.conj()) ** 2
    return la, lc, v2


# ---------------------------------------------------------------------------
# checks against the program


def _max_rel_err(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    if got.shape != ref.shape or not np.all(np.isfinite(got)):
        return float("inf")
    return float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))


def check_kernels(rf, wsn, jammer, rules, rng) -> dict:
    """Max relative error of each rule against its reference (and the floor gap)."""
    m = Model(wsn, jammer)
    ctx = rf.fusion_rules.make_context(wsn)
    ws = rf.jamming_rules.build_workspace(ctx, jammer) if jammer is not None else None
    batches = [m.draw(h, rng, CHECK_TRIALS) for h in (0, 1)]
    y = np.concatenate([b[0] for b in batches])
    psi = np.concatenate([b[1] for b in batches]) if jammer is not None else None
    refs = {
        "llr": lambda: ref_mixture(m, y),
        "is": lambda: ref_is(m, y),
        "nlos": lambda: ref_nlos(m, y),
        "wl0": lambda: ref_wl(m, y, 0),
        "wl1": lambda: ref_wl(m, y, 1),
        "igmm": lambda: ref_igmm(m, y),
        "clairvoyant": lambda: ref_mixture(m, y, psi),
        "is-glrt": lambda: ref_is_glrt(m, y),
        "nlos-glrt": lambda: ref_nlos_glrt(m, y),
    }
    out = {}
    for rule in rules:
        if rule in rf.fusion_rules.FREE_RULES:
            got = rf.fusion_rules.evaluate(rule, y, ctx)
        else:
            got = rf.jamming_rules.evaluate_jam(rule, y, ctx, jammer, ws, psi=psi)
        if rule != "igmm-glrt":
            err = _max_rel_err(got, refs[rule]())
            out[rule] = {"max_rel_err": err, "tol": TOL_EXACT, "ok": err <= TOL_EXACT}
            continue
        # the statistic is half the difference of the two maximised
        # concentrated log-likelihoods; the best of the oracle's floor and the
        # program's solver floor (scored by the reference) is the maximum
        best, gap = [], 0.0
        for h in (0, 1):
            la, lc, v2 = igmm_glrt_parts(m, y, h)
            floors = rf.jamming_rules.SigmaPolySolver(la, lc).solve_batch(v2)
            l_prog = profile_loglik(la, lc, v2, floors[:, None])[:, 0]
            l_oracle = oracle_floor(la, lc, v2)
            gap = max(gap, float(np.max(l_oracle - l_prog)))
            best.append(np.maximum(l_oracle, l_prog))
        err = _max_rel_err(got, 0.5 * (best[1] - best[0]))
        out[rule] = {"max_rel_err": err, "tol": TOL_EXACT, "floor_gap": gap,
                     "gap_tol": FLOOR_GAP,
                     "ok": err <= TOL_EXACT and gap <= FLOOR_GAP}
    return out


def moment_z(y: np.ndarray, mean, cov, pcov) -> float:
    """Largest |z| of the empirical mean/cov/pcov entries against closed forms."""
    t = y.shape[0]
    d = y - mean
    blocks = [(y, mean),
              (d[:, :, None] * d[:, None, :].conj(), cov),
              (d[:, :, None] * d[:, None, :], pcov)]
    worst = 0.0
    for samples, target in blocks:
        for part in (np.real, np.imag):
            s, tg = part(samples), part(target)
            se = s.std(axis=0, ddof=1) / np.sqrt(t)
            diff = s.mean(axis=0) - tg
            live = se > 1e-12 * (1.0 + np.abs(tg))
            # entries with no spread (imaginary diagonal) must match exactly
            if np.any(np.abs(diff[~live]) > 1e-9 * (1.0 + np.abs(tg[~live]))):
                return float("inf")
            worst = max(worst, float(np.max(np.abs(diff[live] / se[live]), initial=0.0)))
    return worst


def check_sampler(rf, wsn, jammer, rng) -> dict:
    """Moments of the program's sampler (the jammed one when a jammer is set)."""
    wsn = wsn.with_(noise_power=float(10.0 ** (MOMENT_NOISE_DBM / 10.0)))
    m = Model(wsn, jammer)
    sm = rf.signal_model
    worst = 0.0
    for h in (0, 1):
        x = sm.draw_decisions(wsn, h, rng, size=MOMENT_TRIALS)
        if jammer is None:
            y = sm.draw_received(wsn, x, rng)
        else:
            y = sm.draw_jammed(wsn, jammer, x, rng)[0]
        worst = max(worst, moment_z(np.asarray(y), *m.moments(h, jammer is not None)))
    return {"max_abs_z": worst, "z_max": Z_MAX, "ok": worst <= Z_MAX}


# ---------------------------------------------------------------------------
# manifest


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (after numpy and scipy load)."""
    import ctypes

    import scipy.linalg  # noqa: F401  (scipy may bring its own OpenBLAS)
    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh
                       if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _git_commit(root: str):
    """HEAD's commit, read from .git without running git (None outside a clone)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def manifest(root: str, pinned: dict) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "pinned_env": {k: os.environ.get(k) for k in pinned},
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import ricianfusion as rf

    from workloads import PINNED_ENV, WORKLOADS

    wl = WORKLOADS[spec["workload"]]
    seed = int(spec["seed"])
    rng = np.random.default_rng([seed, 0x9A7E])
    kernels, sampler = {}, None
    for pi, preset in enumerate(wl.presets):
        config = rf.preset_config(preset, k_sensors=wl.k, n_antennas=max(wl.n))
        wsn = rf.generate_wsn(config, rng).with_(
            noise_power=float(10.0 ** (wl.sigmas()[0] / 10.0)))
        jammer = (rf.generate_jammer(config, rng, preset=wl.jammer)
                  if wl.jammer is not None else None)
        for rule, res in check_kernels(rf, wsn, jammer, wl.rules, rng).items():
            kernels.setdefault(rule, []).append(res)
        if pi == 0:
            sampler = check_sampler(rf, wsn, jammer, rng)
    # one verdict per rule: the worst preset
    kernels = {rule: max(res, key=lambda r: (not r["ok"], r["max_rel_err"]))
               for rule, res in kernels.items()}
    out = {"kernels": kernels, "sampler": sampler,
           "manifest": manifest(spec["root"], PINNED_ENV)}
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
