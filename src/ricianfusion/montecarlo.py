"""Monte Carlo detection-performance machinery.

Thresholds are calibrated empirically: draw H0 statistics, take the upper
order-statistic quantile for the target false-alarm rate, then measure the
achieved rate on a fresh sample and the detection rate under H1.  All
randomness is derived from (seed, stream, hypothesis, block) seed sequences
with a fixed block size, so results are bit-identical for a given seed no
matter how many worker threads evaluate the blocks.
"""

from __future__ import annotations

import csv
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fusion_rules, jamming_rules
from .scenario import (DeploymentConfig, JammerScenario, WsnScenario,
                       db_to_lin, generate_jammer, generate_wsn)
from .signal_model import H0, H1, draw_decisions, draw_jammed, draw_received

BLOCK = 8192
DEFAULT_LEVELS = (0.3, 0.1, 0.05, 0.02, 0.01)

# Seed-stream roles: the H0 calibration sample and its fresh H0 check, the H1
# detection sample, and the fresh H0/H1 samples an equivalence check compares.
CALIBRATE, CHECK, DETECT, COMPARE_H0, COMPARE_H1 = range(5)

CSV_COLUMNS = ("preset", "jammer", "rule", "sigma_w2_dbm", "n_antennas",
               "target_pf0", "gamma", "achieved_pf0", "pd0", "pd0_stderr",
               "trials", "seed")
ROC_COLUMNS = ("rule", "target_pf0", "gamma", "pf0", "pd0", "trials")


@dataclass(frozen=True)
class SampleBatch:
    """A block-concatenated set of Monte Carlo channel uses."""

    y: np.ndarray                 # (T, N)
    x: np.ndarray                 # (T, K)
    psi: np.ndarray | None = None  # (T, r) jammer symbols when jammed


@dataclass(frozen=True)
class CalibratedTest:
    """A rule with an empirically calibrated threshold (decide H1 iff value > gamma)."""

    rule: str
    gamma: float
    target_pf0: float
    achieved_pf0: float
    achieved_ci95: tuple[float, float]
    trials: int


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class EquivalenceResult:
    """Outcome of comparing two rules under common random numbers."""

    verdict: str  # equivalent | monotone-equivalent | distinct
    spearman: float
    max_disagreement: float
    levels: tuple[float, ...]
    disagreement: tuple[float, ...]


def upper_quantile(values: np.ndarray, target_pf0: float) -> float:
    """Threshold as the order statistic with index ceil((1-p)*n), no interpolation.

    With n*p an integer this leaves exactly n*p strict exceedances in the
    calibration sample itself.
    """
    if not (0.0 < target_pf0 < 1.0):
        raise ValueError(f"target_pf0 must be in (0, 1), got {target_pf0}")
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 1:
        raise ValueError("need at least one calibration value")
    m = int(math.floor(target_pf0 * n + 1e-9))  # = n - ceil((1-p)*n)
    i = max(n - m - 1, 0)
    return float(np.partition(v, i)[i])


class Engine:
    """Draws samples and evaluates rules for one (scenario, jammer) pair.

    Samples are drawn in blocks of BLOCK trials, block b of stream s seeded by
    (seed, s, hypothesis, b); a small cache keeps the most recent batches so
    several rules can share common random numbers without redrawing.
    """

    def __init__(self, scenario: WsnScenario,
                 jammer: JammerScenario | None = None,
                 seed: int = 0, threads: int = 1):
        if threads < 1:
            raise ValueError(f"need threads >= 1, got {threads}")
        self.scenario = scenario
        self.ctx = fusion_rules.make_context(scenario)
        self.jammer = jammer
        self.seed = int(seed)
        self.threads = int(threads)
        self._cache: dict = {}

    @cached_property
    def workspace(self):
        return (None if self.jammer is None
                else jamming_rules.build_workspace(self.ctx, self.jammer))

    def _draw_block(self, h: int, stream: int, b: int, size: int) -> SampleBatch:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, int(stream), int(h), int(b)]))
        x = draw_decisions(self.scenario, h, rng, size=size)
        if self.jammer is not None:
            y, psi = draw_jammed(self.scenario, self.jammer, x, rng)
        else:
            y, psi = draw_received(self.scenario, x, rng), None
        return SampleBatch(y=y, x=x, psi=psi)

    def sample(self, h: int, trials: int, stream: int) -> SampleBatch:
        key = (h, int(trials), int(stream))
        if key in self._cache:
            return self._cache[key]
        sizes = [BLOCK] * (trials // BLOCK)
        if trials % BLOCK:
            sizes.append(trials % BLOCK)
        parts = [self._draw_block(h, stream, b, s) for b, s in enumerate(sizes)]
        batch = SampleBatch(
            y=np.concatenate([p.y for p in parts]),
            x=np.concatenate([p.x for p in parts]),
            psi=(np.concatenate([p.psi for p in parts])
                 if self.jammer is not None else None),
        )
        if len(self._cache) >= 8:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = batch
        return batch

    def eval(self, rule: str, batch: SampleBatch) -> np.ndarray:
        """Evaluate a RULES name on a batch, sliced across threads."""
        t = batch.y.shape[0]
        slices = [slice(lo, min(lo + BLOCK, t)) for lo in range(0, t, BLOCK)]
        if rule not in fusion_rules.RULES:
            raise ValueError(
                f"unknown rule {rule!r}; choose from {', '.join(fusion_rules.RULES)}")
        elif rule in fusion_rules.JAM_RULES:
            ws = self.workspace

            def run(sl):
                psi = None if batch.psi is None else batch.psi[sl]
                return jamming_rules.evaluate_jam(rule, batch.y[sl], self.ctx,
                                                  self.jammer, ws, psi=psi)
        else:
            def run(sl):
                return fusion_rules.evaluate(rule, batch.y[sl], self.ctx)

        if self.threads == 1 or len(slices) == 1:
            outs = [run(sl) for sl in slices]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                outs = list(pool.map(run, slices))
        return np.concatenate(outs)

    def stats(self, rule, h: int, trials: int, stream: int) -> np.ndarray:
        return self.eval(rule, self.sample(h, trials, stream))


def calibrate_threshold(engine: Engine, rule, target_pf0: float,
                        trials: int) -> CalibratedTest:
    """Empirical threshold at the target false-alarm rate.

    Requires trials >= 100 / target_pf0 so the upper tail is resolved by at
    least ~100 exceedances.  The achieved rate is measured on a fresh,
    equally sized H0 sample.
    """
    if trials < 100.0 / target_pf0:
        raise ValueError(
            f"need trials >= {math.ceil(100.0 / target_pf0)} for target_pf0="
            f"{target_pf0}, got {trials}")
    cal = engine.stats(rule, H0, trials, CALIBRATE)
    gamma = upper_quantile(cal, target_pf0)
    chk = engine.stats(rule, H0, trials, CHECK)
    achieved = float(np.mean(chk > gamma))
    stderr = math.sqrt(max(achieved * (1.0 - achieved), 1e-300) / trials)
    ci = (max(achieved - 1.96 * stderr, 0.0), min(achieved + 1.96 * stderr, 1.0))
    return CalibratedTest(rule=rule, gamma=gamma, target_pf0=target_pf0,
                          achieved_pf0=achieved, achieved_ci95=ci, trials=trials)


def estimate_pd0(engine: Engine, test: CalibratedTest, trials: int) -> McEstimate:
    """Detection probability of a calibrated test under H1."""
    vals = engine.stats(test.rule, H1, trials, DETECT)
    p = float(np.mean(vals > test.gamma))
    return McEstimate(estimate=p,
                      stderr=math.sqrt(p * (1.0 - p) / trials),
                      trials=trials)


def equivalence_check(engine: Engine, rule_a, rule_b, trials: int,
                      levels: tuple[float, ...] = DEFAULT_LEVELS) -> EquivalenceResult:
    """Decision-level comparison of two rules under common random numbers.

    Thresholds for both rules are calibrated at matched quantiles of the
    same H0 calibration sample for each target level; decisions are then
    compared on fresh common H0 and H1 samples.  Verdicts:

      equivalent           decisions agree on every trial at every level
      monotone-equivalent  orderings identical (Spearman rank corr. == 1)
      distinct             anything else
    """
    from scipy.stats import spearmanr  # costly import, needed only here

    if trials < 100.0 / min(levels):
        raise ValueError(
            f"need trials >= {math.ceil(100.0 / min(levels))} for levels {levels}")
    cal = engine.sample(H0, trials, CALIBRATE)
    ev0 = engine.sample(H0, trials, COMPARE_H0)
    ev1 = engine.sample(H1, trials, COMPARE_H1)
    a_cal = engine.eval(rule_a, cal)
    b_cal = engine.eval(rule_b, cal)
    a_ev = np.concatenate([engine.eval(rule_a, ev0), engine.eval(rule_a, ev1)])
    b_ev = np.concatenate([engine.eval(rule_b, ev0), engine.eval(rule_b, ev1)])
    rates = []
    for level in levels:
        ga = upper_quantile(a_cal, level)
        gb = upper_quantile(b_cal, level)
        rates.append(float(np.mean((a_ev > ga) != (b_ev > gb))))
    rho = float(spearmanr(a_ev, b_ev).statistic)
    max_dis = max(rates)
    if max_dis == 0.0:
        verdict = "equivalent"
    elif rho >= 1.0 - 1e-12:
        verdict = "monotone-equivalent"
    else:
        verdict = "distinct"
    return EquivalenceResult(verdict=verdict, spearman=rho,
                             max_disagreement=max_dis, levels=tuple(levels),
                             disagreement=tuple(rates))


def _engine_seed(seed: int, *indices: int) -> int:
    return int(np.random.SeedSequence([seed, *indices]).generate_state(1)[0])


def draw_deployment(config: DeploymentConfig, jammer_preset: str | None, entropy):
    """Draw a sensor deployment and, given a jammer preset, a jammer.

    SeedSequence(entropy) spawns one seed for the sensors and one for the
    jammer, so the sensors are the same with or without a jammer.  Returns
    (wsn, jammer-or-None).
    """
    wsn_ss, jam_ss = np.random.SeedSequence(entropy).spawn(2)
    # called by their montecarlo names, which the perfbench tracer and tests rebind
    wsn = generate_wsn(config, np.random.default_rng(wsn_ss))
    if jammer_preset is None:
        return wsn, None
    return wsn, generate_jammer(config, np.random.default_rng(jam_ss),
                                preset=jammer_preset)


def sweep(deployments, sigma_w2_dbm, n_antennas, rules, trials: int,
          target_pf0: float = 0.01, seed: int = 0, threads: int = 1):
    """Detection-performance grid sweep.

    ``deployments`` holds (preset label, jammer label, wsn, jammer-or-None)
    tuples; the grid varies each one's antenna count and noise power,
    recomputing only derived matrices.  All rules at one grid point share the
    same draws.  Returns a list of row dicts in CSV_COLUMNS order (plus
    ``wall_time_s``).
    """
    rows = []
    for pi, (preset, jam_label, wsn0, jam0) in enumerate(deployments):
        for ni, n in enumerate(n_antennas):
            wsn_n = wsn0.with_(n_antennas=n)
            jam_n = jam0.with_(n_antennas=n) if jam0 is not None else None
            for si, s_dbm in enumerate(sigma_w2_dbm):
                scenario = wsn_n.with_(noise_power=float(db_to_lin(s_dbm)))
                engine = Engine(scenario, jam_n,
                                seed=_engine_seed(seed, pi, ni, si),
                                threads=threads)
                for rule in rules:
                    t0 = time.perf_counter()
                    test = calibrate_threshold(engine, rule, target_pf0, trials)
                    pd0 = estimate_pd0(engine, test, trials)
                    rows.append({
                        "preset": preset,
                        "jammer": jam_label,
                        "rule": rule,
                        "sigma_w2_dbm": float(s_dbm),
                        "n_antennas": int(n),
                        "target_pf0": float(target_pf0),
                        "gamma": test.gamma,
                        "achieved_pf0": test.achieved_pf0,
                        "pd0": pd0.estimate,
                        "pd0_stderr": pd0.stderr,
                        "trials": int(trials),
                        "seed": int(seed),
                        "wall_time_s": time.perf_counter() - t0,
                    })
    return rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(rows, path, columns=CSV_COLUMNS) -> None:
    """Write the given columns of each row; floats round-trip through repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def roc_points(engine: Engine, rule, trials: int, levels) -> list[dict]:
    """Empirical (Pf0, Pd0) pairs for one rule across threshold levels."""
    h0 = engine.stats(rule, H0, trials, CALIBRATE)
    chk = engine.stats(rule, H0, trials, CHECK)
    h1 = engine.stats(rule, H1, trials, DETECT)
    out = []
    for level in levels:
        gamma = upper_quantile(h0, level)
        out.append({
            "rule": rule,
            "target_pf0": float(level),
            "gamma": gamma,
            "pf0": float(np.mean(chk > gamma)),
            "pd0": float(np.mean(h1 > gamma)),
            "trials": int(trials),
        })
    return out
