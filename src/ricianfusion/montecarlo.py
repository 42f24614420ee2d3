"""Monte Carlo detection-performance machinery.

Thresholds are calibrated empirically: draw H0 statistics, take the upper
order-statistic quantile for the target false-alarm rate, then measure the
achieved rate on a fresh sample and the detection rate under H1.  All
randomness is derived from (seed, stream, hypothesis, block) seed sequences
with a fixed block size, so results are bit-identical for a given seed no
matter how many worker threads evaluate the blocks.  The noise points of a
``sweep`` share every random number and differ only in the noise scale.
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
# draw_jammed and draw_received only for the perfbench tracer, which wraps these names
from .signal_model import (H0, H1, draw_decisions, draw_jammed,  # noqa: F401
                           draw_received, draw_signal, receive)

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
    """A set of Monte Carlo channel uses, drawn block by block."""

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


def _blocks(trials: int) -> list[slice]:
    """Block b of a stream is drawn, and evaluated, as rows ``_blocks(trials)[b]``."""
    return [slice(lo, min(lo + BLOCK, trials)) for lo in range(0, trials, BLOCK)]


class Engine:
    """Draws samples and evaluates rules for one (scenario, jammer) pair.

    Block b of stream s is seeded by (seed, s, hypothesis, b) and ``eval``
    hands each kernel the rows of one block.  Every batch drawn stays cached
    so that several rules share common random numbers without redrawing, and
    the engines of ``at_noise`` share each stream's draw up to its noise.
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
        # noise-free draws of at_noise's engines; the last one forms y in place
        self._signals: dict = {}
        self._last = True

    @cached_property
    def workspace(self):
        return (None if self.jammer is None
                else jamming_rules.build_workspace(self.ctx, self.jammer))

    def at_noise(self, powers):
        """Yield per noise power p of the list ``powers`` an engine sampling as
        ``Engine(scenario.with_(noise_power=p), jammer, seed)`` would, from shared draws."""
        for i, p in enumerate(powers):
            engine = Engine(self.scenario.with_(noise_power=float(p)), self.jammer,
                            seed=self.seed, threads=self.threads)
            engine._signals, engine._last = self._signals, i == len(powers) - 1
            yield engine

    def _draw(self, h: int, trials: int, stream: int):
        """x, s = LOS + scatter, and each block's generator state after drawing them."""
        k, n = self.scenario.k_sensors, self.scenario.n_antennas
        x, s = np.empty((trials, k), dtype=np.int8), np.empty((trials, n), dtype=complex)
        states = []
        for b, sl in enumerate(_blocks(trials)):
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, int(stream), int(h), b]))
            x[sl] = draw_decisions(self.scenario, h, rng, size=sl.stop - sl.start)
            s[sl] = draw_signal(self.scenario, x[sl], rng)
            states.append(rng.bit_generator.state)
        return x, s, states

    def sample(self, h: int, trials: int, stream: int) -> SampleBatch:
        """Each block's ``receive`` (noise, then the jammer) from the state its draw left."""
        key = (h, int(trials), int(stream))
        if key not in self._cache:
            x, s, states = drawn = self._signals.pop(key, None) or self._draw(*key)
            if not self._last:
                self._signals[key] = drawn
            y, rng = (s if self._last else np.empty_like(s)), np.random.default_rng()
            psis = []
            for sl, state in zip(_blocks(trials), states):
                rng.bit_generator.state = state
                psis.append(receive(self.scenario, s[sl], rng, self.jammer, out=y[sl])[1])
            psi = None if self.jammer is None else np.concatenate(psis)
            self._cache[key] = SampleBatch(y=y, x=x, psi=psi)
        return self._cache[key]

    def eval(self, rule: str, batch: SampleBatch) -> np.ndarray:
        """Check a RULES name and its jammer (the one rule check), then evaluate it on a
        batch block by block across threads; a non-finite statistic is a LinAlgError.
        A jammer-aware rule goes through ``jamming_rules.evaluate_jam``, the same
        function as ``fusion_rules.evaluate``, so that a trace times it under its layer."""
        if rule not in fusion_rules.RULES:
            raise ValueError(
                f"unknown rule {rule!r}; choose from {', '.join(fusion_rules.RULES)}")
        if fusion_rules.RULES[rule].needs_jammer and self.jammer is None:
            raise ValueError(f"rule {rule!r} needs a jammer scenario")
        jammed = rule in fusion_rules.JAM_RULES
        evaluate = jamming_rules.evaluate_jam if jammed else fusion_rules.evaluate
        ws = self.workspace if jammed else None  # built before the pool starts

        def run(sl):
            psi = None if batch.psi is None else batch.psi[sl]
            return evaluate(rule, batch.y[sl], self.ctx, self.jammer, ws, psi)

        slices = _blocks(batch.y.shape[0])
        if self.threads == 1 or len(slices) == 1:
            outs = [run(sl) for sl in slices]
        else:
            with ThreadPoolExecutor(max_workers=self.threads) as pool:
                outs = list(pool.map(run, slices))
        out = np.concatenate(outs)
        if not np.all(np.isfinite(out)):
            raise np.linalg.LinAlgError(f"rule {rule!r} gave a statistic that is not finite")
        return out

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


def equivalence_check(engine: Engine, rule_a, rule_b, trials: int) -> EquivalenceResult:
    """Decision-level comparison of two rules under common random numbers.

    Thresholds for both rules are calibrated at matched quantiles of the
    same H0 calibration sample for each level of DEFAULT_LEVELS; decisions are then
    compared on fresh common H0 and H1 samples.  Verdicts:

      equivalent           decisions agree on every trial at every level
      monotone-equivalent  orderings identical (Spearman rank corr. == 1)
      distinct             anything else
    """
    from scipy.stats import spearmanr  # costly import, needed only here

    if trials < 100.0 / min(DEFAULT_LEVELS):
        raise ValueError(f"need trials >= {math.ceil(100.0 / min(DEFAULT_LEVELS))} "
                         f"for levels {DEFAULT_LEVELS}")
    cal = engine.sample(H0, trials, CALIBRATE)
    ev0 = engine.sample(H0, trials, COMPARE_H0)
    ev1 = engine.sample(H1, trials, COMPARE_H1)
    a_cal = engine.eval(rule_a, cal)
    b_cal = engine.eval(rule_b, cal)
    a_ev = np.concatenate([engine.eval(rule_a, ev0), engine.eval(rule_a, ev1)])
    b_ev = np.concatenate([engine.eval(rule_b, ev0), engine.eval(rule_b, ev1)])
    rates = []
    for level in DEFAULT_LEVELS:
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
                             max_disagreement=max_dis, levels=DEFAULT_LEVELS,
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
    recomputing only derived matrices.  The noise points of a (deployment,
    antennas) pair are the ``at_noise`` engines of one engine seeded by (seed,
    deployment index, antenna index), and all rules at one grid point share
    the same draws.  Returns a list of row dicts in CSV_COLUMNS order (plus
    ``wall_time_s``).
    """
    rows = []
    for pi, (preset, jam_label, wsn0, jam0) in enumerate(deployments):
        for ni, n in enumerate(n_antennas):
            base = Engine(wsn0.with_(n_antennas=n),
                          jam0.with_(n_antennas=n) if jam0 is not None else None,
                          seed=_engine_seed(seed, pi, ni), threads=threads)
            noise = base.at_noise([db_to_lin(s_dbm) for s_dbm in sigma_w2_dbm])
            for s_dbm, engine in zip(sigma_w2_dbm, noise):
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


def write_csv(rows, path, columns=CSV_COLUMNS) -> None:
    """Write the given columns of each row; floats round-trip through repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([row[c] for c in columns])


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
