"""The four benchmark workloads, each one `ricianfusion run` invocation.

A workload fixes the sweep (presets, rules, grid, antennas, false-alarm
target, thread count) and the trial count; the benchmark adds `--seed`,
`--trials` and `--out`.  Smoke sizes keep the same sweep shape but raise the
false-alarm target so that a tiny trial count still satisfies the engine's
trials >= 100 / pf0 rule.  Why each workload exists is recorded in
BENCHMARK.json and README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Thread pinning applied to every process that imports numpy: with BLAS and
# OpenMP at one thread, the engine's own `--threads` are the only compute
# threads, so a workload never asks for more threads than `nproc` (= 2).
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    rules: tuple[str, ...]
    k: int
    n: tuple[int, ...]
    grid: str                      # start:step:stop (inclusive) or one value, dBm
    pf0: float
    trials: int
    smoke_trials: int
    smoke_pf0: float
    threads: int = 1
    jammer: str | None = None
    # (optimal rule, rule it must not lose to) pairs for the Neyman-Pearson gate
    dominance: tuple[tuple[str, str], ...] = ()

    def sigmas(self) -> tuple[float, ...]:
        parts = [float(p) for p in self.grid.split(":")]
        if len(parts) == 1:
            return (parts[0],)
        start, step, stop = parts
        count = int((stop - start) / step + 1e-9) + 1
        return tuple(start + i * step for i in range(count))

    def sizes(self, smoke: bool) -> tuple[int, float]:
        """(trials, pf0) for a full or a smoke run."""
        return (self.smoke_trials, self.smoke_pf0) if smoke else (self.trials, self.pf0)

    def argv(self, seed: int, out: str, smoke: bool = False) -> list[str]:
        trials, pf0 = self.sizes(smoke)
        # `--sigma-grid=<grid>`: the space-separated form fails on a leading
        # minus sign (argparse reads it as an option)
        argv = ["run", "--preset", ",".join(self.presets),
                "--rules", ",".join(self.rules), "--k", str(self.k),
                "--n", ",".join(str(n) for n in self.n),
                f"--sigma-grid={self.grid}", "--pf0", repr(pf0),
                "--trials", str(trials), "--threads", str(self.threads),
                "--seed", str(seed), "--out", out]
        if self.jammer is not None:
            argv += ["--jammer", self.jammer]
        return argv

    def cells(self) -> int:
        """CSV rows one run writes: one per (preset, rule, noise, antennas)."""
        return len(self.presets) * len(self.rules) * len(self.sigmas()) * len(self.n)

    def demanded_trials(self, smoke: bool = False) -> int:
        """Rule-trials one run demands: rows x (calibration, check, H1) x trials."""
        return self.cells() * 3 * self.sizes(smoke)[0]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="clean-grid",
        presets=("los", "intermediate", "nlos"),
        rules=("is", "nlos", "wl0", "wl1", "igmm"),
        k=14, n=(2, 6), grid="-10:5:10", pf0=0.01,
        trials=10_000, smoke_trials=1_000, smoke_pf0=0.1),
    Workload(
        name="deep-cell",
        presets=("intermediate",), rules=("is", "igmm"),
        k=14, n=(6,), grid="0", pf0=0.001, threads=2,
        trials=400_000, smoke_trials=20_000, smoke_pf0=0.01),
    Workload(
        name="mixture-k10",
        presets=("los",), rules=("llr", "is", "nlos"),
        k=10, n=(6,), grid="-10:10:10", pf0=0.01,
        trials=10_000, smoke_trials=1_000, smoke_pf0=0.1,
        dominance=(("llr", "is"), ("llr", "nlos"))),
    Workload(
        name="glrt-jammed",
        presets=("los",), rules=("clairvoyant", "is-glrt", "nlos-glrt", "igmm-glrt"),
        k=10, n=(6,), grid="0", pf0=0.02, jammer="los-jam",
        trials=5_000, smoke_trials=1_000, smoke_pf0=0.1,
        dominance=(("clairvoyant", "is-glrt"), ("clairvoyant", "nlos-glrt"),
                   ("clairvoyant", "igmm-glrt"))),
)}
