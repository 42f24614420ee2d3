"""ricianfusion benchmark: four `ricianfusion run` sweeps, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload clean-grid --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced then traced
    python3 perfbench/run.py --workload all --smoke  # the same at tiny trial counts

One benchmark run:

1. runs the gate process once (kernel exactness and sampler moments, see
   gate.py) and records the manifest;
2. until `--seconds` after the run started, runs the workload's CLI
   invocation in fresh processes, one at a time (a closed loop with one
   client), each timed from launch; a process starts only if its expected
   duration still fits, and at least three untraced ones run; with
   `--trace 1` untraced and traced processes alternate, at least one of
   each, and only the traced ones feed the per-layer numbers;
3. checks every CSV the processes write (checks.py) and prints, as the last
   line, {"correct", "attempted", "failed", "metrics"}: end-to-end medians
   with `--trace 0`, per-layer medians with `--trace 1`.

`attempted` and `failed` count cells (CSV rows); error_rate = failed /
attempted.  The program is imported from `src/` of the checkout this file
sits in; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks
import tracing
from workloads import PINNED_ENV, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
MIN_PLAIN = 3           # untraced processes per run, at least (1 traced or smoke)
PROC_TIMEOUT_S = 150.0  # one workload process; a run must end within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "trials_per_s": "rule-trials/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def _env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)  # the program comes from this checkout's src/
    return env


def _spawn(script: str, spec: dict, timeout: float):
    """Run a helper process; returns (returncode, stderr tail, launch time)."""
    launched = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, script), json.dumps(spec)],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, err.decode(errors="replace")[-2000:], launched


def run_gate(wl, seed: int) -> dict:
    spec = {"root": ROOT, "workload": wl.name, "seed": seed,
            "result": os.path.join(WORK, "gate.json")}
    code, err, _ = _spawn("gate.py", spec, PROC_TIMEOUT_S)
    if code != 0:
        sys.stderr.write(f"gate process failed ({code}):\n{err}\n")
        return {"kernels": {r: {"ok": False} for r in wl.rules},
                "sampler": {"ok": False}, "manifest": {}}
    with open(spec["result"]) as fh:
        return json.load(fh)


def run_workload(wl, seed: int, smoke: bool, traced: bool, index: int) -> dict:
    """One fresh workload process: its timings, and its spans when traced."""
    out = os.path.join(WORK, f"{index}.csv")
    spec = {"root": ROOT, "argv": wl.argv(seed, out, smoke), "trace": traced,
            "run_id": f"{wl.name}-{seed}-{index}",
            "result": os.path.join(WORK, f"{index}.json")}
    code, err, launched = _spawn("child.py", spec, PROC_TIMEOUT_S)
    done = {"traced": traced, "csv": out, "ok": False,
            "duration": time.monotonic() - launched}
    try:
        with open(spec["result"]) as fh:
            res = json.load(fh)
    except (OSError, ValueError):
        sys.stderr.write(f"{wl.name} process {index} died ({code}):\n{err}\n")
        return done
    src = os.path.join(ROOT, "src") + os.sep
    if code != 0 or res["code"] != 0 or not res["module"].startswith(src):
        sys.stderr.write(f"{wl.name} process {index} failed ({code}, {res['code']}, "
                         f"{res['module']}):\n{err}\n")
        return done
    done.update(ok=True, setup_s=res["ready"] - launched, run_s=res["run_s"],
                cpu_s=res["cpu_s"], peak_rss_mb=res["peak_rss_mb"], spans=res["spans"])
    return done


def bench(wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One benchmark run of one workload (see the module docstring)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        # the gate's time counts against --seconds, so a run lasts about
        # --seconds whatever the workload
        deadline = time.monotonic() + seconds
        gate = run_gate(wl, seed)
        bad = {r for r, v in gate["kernels"].items() if not v["ok"]}
        trials, pf0 = wl.sizes(smoke)
        min_plain = 1 if smoke or trace else MIN_PLAIN
        procs, failed = [], 0
        for index in itertools.count():
            # with --trace 1, odd processes are traced
            p = run_workload(wl, seed, smoke, trace and index % 2 == 1, index)
            procs.append(p)
            failed += (len(checks.failed_cells(p["csv"], wl, seed, trials, pf0, bad,
                                               gate["sampler"]["ok"]))
                       if p["ok"] else wl.cells())
            n_plain = sum(not q["traced"] for q in procs)
            if n_plain < min_plain or (trace and n_plain == len(procs)):
                continue
            next_traced = trace and (index + 1) % 2 == 1
            est = statistics.median(q["duration"] for q in procs
                                    if q["traced"] == next_traced)
            if time.monotonic() + est > deadline:
                break
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return {"procs": procs, "attempted": wl.cells() * len(procs), "failed": failed,
            "gate": gate}


def end_to_end(wl, procs, smoke: bool) -> dict:
    """Medians over the untraced processes that completed."""
    plain = [p for p in procs if p["ok"] and not p["traced"]]
    if not plain:
        return {}
    demanded = wl.demanded_trials(smoke)
    values = {
        "setup_s": [p["setup_s"] for p in plain],
        "run_s": [p["run_s"] for p in plain],
        "trials_per_s": [demanded / p["run_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
    }
    return {k: statistics.median(v) for k, v in values.items()}


def per_layer(procs) -> tuple[dict, dict]:
    """Per-layer medians over the traced processes, and the time shares."""
    plain = [p["run_s"] for p in procs if p["ok"] and not p["traced"]]
    traced = [p for p in procs if p["ok"] and p["traced"]]
    if not plain or not traced:
        return {}, {}
    layers = tracing.median_metrics([tracing.layer_metrics(p["spans"]) for p in traced])
    layers["trace.overhead_frac"] = (statistics.median(p["run_s"] for p in traced)
                                     / statistics.median(plain) - 1.0)
    share_runs = [tracing.shares(p["spans"], p["run_s"]) for p in traced]
    shares = {k: statistics.median(s.get(k, 0.0) for s in share_runs)
              for k in share_runs[0]}
    return layers, shares


def result_line(run: dict, metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    })


def manifest(wl, seed: int, smoke: bool, gate: dict) -> dict:
    return {"workload": wl.name, "seed": seed, "argv": wl.argv(seed, "<out>", smoke),
            **gate.get("manifest", {})}


def report(wl, seed: int, seconds: float, smoke: bool) -> bool:
    """Untraced then traced run of one workload, printed by name with units."""
    plain = bench(wl, seed, seconds, trace=False, smoke=smoke)
    traced = bench(wl, seed, seconds, trace=True, smoke=smoke)
    e2e = end_to_end(wl, plain["procs"], smoke)
    layers, shares = per_layer(traced["procs"])
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    n_plain = sum(p["ok"] for p in plain["procs"])
    n_traced = sum(p["ok"] and p["traced"] for p in traced["procs"])
    print(f"== {wl.name}: seed {seed}, {seconds:g} s per run, "
          f"medians of {n_plain} untraced and {n_traced} traced processes")
    for name, unit in END_TO_END_UNITS.items():
        print(f"  {name:<44} {e2e.get(name, float('nan')):>14.6g} {unit}")
    print(f"  {'error_rate':<44} {failed / attempted:>14.6g} fraction "
          f"({failed} of {attempted} cells failed)")
    for name, unit in tracing.LAYER_UNITS.items():
        print(f"  {name:<44} {layers.get(name, float('nan')):>14.6g} {unit}")
    split = ", ".join(f"{k} {100.0 * v:.1f} %" for k, v in shares.items())
    print(f"  share of traced run_s: {split}")
    for rule, res in plain["gate"]["kernels"].items():
        print(f"  gate {rule}: {json.dumps(res)}")
    print(f"  gate sampler: {json.dumps(plain['gate']['sampler'])}")
    print(f"  manifest: {json.dumps(manifest(wl, seed, smoke, plain['gate']))}")
    return failed == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny trial counts, one process per run")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ricianfusion", "cli.py")):
        sys.stderr.write(f"no ricianfusion sources under {ROOT}/src; "
                         "run from the root of a full checkout\n")
        return 2
    if args.workload == "all":
        ok = [report(wl, args.seed, args.seconds, args.smoke) for wl in WORKLOADS.values()]
        return 0 if all(ok) else 1
    wl = WORKLOADS[args.workload]
    run = bench(wl, args.seed, args.seconds, bool(args.trace), args.smoke)
    if args.trace:
        metrics, units = per_layer(run["procs"])[0], tracing.LAYER_UNITS
    else:
        metrics, units = end_to_end(wl, run["procs"], args.smoke), END_TO_END_UNITS
    if not metrics:
        sys.stderr.write(f"{wl.name}: no workload process completed\n")
        return 1
    print("# manifest " + json.dumps(manifest(wl, args.seed, args.smoke, run["gate"])))
    print(result_line(run, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
