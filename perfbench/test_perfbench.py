"""The benchmark's own tests: smoke runs, the gate's teeth, span arithmetic.

Run from the root of the checkout:

    python3 -m pytest perfbench -q

The smoke tests run every workload at tiny trial counts, untraced and
traced, and check that each metric BENCHMARK.json names is reported with
its unit and that no cell fails.  The gate tests run the benchmark against a
copy of the program with one statistic moved by one part in 1e6, or with the
sampler's noise variance doubled, and expect failed cells.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

import checks
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _bench(root, workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_reports_every_metric_and_no_failed_cell(workload, trace):
    out = _bench(ROOT, workload, trace)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in out["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert out["attempted"] >= WORKLOADS[workload].cells()
    assert out["failed"] == 0 and out["correct"] is True  # error_rate == 0


def test_declared_workloads_and_units_match_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in declared["per_layer"]} == set(tracing.LAYER_UNITS)


def _mutated_checkout(tmp_path, module: str, patch: str):
    """A checkout whose program has ``patch`` appended to one module."""
    root = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    with open(root / "src" / "ricianfusion" / module, "a") as fh:
        fh.write("\n\n" + patch)
    return str(root)


def test_gate_fails_a_statistic_moved_by_one_part_in_a_million(tmp_path):
    root = _mutated_checkout(tmp_path, "fusion_rules.py", (
        "_exact_igmm = igmm_rule\n\n\n"
        "def igmm_rule(y, ctx):\n"
        "    return _exact_igmm(y, ctx) * (1.0 + 1e-6)\n"))
    out = _bench(root, "deep-cell", 0)
    assert out["failed"] > 0 and out["correct"] is False


def test_gate_fails_a_sampler_with_the_wrong_noise_variance(tmp_path):
    root = _mutated_checkout(tmp_path, "signal_model.py", (
        "_exact_draw_received = draw_received\n\n\n"
        "def draw_received(scenario, x, rng):\n"
        "    y = _exact_draw_received(scenario, x, rng)\n"
        "    return y + crandn(rng, np.shape(y), var=scenario.noise_power)\n"))
    out = _bench(root, "deep-cell", 0)
    assert out["failed"] > 0 and out["correct"] is False


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clean-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_pool_thread_spans_link_to_the_eval_span_that_submitted_them(tmp_path):
    wl = WORKLOADS["deep-cell"]
    result = tmp_path / "child.json"
    spec = {"root": ROOT, "argv": wl.argv(3, str(tmp_path / "out.csv"), smoke=True),
            "trace": True, "run_id": "t", "result": str(result)}
    subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                   check=True, capture_output=True, timeout=120, cwd=ROOT)
    spans = json.loads(result.read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    rules = [s for s in spans if s["name"] in ("fusion_rules.is", "fusion_rules.igmm")]
    assert rules and all(by_id[s["parent"]]["name"] == "montecarlo.eval" for s in rules)
    assert len({s["thread"] for s in rules}) > 1  # evaluated on the pool
    metrics = tracing.layer_metrics(spans)
    assert metrics["montecarlo.reuse"] == 2.0  # two rules per drawn trial
    assert metrics["montecarlo.sample.calls"] == 6
    assert metrics["montecarlo.sample.hit_frac"] == 0.5


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "name": "b", "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "name": "b", "parent": 1, "start": 3.0, "end": 5.0},  # overlaps 2
        {"id": 4, "name": "c", "parent": 2, "start": 1.5, "end": 2.0},
    ]
    ss = tracing.SpanSet(spans)
    assert ss.self_time("a") == pytest.approx(6.0)
    assert ss.self_time("b") == pytest.approx(3.0 - 0.5 + 2.0)
    assert ss.busy("b") == pytest.approx(4.0)


def test_recorder_nests_spans_per_thread():
    rec = tracing.Recorder("t")
    barrier = threading.Barrier(2)

    def inner():
        barrier.wait(timeout=10)

    def outer():
        rec.call("inner", inner, (), {})

    threads = [threading.Thread(target=rec.call, args=("outer", outer, (), {}))
               for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s["id"]: s for s in rec.spans}
    for s in rec.spans:
        if s["name"] == "inner":
            assert by_id[s["parent"]]["name"] == "outer"
            assert by_id[s["parent"]]["thread"] == s["thread"]


def _write_csv(path, rows):
    cols = ("preset", "jammer", "rule", "sigma_w2_dbm", "n_antennas", "target_pf0",
            "gamma", "achieved_pf0", "pd0", "pd0_stderr", "trials", "seed")
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(str(r[c]) for c in cols) + "\n")


def _rows(wl, trials, pf0, seed, **over):
    rows = []
    for p in wl.presets:
        for rule in wl.rules:
            for s in wl.sigmas():
                for n in wl.n:
                    row = {"preset": p, "jammer": wl.jammer or "none", "rule": rule,
                           "sigma_w2_dbm": s, "n_antennas": n, "target_pf0": pf0,
                           "gamma": 1.0, "achieved_pf0": pf0, "pd0": 0.8,
                           "pd0_stderr": 0.01, "trials": trials, "seed": seed}
                    row.update(over.get(rule, {}))
                    rows.append(row)
    return rows


def test_csv_checks_flag_each_kind_of_bad_cell(tmp_path):
    wl = WORKLOADS["mixture-k10"]
    trials, pf0 = wl.sizes(smoke=False)
    path = tmp_path / "x.csv"
    _write_csv(path, _rows(wl, trials, pf0, 5))
    assert checks.failed_cells(path, wl, 5, trials, pf0) == set()
    assert len(checks.failed_cells(path, wl, 5, trials, pf0, sampler_ok=False)) == wl.cells()
    assert {k[1] for k in checks.failed_cells(path, wl, 5, trials, pf0, {"is"})} == {"is"}
    assert len(checks.failed_cells(tmp_path / "missing.csv", wl, 5, trials, pf0)) == wl.cells()
    for over, bad in (({"nlos": {"pd0": "nan"}}, {"nlos"}),
                      ({"is": {"achieved_pf0": 3 * pf0}}, {"is"}),
                      ({"is": {"pd0": 0.95}}, {"llr", "is"})):  # llr loses to is
        _write_csv(path, _rows(wl, trials, pf0, 5, **over))
        failed = checks.failed_cells(path, wl, 5, trials, pf0)
        assert {k[1] for k in failed} == bad and len(failed) == len(bad) * len(wl.sigmas())
