"""Spans at ricianfusion's module boundaries, recorded from outside the package.

`install()` replaces the attributes that callers look up (module globals and
class attributes) with wrappers that record one span per call: name, start,
end, parent span, run id, thread and a few counts.  Nothing in `src/` is
edited.  Spans stay in memory; the workload process writes them once, when
the run ends, and `layer_metrics()` turns them into per-layer numbers.

Layers are the six modules: scenario, signal_model, fusion_rules,
jamming_rules, montecarlo and cli.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
import tracemalloc
import weakref
from collections import defaultdict

FREE_RULES = ("llr", "is", "nlos", "wl0", "wl1", "igmm")
JAM_RULES = ("clairvoyant", "is-glrt", "nlos-glrt", "igmm-glrt")
DRAWS = ("signal_model.draw_decisions", "signal_model.draw_received",
         "signal_model.draw_jammed")
ALLOC_TRACED = ("llr", "clairvoyant")  # rules whose allocation peak is recorded


class Recorder:
    """Collects spans from every thread of one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._alloc_lock = threading.Lock()
        self._alloc_depth = 0
        self._held: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name, fn, args, kwargs, count=None, post=None, alloc=False):
        stack = self._stack()
        span = {"id": next(self._ids), "name": name,
                "parent": stack[-1] if stack else None,
                "run": self.run_id, "thread": threading.get_ident()}
        if count is not None:
            span["trials"] = count(args, kwargs)
        if alloc:
            self._alloc_begin()
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if alloc:
                span["alloc_peak_b"] = self._alloc_end()
            self.spans.append(span)
        if post is not None:
            span.update(post(out, args, kwargs))
        return out

    def adopt(self, parent, fn):
        """Run ``fn`` on another thread as a child of span ``parent``."""
        def run(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return run

    # tracemalloc sees numpy's data buffers; it runs only inside the spans
    # that ask for it, so the other layers are timed without its hooks
    def _alloc_begin(self):
        with self._alloc_lock:
            if self._alloc_depth == 0:
                tracemalloc.start()
            self._alloc_depth += 1
            tracemalloc.reset_peak()

    def _alloc_end(self) -> int:
        with self._alloc_lock:
            peak = tracemalloc.get_traced_memory()[1]
            self._alloc_depth -= 1
            if self._alloc_depth == 0:
                tracemalloc.stop()
            return peak

    def held_bytes(self, engine, batch) -> int:
        """Computed bytes of the distinct batches ``engine`` has returned."""
        held = self._held.setdefault(engine, {})
        held[id(batch)] = sum(a.nbytes for a in (batch.y, batch.x, batch.psi)
                              if a is not None)
        return sum(held.values())


def _wrap(rec: Recorder, owner, attr: str, name, count=None, post=None,
          alloc=None):
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        return rec.call(span_name, orig, args, kwargs, count=count, post=post,
                        alloc=bool(alloc and alloc(args)))

    setattr(owner, attr, wrapper)


def _rows(i):
    return lambda args, kwargs: int(len(args[i]))


def install(run_id: str) -> Recorder:
    """Wrap ricianfusion's boundaries; returns the recorder that holds spans."""
    from ricianfusion import (fusion_rules, jamming_rules, montecarlo, scenario,
                              signal_model)

    rec = Recorder(run_id)
    w = functools.partial(_wrap, rec)

    # scenario: deployment draws and the per-cell re-derivation
    w(montecarlo, "generate_wsn", "scenario.generate_wsn")
    w(montecarlo, "generate_jammer", "scenario.generate_jammer")
    w(scenario.WsnScenario, "with_", "scenario.with_")
    w(scenario.JammerScenario, "with_", "scenario.with_")

    # signal_model: the engine looks the samplers up in montecarlo, and
    # draw_jammed looks draw_received up in signal_model
    w(montecarlo, "draw_decisions", "signal_model.draw_decisions",
      count=lambda args, kwargs: int(kwargs.get("size") or 1))
    w(montecarlo, "draw_received", "signal_model.draw_received", count=_rows(1))
    w(signal_model, "draw_received", "signal_model.draw_received", count=_rows(1))
    w(montecarlo, "draw_jammed", "signal_model.draw_jammed", count=_rows(2))

    # fusion_rules / jamming_rules: one span per rule evaluation
    w(fusion_rules, "make_context", "fusion_rules.make_context")
    w(fusion_rules, "evaluate", lambda args: f"fusion_rules.{args[0]}",
      count=_rows(1), alloc=lambda args: args[0] in ALLOC_TRACED)
    w(jamming_rules, "evaluate_jam", lambda args: f"jamming_rules.{args[0]}",
      count=_rows(1), alloc=lambda args: args[0] in ALLOC_TRACED)
    w(jamming_rules, "build_workspace", "jamming_rules.build_workspace")
    w(jamming_rules.SigmaPolySolver, "solve_batch", "jamming_rules.floor_solver",
      count=_rows(1),
      post=lambda out, args, kwargs: {"boundary": int((out == 0.0).sum())})

    # montecarlo: the engine and the per-cell calibrate + Pd0 steps
    w(montecarlo, "sweep", "montecarlo.sweep")
    w(montecarlo, "calibrate_threshold", "montecarlo.calibrate")
    w(montecarlo, "estimate_pd0", "montecarlo.estimate_pd0")
    w(montecarlo.Engine, "sample", "montecarlo.sample",
      post=lambda out, args, kwargs: {"held_b": rec.held_bytes(args[0], out)})
    w(montecarlo.Engine, "eval", "montecarlo.eval",
      count=lambda args, kwargs: int(args[2].y.shape[0]))

    # pool threads inherit the Engine.eval span that submitted their work
    base = montecarlo.ThreadPoolExecutor

    class TracedExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            return super().submit(rec.adopt(rec.current(), fn), *args, **kwargs)

    montecarlo.ThreadPoolExecutor = TracedExecutor
    return rec


# ---------------------------------------------------------------------------
# span arithmetic


def _union(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _quantile(values, q: float) -> float:
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class SpanSet:
    """Spans of one traced run, indexed for busy and self times."""

    def __init__(self, spans):
        self.spans = spans
        self.by_name = defaultdict(list)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s["name"]].append(s)
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    def busy(self, *names) -> float:
        """Wall time during which at least one span of these names was open."""
        return _union((s["start"], s["end"]) for n in names for s in self.by_name[n])

    def self_time(self, name) -> float:
        """Summed span time minus the union of each span's children."""
        total = 0.0
        for s in self.by_name[name]:
            kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                    for c in self.children[s["id"]]]
            total += (s["end"] - s["start"]) - _union(k for k in kids if k[1] > k[0])
        return total

    def trials(self, name) -> int:
        return sum(s.get("trials", 0) for s in self.by_name[name])

    def rate(self, name) -> float:
        busy = self.busy(name)
        return self.trials(name) / busy if busy > 0 else 0.0

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def peak_mib(self, name, key) -> float:
        return max((s.get(key, 0) for s in self.by_name[name]), default=0) / 2.0 ** 20


# name -> unit, in report order; every traced run reports every name
LAYER_UNITS = {
    "scenario.busy_s": "s",
    "signal_model.draw_received.trials_per_s": "trials/s",
    "signal_model.draw_received.busy_s": "s",
    "signal_model.draw_jammed.trials_per_s": "trials/s",
    "signal_model.draw_jammed.self_s": "s",
    "fusion_rules.make_context.calls": "count",
    "fusion_rules.make_context.busy_s": "s",
    **{f"fusion_rules.{r}.{m}": u for r in FREE_RULES
       for m, u in (("trials_per_s", "trials/s"), ("busy_s", "s"))},
    "fusion_rules.llr.alloc_peak_mb": "MiB",
    "jamming_rules.build_workspace.busy_s": "s",
    **{f"jamming_rules.{r}.{m}": u for r in JAM_RULES
       for m, u in (("trials_per_s", "trials/s"), ("busy_s", "s"))},
    "jamming_rules.clairvoyant.alloc_peak_mb": "MiB",
    "jamming_rules.floor_solver.trials_per_s": "trials/s",
    "jamming_rules.floor_solver.busy_s": "s",
    "jamming_rules.floor_solver.boundary_frac": "fraction",
    "montecarlo.sample.calls": "count",
    "montecarlo.sample.hit_frac": "fraction",
    "montecarlo.sample.self_s": "s",
    "montecarlo.sample.held_mb": "MiB",
    "montecarlo.reuse": "ratio",
    "montecarlo.eval.self_s": "s",
    "montecarlo.calibrate.self_s": "s",
    "montecarlo.cell_s.p50": "s",
    "montecarlo.cell_s.p90": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer numbers of one traced run (all but trace.overhead_frac).

    A layer the workload never enters reports 0 calls, 0 s and 0 trials/s.
    """
    ss = SpanSet(spans)
    m: dict[str, float] = {}
    m["scenario.busy_s"] = ss.busy("scenario.generate_wsn",
                                   "scenario.generate_jammer", "scenario.with_")
    m["signal_model.draw_received.trials_per_s"] = ss.rate("signal_model.draw_received")
    m["signal_model.draw_received.busy_s"] = ss.busy("signal_model.draw_received")
    m["signal_model.draw_jammed.trials_per_s"] = ss.rate("signal_model.draw_jammed")
    m["signal_model.draw_jammed.self_s"] = ss.self_time("signal_model.draw_jammed")
    m["fusion_rules.make_context.calls"] = ss.calls("fusion_rules.make_context")
    m["fusion_rules.make_context.busy_s"] = ss.busy("fusion_rules.make_context")
    for layer, rules in (("fusion_rules", FREE_RULES), ("jamming_rules", JAM_RULES)):
        for r in rules:
            m[f"{layer}.{r}.trials_per_s"] = ss.rate(f"{layer}.{r}")
            m[f"{layer}.{r}.busy_s"] = ss.busy(f"{layer}.{r}")
    m["fusion_rules.llr.alloc_peak_mb"] = ss.peak_mib("fusion_rules.llr", "alloc_peak_b")
    m["jamming_rules.build_workspace.busy_s"] = ss.busy("jamming_rules.build_workspace")
    m["jamming_rules.clairvoyant.alloc_peak_mb"] = ss.peak_mib(
        "jamming_rules.clairvoyant", "alloc_peak_b")
    fs = "jamming_rules.floor_solver"
    m[f"{fs}.trials_per_s"] = ss.rate(fs)
    m[f"{fs}.busy_s"] = ss.busy(fs)
    solved = ss.trials(fs)
    m[f"{fs}.boundary_frac"] = (sum(s["boundary"] for s in ss.by_name[fs]) / solved
                                if solved else 0.0)

    samples = ss.by_name["montecarlo.sample"]
    hits = sum(1 for s in samples
               if not any(c["name"] in DRAWS for c in ss.children[s["id"]]))
    m["montecarlo.sample.calls"] = len(samples)
    m["montecarlo.sample.hit_frac"] = hits / len(samples) if samples else 0.0
    m["montecarlo.sample.self_s"] = ss.self_time("montecarlo.sample")
    m["montecarlo.sample.held_mb"] = ss.peak_mib("montecarlo.sample", "held_b")
    drawn = ss.trials("signal_model.draw_decisions")
    m["montecarlo.reuse"] = ss.trials("montecarlo.eval") / drawn if drawn else 0.0
    m["montecarlo.eval.self_s"] = ss.self_time("montecarlo.eval")
    m["montecarlo.calibrate.self_s"] = ss.self_time("montecarlo.calibrate")
    # sweep runs calibrate then estimate_pd0 for each cell x rule, in order
    cal = sorted(ss.by_name["montecarlo.calibrate"], key=lambda s: s["start"])
    pd0 = sorted(ss.by_name["montecarlo.estimate_pd0"], key=lambda s: s["start"])
    cells = [(a["end"] - a["start"]) + (b["end"] - b["start"]) for a, b in zip(cal, pd0)]
    m["montecarlo.cell_s.p50"] = _quantile(cells, 0.5)
    m["montecarlo.cell_s.p90"] = _quantile(cells, 0.9)
    m["cli.self_s"] = ss.self_time("cli.main")
    return m


def shares(spans, run_s: float) -> dict[str, float]:
    """Share of the traced run_s spent in the draws and in each rule."""
    ss = SpanSet(spans)
    out = {"draws": ss.busy(*DRAWS) / run_s}
    for layer, rules in (("fusion_rules", FREE_RULES), ("jamming_rules", JAM_RULES)):
        for r in rules:
            busy = ss.busy(f"{layer}.{r}")
            if busy:
                out[r] = busy / run_s
    return out


def median_metrics(per_run: list[dict]) -> dict[str, float]:
    """Median of each metric over the traced runs of one benchmark run."""
    return {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
