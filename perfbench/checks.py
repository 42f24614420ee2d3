"""The CSV half of the output gate, and the failed-cell count.

A cell is one CSV row: one (preset, rule, noise, antennas) point.  A cell
fails if its row is missing or malformed, if `gamma` or `pd0` is not finite,
if `achieved_pf0` is outside the binomial bound below, if it loses a
Neyman-Pearson comparison, or if the gate process found its rule inexact or
the sampler's moments wrong.  A run that dies fails all of its cells.
"""

from __future__ import annotations

import csv
import math

# |achieved - target| <= PF0_Z * sqrt(2 p (1 - p) / T) + 1 / T: the threshold
# is a sample quantile and the check sample is fresh, so both contribute
# binomial variance p (1 - p) / T; 5 sigma is ~6e-7 two-sided per cell.
PF0_Z = 5.0
# The optimal rule may trail another rule's Pd0 by at most this many combined
# stderrs (the rules share their draws, so the true spread is smaller).
DOMINANCE_Z = 4.0


def pf0_bound(target: float, trials: int) -> float:
    return PF0_Z * math.sqrt(2.0 * target * (1.0 - target) / trials) + 1.0 / trials


def cell_keys(wl) -> set[tuple]:
    return {(p, r, s, n) for p in wl.presets for r in wl.rules
            for s in wl.sigmas() for n in wl.n}


def _read(path, wl, seed, trials, pf0):
    """Rows by cell key; rows that do not parse or do not match the request
    are left out, so their cells count as missing."""
    rows = {}
    try:
        fh = open(path, newline="")
    except OSError:
        return rows
    with fh:
        for raw in csv.DictReader(fh):
            try:
                key = (raw["preset"], raw["rule"], float(raw["sigma_w2_dbm"]),
                       int(raw["n_antennas"]))
                row = {k: float(raw[k]) for k in
                       ("gamma", "achieved_pf0", "pd0", "pd0_stderr", "target_pf0")}
                ok = (int(raw["trials"]) == trials and int(raw["seed"]) == seed
                      and row["target_pf0"] == pf0
                      and raw["jammer"] == (wl.jammer or "none"))
            except (KeyError, TypeError, ValueError):
                continue
            if ok and key not in rows:
                rows[key] = row
    return rows


def failed_cells(path, wl, seed: int, trials: int, pf0: float,
                 bad_rules=frozenset(), sampler_ok: bool = True) -> set[tuple]:
    """Keys of the cells of one run's CSV that fail any output check."""
    expected = cell_keys(wl)
    if not sampler_ok:
        return expected
    rows = _read(path, wl, seed, trials, pf0)
    failed = {k for k in expected if k not in rows or k[1] in bad_rules}
    bound = pf0_bound(pf0, trials)
    for key, row in rows.items():
        if key not in expected:
            continue
        if not (math.isfinite(row["gamma"]) and math.isfinite(row["pd0"])
                and math.isfinite(row["pd0_stderr"])):
            failed.add(key)
        elif abs(row["achieved_pf0"] - pf0) > bound:
            failed.add(key)
    points = {(p, s, n) for p, _, s, n in expected}
    for best, other in wl.dominance:
        for p, s, n in points:
            a, b = rows.get((p, best, s, n)), rows.get((p, other, s, n))
            if a is None or b is None or {(p, best, s, n), (p, other, s, n)} & failed:
                continue  # already failed on its own
            # a 1/T floor per stderr keeps Pd0 = 1 (stderr 0) from being exact
            margin = DOMINANCE_Z * math.sqrt(a["pd0_stderr"] ** 2 + b["pd0_stderr"] ** 2
                                             + 2.0 / trials ** 2)
            if not a["pd0"] >= b["pd0"] - margin:
                failed.update({(p, best, s, n), (p, other, s, n)})
    return failed
