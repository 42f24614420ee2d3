"""Command-line front end.

Subcommands:

  generate   draw a deployment (and optional jammer) and write a scenario file
  run        detection-performance sweep over a noise/antenna grid -> CSV
  verify     self-check battery (rule equivalences, closed-form reductions,
             floor-solver oracle); exits 1 if any check fails
  roc        empirical (Pf0, Pd0) operating points for chosen rules -> CSV

Noise powers are given in dBm and become linear where a scenario is built:
per grid point in ``montecarlo.sweep`` for ``run``, here for ``roc``.  Exit
codes: 0 ok, 1 failed check, 2 usage error, 3 I/O error, 4 numerical error
(a linear-algebra failure such as a covariance that is not positive
definite, or a statistic that is not finite).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys

import numpy as np

from . import jamming_rules, montecarlo
from .fusion_rules import RULES, SAME_RATES
from .scenario import (JAMMER_PRESETS, PRESETS, DeploymentConfig, db_to_lin,
                       lin_to_db, load_scenario, preset_config, save_scenario)
from .signal_model import H1, MAX_ENUM_K

SEED_ENV = "RICIANFUSION_SEED"
# --k, --pd and --pf when a deployment is drawn; `run` leaves them None so that
# a scenario file, which fixes them, can reject them
SENSOR_DEFAULTS = {"k": 14, "pd": 0.5, "pf": 0.05}
RULES_HELP = f"comma list of rules: {', '.join(RULES)}"
JAMMER_CHOICES = ["none", *sorted(JAMMER_PRESETS)]
# an option value with a leading minus sign, e.g. the grid -10:5:10
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")
MAX_GRID_POINTS = 10_000  # noise points one --sigma-grid may hold
MAX_THREADS = 64  # worker threads one command may start
DBM_LIMIT = 1000.0  # |noise power| in dBm; every statistic is finite within it


class UsageError(ValueError):
    pass


def _check_dbm(values, flag: str) -> None:
    """Reject dBm values outside the noise-power domain (NaN included)."""
    for v in values:
        if not -DBM_LIMIT <= v <= DBM_LIMIT:
            raise UsageError(f"{flag} value {v} dBm lies outside [-{DBM_LIMIT:g}, {DBM_LIMIT:g}]")


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse '--sigma-grid start:step:stop' (inclusive) or a single value, in dBm.

    The point count is bounded before any point is built, and every point
    must lie in the noise-power domain.
    """
    parts = text.split(":")
    try:
        if len(parts) not in (1, 3):
            raise ValueError
        grid = tuple(float(p) for p in parts)
    except ValueError:
        raise UsageError(f"bad --sigma-grid {text!r}; expected 'start:step:stop'") from None
    if not all(map(math.isfinite, grid)):
        raise UsageError(f"--sigma-grid {text!r} holds a value that is not finite")
    if len(grid) == 3:
        start, step, stop = grid
        if step == 0.0 or (stop - start) * step < 0.0:
            raise UsageError(f"--sigma-grid {text!r} does not reach its stop value")
        span = (stop - start) / step + 1e-9  # inf when the division overflows
        if not span < MAX_GRID_POINTS:
            raise UsageError(f"--sigma-grid {text!r} has more than {MAX_GRID_POINTS} points")
        grid = tuple(start + i * step for i in range(math.floor(span) + 1))
    _check_dbm(grid, "--sigma-grid")
    return grid


def _no_repeats(items: tuple, flag: str, text: str) -> tuple:
    if len(set(items)) < len(items):
        raise UsageError(f"{flag} list {text!r} names an entry twice")
    return items


def _parse_list(text: str, kind, flag: str) -> tuple:
    try:
        items = tuple(kind(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad {flag} list {text!r}") from None
    return _no_repeats(items, flag, text)


def _parse_rules(text: str, k: int, jammed: bool, same_rates: bool,
                 jammer_source: str = "--jammer") -> tuple[str, ...]:
    rules = _no_repeats(tuple(r.strip() for r in text.split(",") if r.strip()),
                        "--rules", text)
    for r in rules:
        if r not in RULES:
            raise UsageError(f"unknown rule {r!r}; choose from {', '.join(RULES)}")
        if RULES[r].needs_rate_gap and same_rates:
            raise UsageError(f"rule {r!r} is undefined: {SAME_RATES}")
        if RULES[r].enumerates and k > MAX_ENUM_K:
            raise UsageError(
                f"rule {r!r} enumerates 2^K terms and needs K <= {MAX_ENUM_K}")
        if RULES[r].needs_jammer and not jammed:
            raise UsageError(f"rule {r!r} needs {jammer_source}")
    if not rules:
        raise UsageError("no rules given")
    return rules


def _check_antennas(n_list, jammer_rank: int | None) -> None:
    """Reject antenna counts below 1 or not above the jammer rank."""
    if min(n_list) < 1:
        raise UsageError(f"need antenna counts >= 1, got {min(n_list)}")
    if jammer_rank is not None and jammer_rank >= min(n_list):
        raise UsageError(f"jammer rank {jammer_rank} must be smaller than the "
                         f"antenna count {min(n_list)}")


def _check_sizes(trials: int, levels, threads: int, n_list,
                 jammer_rank: int | None) -> None:
    """Reject targets, trial, thread and antenna counts, and jammer ranks, before any work."""
    for level in levels:
        if not 0.0 < level < 1.0:
            raise UsageError(f"false-alarm target {level} must lie in (0, 1)")
    if trials < 100.0 / min(levels):
        raise UsageError(f"need --trials >= {math.ceil(100.0 / min(levels))} "
                         f"for the false-alarm target {min(levels)}")
    if not 1 <= threads <= MAX_THREADS:
        raise UsageError(f"need --threads >= 1 and <= {MAX_THREADS}, got {threads}")
    _check_antennas(n_list, jammer_rank)


def _prepare_outputs(out: str, plot_dir: str | None = None) -> None:
    """Prove the outputs writable before any work, leaving ``out`` as it was."""
    created = not os.path.exists(out)
    with open(out, "a"):  # append mode truncates nothing
        pass
    if created:
        os.remove(out)
    if plot_dir:
        os.makedirs(plot_dir, exist_ok=True)


def _resolve_seed(flag: int | None) -> int:
    """The --seed value, else the environment variable, else 0; never negative."""
    if flag is not None:
        source, raw = "--seed", str(flag)
    else:
        source, raw = f"environment variable {SEED_ENV}", os.environ.get(SEED_ENV, "0")
    try:
        seed = int(raw)
    except ValueError:
        raise UsageError(f"{source}={raw!r} is not an integer") from None
    if seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _jammer_preset(args) -> str | None:
    return None if args.jammer in (None, "none") else args.jammer


def _draw_presets(args, presets, n_list, levels, plot_dir=None):
    """Check the inputs and outputs, then draw preset i from entropy [seed, i]
    at the largest antenna count; returns (rules, deployments for ``sweep``)."""
    jammer_preset = _jammer_preset(args)
    rules = _parse_rules(args.rules, args.k, jammer_preset is not None,
                         args.pd == args.pf)
    configs = [preset_config(preset, k_sensors=args.k, n_antennas=max(n_list),
                             pd=args.pd, pf=args.pf, seed=args.seed)
               for preset in presets]
    _check_sizes(args.trials, levels, args.threads, n_list,
                 configs[0].jammer_rank if jammer_preset else None)
    _prepare_outputs(args.out, plot_dir)
    return rules, [(preset, jammer_preset or "none",
                    *montecarlo.draw_deployment(config, jammer_preset, [args.seed, pi]))
                   for pi, (preset, config) in enumerate(zip(presets, configs))]


def _fmt_db(x: float) -> str:
    v = float(lin_to_db(x)) if x > 0 else float("-inf")
    return f"{v:9.2f}"


def _print_links(header: str, bearing, beta, b) -> None:
    """One table row per link: bearing, gain and LOS power beta b^2."""
    print(header)
    for i in range(len(beta)):
        print(f"{i + 1:>6}  {np.degrees(bearing[i]):9.2f}  {_fmt_db(beta[i])}  "
              f"{_fmt_db(beta[i] * b[i] ** 2)}")


def cmd_generate(args) -> int:
    config = preset_config(args.preset, k_sensors=args.k, n_antennas=args.n,
                           pd=args.pd, pf=args.pf, seed=args.seed,
                           jammer_rank=args.r)
    jammer_preset = _jammer_preset(args)
    _check_antennas((args.n,), args.r if jammer_preset else None)
    wsn, jammer = montecarlo.draw_deployment(config, jammer_preset, [args.seed])
    if args.kappa_zero:
        wsn = wsn.with_(kappa=0.0)
    if args.out:
        save_scenario(args.out, config, wsn, jammer)
    print(f"# preset={args.preset} jammer={args.jammer} K={wsn.k_sensors} "
          f"N={wsn.n_antennas} seed={args.seed}")
    _print_links("sensor  theta_deg   beta_dbm  los_power_dbm", wsn.theta, wsn.beta, wsn.b)
    if jammer is not None:
        _print_links("jammer  phi_deg     beta_dbm  los_power_dbm",
                     jammer.phi, jammer.beta, jammer.b)
    if args.out:
        print(f"# wrote {args.out}")
    return 0


def _write_plot_data(rows, outdir) -> None:
    series = {}
    for row in rows:
        key = (row["preset"], row["jammer"], row["rule"], row["n_antennas"])
        series.setdefault(key, []).append(row)
    for (preset, jam, rule, n), pts in series.items():
        montecarlo.write_csv(sorted(pts, key=lambda r: r["sigma_w2_dbm"]),
                             os.path.join(outdir, f"pd0__{preset}__{jam}__{rule}__N{n}.csv"),
                             columns=("sigma_w2_dbm", "pd0", "pd0_stderr"))


def cmd_run(args) -> int:
    grid = parse_grid(args.sigma_grid)
    n_list = None if args.n is None else _parse_list(args.n, int, "--n")
    if args.scenario:
        if any(getattr(args, name) is not None
               for name in ("preset", "jammer", *SENSOR_DEFAULTS)):
            raise UsageError("--preset, --jammer, --k, --pd and --pf do not combine with "
                             "--scenario: the scenario file fixes the deployment")
        wsn, jammer = load_scenario(args.scenario)
        n_list = n_list or (wsn.n_antennas,)
        rules = _parse_rules(args.rules, wsn.k_sensors, jammer is not None,
                             bool(np.all(wsn.pd == wsn.pf)),
                             f"a jammer in the scenario file {args.scenario}")
        _check_sizes(args.trials, (args.pf0,), args.threads, n_list,
                     None if jammer is None else jammer.rank)
        _prepare_outputs(args.out, args.plot_data)
        label = os.path.splitext(os.path.basename(args.scenario))[0]
        deployments = [(label, "none" if jammer is None else "custom", wsn, jammer)]
    else:
        for name, value in SENSOR_DEFAULTS.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
        presets = _parse_list(args.preset if args.preset is not None else "intermediate",
                              str, "--preset")
        n_list = n_list or (6,)
        rules, deployments = _draw_presets(args, presets, n_list, (args.pf0,),
                                           args.plot_data)
    rows = montecarlo.sweep(deployments, grid, n_list, rules, args.trials,
                            target_pf0=args.pf0, seed=args.seed, threads=args.threads)
    montecarlo.write_csv(rows, args.out)
    if args.plot_data:
        _write_plot_data(rows, args.plot_data)
    print(f"# wrote {len(rows)} rows to {args.out}")
    return 0


def cmd_roc(args) -> int:
    levels = (montecarlo.DEFAULT_LEVELS if args.levels is None
              else _parse_list(args.levels, float, "--levels"))
    _check_dbm((args.sigma_dbm,), "--sigma-dbm")
    rules, [(_, _, wsn, jammer)] = _draw_presets(args, (args.preset,), (args.n,), levels)
    engine = montecarlo.Engine(wsn.with_(noise_power=float(db_to_lin(args.sigma_dbm))),
                               jammer=jammer, seed=args.seed, threads=args.threads)
    montecarlo.write_csv([pt for rule in rules
                          for pt in montecarlo.roc_points(engine, rule, args.trials, levels)],
                         args.out, columns=montecarlo.ROC_COLUMNS)
    print(f"# wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verify battery


def _check_equivalence(name, engine, rule_a, rule_b, trials, results):
    res = montecarlo.equivalence_check(engine, rule_a, rule_b, trials)
    ok = res.verdict == "equivalent"
    results.append((name, ok,
                    f"{res.verdict} (spearman={res.spearman:.6f}, "
                    f"max_disagree={res.max_disagreement:.2e})"))


def _verify_battery(args) -> list[tuple[str, bool, str]]:
    results: list[tuple[str, bool, str]] = []
    seed = args.seed
    trials = args.trials
    jammer_preset = _jammer_preset(args)
    run_all = not (args.kappa_zero or args.is_assumption)

    def new_engine(wsn, jammer=None):
        return montecarlo.Engine(wsn, jammer=jammer, seed=seed,
                                 threads=args.threads)

    def deployment(preset, jam_preset=None):
        config = preset_config(preset, k_sensors=args.k, n_antennas=args.n,
                               pd=args.pd, pf=args.pf, seed=seed)
        return montecarlo.draw_deployment(config, jam_preset, [seed, 1])

    # one draw of --preset for every battery, with a jammer where one is used
    jammed = run_all or (args.is_assumption and jammer_preset is not None)
    _check_sizes(trials, montecarlo.DEFAULT_LEVELS, args.threads, (args.n,),
                 DeploymentConfig.jammer_rank if jammed else None)
    wsn, jam = deployment(args.preset, (jammer_preset or "los-jam") if jammed else None)
    flat = wsn.with_(kappa=0.0)

    if args.kappa_zero or run_all:
        eng = new_engine(flat)
        _check_equivalence("lemma1-is-nlos", eng, "is", "nlos", trials, results)
        _check_equivalence("lemma1-igmm-nlos", eng, "igmm", "nlos", trials, results)

    if run_all:
        # is and igmm rank the trials of an nlos-preset deployment alike
        res = montecarlo.equivalence_check(new_engine(deployment("nlos")[0]),
                                           "is", "igmm", trials)
        results.append(("lemma2-rankcorr", res.spearman >= 0.999, f"spearman={res.spearman:.6f}"))

    if args.is_assumption or run_all:
        ideal = wsn.with_(pd=1.0, pf=0.0)
        eng = new_engine(ideal)
        _check_equivalence("lemma3-igmm-is", eng, "igmm", "is", trials, results)
        _check_equivalence("wl-pair", eng, "wl0", "wl1", trials, results)
        if args.k <= 12:
            _check_equivalence("lemma3-llr-is", eng, "llr", "is", trials, results)
        if jammed:
            eng_j = new_engine(ideal, jam)
            _check_equivalence("jam-lemma-igmm-is-glrt", eng_j, "igmm-glrt",
                               "is-glrt", trials, results)

    if run_all:
        # closed-form reduction of both subspace GLRTs with no LOS component
        eng = new_engine(flat, jam)
        n = flat.n_antennas
        batch = eng.sample(H1, min(trials, 2000), 0)
        e = eng.eval("nlos-glrt", batch)
        ref_is = jamming_rules.nlos_piecewise_reference(
            e, flat.noise_power, flat.noise_power + float(flat.nu.sum()), n)
        d_is = float(np.max(np.abs(eng.eval("is-glrt", batch) - ref_is)))
        results.append(("piecewise-is-glrt", d_is <= 1e-9, f"max_abs_diff={d_is:.2e}"))
        s0 = float(flat.beta @ flat.pf + flat.noise_power)
        s1 = float(flat.beta @ flat.pd + flat.noise_power)
        ref_ig = jamming_rules.nlos_piecewise_reference(e, s0, s1, n)
        d_ig = float(np.max(np.abs(eng.eval("igmm-glrt", batch) - ref_ig)))
        results.append(("piecewise-igmm-glrt", d_ig <= 1e-9, f"max_abs_diff={d_ig:.2e}"))

        p = jam.u_c @ jam.u_c.conj().T
        d_proj = max(float(np.abs(p - p.conj().T).max()),
                     float(np.abs(p @ p - p).max()),
                     float(np.abs(p @ jam.a_j).max()))
        results.append(("projector", d_proj <= 1e-10, f"max_residual={d_proj:.2e}"))

        rng = np.random.default_rng(seed + 7)
        worst = 0.0
        for _ in range(20):
            nn = int(rng.integers(2, 9))
            rr = int(rng.integers(1, nn))
            la = rng.uniform(0.1, 50.0, size=2 * nn)
            lc = rng.uniform(0.1, 50.0, size=2 * (nn - rr))
            v2 = rng.uniform(0.0, 200.0, size=2 * (nn - rr))
            solver = jamming_rules.FloorSolver(la, lc)
            # the solution, then a 4,001-point grid, both scored by the solver's L
            s = np.concatenate([solver.solve_batch(v2[None, :]), [0.0],
                                np.geomspace(1e-6, 1e3 * la.max(), 4000)])
            l_s = solver.loglik(np.broadcast_to(v2, (s.size, v2.size)), s)
            worst = max(worst, l_s[1:].max() - l_s[0])
        results.append(("sigma-poly-oracle", worst <= 1e-6,
                        f"max_loglik_gap={worst:.2e}"))

    return results


def cmd_verify(args) -> int:
    if args.pd == args.pf and (args.kappa_zero or not args.is_assumption):
        raise UsageError("the zero-Rician and full batteries are undefined at "
                         f"--pd = --pf: {SAME_RATES}")
    results = _verify_battery(args)
    failed = 0
    for name, ok, detail in results:
        print(f"{name}: {'pass' if ok else 'FAIL'} {detail}")
        failed += 0 if ok else 1
    print(f"# {len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ricianfusion",
        description="Decision-fusion detection-performance simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, sensor_defaults=SENSOR_DEFAULTS, threads=True):
        p.add_argument("--k", type=int, default=sensor_defaults["k"],
                       help="number of sensors")
        p.add_argument("--pd", type=float, default=sensor_defaults["pd"])
        p.add_argument("--pf", type=float, default=sensor_defaults["pf"])
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV} or 0)")
        if threads:
            p.add_argument("--threads", type=int, default=1,
                           help="worker threads that draw and evaluate blocks")

    def deployment_flags(p):  # --preset, --jammer and --n of generate, verify and roc
        p.add_argument("--preset", choices=sorted(PRESETS), default="intermediate")
        p.add_argument("--jammer", choices=JAMMER_CHOICES, default="none")
        p.add_argument("--n", type=int, default=6, help="antennas at the fusion center")

    g = sub.add_parser("generate", help="draw and store a scenario")
    deployment_flags(g)
    g.add_argument("--r", type=int, default=2, help="jammer rank")
    g.add_argument("--kappa-zero", action="store_true",
                   help="zero every sensor's Rician factor (a jammer keeps its own)")
    g.add_argument("--out", default=None, help="scenario file to write")
    common(g, threads=False)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="performance sweep to CSV")
    r.add_argument("--preset", default=None,
                   help="comma list of presets (los,intermediate,nlos; "
                        "default intermediate)")
    r.add_argument("--scenario", default=None,
                   help="scenario file that fixes the deployment "
                        "(no --preset/--jammer/--k/--pd/--pf)")
    r.add_argument("--jammer", choices=JAMMER_CHOICES, default=None)
    r.add_argument("--rules", default="is,nlos,igmm", help=RULES_HELP)
    r.add_argument("--sigma-grid", default="0", help="noise power dBm, start:step:stop")
    r.add_argument("--n", default=None,
                   help="comma list of antenna counts (default 6, or the "
                        "scenario file's n_antennas with --scenario)")
    r.add_argument("--pf0", type=float, default=0.01)
    r.add_argument("--trials", type=int, default=20000)
    r.add_argument("--out", required=True)
    r.add_argument("--plot-data", default=None,
                   help="directory for per-rule plot series")
    common(r, sensor_defaults=dict.fromkeys(SENSOR_DEFAULTS))
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="equivalence/oracle self checks")
    deployment_flags(v)
    v.add_argument("--kappa-zero", action="store_true",
                   help="only the zero-Rician equivalence checks")
    v.add_argument("--is-assumption", action="store_true",
                   help="only the ideal-sensor (pd=1, pf=0) checks")
    v.add_argument("--trials", type=int, default=10000)
    common(v)
    v.set_defaults(func=cmd_verify)

    c = sub.add_parser("roc", help="operating points to CSV")
    deployment_flags(c)
    c.add_argument("--rules", default="is,nlos,igmm", help=RULES_HELP)
    c.add_argument("--sigma-dbm", type=float, default=0.0)
    c.add_argument("--levels", default=None, help="comma list of target Pf0 values")
    c.add_argument("--trials", type=int, default=20000)
    c.add_argument("--out", required=True)
    common(c)
    c.set_defaults(func=cmd_roc)
    return parser


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Write "--opt -10:5:10" as "--opt=-10:5:10".

    argparse takes a token with a leading minus sign for an option unless it
    is a plain number, so a grid such as -10:5:10 would lose its option.
    """
    out: list[str] = []
    for tok in argv:
        if (out and _NEGATIVE_VALUE.match(tok) and out[-1].startswith("--")
                and "=" not in out[-1]):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_glue_negative_values(argv))
    try:
        args.seed = _resolve_seed(args.seed)
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # UsageError and invalid model parameters
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
