"""Command-line interface: beam scans, one-off solves, parameter sweeps.

Exit codes: 0 on success, 2 on configuration errors, 3 when an
optimization run (or every optimized row of a sweep) is infeasible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .arrays import composite_vector
from .config import ConfigError, ScenarioConfig
from .experiments import (
    EXPERIMENT_IDS,
    SweepSpec,
    all_infeasible,
    default_grid,
    emit,
    run_experiment,
)
from .optimizer import Infeasible, build_problem, pdd_solve, problem_constraint
from .power import irs_received_powers, power_report

# numbering follows the repo's experiment list; see README for the mapping
FIGURE_IDS = {
    "fig6": "beam_scan_lrs",
    "fig7": "beam_scan_urs",
    "fig8": "gamma_sweep",
    "fig9": "lrs_distance",
    "fig10": "urs_distance",
    "fig11": "aoa_difference",
    "fig12": "overlap_ratio",
    "fig13": "angle_error",
}


def _load_config(args) -> ScenarioConfig:
    cfg = ScenarioConfig.from_file(args.config) if args.config else ScenarioConfig.default()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="scenario INI file (defaults built in)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _run_sweep(config: ScenarioConfig, experiment: str, args) -> int:
    if args.grid:
        try:
            grid = tuple(float(v) for v in args.grid.split(","))
        except ValueError:
            print(f"config error: cannot parse grid {args.grid!r}", file=sys.stderr)
            return 2
    else:
        grid = default_grid(experiment, config)
    try:
        sweep = SweepSpec(grid=grid, experiment=experiment)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    rows = run_experiment(config, sweep)
    out = args.out or f"{experiment}.{args.format}"
    emit(rows, args.format, out)
    feas = sum(1 for r in rows if r["feasible"])
    print(f"{experiment}: {len(rows)} rows ({feas} feasible) -> {out}")
    if all_infeasible(rows):
        print("every optimized point is infeasible", file=sys.stderr)
        return 3
    return 0


def _cmd_scan(args) -> int:
    config = _load_config(args)
    experiment = "beam_scan_lrs" if args.radar == "lrs" else "beam_scan_urs"
    return _run_sweep(config, experiment, args)


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    return _run_sweep(config, args.experiment, args)


def _cmd_reproduce(args) -> int:
    config = _load_config(args)
    experiment = FIGURE_IDS.get(args.figure, args.figure)
    if experiment not in EXPERIMENT_IDS:
        known = ", ".join(list(FIGURE_IDS) + list(EXPERIMENT_IDS))
        print(f"config error: unknown figure id {args.figure!r} (known: {known})", file=sys.stderr)
        return 2
    if experiment == "beam_scan_lrs":
        # absolute dB levels depend on this repo's gain conventions; compare
        # gaps between schemes, not absolute values
        print("note: only relative gaps between schemes are comparable")
    return _run_sweep(config, experiment, args)


def _cmd_optimize(args) -> int:
    config = _load_config(args)
    geom = config.geometry()
    comps = tuple(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG")
    q_ls, q_us = irs_received_powers(geom, config.p_l, config.p_u)
    durations = (config.lrs_duration, config.urs_duration)
    case = args.problem.upper()
    try:
        problem = build_problem(
            case, (q_ls, q_us), comps, durations, config.gamma, config.p_u_min
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        result = pdd_solve(problem, config.pdd)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    constraint = problem_constraint(problem, result.theta.coefficients)
    print(
        f"{case}: objective {result.objective:.6g} W, cap {constraint:.6g} of {config.gamma:.6g} W, "
        f"converged {result.converged}, {result.outer_iterations} outer iterations, {wall:.3f} s"
    )
    rep = power_report(result.theta, geom, config.p_l, config.p_u)
    snr_l = 10 * np.log10(rep.q_ol / config.noise_l) if rep.q_ol > 0 else float("-inf")
    snr_u = 10 * np.log10(rep.q_ou / config.noise_u) if rep.q_ou > 0 else float("-inf")
    print(f"echo SNR with this reflection: {snr_l:.1f} dB at LRS, {snr_u:.1f} dB at URS")
    if args.out:
        payload = {
            "problem": case,
            "objective": result.objective,
            "constraint": constraint,
            "gamma": config.gamma,
            "converged": result.converged,
            "outer_iterations": result.outer_iterations,
            "phases": list(result.theta.phases),
            "amplitudes": list(result.theta.amplitudes),
            "trace": [
                {
                    "outer": t.outer,
                    "objective": t.objective,
                    "constraint": t.constraint,
                    "gap": t.gap,
                    "rho": t.rho,
                }
                for t in result.trace
            ],
        }
        text = json.dumps(payload, indent=2, allow_nan=False)
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"solution -> {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="irsim",
        description="Target-mounted reflecting-surface radar simulator and optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="beam scan of one radar across its codebook")
    p_scan.add_argument("--radar", choices=("lrs", "urs"), default="lrs")
    p_scan.add_argument("--grid", help="comma-separated beam direction cosines")
    _add_common(p_scan)

    p_opt = sub.add_parser("optimize", help="solve one reflection design problem")
    p_opt.add_argument("--problem", choices=("p1", "p2", "p3", "p4"), default="p3")
    _add_common(p_opt)

    p_sweep = sub.add_parser("sweep", help="run one experiment family over a grid")
    p_sweep.add_argument("--experiment", choices=EXPERIMENT_IDS, required=True)
    p_sweep.add_argument("--grid", help="comma-separated swept values")
    _add_common(p_sweep)

    p_rep = sub.add_parser("reproduce", help="rerun a reference figure's experiment")
    p_rep.add_argument("figure", help="fig6..fig13 or an experiment id")
    p_rep.add_argument("--grid", help="comma-separated swept values")
    _add_common(p_rep)

    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_reproduce(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
