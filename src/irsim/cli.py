"""Command-line interface: experiment sweeps, reference figures, one-off solves.

Exit codes: 0 on success, 2 on configuration errors and an unwritable
output file, 3 when an optimization run (or every optimized row of a
sweep) is infeasible.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

import numpy as np

from .arrays import composite_vector
from .config import ConfigError, ScenarioConfig
from .experiments import (
    EXPERIMENT_IDS,
    FIGURES,
    SweepSpec,
    all_infeasible,
    default_grid,
    emit,
    run_experiment,
)
from .optimizer import Infeasible, build_problem, pdd_solve, problem_constraint
from .power import irs_received_powers, power_report

def _load_config(path) -> ScenarioConfig:
    return ScenarioConfig.from_file(path) if path else ScenarioConfig.default()


def _unwritable(path: str) -> str | None:
    """Why a new file at ``path`` cannot be written, or None; checked before
    any solve runs, so that a bad path costs no work."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        return os.strerror(errno.EISDIR)
    if not os.path.exists(directory):
        return os.strerror(errno.ENOENT)
    if not os.path.isdir(directory):
        return os.strerror(errno.ENOTDIR)
    if not os.access(directory, os.W_OK):
        return os.strerror(errno.EACCES)
    return None


def _cannot_write(path: str, reason: str | None) -> int:
    print(f"error: cannot write {path}: {reason}", file=sys.stderr)
    return 2


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    # argparse takes "-1,0,1" for an option, so a negative first value needs "="
    parser.add_argument(
        "--grid", help="comma-separated swept values; write a negative first value as --grid=-1,0,1"
    )
    parser.add_argument("--config", help="scenario INI file (defaults built in)")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _run_sweep(args, experiment: str) -> int:
    config = _load_config(args.config)
    if args.seed is not None:
        config = config.replace(seed=args.seed)
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
    out = args.out or f"{experiment}.{args.format}"
    if reason := _unwritable(out):
        return _cannot_write(out, reason)
    rows = run_experiment(config, sweep)
    try:
        emit(rows, args.format, out)
    except OSError as exc:
        return _cannot_write(out, exc.strerror)
    feas = sum(1 for r in rows if r["feasible"])
    print(f"{experiment}: {len(rows)} rows ({feas} feasible) -> {out}")
    if all_infeasible(rows):
        print("every optimized point is infeasible", file=sys.stderr)
        return 3
    return 0


def _cmd_reproduce(args) -> int:
    if args.figure not in FIGURES:
        known = ", ".join(FIGURES)
        print(f"config error: unknown figure id {args.figure!r} (known: {known})", file=sys.stderr)
        return 2
    experiment = FIGURES[args.figure]
    if experiment == "beam_scan_lrs":
        # absolute dB levels depend on this repo's gain conventions; compare
        # gaps between schemes, not absolute values
        print("note: only relative gaps between schemes are comparable")
    return _run_sweep(args, experiment)


def _snr_db(power: float, noise: float) -> float:
    """Echo SNR in dB: -inf without echo power, inf without noise."""
    if power <= 0:
        return float("-inf")
    return 10 * np.log10(power / noise) if noise > 0 else float("inf")


def _cmd_optimize(args) -> int:
    config = _load_config(args.config)
    geom, plan = config.geometry, config.timing
    p_l, p_u = plan.lrs.power, plan.urs.power
    comps = tuple(composite_vector(k, geom.angles_l, geom.angles_u, geom.irs_spec) for k in "UVRG")
    q_ls, q_us = irs_received_powers(geom, p_l, p_u)
    durations = (plan.lrs.duration, plan.urs.duration)
    case = args.problem.upper()
    try:
        problem = build_problem(
            case, (q_ls, q_us), comps, durations, config.gamma, config.p_u_min
        )
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out and (reason := _unwritable(args.out)):
        return _cannot_write(args.out, reason)
    t0 = time.perf_counter()
    try:
        result = pdd_solve(problem)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    wall = time.perf_counter() - t0
    constraint = problem_constraint(problem, result.theta.coefficients)
    print(
        f"{case}: objective {result.objective:.6g} W, cap {constraint:.6g} of {config.gamma:.6g} W, "
        f"converged {result.converged}, {result.outer_iterations} outer iterations, {wall:.3f} s"
    )
    rep = power_report(result.theta, geom, p_l, p_u)
    snr_l, snr_u = _snr_db(rep.q_ol, config.noise_l), _snr_db(rep.q_ou, config.noise_u)
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
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _cannot_write(args.out, exc.strerror)
        print(f"solution -> {args.out}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irsim",
        description="Target-mounted reflecting-surface radar simulator and optimizer",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="solve one reflection design problem")
    p_opt.add_argument("--problem", choices=("p1", "p2", "p3", "p4"), default="p3")
    p_opt.add_argument("--config", help="scenario INI file (defaults built in)")
    p_opt.add_argument("--out", help="JSON file for the solution")

    p_sweep = sub.add_parser("sweep", help="run one experiment family over a grid")
    p_sweep.add_argument("--experiment", choices=EXPERIMENT_IDS, required=True)
    _add_sweep_options(p_sweep)

    p_rep = sub.add_parser("reproduce", help="rerun a reference figure's experiment")
    p_rep.add_argument("figure", help="fig6..fig13")
    _add_sweep_options(p_rep)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "optimize":
            return _cmd_optimize(args)
        if args.command == "sweep":
            return _run_sweep(args, args.experiment)
        return _cmd_reproduce(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
