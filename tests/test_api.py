"""The count of settable values, pinned.

A settable value is one CLI option or positional argument of a subcommand
(``-h`` excluded), one field of a public dataclass, or one parameter of a
public function or method (``self``/``cls`` excluded), over the public
names of ``irsim``. A change that adds or removes one, or a public name,
updates the pins here on purpose.
"""

import argparse
import dataclasses
import inspect

import irsim
from irsim import cli

# 167 over the public names of irsim plus 15 in the CLI. The CLI's 15 are
# optimize's --problem, --config and --out (3), and sweep's --experiment and
# reproduce's figure, each with --grid, --config, --seed, --out and --format
# (6 + 6). From 202: the scan command (-6), optimize's --format and --seed
# (-2) and the overrides of ScenarioConfig.default (-1). From 193: the
# guard's hop-matrix types ChannelSet (-4) and LinkGain (-2) and their
# builder build_channels (-2), problem_objective (-2) and
# ScenarioConfig.from_parser (-1), all made private or deleted.
SETTABLE_VALUES = 182

# the public names of irsim, its submodules aside (which of those are
# attributes depends on what has been imported)
PUBLIC_NAMES = frozenset("""
    AnglePair ArraySpec BudgetExceeded ConfigError CpiResult EXPERIMENT_IDS
    EstimationError Infeasible NoNullAvailable PddResult PowerReport
    ProblemData ProjectionError ProtocolMode PulseSpec ReflectionVector
    ScenarioConfig ScenarioGeometry SweepSpec TimingPlan bilinear_link_power
    brute_force_oracle build_problem closed_form_lrs_only closed_form_urs_null
    composite_vector composite_vector_kron default_grid default_rcs
    dft_codebook emit irs_received_powers link_power matched_beamformer
    minimize_unit_modulus_quadratic no_irs_baseline_power path_gain pdd_solve
    pdd_solve_with_candidates power_report problem_constraint pulse_sample
    random_phase_baseline run_cpi run_experiment sample_reference_phases
    segment_pri steering_1d steering_irs steering_radar
""".split())


def _parameters(fn, bound: bool) -> int:
    return len(inspect.signature(fn).parameters) - bound


def _api_count(obj) -> int:
    if inspect.isfunction(obj):
        return _parameters(obj, False)
    if not inspect.isclass(obj):
        return 0
    count = len(dataclasses.fields(obj)) if dataclasses.is_dataclass(obj) else 0
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if isinstance(member, classmethod):
            count += _parameters(member.__func__, True)
        elif isinstance(member, staticmethod):
            count += _parameters(member.__func__, False)
        elif inspect.isfunction(member):
            count += _parameters(member, True)
    return count


def _cli_count() -> int:
    parser = cli._parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sum(
        not isinstance(action, argparse._HelpAction)
        for sub in commands.choices.values()
        for action in sub._actions
    )


def test_settable_value_count():
    counts = {
        name: _api_count(value)
        for name, value in vars(irsim).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    options = _cli_count()
    # a string, so that pytest prints the count of every name in full
    report = (
        f"added {sorted(set(counts) - PUBLIC_NAMES)}, removed {sorted(PUBLIC_NAMES - set(counts))}; "
        f"{sum(counts.values())} + {options} CLI: "
        + ", ".join(f"{name} {count}" for name, count in sorted(counts.items()))
    )
    assert set(counts) == PUBLIC_NAMES and sum(counts.values()) + options == SETTABLE_VALUES, report
