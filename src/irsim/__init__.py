"""Simulation and reflection optimization for a target-mounted reflecting
surface shared between a legitimate and an unauthorized radar."""

from .arrays import (
    AnglePair,
    ArraySpec,
    composite_vector,
    composite_vector_kron,
    dft_codebook,
    matched_beamformer,
    steering_1d,
    steering_irs,
    steering_radar,
)
from .channel import ScenarioGeometry, path_gain, sample_reference_phases
from .config import ConfigError, ScenarioConfig
from .experiments import EXPERIMENT_IDS, SweepSpec, default_grid, emit, run_experiment
from .optimizer import (
    BudgetExceeded,
    Infeasible,
    NoNullAvailable,
    PddResult,
    ProblemData,
    ProjectionError,
    brute_force_oracle,
    build_problem,
    closed_form_lrs_only,
    closed_form_urs_null,
    minimize_unit_modulus_quadratic,
    pdd_solve,
    pdd_solve_with_candidates,
    problem_constraint,
)
from .power import (
    PowerReport,
    ReflectionVector,
    bilinear_link_power,
    irs_received_powers,
    link_power,
    power_report,
)
from .protocol import (
    CpiResult,
    EstimationError,
    ProtocolMode,
    default_rcs,
    no_irs_baseline_power,
    random_phase_baseline,
    run_cpi,
)
from .waveform import PulseSpec, TimingPlan, pulse_sample, segment_pri

__version__ = "0.1.0"
