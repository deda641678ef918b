"""Exact pulse-program synthesis for three-mode trapped-ion states.

Compile the ordered laser-pulse sequence (channel, interaction length, phase)
that deterministically prepares an arbitrary three-mode vibrational state of
a single trapped ion from its ground state, replay such programs exactly on a
truncated Fock basis, and estimate preparation fidelity under technical noise
by Monte Carlo, with optional post-selection on the electronic state.
"""

from .fock import (
    Component,
    DomainError,
    Level,
    Occupation,
    StateVector,
    Truncation,
    basis_state,
    component_of,
    enumerate_basis,
    fidelity_to_target,
    index_of,
    overlap,
    project_level,
    vacuum_state,
)
from .channels import (
    CHANNELS,
    ChannelId,
    ChannelKind,
    ChannelSpec,
    LambDickeParams,
    Mode,
    nonlinearity,
    rabi,
)
from .pulses import (
    Direction,
    Pulse,
    Schedule,
    apply_pulse,
    apply_schedule,
    dagger_schedule,
    oracle_apply,
    solve_kill_lower,
    solve_kill_upper,
    wrap_angle,
)
from .synthesis import CompileResult, deevolve, pulse_count_model
from .targets import Target, random_target, target_corr, target_diag, target_ghz
from .noise import (
    NoiseModel,
    SweepReport,
    SweepRow,
    TrialResult,
    perturb,
    run_trials,
    simulate_trial,
    sweep,
)
from .files import (
    REPORT_HEADER,
    ScheduleFormatError,
    TargetFormatError,
    load_schedule,
    load_target,
    save_report,
    save_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # state space
    "Component",
    "DomainError",
    "Level",
    "Occupation",
    "StateVector",
    "Truncation",
    "basis_state",
    "component_of",
    "enumerate_basis",
    "fidelity_to_target",
    "index_of",
    "overlap",
    "project_level",
    "vacuum_state",
    # channels
    "CHANNELS",
    "ChannelId",
    "ChannelKind",
    "ChannelSpec",
    "LambDickeParams",
    "Mode",
    "nonlinearity",
    "rabi",
    # pulses
    "Direction",
    "Pulse",
    "Schedule",
    "apply_pulse",
    "apply_schedule",
    "dagger_schedule",
    "oracle_apply",
    "solve_kill_lower",
    "solve_kill_upper",
    "wrap_angle",
    # synthesis
    "CompileResult",
    "deevolve",
    "pulse_count_model",
    # targets
    "Target",
    "random_target",
    "target_corr",
    "target_diag",
    "target_ghz",
    # noise lab
    "NoiseModel",
    "SweepReport",
    "SweepRow",
    "TrialResult",
    "perturb",
    "run_trials",
    "simulate_trial",
    "sweep",
    # files
    "REPORT_HEADER",
    "ScheduleFormatError",
    "TargetFormatError",
    "load_schedule",
    "load_target",
    "save_report",
    "save_schedule",
]
