"""Randomized space-time coded metasurface stack simulator.

Synthesizes the transmission coefficients of a stacked-metasurface
transmitter by projected gradient descent and evaluates the resulting
multiuser downlink (best-beam-feedback scheduling, sum rate, fairness,
overhead) against a full-feedback baseline via Monte Carlo simulation.
"""

from .downlink import (
    UNSERVED,
    DownlinkScenario,
    OverheadCounts,
    SlotScheduleResult,
    Users,
    baseline_mimo,
    drop_users,
    effective_channels,
    fairness_index,
    overhead,
    per_user_rate_matrix,
    schedule_slot,
    sinr_matrix,
    ta_sum_rate,
)
from .errors import ConfigurationError, ValidationError
from .geometry import GridSpec
from .harness import (
    PRESETS,
    ExperimentConfig,
    ExperimentKind,
    ResultRecord,
    SweepAxes,
    apply_scale,
    config_from_dict,
    config_to_dict,
    run_experiment,
    summarize,
    synthesize,
    with_overrides,
    write_csv,
    write_summary_json,
)
from .pgd import (
    PgdConfig,
    PgdState,
    constraint_deviation,
    gradient,
    layer_factors,
    objective,
    objective_db,
    project_amplitude,
    run_pgd,
    write_trace_csv,
)
from .propagation import SPEED_OF_LIGHT, KernelParams, build_propagation_matrix, rs_kernel
from .randomizer import draw_slot_phases, stream_rng, stream_seed
from .stack import (
    LayerKind,
    SimStack,
    StackDescription,
    build_stack,
    compose_space_block,
    db_to_amplitude,
    power_ratio,
    radiated_power_ratio,
    slot_response,
)
from .target import TargetMatrix, generate_target

__version__ = "0.1.0"
