"""Configuration-driven Monte Carlo experiments and result records.

An experiment sweeps stack and scenario parameters over a grid of points,
runs ``trial_count`` independent trials per point, and emits one record per
(point, trial, metric). Everything is deterministic given the master seed:
every random draw comes from a named substream keyed by content (trial
index, stream name, and the parameters that draw depends on), never by
execution order. Consequences worth knowing:

* consecutive sweep points whose stacks differ at most in the slot count
  (e.g. a user-count sweep) share one stack and one synthesis per trial;
* user drops are drawn once per trial at the largest swept user count and
  prefix-sliced for smaller counts (common random numbers across the sweep);
* the baseline and the randomized scheme see identical users and fading
  within a trial (paired-sample comparison).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import logging
import math
import time
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .downlink import (
    NOISE_OVER_ENERGY,
    DownlinkScenario,
    Users,
    baseline_mimo,
    drop_users,
    effective_channels,
    fairness_index,
    overhead,
    per_user_rate_matrix,
    schedule_slot,
    ta_sum_rate,
)
from .errors import ConfigurationError, ValidationError, read_object
from .pgd import PgdConfig, PgdState, constraint_deviation, run_pgd, write_trace_csv
from .randomizer import draw_slot_phases, stream_seed
from .stack import SimStack, StackDescription, build_stack, radiated_power_ratio, slot_response
from .target import generate_target

__all__ = [
    "ExperimentKind",
    "SweepAxes",
    "ExperimentConfig",
    "ResultRecord",
    "run_experiment",
    "synthesize",
    "summarize",
    "write_csv",
    "write_summary_json",
    "PRESETS",
    "apply_scale",
    "with_overrides",
    "config_from_dict",
    "config_to_dict",
]

logger = logging.getLogger(__name__)


class ExperimentKind(str, Enum):
    SYNTH_CONVERGENCE = "synth_convergence"
    SUMRATE_VS_USERS = "sumrate_vs_users"
    FAIRNESS_VS_USERS = "fairness_vs_users"
    CUSTOM = "custom"

    @property
    def downlink(self) -> bool:
        """Whether the kind serves users: every kind but synthesis."""
        return self is not ExperimentKind.SYNTH_CONVERGENCE


@dataclass(frozen=True)
class SweepAxes:
    """Swept parameter values, each axis a list of integers; ``None`` axes are
    not swept. Values are checked on construction; no axis repeats a value.

    inner_counts: total cells of the inner layers (must be perfect squares).
    pc_layer_counts: number of phase-controlled layers.
    user_counts: users in the cell.
    slot_counts: time slots per coherence interval.
    """

    inner_counts: tuple[int, ...] | None = None
    pc_layer_counts: tuple[int, ...] | None = None
    user_counts: tuple[int, ...] | None = None
    slot_counts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if not isinstance(value, (list, tuple)) or not all(type(v) is int for v in value):
                raise ConfigurationError(f"sweep axis {f.name} must be a list of integers, got {value!r}")
            object.__setattr__(self, f.name, tuple(value))
            if repeated := [v for i, v in enumerate(value) if v in value[:i]]:
                raise ConfigurationError(f"sweep axis {f.name} repeats {repeated[0]}")
        for cells in self.inner_counts or ():
            if cells < 0 or math.isqrt(cells) ** 2 != cells:
                raise ConfigurationError(f"swept layer sizes must be perfect squares, got {cells}")

    def axes(self) -> list[tuple[str, tuple[int, ...]]]:
        names = {
            "inner_counts": "inner_cells",
            "pc_layer_counts": "pc_layers",
            "user_counts": "users",
            "slot_counts": "slots",
        }
        return [(names[f.name], getattr(self, f.name)) for f in fields(self) if getattr(self, f.name) is not None]

    def to_dict(self) -> dict:
        return {f.name: (list(v) if (v := getattr(self, f.name)) is not None else None) for f in fields(self)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment. A synthesis kind never reads ``scenario``, so its config
    may omit it; a downlink kind's config must give one."""

    kind: ExperimentKind
    stack: StackDescription
    sweep: SweepAxes
    scenario: DownlinkScenario = DownlinkScenario(user_count=1)
    trial_count: int = 1
    master_seed: int = 0
    eta_feedback: float = 1.0
    pgd: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    sweep: tuple[tuple[str, int], ...]
    metric: str
    value: float
    seed: int
    elapsed_s: float


def config_to_dict(config: ExperimentConfig) -> dict:
    return {
        "kind": config.kind.value,
        "stack": config.stack.to_dict(),
        "scenario": dataclasses.asdict(config.scenario),
        "sweep": config.sweep.to_dict(),
        "trial_count": config.trial_count,
        "master_seed": config.master_seed,
        "eta_feedback": config.eta_feedback,
        "pgd": dict(config.pgd),
    }


def config_from_dict(data: dict) -> ExperimentConfig:
    """The config of a JSON object; :class:`ExperimentConfig` supplies the defaults."""
    data = read_object("config", data, ExperimentConfig)
    data["kind"] = ExperimentKind(data["kind"])
    data["stack"] = StackDescription(**read_object("stack", data["stack"], StackDescription))
    if "scenario" in data:
        data["scenario"] = DownlinkScenario(**read_object("scenario", data["scenario"], DownlinkScenario))
    elif data["kind"].downlink:
        raise ConfigurationError("missing config fields: scenario")
    data["sweep"] = SweepAxes(**read_object("sweep", data["sweep"], SweepAxes))
    if "pgd" in data:
        data["pgd"] = check_pgd_block(data["pgd"])
    return ExperimentConfig(**data)


def check_pgd_block(block: dict) -> dict:
    """Checked copy of a config's ``pgd`` block: :class:`PgdConfig` fields except
    the derived ``seed``, with values :class:`PgdConfig` accepts; a bad value is
    reported as "pgd: ..."."""
    block = read_object("pgd", block, PgdConfig)
    if "seed" in block:
        raise ConfigurationError("pgd seed cannot be set: it is derived from master_seed")
    try:
        PgdConfig(**block)
    except ValueError as exc:
        raise ConfigurationError(f"pgd: {exc}") from exc
    return block


# -- sweep points --------------------------------------------------------------


def sweep_points(config: ExperimentConfig) -> list[tuple[tuple, StackDescription, DownlinkScenario]]:
    """Every sweep point resolved once, in ``itertools.product`` order of the
    swept axes: its ``(axis, value)`` items, stack description and scenario.
    Without swept axes the one point is ``((), config.stack, config.scenario)``.
    """
    axes = config.sweep.axes()
    points = []
    for combo in itertools.product(*(values for _, values in axes)):
        point = dict(zip((name for name, _ in axes), combo))
        stack_fields, scenario_fields = {}, {}
        if "inner_cells" in point:
            side = math.isqrt(point["inner_cells"])
            stack_fields["inner_shape"] = (side, side)
        if "pc_layers" in point:
            stack_fields["pc_layers"] = point["pc_layers"]
        if "users" in point:
            scenario_fields["user_count"] = point["users"]
        if "slots" in point:
            stack_fields["slot_count"] = scenario_fields["slot_count"] = point["slots"]
        desc = dataclasses.replace(config.stack, **stack_fields)
        points.append((tuple(point.items()), desc, dataclasses.replace(config.scenario, **scenario_fields)))
    return points


def validate_config(config: ExperimentConfig) -> list[str]:
    """Every problem of ``config``, each sweep point checked as it will run.

    A problem of the unswept config that every point shares is reported once,
    as for a config without sweep axes; any other once per point that has it.
    """
    problems = []
    if config.trial_count < 1:
        problems.append("trial_count must be at least 1")
    if not config.eta_feedback > 0:
        problems.append("eta_feedback must be positive")
    for name, values in config.sweep.axes():
        if len(values) == 0:
            problems.append(f"swept axis {name} must be non-empty")
    downlink = config.kind.downlink
    if not downlink:
        for name in ("user_counts", "slot_counts"):
            if getattr(config.sweep, name) is not None:
                problems.append(f"sweep axis {name} is not used by {config.kind.value} experiments")

    def point_problems(desc: StackDescription, scenario: DownlinkScenario) -> list[str]:
        found = desc.validate()
        if downlink:
            found += [f"scenario: {problem}" for problem in scenario.validate()]
            if scenario.slot_count != desc.slot_count:
                found.append(
                    f"scenario slot_count ({scenario.slot_count}) must match the stack's slot_count ({desc.slot_count})"
                )
            if desc.alpha_pc == 0:
                found.append("alpha_pc must be positive in a downlink experiment: the stack would radiate no power")
        return found

    points = sweep_points(config)
    found_at: dict[str, list[tuple]] = {}
    for items, desc, scenario in points:
        for problem in point_problems(desc, scenario):
            found_at.setdefault(problem, []).append(items)
    unswept = point_problems(config.stack, config.scenario)
    for problem, at in found_at.items():
        shared = problem in unswept and len(at) == len(points)
        problems += [problem] if shared else [f"{dict(items)}: {problem}" for items in at]
    if downlink:
        n_stack = config.stack.upa_shape[0] * config.stack.upa_shape[1]
        if config.scenario.streams != n_stack:
            problems.append(
                f"scenario streams ({config.scenario.streams}) must match the stack's antenna count ({n_stack})"
            )
    try:
        check_pgd_block(config.pgd)
    except ConfigurationError as exc:
        problems.append(str(exc))
    return problems


def _check_config(config: ExperimentConfig) -> None:
    """Raise a :class:`ValidationError` listing every problem of ``config``."""
    problems = validate_config(config)
    if problems:
        raise ValidationError("invalid experiment config:\n- " + "\n- ".join(problems))


def _warn_training_budget(config: ExperimentConfig) -> None:
    if not config.kind.downlink:
        return
    v = config.stack.output_shape[0] * config.stack.output_shape[1]
    n = config.scenario.streams
    for m in dict.fromkeys(scenario.slot_count for _, _, scenario in sweep_points(config)):
        if not overhead(n, m, 1, v).within_training_budget:
            warnings.warn(
                f"slot count {m} exceeds the training-overhead budget ({v}/{n}); "
                "partial-feedback training is no longer cheaper than full acquisition",
                stacklevel=3,
            )


# -- the runner ------------------------------------------------------------------


# Stack fields that became constants, at their fixed values: kept in the key so that no seed moved.
_FIXED_STACK_FIELDS = {
    "frequency_hz": 28e9, "element_spacing_wl": 0.5, "layer_separation_wl": 0.5, "feed_separation_wl": 0.5,
    "feed_element_area_wl2": None, "meta_element_area_wl2": None, "beta": 1.0, "terminal_kind": "pc",
    "alpha_min_db": -22.0, "alpha_max_db": 13.0, "ac_phase_seed": None,
}


def _synth_key(desc: StackDescription) -> str:
    """Stack identity for seed derivation; slot count does not affect synthesis."""
    return json.dumps({**desc.to_dict(), **_FIXED_STACK_FIELDS, "slot_count": 1}, sort_keys=True)


def synthesize(stack: SimStack, pgd_overrides: dict, master_seed: int, trial: int) -> PgdState:
    """Synthesize ``stack`` toward the trial's random target; the one synthesis
    entry point of experiments.

    The target and the optimizer's initial phases come from the "target" and
    "pgd-init" substreams of ``master_seed``, keyed by the trial and the stack
    description (minus the slot count), so equal inputs give equal results.
    ``pgd_overrides`` is a checked ``pgd`` block (see :func:`check_pgd_block`).
    """
    key = _synth_key(stack.description)
    target = generate_target(
        stack.input_size,
        stack.output_size,
        stack.beta,
        stack.w1_frobenius,
        stream_seed(master_seed, "target", trial, key),
    )
    pgd_config = PgdConfig(**pgd_overrides, seed=stream_seed(master_seed, "pgd-init", trial, key))
    return run_pgd(stack, target, pgd_config)


def run_experiment(config: ExperimentConfig, trace_dir: str | Path | None = None) -> list[ResultRecord]:
    """Run every (sweep point, trial) of :func:`sweep_points`, returning one
    record per metric, point by point.

    The config is validated first, point by point as it will run. A synthesis
    group, a run of consecutive points whose stacks differ at most in the slot
    count, builds one stack once the previous group's is released. Each trial
    synthesizes into it once, at the first point (or the next, if that fails),
    whose ``elapsed_s`` includes the synthesis, and serves the group's points
    from it. A downlink experiment draws one user pool per trial up front, at
    the largest swept user count; each point serves its first ``user_count`` users.

    Each trial runs with numpy's divide, overflow and invalid-operation
    errors raised. A trial that raises a numeric error, or whose metrics are
    not all finite, is recorded as a ``trial_failed`` metric for that
    (point, trial) with a logged warning, and the run continues. For
    synthesis experiments, each synthesis's per-iteration optimizer trace is
    written to ``trace_dir`` when given.
    """
    _check_config(config)
    _warn_training_budget(config)

    experiment = config.kind.value
    downlink = config.kind.downlink
    points = sweep_points(config)
    # No sweep axis changes the output layer, so one pool per trial serves every point.
    pool_scenario = dataclasses.replace(config.scenario, user_count=max(s.user_count for _, _, s in points))
    output_size = math.prod(config.stack.output_shape)
    pools = [
        drop_users(
            pool_scenario,
            stream_seed(config.master_seed, "user-drop", trial),
            stream_seed(config.master_seed, "channels", trial, output_size),
            output_size,
        )
        for trial in range(config.trial_count if downlink else 0)
    ]

    # Each point's records, every trial of a point before the next point.
    records: dict[tuple, list[ResultRecord]] = {sweep_items: [] for sweep_items, _, _ in points}

    # Points sharing a synthesis are consecutive: sweep_points puts the stack axes first.
    for synth_key, group in itertools.groupby(points, key=lambda point: _synth_key(point[1])):
        group = list(group)
        stack = None  # release the previous group's stack before building this one
        stack = build_stack(group[0][1])

        for trial in range(config.trial_count):
            trial_seed = stream_seed(config.master_seed, "trial", trial)
            state = None  # synthesized at the trial's first point, or at the next one if that failed
            for sweep_items, _, scenario in group:
                started = time.perf_counter()
                metrics: dict[str, float] = {}
                try:
                    with np.errstate(divide="raise", over="raise", invalid="raise"):
                        if state is None:
                            state = synthesize(stack, config.pgd, config.master_seed, trial)
                            if trace_dir is not None and not downlink:
                                tag = "_".join(f"{k}{v}" for k, v in sweep_items) or "base"
                                write_trace_csv(state, Path(trace_dir) / f"trace_{tag}_trial{trial}.csv")
                        metrics["objective_db"] = state.final_objective_db
                        metrics["pgd_iterations"] = float(state.iteration)
                        metrics["pgd_converged"] = 1.0 if state.converged else 0.0
                        metrics["power_constraint_deviation"] = constraint_deviation(stack)

                        if downlink:
                            users = pools[trial][: scenario.user_count]
                            metrics.update(_downlink_metrics(config, stack, scenario, trial, synth_key, users))
                    not_finite = [name for name, value in metrics.items() if not math.isfinite(value)]
                    if not_finite:
                        raise FloatingPointError(f"non-finite {', '.join(not_finite)}")
                except (ArithmeticError, np.linalg.LinAlgError) as exc:
                    logger.warning("trial %d at %s failed: %s", trial, dict(sweep_items) or "base point", exc)
                    metrics = {"trial_failed": 1.0}
                elapsed = time.perf_counter() - started
                for metric, value in metrics.items():
                    records[sweep_items].append(
                        ResultRecord(
                            experiment=experiment,
                            sweep=sweep_items,
                            metric=metric,
                            value=float(value),
                            seed=trial_seed,
                            elapsed_s=elapsed,
                        )
                    )
    return [record for point_records in records.values() for record in point_records]


def _downlink_metrics(
    config: ExperimentConfig, stack: SimStack, scenario: DownlinkScenario, trial: int, synth_key: str, users: Users
) -> dict[str, float]:
    slots = scenario.slot_count
    seed = stream_seed(config.master_seed, "st-phases", trial, slots, synth_key)
    phases = draw_slot_phases(slots, stack.input_size, seed)
    results = [
        schedule_slot(effective_channels(users, slot_response(stack, row)), NOISE_OVER_ENERGY) for row in phases
    ]
    ratio = radiated_power_ratio(stack)
    if not math.isfinite(ratio):  # a numeric failure, not a bad power budget for the baseline
        raise FloatingPointError(f"radiated_power_ratio is {ratio}")
    # Channels are block-constant: one baseline result serves every slot.
    schemes = {"": results, "_baseline": [baseline_mimo(users, scenario.streams, NOISE_OVER_ENERGY, ratio)] * slots}
    # Every scheme's sum rate, then its fairness: summary.json rows follow this order.
    metrics = {f"ta_sum_rate{suffix}": ta_sum_rate(slot_results) for suffix, slot_results in schemes.items()}
    for suffix, slot_results in schemes.items():
        per_slot, coherence = fairness_index(per_user_rate_matrix(slot_results, len(users)))
        metrics[f"fairness_per_slot{suffix}"] = per_slot
        metrics[f"fairness_coherence{suffix}"] = coherence
    counts = overhead(scenario.streams, slots, len(users), stack.output_size, config.eta_feedback)
    return {
        **metrics,
        "radiated_power_ratio": ratio,
        "overhead_train_partial": float(counts.train_partial),
        "overhead_train_full": float(counts.train_full),
        "overhead_feedback_partial": float(counts.feedback_partial),
        "overhead_feedback_full": float(counts.feedback_full),
        "training_budget_ok": 1.0 if counts.within_training_budget else 0.0,
    }


# -- summaries and output files ----------------------------------------------------


def _nearest_rank(sorted_values: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(records: list[ResultRecord]) -> list[dict]:
    """Per (sweep point, metric): count, median, mean, and nearest-rank 10th/90th
    percentiles across trials. Sweep points where every trial failed are kept
    as flagged rows with count 0."""
    groups: dict[tuple[tuple, str], list[float]] = {}
    point_has_success: dict[tuple, bool] = {}
    for record in records:
        point_has_success.setdefault(record.sweep, False)
        if record.metric == "trial_failed":
            continue
        groups.setdefault((record.sweep, record.metric), []).append(record.value)
        point_has_success[record.sweep] = True

    rows = []
    for (sweep, metric), values in groups.items():
        ordered = sorted(values)
        rows.append(
            {
                **dict(sweep),
                "metric": metric,
                "count": len(values),
                "median": float(np.median(ordered)),
                "mean": float(np.mean(ordered)),
                "p10": _nearest_rank(ordered, 10.0),
                "p90": _nearest_rank(ordered, 90.0),
            }
        )
    for sweep, ok in point_has_success.items():
        if not ok:
            rows.append({**dict(sweep), "metric": "all", "count": 0, "flagged": True})
    return rows


def write_csv(records: list[ResultRecord], path: str | Path) -> None:
    """Result records as CSV: experiment, sweep columns, metric, value, seed, elapsed_s."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = [k for k, _ in records[0].sweep] if records else []
    lines = [",".join(["experiment", *keys, "metric", "value", "seed", "elapsed_s"])]
    for record in records:
        values = dict(record.sweep)
        row = [record.experiment, *(str(values[k]) for k in keys)]
        row += [record.metric, repr(record.value), str(record.seed), repr(record.elapsed_s)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def write_summary_json(records: list[ResultRecord], config: ExperimentConfig, path: str | Path) -> None:
    """Summary table plus the fully resolved config, for provenance."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"config": config_to_dict(config), "summary": summarize(records)}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# -- presets ------------------------------------------------------------------------

# The paper's four experiments at full size; commands apply their flags with
# :func:`with_overrides`. fig4 is fig3 with another sweep, fig6 fig5 with another kind and sweep.
PRESETS: dict[str, ExperimentConfig] = {
    "fig3": ExperimentConfig(
        kind=ExperimentKind.SYNTH_CONVERGENCE,
        stack=StackDescription(
            input_shape=(3, 3), inner_shape=(8, 8), output_shape=(5, 5), ac_layers=4, pc_layers=8, slot_count=1
        ),
        sweep=SweepAxes(inner_counts=(25, 36, 49, 64), pc_layer_counts=tuple(range(4, 15))),
        trial_count=5,
    ),
    # The optimizer is capped at 300 iterations, which trades fit depth for run
    # time. The downlink metrics do move with the fit: on a Q=144 stack over 12
    # trials, the sum rate at 10 users rose 33% from 30 to 300 iterations.
    "fig5": ExperimentConfig(
        kind=ExperimentKind.SUMRATE_VS_USERS,
        stack=StackDescription(
            input_shape=(10, 10), inner_shape=(24, 24), output_shape=(3, 3), ac_layers=2, pc_layers=6, slot_count=2
        ),
        scenario=DownlinkScenario(user_count=500, slot_count=2, streams=4),
        sweep=SweepAxes(user_counts=(10, 50, 100, 200, 350, 500)),
        trial_count=100,
        pgd={"max_iterations": 300},
    ),
}
PRESETS["fig4"] = dataclasses.replace(PRESETS["fig3"], sweep=SweepAxes(inner_counts=(25, 36, 49, 64)))
PRESETS["fig6"] = dataclasses.replace(
    PRESETS["fig5"],
    kind=ExperimentKind.FAIRNESS_VS_USERS,
    sweep=dataclasses.replace(PRESETS["fig5"].sweep, slot_counts=(1, 2, 3)),
)


def with_overrides(
    config: ExperimentConfig,
    seed: int | None = None,
    trials: int | None = None,
    scale: float | None = None,
    eta: float | None = None,
) -> ExperimentConfig:
    """``config`` with the command-line overrides applied: master seed, trial
    count and path-loss exponent, then :func:`apply_scale`. ``None`` keeps the
    config's value."""
    link = {"pathloss_exponent": eta} if eta is not None else {}
    flags = {k: v for k, v in (("master_seed", seed), ("trial_count", trials)) if v is not None}
    config = dataclasses.replace(config, scenario=dataclasses.replace(config.scenario, **link), **flags)
    return config if scale is None else apply_scale(config, scale)


def _grown(shape: tuple[int, ...], full: tuple[int, ...], ok) -> tuple[int, ...]:
    """``shape`` with its shortest sides below ``full`` grown together, one cell
    at a time, until ``ok(shape)`` holds or ``shape`` is ``full``."""
    while not ok(shape) and shape != full:
        short = min(s for s, f in zip(shape, full) if s < f)
        shape = tuple(s + 1 if s == short and s < f else s for s, f in zip(shape, full))
    return shape


def apply_scale(config: ExperimentConfig, factor: float) -> ExperimentConfig:
    """Shrink layer sizes and user counts by ``factor`` for desk-scale runs.

    The config is validated first (a :class:`ValidationError` lists its problems),
    as scaling would hide an invalid size or user count. Each layer side shrinks
    to ceil(side * sqrt(factor)); then the layer's shortest sides grow together
    until it meets the rule the unscaled config obeys, or is unscaled again: a
    cell per antenna in a boundary layer, training within budget at the largest
    slot count in a downlink output layer (see :func:`overhead`), and an inner
    layer, swept or not, at least as large as each scaled boundary layer. So no
    side grows past its unscaled length. Only downward scaling is supported.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"scale must lie in (0, 1], got {factor}")
    _check_config(config)
    if factor == 1.0:
        return config
    stack, sweep, streams = config.stack, config.sweep, config.scenario.streams
    antennas = math.prod(stack.upa_shape)
    slots = max(scenario.slot_count for _, _, scenario in sweep_points(config))

    def scaled(full: tuple[int, ...], ok) -> tuple[int, ...]:
        return _grown(tuple(math.ceil(s * math.sqrt(factor)) for s in full), full, ok)

    def trains(shape: tuple[int, ...]) -> bool:
        return not config.kind.downlink or overhead(streams, slots, 1, math.prod(shape)).within_training_budget

    input_shape = scaled(stack.input_shape, lambda shape: math.prod(shape) >= antennas)
    output_shape = scaled(stack.output_shape, lambda shape: math.prod(shape) >= antennas and trains(shape))
    boundary_cells = max(math.prod(input_shape), math.prod(output_shape))
    fulls = [stack.inner_shape, *((math.isqrt(q),) * 2 for q in sweep.inner_counts or ())]
    inner_shape, *swept = [scaled(full, lambda shape: math.prod(shape) >= boundary_cells) for full in fulls]
    stack = dataclasses.replace(stack, input_shape=input_shape, inner_shape=inner_shape, output_shape=output_shape)
    if sweep.inner_counts is not None:
        sweep = dataclasses.replace(sweep, inner_counts=tuple(dict.fromkeys(math.prod(s) for s in swept)))
    if sweep.user_counts is not None:
        users = tuple(dict.fromkeys(max(streams, round(u * factor)) for u in sweep.user_counts))
        sweep = dataclasses.replace(sweep, user_counts=users)
    scenario = dataclasses.replace(config.scenario, user_count=max(streams, round(config.scenario.user_count * factor)))
    return dataclasses.replace(config, stack=stack, sweep=sweep, scenario=scenario)
