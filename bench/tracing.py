"""What the benchmark records around the program, and the metrics it derives.

``PgdWatch`` wraps ``run_pgd`` in both modes: it hands ``run_pgd`` a monitor
that timestamps every iteration (for ``synth_to_target_s`` and the iteration
percentiles) and checks the amplitude bounds as acceptance criterion 2 does.
``HOOKS`` lists the public functions the traced run wraps, each at the module
attribute its caller looks up, with the span name it records under.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from spans import Span, SpanRecorder, children, covered_time, self_time


@dataclass
class SynthRun:
    """One ``run_pgd`` call as seen from outside."""

    start: float
    norm_sq: float
    iteration_times: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    bound_violations: int = 0
    end: float = float("nan")
    state: object = None
    config: object = None
    layer_count: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def iteration_durations(self) -> list[float]:
        times = [self.start, *self.iteration_times]
        return [b - a for a, b in zip(times, times[1:])]

    def crossing_iteration(self, level_db: float) -> float | None:
        """Iterations until the objective first reaches ``level_db``.

        Interpolated linearly in dB between the two iterations around the
        crossing, so a trajectory that crosses just before or just after an
        iteration boundary does not jump by a whole iteration.
        """
        values = [float(self.state.objective_trace[0]), *self.objectives]
        levels = [10.0 * math.log10(v / self.norm_sq) if v > 0 else -math.inf for v in values]
        if levels[0] <= level_db:
            return 0.0
        for k in range(1, len(levels)):
            if levels[k] <= level_db:
                return k - 1 + (levels[k - 1] - level_db) / (levels[k - 1] - levels[k])
        return None

    def seconds_to(self, level_db: float) -> float | None:
        """PGD seconds to ``level_db``: iterations to the crossing times the
        median iteration time of this synthesis.

        The median over the whole synthesis keeps a host stall during the few
        iterations before the crossing from reading as slower convergence.
        """
        crossing = self.crossing_iteration(level_db)
        if crossing is None:
            return None
        return crossing * statistics.median(self.iteration_durations())


def linesearch_evaluations(accepted_steps: np.ndarray, config) -> tuple[int, int]:
    """(candidate evaluations, accepted steps) of one PGD run, from its step log.

    Each layer visit starts its search at ``step_growth`` times the layer's
    last accepted step (``initial_step / step_growth`` before the first) and
    contracts by ``backtracking_contraction`` per rejected candidate, so an
    accepted step ``s`` took ``log(s / start) / log(contraction) + 1``
    evaluations. A frozen visit (NaN) used ``max_backtracks + 1`` and leaves
    the last step unchanged.
    """
    steps = np.asarray(accepted_steps, dtype=float)
    if steps.size == 0:
        return 0, 0
    log_c = math.log(config.backtracking_contraction)
    last = np.full(steps.shape[1], config.initial_step / config.step_growth)
    evaluations = accepted = 0
    for row in steps:
        for pos, step in enumerate(row):
            if math.isnan(step):
                evaluations += config.max_backtracks + 1
                continue
            start = last[pos] * config.step_growth
            evaluations += round(math.log(step / start) / log_c) + 1
            accepted += 1
            last[pos] = step
    return evaluations, accepted


class PgdWatch:
    """Wraps ``run_pgd`` to time iterations and check feasibility per iteration."""

    def __init__(self, pgd_module, level_db: float) -> None:
        self.pgd_module = pgd_module
        self.level_db = level_db
        self.runs: list[SynthRun] = []

    def wrap(self, run_pgd):
        @functools.wraps(run_pgd)
        def watched(stack, target, config=None, monitor=None):
            config = config or self.pgd_module.PgdConfig()
            amin, amax = config.bounds_for(stack)
            amplitude_layers = [layer for layer in stack.space_layers if stack.kind_of(layer).amplitude_tunable]
            run = SynthRun(start=0.0, norm_sq=target.norm_sq)
            self.runs.append(run)

            def watch(iteration, objective, amplitudes):
                now = time.perf_counter()
                run.iteration_times.append(now)
                run.objectives.append(objective)
                for layer in amplitude_layers:
                    amp = amplitudes[layer]
                    if amp.min() < amin - 1e-15 or amp.max() > amax + 1e-15:
                        run.bound_violations += 1
                if monitor is not None:
                    monitor(iteration, objective, amplitudes)

            run.start = time.perf_counter()
            state = run_pgd(stack, target, config, monitor=watch)
            run.end = time.perf_counter()
            run.state, run.config, run.layer_count = state, config, len(stack.kinds)
            return state

        return watched

    def failures(self) -> list[str]:
        problems = []
        for index, run in enumerate(self.runs):
            trace = np.asarray(run.state.objective_trace)
            if np.any(np.diff(trace) > 0.0):
                problems.append(f"synthesis {index}: objective trace not monotone")
            if run.bound_violations:
                problems.append(f"synthesis {index}: {run.bound_violations} amplitude bound violations")
            if run.crossing_iteration(self.level_db) is None:
                problems.append(f"synthesis {index}: never reached {self.level_db} dB")
        return problems

    def time_to_target(self) -> float:
        """PGD seconds to the stated level, summed; a run that never reached it counts whole."""
        reached = [run.seconds_to(self.level_db) for run in self.runs]
        return sum(run.duration if r is None else r for run, r in zip(self.runs, reached))

    def final_objectives_db(self) -> list[float]:
        return [float(run.state.final_objective_db) for run in self.runs]


def install_pgd_watch(watch: PgdWatch, patches) -> None:
    """Wrap every module attribute of the package that refers to ``run_pgd``."""
    original = watch.pgd_module.run_pgd
    wrapped = watch.wrap(original)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stacksim" and getattr(module, "run_pgd", None) is original:
            patches.set(module, "run_pgd", wrapped)


def _count_result(attrs, args, kwargs, result):
    attrs["count"] = len(result)


def _count_entries(attrs, args, kwargs, result):
    attrs["count"] = int(np.asarray(result).size)


def _count_sinr(attrs, args, kwargs, result):
    effective = np.atleast_2d(np.asarray(args[0] if args else kwargs["effective"]))
    attrs["count"] = int(effective.shape[0] * effective.shape[1])


def _stack_key(attrs, args, kwargs, result):
    # The slot count sizes only the per-slot input code, which build_stack does
    # not compute, so builds that differ only in it are identical.
    desc = (args[0] if args else kwargs["description"]).to_dict()
    desc.pop("slot_count", None)
    attrs["key"] = json.dumps(desc, sort_keys=True)


def _experiment_records(attrs, args, kwargs, result):
    attrs["records"] = len(result)
    attrs["trials"] = len({(r.sweep, r.seed) for r in result})
    attrs["failed"] = sum(r.metric == "trial_failed" for r in result)


# (module, attribute, span name, annotate)
HOOKS = [
    ("harness", "run_experiment", "harness.run_experiment", _experiment_records),
    ("harness", "summarize", "harness.summarize", None),
    ("harness", "write_csv", "harness.write_csv", None),
    ("harness", "write_summary_json", "harness.write_summary_json", None),
    ("harness", "build_stack", "stack.build_stack", _stack_key),
    ("stack", "build_propagation_matrix", "propagation.build_propagation_matrix", _count_entries),
    ("stack", "compose_space_block", "stack.compose_space_block", None),
    ("pgd", "compose_space_block", "stack.compose_space_block", None),
    ("harness", "slot_response", "stack.slot_response", None),
    ("harness", "generate_target", "target.generate_target", None),
    ("harness", "run_pgd", "pgd.run_pgd", None),
    ("harness", "constraint_deviation", "pgd.constraint_deviation", None),
    ("harness", "draw_slot_phases", "randomizer.draw_slot_phases", None),
    ("harness", "stream_seed", "randomizer.stream_seed", None),
    ("harness", "drop_users", "downlink.drop_users", _count_result),
    ("harness", "effective_channels", "downlink.effective_channels", None),
    ("harness", "schedule_slot", "downlink.schedule_slot", _count_sinr),
    ("harness", "baseline_mimo", "downlink.baseline_mimo", None),
    ("harness", "per_user_rate_matrix", "downlink.per_user_rate_matrix", None),
    ("harness", "fairness_index", "downlink.fairness_index", None),
    ("harness", "ta_sum_rate", "downlink.ta_sum_rate", None),
    ("harness", "overhead", "downlink.overhead", None),
]

WRITE_SPANS = ("harness.summarize", "harness.write_csv", "harness.write_summary_json")
METRIC_SPANS = (
    "downlink.per_user_rate_matrix",
    "downlink.fairness_index",
    "downlink.ta_sum_rate",
    "downlink.overhead",
)


def install_hooks(recorder: SpanRecorder, modules: dict, patches) -> list[str]:
    """Wrap every hook; returns the hooks whose attribute no longer exists."""
    missing = []
    for module_name, attr, span_name, annotate in HOOKS:
        module = modules[module_name]
        if not hasattr(module, attr):
            missing.append(f"{module_name}.{attr}")
            continue
        patches.set(module, attr, recorder.wrap(getattr(module, attr), span_name, annotate))
    return missing


def _nearest_rank(values: list[float], percentile: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(percentile / 100.0 * len(ordered))) - 1]


def layer_metrics(spans: list[Span], main_index: int, runs: list[SynthRun]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced invocation whose top span is ``main_index``."""
    kids = children(spans)
    wall = spans[main_index].duration

    def named(name):
        return [s for s in spans if s.name == name]

    def busy(*names):
        return covered_time(spans, names)

    def calls(name):
        return float(len(named(name)))

    def count_attr(name, key="count"):
        return float(sum(s.attrs.get(key, 0) for s in named(name)))

    experiments = [i for i, s in enumerate(spans) if s.name == "harness.run_experiment"]
    run_s = busy("harness.run_experiment")
    trials = count_attr("harness.run_experiment", "trials")
    write_s = busy(*WRITE_SPANS)

    iterations = sum(run.state.iteration for run in runs)
    visits = sum(run.state.iteration * run.layer_count for run in runs)
    iteration_ms = [d * 1e3 for run in runs for d in run.iteration_durations()]
    evaluations = accepted = 0
    for run in runs:
        e, a = linesearch_evaluations(run.state.accepted_steps, run.config)
        evaluations += e
        accepted += a
    hit_cap = sum(
        1 for run in runs if run.state.iteration >= run.config.max_iterations and not run.state.converged
    )
    pgd_s = busy("pgd.run_pgd")
    downlink_names = sorted({s.name for s in spans if s.name.startswith("downlink.")})

    return {
        "propagation.build_s": (busy("propagation.build_propagation_matrix"), "s"),
        "propagation.calls": (calls("propagation.build_propagation_matrix"), "count"),
        "propagation.entries": (count_attr("propagation.build_propagation_matrix"), "count"),
        "stack.build_s": (busy("stack.build_stack"), "s"),
        "stack.build_calls": (calls("stack.build_stack"), "count"),
        "stack.distinct_builds": (float(len({s.attrs.get("key") for s in named("stack.build_stack")})), "count"),
        "stack.compose_s": (busy("stack.compose_space_block"), "s"),
        "stack.compose_calls": (calls("stack.compose_space_block"), "count"),
        "stack.slot_response_s": (busy("stack.slot_response"), "s"),
        "stack.slot_response_calls": (calls("stack.slot_response"), "count"),
        "target.generate_s": (busy("target.generate_target"), "s"),
        "target.calls": (calls("target.generate_target"), "count"),
        "pgd.run_s": (pgd_s, "s"),
        "pgd.calls": (float(len(runs)), "count"),
        "pgd.iterations": (float(iterations), "count"),
        "pgd.hit_cap": (float(hit_cap), "count"),
        "pgd.frozen_events": (float(sum(run.state.frozen_events for run in runs)), "count"),
        "pgd.iter_ms_p50": (_nearest_rank(iteration_ms, 50.0), "ms"),
        "pgd.iter_ms_p90": (_nearest_rank(iteration_ms, 90.0), "ms"),
        "pgd.ms_per_layer_visit": (pgd_s * 1e3 / visits if visits else 0.0, "ms"),
        "pgd.linesearch_evals": (float(evaluations), "count"),
        "pgd.linesearch_accept_ratio": (accepted / evaluations if evaluations else 0.0, "ratio"),
        "pgd.constraint_s": (busy("pgd.constraint_deviation"), "s"),
        "pgd.wall_share": (pgd_s / wall, "ratio"),
        "randomizer.phases_s": (busy("randomizer.draw_slot_phases"), "s"),
        "randomizer.stream_seed_calls": (calls("randomizer.stream_seed"), "count"),
        "downlink.drop_s": (busy("downlink.drop_users"), "s"),
        "downlink.users_dropped": (count_attr("downlink.drop_users"), "count"),
        "downlink.effective_s": (busy("downlink.effective_channels"), "s"),
        "downlink.schedule_s": (busy("downlink.schedule_slot"), "s"),
        "downlink.schedule_calls": (calls("downlink.schedule_slot"), "count"),
        "downlink.sinr_evals": (count_attr("downlink.schedule_slot"), "count"),
        "downlink.baseline_s": (busy("downlink.baseline_mimo"), "s"),
        "downlink.baseline_calls": (calls("downlink.baseline_mimo"), "count"),
        "downlink.metrics_s": (busy(*METRIC_SPANS), "s"),
        "downlink.wall_share": (busy(*downlink_names) / wall if downlink_names else 0.0, "ratio"),
        "harness.run_s": (run_s, "s"),
        "harness.self_s": (sum(self_time(spans, i, kids) for i in experiments), "s"),
        "harness.trials": (trials, "count"),
        "harness.synth_cache_hit_ratio": (1.0 - len(runs) / trials if trials else 0.0, "ratio"),
        "harness.failed_trials": (count_attr("harness.run_experiment", "failed"), "count"),
        "harness.records": (count_attr("harness.run_experiment", "records"), "count"),
        "harness.write_s": (write_s, "s"),
        "cli.self_s": (wall - run_s - write_s, "s"),
        "trace.wall_s": (wall, "s"),
        "trace.spans": (float(len(spans)), "count"),
    }
