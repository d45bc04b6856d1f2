"""Quantities the benchmark derives from what run_pgd returns and reports."""

import math
import types

import numpy as np
import pytest

from stacksim import pgd
from stacksim.stack import StackDescription, build_stack
from stacksim.target import generate_target
from tracing import SynthRun, linesearch_evaluations


def small_stack():
    return build_stack(
        StackDescription(
            input_shape=(2, 2),
            inner_shape=(3, 3),
            output_shape=(2, 2),
            ac_layers=1,
            pc_layers=2,
            upa_shape=(1, 1),
            slot_count=1,
        )
    )


@pytest.mark.parametrize(
    ("overrides", "freezes"),
    [
        ({}, False),
        ({"backtracking_contraction": 0.3, "step_growth": 2.5}, False),
        # Few backtracks from long steps: some visits freeze, others accept.
        ({"initial_step": 10.0, "max_backtracks": 3}, True),
    ],
)
def test_derived_count_matches_counting_wrapper(monkeypatch, overrides, freezes):
    calls = []
    original = pgd._layer_objective

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(pgd, "_layer_objective", counting)
    stack = small_stack()
    target = generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 11)
    config = pgd.PgdConfig(max_iterations=40, seed=3, **overrides)
    state = pgd.run_pgd(stack, target, config)

    visits = state.accepted_steps.size
    evaluations, accepted = linesearch_evaluations(state.accepted_steps, config)
    # run_pgd evaluates the layer objective once per visit for the Armijo base,
    # then once per line-search candidate.
    assert evaluations == len(calls) - visits
    assert accepted == visits - state.frozen_events
    assert (state.frozen_events > 0) == freezes
    assert accepted > 0


def test_empty_log():
    assert linesearch_evaluations(np.empty((0, 3)), pgd.PgdConfig()) == (0, 0)


def test_level_crossing_is_interpolated_in_db():
    run = SynthRun(start=10.0, norm_sq=1.0, iteration_times=[11.0, 12.0, 15.0], objectives=[0.5, 0.1, 0.05])
    run.state = types.SimpleNamespace(objective_trace=np.array([1.0, 0.5, 0.1, 0.05]))
    # -3.01 dB after one iteration, -10 dB after two: -6.5 dB lies halfway in dB.
    halfway = 10.0 * math.log10(0.5) / 2 + -10.0 / 2
    assert run.crossing_iteration(halfway) == pytest.approx(1.5)
    assert run.crossing_iteration(-10.0) == pytest.approx(2.0)
    assert run.crossing_iteration(0.0) == 0.0
    assert run.crossing_iteration(-20.0) is None
    # Iterations took 1, 1 and 3 s; the median, 1 s, prices each iteration.
    assert run.seconds_to(halfway) == pytest.approx(1.5)
    assert run.seconds_to(-20.0) is None
