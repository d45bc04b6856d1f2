"""Acceptance gate: one test per release criterion, each printing a PASS line
with its measured values (run with ``pytest tests/test_acceptance.py -v -s``).

The expensive synthesis sweeps are shared through session fixtures; every
criterion still asserts its own runtime budget over the work it depends on.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

import stacksim as ss
from stacksim import harness
from conftest import exhaustive_schedule, finite_difference_gradient, small_stack

N_STREAMS = 4


def fig4_stack_description(inner_cells=64):
    side = math.isqrt(inner_cells)
    return ss.StackDescription(
        input_shape=(3, 3),
        inner_shape=(side, side),
        output_shape=(5, 5),
        ac_layers=4,
        pc_layers=8,
        upa_shape=(2, 2),
        alpha_pc=0.9,
        slot_count=1,
    )


@pytest.fixture(scope="session")
def synth_sweep():
    """Five-seed synthesis at L_pc=8 for every inner size of the layer sweep."""
    elapsed = {}
    final_db = {}
    for cells in (25, 36, 49, 64):
        started = time.perf_counter()
        values = []
        for trial in range(5):
            stack = ss.build_stack(fig4_stack_description(cells))
            target = ss.generate_target(
                stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius,
                ss.stream_seed(1000, "target", trial, cells),
            )
            state = ss.run_pgd(stack, target, ss.PgdConfig(seed=ss.stream_seed(1000, "pgd-init", trial, cells)))
            values.append(state.final_objective_db)
        elapsed[cells] = time.perf_counter() - started
        final_db[cells] = float(np.median(values))
    return final_db, elapsed


def test_criterion_1_gradient_matches_finite_differences():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    shapes = [(2, 2), (2, 3), (2, 4), (3, 2)]
    worst = 0.0
    for case in range(20):
        inner = shapes[case % len(shapes)]
        ac = int(rng.integers(0, 3))
        pc = int(rng.integers(1, 4 - min(ac, 2)))
        stack = small_stack(
            input_shape=(2, 1), inner_shape=inner, output_shape=(2, 1),
            ac_layers=ac, pc_layers=pc, seed=case,
        )
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 70 + case)
        for layer in stack.space_layers:
            analytic = ss.gradient(stack, target, layer)
            numeric = finite_difference_gradient(stack, target, layer, step=1e-6)
            scale = max(np.max(np.abs(numeric)), 1e-12)
            worst = max(worst, float(np.max(np.abs(analytic - numeric)) / scale))
    elapsed = time.perf_counter() - started
    assert worst < 1e-5
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 gradient-vs-finite-differences: PASS (worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_monotone_descent_and_feasibility():
    started = time.perf_counter()
    desc = fig4_stack_description(64)
    for seed in range(10):
        stack = ss.build_stack(desc)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 300 + seed)
        amin, amax = stack.alpha_bounds
        violations = []

        def watch(iteration, objective, amplitudes):
            for layer, amp in amplitudes.items():
                if stack.kind_of(layer).amplitude_tunable:
                    if np.any(amp < amin - 1e-15) or np.any(amp > amax + 1e-15):
                        violations.append((iteration, layer))

        state = ss.run_pgd(stack, target, ss.PgdConfig(seed=seed), monitor=watch)
        assert np.all(np.diff(state.objective_trace) <= 0.0), f"seed {seed}: trace not monotone"
        assert not violations, f"seed {seed}: amplitude bound violations {violations[:3]}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 2 monotone-descent-and-feasibility: PASS (10 seeds, {elapsed:.1f}s)")


def test_criterion_3_layer_sweep_quality(synth_sweep):
    final_db, elapsed = synth_sweep
    runtime = elapsed[25] + elapsed[64]
    assert final_db[64] <= -20.0, f"median at the largest inner size is {final_db[64]:.2f} dB"
    assert final_db[64] <= final_db[25] - 5.0, f"gap is {final_db[25] - final_db[64]:.2f} dB"
    assert runtime < 300.0
    print(
        f"\nACCEPTANCE 3 synthesis-quality: PASS (Q=64 median {final_db[64]:.1f} dB, "
        f"Q=25 median {final_db[25]:.1f} dB, {runtime:.1f}s)"
    )


def test_criterion_4_quality_improves_with_inner_size(synth_sweep):
    final_db, elapsed = synth_sweep
    ordered = [final_db[cells] for cells in (25, 36, 49, 64)]
    for smaller, larger in zip(ordered, ordered[1:]):
        assert larger <= smaller - 1.0, f"medians not improving by 1 dB per step: {ordered}"
    total = sum(elapsed.values())
    assert total < 600.0
    print(f"\nACCEPTANCE 4 inner-size-monotonicity: PASS (medians {[round(v, 1) for v in ordered]} dB, {total:.1f}s)")


def test_criterion_5_power_conservation():
    stack = ss.build_stack(fig4_stack_description(64))
    # Wide case: every column carries the prescribed power, ratio exactly 1.
    target = ss.generate_target(9, 25, stack.beta, stack.w1_frobenius, 77)
    ratio = ss.power_ratio(target.entries, stack.feed_matrix, stack.beta)
    assert ratio == pytest.approx(1.0, rel=1e-9)
    # Tall case: aggregate convention, total energy = output_size * column power.
    tall = ss.generate_target(100, 9, 1.0, 2.31, 78)
    aggregate = tall.norm_sq / (9 * tall.column_norm_sq)
    assert aggregate == pytest.approx(1.0, rel=1e-9)
    print(f"\nACCEPTANCE 5 power-conservation: PASS (ratio deviation {abs(ratio - 1):.2e}, aggregate {abs(aggregate - 1):.2e})")


def test_criterion_6_target_orthogonality():
    worst = 0.0
    for seed in range(10):
        target = ss.generate_target(9, 25, 1.0, 1.9, seed)
        gram = target.entries.conj().T @ target.entries
        deviation = np.max(np.abs(gram - target.column_norm_sq * np.eye(9))) / target.column_norm_sq
        worst = max(worst, float(deviation))
    assert worst < 1e-10
    print(f"\nACCEPTANCE 6 target-orthogonality: PASS (worst relative deviation {worst:.2e})")


def test_criterion_7_scheduler_matches_exhaustive_search():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        users = int(rng.integers(1, 11))
        streams = int(rng.integers(1, 5))
        eff = rng.standard_normal((users, streams)) + 1j * rng.standard_normal((users, streams))
        noise = float(rng.uniform(1e-3, 1.0))
        result = ss.schedule_slot(eff, noise)
        expected = exhaustive_schedule(eff, noise)
        for n in range(streams):
            assert result.beam_users[n] == expected[n][0]
        checked += 1
    assert checked == 200
    print("\nACCEPTANCE 7 scheduler-oracle-equivalence: PASS (200 instances exact)")


def test_criterion_8_sum_rate_crossover():
    started = time.perf_counter()
    base = harness.with_overrides(harness.PRESETS["fig5"], seed=42, trials=50)
    stack = dataclasses.replace(base.stack, input_shape=(6, 6), inner_shape=(12, 12), output_shape=(3, 3))
    config = dataclasses.replace(base, stack=stack, sweep=harness.SweepAxes(user_counts=(10, 50, 200, 500)))
    records = harness.run_experiment(config)
    medians = {}
    for row in harness.summarize(records):
        if row["metric"] in ("ta_sum_rate", "ta_sum_rate_baseline"):
            medians[(row["users"], row["metric"])] = row["median"]
    randomized = [medians[(u, "ta_sum_rate")] for u in (10, 50, 200, 500)]
    baseline_500 = medians[(500, "ta_sum_rate_baseline")]
    elapsed = time.perf_counter() - started
    for smaller, larger in zip(randomized, randomized[1:]):
        assert larger > smaller, f"median sum rate not strictly increasing in users: {randomized}"
    assert randomized[-1] > baseline_500, (
        f"randomized median {randomized[-1]:.3f} does not exceed baseline {baseline_500:.3f} at 500 users"
    )
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 8 sum-rate-crossover: PASS (medians {[round(v, 2) for v in randomized]}, "
        f"baseline@500 {baseline_500:.2f}; Q=144, Z=36, V=9, M=2, "
        f"eta={config.scenario.pathloss_exponent}, {elapsed:.0f}s)"
    )


def test_criterion_9_factor_m_fairness():
    # Desk-scale fairness configuration: Q=256 (the Q=144 fit is too
    # anisotropic and concentrates winners) and eta=2.4 (the factor-M
    # scheduling diversity is an interference-regime phenomenon; at the 3.2
    # default the noise floor spreads winner rates below the band while the
    # sum-rate crossover of criterion 8 needs that same noise sensitivity —
    # see the calibration note in the README). All parameters print below.
    started = time.perf_counter()
    base = harness.with_overrides(harness.PRESETS["fig6"], seed=7, trials=24, eta=2.4)
    stack = dataclasses.replace(base.stack, input_shape=(6, 6), inner_shape=(16, 16), output_shape=(3, 3))
    config = dataclasses.replace(
        base,
        stack=stack,
        sweep=harness.SweepAxes(user_counts=(500,), slot_counts=(2, 3)),
        pgd={"max_iterations": 500},
    )
    records = harness.run_experiment(config)
    medians = {}
    for row in harness.summarize(records):
        if row["metric"] in ("fairness_coherence", "fairness_coherence_baseline"):
            medians[(row["slots"], row["metric"])] = row["median"]
    elapsed = time.perf_counter() - started
    for slots in (2, 3):
        randomized = medians[(slots, "fairness_coherence")]
        lower, upper = 0.7 * slots * N_STREAMS, slots * N_STREAMS
        assert lower <= randomized <= upper, f"M={slots}: fairness {randomized:.2f} outside [{lower}, {upper}]"
        baseline = medians[(slots, "fairness_coherence_baseline")]
        assert 0.8 * N_STREAMS <= baseline <= N_STREAMS + 0.5, f"M={slots}: baseline fairness {baseline:.2f}"
    assert elapsed < 600.0
    print(
        "\nACCEPTANCE 9 factor-M-fairness: PASS ("
        + ", ".join(f"M={m}: {medians[(m, 'fairness_coherence')]:.2f}" for m in (2, 3))
        + f"; baseline {medians[(2, 'fairness_coherence_baseline')]:.2f}; "
        f"Q=256, Z=36, V=9, U=500, eta={config.scenario.pathloss_exponent}, {elapsed:.0f}s)"
    )


def test_criterion_10_overhead_formulas():
    counts = ss.overhead(4, 2, 100, 9, 1.0)
    assert counts.train_partial == 8
    assert counts.train_full == 9
    assert counts.feedback_partial == 200.0
    assert counts.feedback_full == 900
    assert counts.within_training_budget  # 2 <= 9/4 = 2.25
    print("\nACCEPTANCE 10 overhead-formulas: PASS (8, 9, 200, 900, budget ok)")


def test_criterion_11_cli_determinism(tmp_path):
    from click.testing import CliRunner

    from stacksim.cli import main

    runner = CliRunner()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = runner.invoke(
            main, ["fig5", "--seed", "42", "--trials", "5", "--scale", "0.25", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        outputs.append((out / "results.csv").read_text())

    def strip_elapsed(text):
        return ["," .join(line.split(",")[:-1]) for line in text.strip().splitlines()]

    assert strip_elapsed(outputs[0]) == strip_elapsed(outputs[1])
    print("\nACCEPTANCE 11 cli-determinism: PASS (metric columns byte-identical across runs)")
