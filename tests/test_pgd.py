import dataclasses
import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest

import stacksim as ss
from stacksim import harness, pgd
from conftest import finite_difference_gradient, objective_by_entry_sum, quadratic_parts, small_stack


def reachable_target(stack):
    """Target produced by a forward pass, so zero residual is feasible."""
    entries = ss.compose_space_block(stack).copy()
    return ss.TargetMatrix(entries=entries, column_norm_sq=float(np.sum(np.abs(entries[:, 0]) ** 2)))


def complex_normal(seed):
    """Draws of complex Gaussian arrays of a given shape from one seeded stream."""
    rng = np.random.default_rng(seed)
    return lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestObjective:
    def test_zero_at_exact_match(self):
        stack = small_stack(seed=0)
        assert ss.objective(stack, reachable_target(stack)) == 0.0

    def test_zero_block_gives_target_energy(self):
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 1),
                inner_shape=(2, 2),
                output_shape=(2, 2),
                ac_layers=0,
                pc_layers=2,
                upa_shape=(1, 1),
                alpha_pc=0.0,
            )
        )
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 4)
        expected = stack.input_size * target.column_norm_sq
        assert ss.objective(stack, target) == pytest.approx(expected, rel=1e-10)

    def test_matches_entry_sum(self):
        stack = small_stack(input_shape=(2, 1), output_shape=(2, 1), seed=1)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 9)
        assert ss.objective(stack, target) == pytest.approx(objective_by_entry_sum(stack, target), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        stack = small_stack()
        bad = ss.TargetMatrix(entries=np.zeros((3, 7), dtype=complex), column_norm_sq=1.0)
        with pytest.raises(ss.ConfigurationError):
            ss.objective(stack, bad)


class TestLayerFactors:
    def test_terminal_layer_has_identity_downstream(self):
        stack = small_stack(seed=2)
        e_factor, b_factor = ss.layer_factors(stack, stack.layer_count)
        np.testing.assert_array_equal(e_factor, np.eye(stack.output_size))
        assert b_factor.shape == (stack.output_size, stack.input_size)

    def test_first_layer_has_bare_upstream(self):
        stack = small_stack(seed=3)
        _, b_factor = ss.layer_factors(stack, 2)
        np.testing.assert_array_equal(b_factor, stack.tail_matrices()[0])

    def test_factorization_reproduces_composed_columns(self):
        stack = small_stack(input_shape=(2, 1), inner_shape=(3, 1), output_shape=(2, 1), pc_layers=3, seed=4)
        g0 = ss.compose_space_block(stack)
        for layer, gamma in zip(stack.space_layers, stack.gammas()):
            e_factor, b_factor = ss.layer_factors(stack, layer)
            for z in range(stack.input_size):
                column = e_factor @ (b_factor[:, z] * gamma)
                np.testing.assert_allclose(column, g0[:, z], rtol=1e-12)

    def test_layer_out_of_range(self):
        stack = small_stack()
        with pytest.raises(IndexError):
            ss.layer_factors(stack, 1)
        with pytest.raises(IndexError):
            ss.layer_factors(stack, stack.layer_count + 1)


class TestGradient:
    def test_zero_at_global_minimum(self):
        stack = small_stack(seed=5)
        target = reachable_target(stack)
        for layer in stack.space_layers:
            grad = ss.gradient(stack, target, layer)
            assert np.max(np.abs(grad)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(77)
        for case in range(6):
            stack = small_stack(
                input_shape=(2, 1),
                inner_shape=(2, 2),
                output_shape=(2, 1),
                ac_layers=int(rng.integers(0, 2)),
                pc_layers=int(rng.integers(1, 3)) + 1,
                seed=case,
            )
            target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 50 + case)
            for layer in stack.space_layers:
                analytic = ss.gradient(stack, target, layer)
                numeric = finite_difference_gradient(stack, target, layer)
                scale = max(np.max(np.abs(numeric)), 1e-12)
                assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    def test_hadamard_coupling_matrix_matches_sum_over_columns(self):
        stack = small_stack(input_shape=(2, 2), inner_shape=(2, 2), output_shape=(2, 1), seed=6)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 31)
        for layer in stack.space_layers:
            e_factor, b_factor = ss.layer_factors(stack, layer)
            a_matrix, v_vector = quadratic_parts(e_factor, b_factor, target.entries)
            size = b_factor.shape[0]
            a_expected = np.zeros((size, size), dtype=complex)
            v_expected = np.zeros(size, dtype=complex)
            ehe = e_factor.conj().T @ e_factor
            for z in range(stack.input_size):
                d = np.diag(b_factor[:, z])
                a_expected += d.conj() @ ehe @ d
                v_expected += d.conj() @ e_factor.conj().T @ target.entries[:, z]
            np.testing.assert_allclose(a_matrix, a_expected, rtol=1e-12)
            np.testing.assert_allclose(v_vector, v_expected, rtol=1e-12)

    @pytest.mark.parametrize("size", [25, 64, 65, 100, 144, 193, 576])
    def test_blocked_gradient_bit_identical_to_one_expression(self, size):
        # 25, 64 and 65 are one block (65 folds its last row into the block);
        # 100 and 144 leave a partial last block of rows; 193 a last block of
        # 65 rows, since a block of one row is folded into the one before.
        cplx = complex_normal(size)
        e_factor, b_factor, gamma, target = cplx(9, size), cplx(size, 100), cplx(size), cplx(9, 100)
        amplitudes = np.abs(cplx(size)) + 0.05
        a_matrix, v_vector = quadratic_parts(e_factor, b_factor, target)
        inner = gamma.conj() * (a_matrix @ gamma - v_vector)
        np.testing.assert_array_equal(pgd._layer_gradient(e_factor, b_factor, gamma, target), 2.0 * inner.imag)
        np.testing.assert_array_equal(
            pgd._layer_gradient(e_factor, b_factor, gamma, target, amplitudes, 0.1),
            2.0 * inner.real / np.maximum(amplitudes, 0.1),
        )

    @pytest.mark.parametrize("size", [25, 64, 65, 100, 144, 193, 576])
    def test_blocked_downstream_factors_bit_identical_to_one_expression(self, size):
        cplx = complex_normal(size + 1)
        mats = [cplx(size, 100), cplx(size, size), cplx(size, size), cplx(9, size)]
        gammas = [cplx(m.shape[0]) for m in mats]
        expected = [np.eye(9, dtype=complex)]
        for pos in range(len(mats) - 1, 0, -1):
            expected.insert(0, expected[0] @ (gammas[pos][:, None] * mats[pos]))
        factors = pgd._downstream_factors(mats, gammas, 9)
        assert len(factors) == len(expected)
        for got, want in zip(factors, expected):
            np.testing.assert_array_equal(got, want)


class TestProjection:
    BOUNDS = (10 ** (-22 / 20), 10 ** (13 / 20))

    def test_interior_point_unchanged(self):
        assert ss.project_amplitude(np.array([1.0]), self.BOUNDS)[0] == 1.0

    def test_upper_clamp(self):
        assert ss.project_amplitude(np.array([10.0]), self.BOUNDS)[0] == pytest.approx(4.467, abs=1e-3)

    def test_lower_clamp(self):
        assert ss.project_amplitude(np.array([0.0]), self.BOUNDS)[0] == pytest.approx(0.0794, abs=1e-4)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ss.project_amplitude(np.array([1.0]), (0.5, 0.1))


class TestRunPgd:
    def test_reachable_target_driven_to_numerical_zero(self):
        stack = small_stack(input_shape=(2, 1), inner_shape=(2, 2), output_shape=(2, 1), seed=11)
        target = reachable_target(stack)
        randomize_seed = 500  # fresh start away from the solution
        config = ss.PgdConfig(max_iterations=4000, seed=randomize_seed)
        state = ss.run_pgd(stack, target, config)
        assert state.objective_trace[-1] < 1e-12 * state.objective_trace[0]

    def test_monotone_trace_every_seed(self):
        for seed in range(6):
            stack = small_stack(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), seed=seed)
            target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, seed)
            state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=60, seed=seed))
            assert np.all(np.diff(state.objective_trace) <= 0)

    def test_synthesis_allocates_no_q_by_q_temporary_at_fig5_size(self):
        # Q=576, Z=100, V=9 with 2 AC + 6 PC layers. The stack's matrices and
        # the per-layer downstream factors (V x Q each) are held; the Hadamard
        # form and the backward sweep are streamed in blocks, so the run peaks
        # below one Q x Q complex matrix above what was held before it.
        stack = ss.build_stack(ss.PRESETS["fig5"].stack)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 3)
        assert (stack.inner_size, stack.input_size, stack.output_size) == (576, 100, 9)
        unit = 576**2 * 16
        tracemalloc.start()
        try:
            state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=3, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.iteration == 3
        assert peak / unit <= 1.0

    def test_amplitudes_feasible_every_iteration(self):
        stack = small_stack(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=2, seed=1)
        amin, amax = stack.alpha_bounds
        seen = []

        def watch(iteration, objective, amplitudes):
            seen.append({k: v.copy() for k, v in amplitudes.items()})

        ss.run_pgd(stack, ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 2),
                   ss.PgdConfig(max_iterations=40, seed=3), monitor=watch)
        assert seen
        for snapshot in seen:
            for amp in snapshot.values():
                assert np.all(amp >= amin - 1e-15) and np.all(amp <= amax + 1e-15)
        # A phase-controlled layer's amplitude is fixed at alpha_pc.
        for layer, gamma in zip(stack.space_layers, stack.gammas()):
            if stack.kind_of(layer).phase_tunable:
                np.testing.assert_allclose(np.abs(gamma), stack.description.alpha_pc, rtol=0, atol=1e-15)

    def test_monitor_holds_the_amplitude_controlled_layers(self):
        stack = small_stack(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=2, seed=1)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 2)
        keys = []
        ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=5, seed=3),
                   monitor=lambda k, f, amplitudes: keys.append(sorted(amplitudes)))
        assert keys and all(layers == [2, 3] for layers in keys)  # ac_layers=2: layers 2 and 3

    def test_coefficients_written_back_to_stack(self):
        stack = small_stack(seed=9)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 9)
        state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=30, seed=4))
        # The final objective is the last layer visit's value, which evaluates
        # the same product in the same order as the full composition.
        assert ss.objective(stack, target) == state.final_objective
        assert list(state.values) == list(stack.space_layers)
        for layer, values in state.values.items():
            np.testing.assert_array_equal(stack.tunable(layer), values)

    def test_all_layers_frozen_is_not_fatal(self):
        stack = small_stack(seed=12)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 12)
        config = ss.PgdConfig(max_iterations=10, initial_step=1e12, max_backtracks=0, step_growth=1.0, seed=5)
        state = ss.run_pgd(stack, target, config)
        assert state.frozen_events >= len(stack.kinds)
        assert np.all(np.diff(state.objective_trace) <= 0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"initial_step": 0.0}, "initial_step must be positive"),
            ({"initial_step": -1.0}, "initial_step must be positive"),
            ({"max_backtracks": -1}, "max_backtracks must be non-negative"),
            ({"backtracking_contraction": 0.0}, "backtracking_contraction must lie in (0, 1)"),
            ({"backtracking_contraction": 1.0}, "backtracking_contraction must lie in (0, 1)"),
            ({"step_growth": 0.5}, "step_growth must be at least 1"),
        ],
    )
    def test_invalid_step_settings_rejected(self, overrides, message):
        # A non-positive first step accepted no move at all: the run "converged"
        # after one iteration with the objective unchanged.
        with pytest.raises(ValueError, match=re.escape(message)):
            ss.PgdConfig(**overrides)
        config = dataclasses.replace(harness.with_overrides(harness.PRESETS["fig4"], trials=1), pgd=overrides)
        assert f"pgd: {message}" in harness.validate_config(config)

    @pytest.mark.parametrize("bounds", [{"alpha_min": 5.0}, {"alpha_max": 0.01}])
    def test_inverted_amplitude_bounds_rejected(self, bounds):
        # Each bound lies past the stack's other one (-22 and 13 dB). Clipping
        # to such a box pinned every amplitude at the other bound, outside it.
        # The box is the stack's fixed one: a PgdConfig cannot carry another,
        # and the projection refuses an inverted one.
        (name,) = bounds
        with pytest.raises(TypeError, match=name):
            ss.PgdConfig(max_iterations=3, **bounds)
        stack = small_stack(seed=1)
        amin, amax = stack.alpha_bounds
        box = (bounds.get("alpha_min", amin), bounds.get("alpha_max", amax))
        with pytest.raises(ValueError, match="need 0 < alpha_min <= alpha_max"):
            ss.project_amplitude(np.ones(3), box)

    def test_projects_onto_the_stack_range_that_write_back_accepts(self):
        # PGD takes its amplitude box from the stack alone, so the fixed
        # -22 to 13 dB range is held on every iteration and accepted by
        # set_layer at write-back.
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=2, pc_layers=2,
                upa_shape=(1, 1),
            )
        )
        amin, amax = stack.alpha_bounds
        assert (amin, amax) == (10 ** (-22 / 20), 10 ** (13 / 20))
        ac = [layer for layer in stack.space_layers if stack.kind_of(layer).amplitude_tunable]
        seen = []
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 4)
        state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=40, seed=4),
                           monitor=lambda k, f, amps: seen.append(np.concatenate([amps[l] for l in ac])))
        assert len(seen) == state.iteration
        for amp in seen:
            assert np.all(amp >= amin) and np.all(amp <= amax)
        # The box is active: some amplitude sits on each bound.
        assert np.any(seen[-1] == amin) and np.any(seen[-1] == amax)
        for layer in ac:
            np.testing.assert_array_equal(stack.tunable(layer), state.values[layer])

    @pytest.mark.parametrize(
        "overrides, trace, steps, frozen",
        [
            (
                {},
                [9.700781701591811, 9.160756023853178, 7.7200250151816, 5.456769783482333, 5.02298881773768,
                 4.630175901393827, 4.4723858337142754, 4.057197901762498, 3.951466130121993],
                [[1.0, 1.0, 1.0], [4.0, 2.0, 4.0], [16.0, 1.0, 1.0], [16.0, 1.0, 0.5], [64.0, 1.0, 0.5],
                 [16.0, 0.5, 0.5], [64.0, 2.0, 0.5], [256.0, 1.0, 1.0]],
                0,
            ),
            (
                # Long first steps with few backtracks: the phase layers freeze.
                {"initial_step": 10.0, "max_backtracks": 3},
                [9.700781701591811, 8.117737808431798, 7.286815410912905, 6.801187546075197, 6.784986705411086,
                 6.761083537085892, 6.667187611217637, 6.656965214870263, 6.653693645917777],
                [[10.0, 5.0, 5.0], [40.0, np.nan, np.nan], [20.0, np.nan, np.nan], [20.0, np.nan, np.nan],
                 [20.0, np.nan, np.nan], [10.0, np.nan, np.nan], [10.0, np.nan, np.nan], [10.0, np.nan, np.nan]],
                14,
            ),
        ],
    )
    def test_pinned_optimizer_path(self, overrides, trace, steps, frozen):
        # Recorded from the two-loop implementation (one line search per layer
        # kind, objective recomposed every iteration); a refactor of the
        # optimizer must reproduce its iterates.
        stack = small_stack(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, seed=7)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 7)
        state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=8, seed=7, **overrides))
        assert state.frozen_events == frozen
        np.testing.assert_allclose(state.objective_trace, trace, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(np.isnan(state.accepted_steps), np.isnan(steps))
        np.testing.assert_allclose(state.accepted_steps, steps, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("inner_cells, digest", [(25, "1a748a37f02af19b"), (64, "ae678b7e4fbe4e2d")])
    def test_pinned_fig4_synthesis(self, inner_cells, digest):
        # SHA-256 prefixes of the objective trace and each layer's vector after
        # 40 fig4 iterations, recorded from the blocked-only gradient and
        # downstream factors, which the one-block paths must reproduce bit for
        # bit. Equal on one and two OpenBLAS threads: no fig4 product is large
        # enough for OpenBLAS to start a second.
        points = harness.sweep_points(harness.PRESETS["fig4"])
        (desc,) = [d for _, d, _ in points if math.prod(d.inner_shape) == inner_cells]
        state = harness.synthesize(ss.build_stack(desc), {"max_iterations": 40}, 0, 0)
        sha = hashlib.sha256(state.objective_trace.tobytes())
        for layer in sorted(state.values):
            sha.update(state.values[layer].tobytes())
        assert sha.hexdigest()[:16] == digest

    def test_deterministic_given_seed(self):
        results = []
        for _ in range(2):
            stack = small_stack(seed=2)
            target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 6)
            results.append(ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=25, seed=8)).objective_trace)
        np.testing.assert_array_equal(results[0], results[1])

    @pytest.mark.parametrize(
        "overrides, freezes",
        [
            ({}, False),
            ({"backtracking_contraction": 0.3, "step_growth": 2.5}, False),
            # Long first steps with few backtracks: some visits freeze, others accept.
            ({"initial_step": 10.0, "max_backtracks": 3}, True),
        ],
    )
    def test_evaluations_count_every_layer_objective_call(self, monkeypatch, overrides, freezes):
        # One Armijo base per layer visit, then one call per line-search candidate.
        calls = []
        original = pgd._layer_objective

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(pgd, "_layer_objective", counting)
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, pc_layers=2,
                upa_shape=(1, 1), slot_count=1,
            )
        )
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 11)
        state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=40, seed=3, **overrides))
        assert state.evaluations == len(calls) > state.accepted_steps.size
        assert (state.frozen_events > 0) == freezes


class TestTraceFile:
    def test_trace_csv_layout(self, tmp_path):
        stack = small_stack(seed=3)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 3)
        state = ss.run_pgd(stack, target, ss.PgdConfig(max_iterations=12, seed=1))
        path = tmp_path / "trace.csv"
        ss.write_trace_csv(state, path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["iteration", "objective_linear", "objective_db"]
        assert len(header) == 3 + len(stack.kinds)
        assert len(lines) == 1 + len(state.objective_trace)
        values = [float(line.split(",")[1]) for line in lines[1:]]
        np.testing.assert_allclose(values, state.objective_trace, rtol=1e-15)
