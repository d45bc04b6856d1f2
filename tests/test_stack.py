import json
import re
import tracemalloc

import numpy as np
import pytest

import stacksim as ss
from conftest import compose_by_path_sum, randomize_stack, small_stack


class TestBuild:
    def test_layer_ordering_amplitude_controlled_first(self):
        stack = small_stack(ac_layers=2, pc_layers=3)
        kinds = stack.kinds
        assert kinds[0] is ss.LayerKind.AMPLITUDE_CONTROLLED
        assert kinds[1] is ss.LayerKind.AMPLITUDE_CONTROLLED
        assert kinds[2] is ss.LayerKind.PHASE_CONTROLLED
        assert kinds[-1] is ss.LayerKind.PHASE_CONTROLLED
        assert stack.layer_count == 6

    def test_matrix_dimensions_follow_layer_pairs(self):
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(3, 3),
                inner_shape=(5, 5),
                output_shape=(4, 4),
                ac_layers=1,
                pc_layers=3,
                upa_shape=(2, 2),
            )
        )
        assert stack.feed_matrix.shape == (9, 4)
        tails = stack.tail_matrices()
        assert tails[0].shape == (25, 9)
        assert tails[1].shape == (25, 25)
        assert tails[2].shape == (25, 25)
        assert tails[-1].shape == (16, 25)

    @pytest.mark.parametrize("centered", [False, True])
    def test_inner_hops_share_one_read_only_matrix(self, centered):
        desc = ss.StackDescription(
            input_shape=(3, 3),
            inner_shape=(5, 4),
            output_shape=(2, 3),
            ac_layers=2,
            pc_layers=3,
            upa_shape=(1, 1),
            centered_alignment=centered,
        )
        stack = ss.build_stack(desc)
        tails = stack.tail_matrices()
        inner_hops = tails[1:-1]
        assert len(inner_hops) == 3  # four inner layers
        assert all(m is inner_hops[0] for m in inner_hops)
        assert not any(m.flags.writeable for m in tails)
        lam = desc.wavelength
        params = ss.KernelParams(lam, (0.5 * lam) ** 2, 0.5 * lam)
        input_layer, inner_layer, output_layer = (
            ss.GridSpec(*shape, 0.5 * lam) for shape in (desc.input_shape, desc.inner_shape, desc.output_shape)
        )
        grids = [input_layer] + [inner_layer] * 4 + [output_layer]
        for matrix, src, dst in zip(tails, grids[:-1], grids[1:], strict=True):
            np.testing.assert_array_equal(matrix, ss.build_propagation_matrix(src, dst, params, centered))

    def test_memory_does_not_grow_with_depth(self):
        # Q=144 with 2 AC + 6 PC layers. In units of one Q x Q complex matrix:
        # the stack holds one inner hop plus the small boundary hops, and the
        # build peaks at a few Q x Q buffers, not at one per layer.
        desc = ss.StackDescription(
            input_shape=(6, 6), inner_shape=(12, 12), output_shape=(3, 3), ac_layers=2, pc_layers=6
        )
        unit = 144**2 * 16
        tracemalloc.start()
        try:
            stack = ss.build_stack(desc)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stack.layer_count == 9
        assert held / unit <= 2.0
        assert peak / unit <= 5.0

    def test_build_allocates_no_second_matrix_at_fig5_size(self):
        # Q=576: each propagation matrix is gathered from a table of its
        # distinct offsets, so the peak is the one inner hop plus the small
        # boundary hops and tables.
        desc = ss.PRESETS["fig5"].stack
        assert desc.inner_shape == (24, 24)
        unit = 576**2 * 16
        tracemalloc.start()
        try:
            stack = ss.build_stack(desc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.inner_size == 576
        assert peak / unit <= 1.3

    def test_invalid_descriptions_rejected(self):
        with pytest.raises(ss.ConfigurationError):
            ss.build_stack(
                ss.StackDescription(
                    input_shape=(6, 6),
                    inner_shape=(3, 3),  # smaller than the input layer
                    output_shape=(2, 2),
                    ac_layers=1,
                    pc_layers=1,
                    upa_shape=(2, 2),
                )
            )

    @pytest.mark.parametrize("name", ["feed_element_area_wl2", "meta_element_area_wl2"])
    @pytest.mark.parametrize("area", [0.0, -0.25])
    def test_non_positive_element_area_rejected(self, name, area):
        # An area of 0 was silently replaced by the default; a negative one
        # failed in the kernel's parameter check.
        desc = ss.StackDescription(
            input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, pc_layers=1, **{name: area}
        )
        assert desc.validate() == [f"{name} must be positive when given"]
        with pytest.raises(ss.ConfigurationError, match=f"{name} must be positive"):
            ss.build_stack(desc)

    def test_given_element_area_used(self):
        default = ss.build_stack(
            ss.StackDescription(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, pc_layers=1)
        )
        doubled = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, pc_layers=1,
                feed_element_area_wl2=0.5,
            )
        )
        np.testing.assert_allclose(doubled.feed_matrix, 2.0 * default.feed_matrix, rtol=1e-12)

    def test_description_round_trip_and_unknown_fields(self):
        desc = ss.StackDescription(
            input_shape=(3, 3), inner_shape=(8, 8), output_shape=(5, 5), ac_layers=4, pc_layers=8
        )
        config = {"kind": "custom", "stack": desc.to_dict(), "scenario": {"user_count": 4}, "sweep": {}}
        again = ss.config_from_dict(json.loads(json.dumps(config))).stack
        assert again == desc
        with pytest.raises(ss.ConfigurationError, match="unknown stack fields: extra"):
            ss.config_from_dict({**config, "stack": {**desc.to_dict(), "extra": 1}})


class TestCompose:
    def test_two_layer_stack_with_unit_terminal_is_bare_propagation(self):
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 1),
                inner_shape=(2, 2),
                output_shape=(2, 2),
                ac_layers=0,
                pc_layers=1,
                upa_shape=(1, 1),
                alpha_pc=1.0,
            )
        )
        np.testing.assert_array_equal(ss.compose_space_block(stack), stack.tail_matrices()[0])

    def test_zero_transmittance_annihilates(self):
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 1),
                inner_shape=(2, 2),
                output_shape=(2, 1),
                ac_layers=0,
                pc_layers=2,
                upa_shape=(1, 1),
                alpha_pc=0.0,
            )
        )
        assert np.all(ss.compose_space_block(stack) == 0)

    def test_matches_brute_force_path_sum(self):
        for seed in range(4):
            stack = small_stack(
                input_shape=(2, 1), inner_shape=(3, 1), output_shape=(2, 1), ac_layers=1, pc_layers=2, seed=seed
            )
            np.testing.assert_allclose(ss.compose_space_block(stack), compose_by_path_sum(stack), rtol=1e-12)

    def test_cache_invalidated_on_coefficient_update(self):
        stack = small_stack(seed=0)
        before = ss.compose_space_block(stack)
        layer = stack.layer_count  # terminal, phase-controlled
        stack.set_layer(layer, np.zeros(stack.output_size))
        after = ss.compose_space_block(stack)
        assert not np.array_equal(before, after)

    def test_set_layer_guards(self):
        stack = small_stack()
        with pytest.raises(ss.ConfigurationError, match="amplitudes must lie in"):
            stack.set_layer(2, np.full(stack.inner_size, 100.0))  # layer 2 is amplitude-controlled
        with pytest.raises(ss.ConfigurationError, match="layer 3 expects 4 coefficients"):
            stack.set_layer(3, np.zeros(stack.inner_size + 1))
        with pytest.raises(IndexError):
            stack.set_layer(1, np.zeros(stack.input_size))

    def test_set_layer_moves_only_the_tunable_vector(self):
        # The tunable vector is the phases of a phase-controlled layer and the
        # amplitudes of an amplitude-controlled one; the other stays as built.
        desc = ss.StackDescription(
            input_shape=(2, 1), inner_shape=(2, 2), output_shape=(2, 1), ac_layers=2, pc_layers=2,
            upa_shape=(1, 1), ac_phase_seed=5,
        )
        stack, built = ss.build_stack(desc), ss.build_stack(desc)
        assert np.all(built.phases[0] != 0)  # nonzero fixed AC phases
        rng = np.random.default_rng(2)
        for layer in stack.space_layers:
            stack.set_layer(layer, rng.uniform(0.2, 1.5, stack.tunable(layer).shape[0]))
        for pos, kind in enumerate(stack.kinds):
            if kind.phase_tunable:
                np.testing.assert_array_equal(stack.amplitudes[pos], built.amplitudes[pos])
                np.testing.assert_array_equal(stack.amplitudes[pos], desc.alpha_pc)
                assert not np.array_equal(stack.phases[pos], built.phases[pos])
            else:
                np.testing.assert_array_equal(stack.phases[pos], built.phases[pos])
                assert not np.array_equal(stack.amplitudes[pos], built.amplitudes[pos])

    @pytest.mark.parametrize("box_db", [(2.0, 10.0), (-10.0, -2.0)], ids=["above-1", "below-1"])
    def test_built_amplitudes_lie_in_the_box(self, box_db):
        # Amplitude-controlled layers start at 1 clipped into the box, so a
        # fresh stack accepts its own coefficients back.
        desc = ss.StackDescription(
            input_shape=(2, 1), inner_shape=(2, 2), output_shape=(2, 1), ac_layers=2, pc_layers=1,
            upa_shape=(1, 1), alpha_min_db=box_db[0], alpha_max_db=box_db[1], ac_phase_seed=1,
        )
        stack = ss.build_stack(desc)
        amin, amax = stack.alpha_bounds
        for layer in stack.space_layers:
            if stack.kind_of(layer).amplitude_tunable:
                np.testing.assert_array_equal(stack.tunable(layer), amin if amin > 1 else amax)
        before = ss.compose_space_block(stack).copy()
        for layer in stack.space_layers:
            stack.set_layer(layer, stack.tunable(layer))
        np.testing.assert_array_equal(ss.compose_space_block(stack), before)


class TestSlotResponse:
    def test_identity_input_layer_gives_space_block_times_feed(self):
        stack = small_stack(seed=1)
        expected = ss.compose_space_block(stack) @ stack.feed_matrix
        np.testing.assert_allclose(ss.slot_response(stack, np.zeros(stack.input_size)), expected, rtol=1e-14)

    def test_equal_phases_give_equal_responses(self):
        stack = small_stack(seed=2)
        row = np.linspace(0, 5, stack.input_size)
        np.testing.assert_array_equal(ss.slot_response(stack, row), ss.slot_response(stack, row.copy()))

    def test_single_stream_column_expansion(self):
        stack = small_stack(input_shape=(2, 1), upa_shape=(1, 1), seed=3)
        phases = ss.draw_slot_phases(2, stack.input_size, seed=8)
        g0 = ss.compose_space_block(stack)
        delta = stack.beta * np.exp(1j * phases[0])
        w1 = stack.feed_matrix
        expected = sum(g0[:, z] * delta[z] * w1[z, 0] for z in range(stack.input_size))
        np.testing.assert_allclose(ss.slot_response(stack, phases[0])[:, 0], expected, rtol=1e-12)

    def test_wrong_phase_shape_rejected(self):
        stack = small_stack()
        for phases in (np.zeros(stack.input_size + 1), np.zeros((2, stack.input_size))):
            message = f"slot phases must have shape ({stack.input_size},), got {phases.shape}"
            with pytest.raises(ss.ConfigurationError, match=re.escape(message)):
                ss.slot_response(stack, phases)


class TestRadiatedPower:
    def test_norm_constrained_matrix_radiates_unit_power(self):
        stack = small_stack(input_shape=(2, 2), inner_shape=(3, 3), output_shape=(3, 2), seed=5)
        target = ss.generate_target(stack.input_size, stack.output_size, stack.beta, stack.w1_frobenius, 17)
        ratio = ss.power_ratio(target.entries, stack.feed_matrix, stack.beta)
        assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_zero_block_radiates_nothing(self):
        stack = small_stack(seed=6)
        assert ss.power_ratio(np.zeros((stack.output_size, stack.input_size)), stack.feed_matrix, 1.0) == 0.0

    def test_quadratic_scaling(self):
        stack = small_stack(seed=7)
        g0 = ss.compose_space_block(stack)
        base = ss.power_ratio(g0, stack.feed_matrix, stack.beta)
        assert ss.power_ratio(2 * g0, stack.feed_matrix, stack.beta) == pytest.approx(4 * base, rel=1e-12)

    def test_expected_response_energy_matches_ratio(self):
        # E ||response||_F^2 over random input-layer phases equals the power
        # ratio; 1000 draws keep the sample mean within 2%.
        stack = small_stack(input_shape=(3, 3), inner_shape=(4, 3), seed=8)
        ratio = ss.radiated_power_ratio(stack)
        rng = np.random.default_rng(123)
        phases = rng.uniform(0, 2 * np.pi, (1000, stack.input_size))
        energies = [np.sum(np.abs(ss.slot_response(stack, row)) ** 2) for row in phases]
        assert np.mean(energies) == pytest.approx(ratio, rel=0.02)
