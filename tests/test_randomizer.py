import numpy as np
import pytest
from scipy import stats

import stacksim as ss
from stacksim import draw_slot_phases, stream_seed


class TestSlotPhases:
    def test_deterministic_given_seed(self):
        first = draw_slot_phases(3, 50, seed=99)
        second = draw_slot_phases(3, 50, seed=99)
        np.testing.assert_array_equal(first, second)

    def test_range_and_shape(self):
        phases = draw_slot_phases(4, 33, seed=1)
        assert phases.shape == (4, 33)
        assert np.all(phases >= 0) and np.all(phases < 2 * np.pi)
        assert not phases.flags.writeable

    def test_empirical_mean_of_unit_phasors_vanishes(self):
        # Law of large numbers: |mean(e^{j psi})| ~ 1/sqrt(n) = 0.01 for n = 1e4.
        phases = draw_slot_phases(10_000, 1, seed=7)
        mean = np.mean(np.exp(1j * phases[:, 0]))
        assert abs(mean) < 0.05

    def test_slots_uncorrelated(self):
        phases = draw_slot_phases(2, 10_000, seed=11)
        x = np.exp(1j * phases[0])
        y = np.exp(1j * phases[1])
        xc = x - x.mean()
        yc = y - y.mean()
        corr = np.vdot(xc, yc) / (np.linalg.norm(xc) * np.linalg.norm(yc))
        assert abs(corr) < 0.05

    def test_pooled_phases_uniform_ks(self):
        phases = draw_slot_phases(10, 10_000, seed=5)
        pooled = phases.ravel() / (2 * np.pi)
        statistic = stats.kstest(pooled, "uniform").statistic
        # 1% asymptotic critical value of the KS statistic.
        assert statistic < 1.628 / np.sqrt(pooled.size)

    def test_distinct_slots_differ(self):
        phases = draw_slot_phases(6, 40, seed=3)
        for m in range(5):
            assert not np.array_equal(phases[m], phases[m + 1])

    def test_prefix_stability_in_slot_count(self):
        short = draw_slot_phases(2, 25, seed=42)
        long = draw_slot_phases(5, 25, seed=42)
        np.testing.assert_array_equal(short, long[:2])

    def test_coefficients_use_beta_and_slot(self):
        # The phases carry no beta: slot_response applies the stack's, fixed at 1.
        stack = ss.build_stack(
            ss.StackDescription(
                input_shape=(2, 1), inner_shape=(2, 2), output_shape=(2, 1), ac_layers=1, pc_layers=2,
                upa_shape=(1, 1),
            )
        )
        assert stack.beta == 1.0
        phases = draw_slot_phases(2, stack.input_size, seed=0)
        g0, w1 = ss.compose_space_block(stack), stack.feed_matrix
        expected = sum(g0[:, z] * np.exp(1j * phases[1, z]) * w1[z, 0] for z in range(stack.input_size))
        np.testing.assert_allclose(ss.slot_response(stack, phases[1])[:, 0], expected, rtol=1e-12)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            draw_slot_phases(0, 5, seed=1)


class TestStreams:
    def test_named_streams_are_independent(self):
        seeds = {name: stream_seed(123, name, 0) for name in ("target", "pgd-init", "st-phases", "channels")}
        assert len(set(seeds.values())) == len(seeds)

    def test_stable_across_calls(self):
        assert stream_seed(5, "target", 2, "blob") == stream_seed(5, "target", 2, "blob")

    def test_part_types_distinguished(self):
        assert stream_seed(5, "1") != stream_seed(5, 1)

    def test_rng_reproducible(self):
        a = np.random.default_rng(stream_seed(9, "users", 4)).standard_normal(10)
        b = np.random.default_rng(stream_seed(9, "users", 4)).standard_normal(10)
        np.testing.assert_array_equal(a, b)
