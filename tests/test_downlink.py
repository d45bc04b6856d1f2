import math

import numpy as np
import pytest
from scipy import stats

import stacksim as ss
from stacksim.downlink import BS_HEIGHT_M, INNER_RADIUS_M, OUTER_RADIUS_M, pathloss
from conftest import baseline_sinrs, beam_sinr_cdf, exhaustive_schedule, user_sinr


WAVELENGTH = ss.SPEED_OF_LIGHT / 28e9  # the fixed carrier, propagation.CARRIER_HZ
D0 = 1.0  # the fixed path-loss reference distance, downlink.REFERENCE_DISTANCE_M


def scenario(**overrides):
    defaults = dict(user_count=100, slot_count=2, streams=4)
    defaults.update(overrides)
    return ss.DownlinkScenario(**defaults)


def make_users(fading, rho=1.0):
    """Users at unit distance with the given fading rows and path losses."""
    fading = np.atleast_2d(np.asarray(fading, dtype=complex))
    count = fading.shape[0]
    return ss.Users(
        distance=np.ones(count),
        pathloss=np.ones(count) * rho,
        fading=fading,
    )


class TestScenario:
    def test_user_count_at_least_streams(self):
        # Fewer users than streams ran the whole synthesis before the baseline rejected it.
        assert scenario(user_count=4).validate() == []
        assert scenario(user_count=3).validate() == ["user_count (3) must be at least streams (4)"]
        assert scenario(user_count=0).validate() == ["user_count must be at least 1"]


class TestDropUsers:
    def test_distance_bounds(self):
        scen = scenario(user_count=2000)
        users = ss.drop_users(scen, seed=1, fading_seed=11, output_size=9)
        distances = users.distance
        assert np.all(distances >= math.sqrt(INNER_RADIUS_M**2 + BS_HEIGHT_M**2) - 1e-12)
        assert np.all(distances <= math.sqrt(OUTER_RADIUS_M**2 + BS_HEIGHT_M**2) + 1e-12)
        assert distances.min() >= 14.142

    def test_fading_energy_normalized(self):
        scen = scenario(user_count=10_000)
        users = ss.drop_users(scen, seed=2, fading_seed=12, output_size=9)
        energy = np.mean(np.sum(np.abs(users.fading) ** 2, axis=1))
        assert 0.98 <= energy <= 1.02

    def test_planar_radius_cdf_uniform_by_area(self):
        scen = scenario(user_count=10_000)
        users = ss.drop_users(scen, seed=3, fading_seed=13, output_size=4)
        radii = np.sqrt(users.distance**2 - BS_HEIGHT_M**2)
        assert np.all(radii >= INNER_RADIUS_M - 1e-9) and np.all(radii <= OUTER_RADIUS_M + 1e-9)
        transformed = (radii**2 - INNER_RADIUS_M**2) / (OUTER_RADIUS_M**2 - INNER_RADIUS_M**2)
        statistic = stats.kstest(transformed, "uniform").statistic
        assert statistic < 1.628 / math.sqrt(len(users))

    def test_pathloss_formula(self):
        scen = scenario()
        users = ss.drop_users(scen, seed=4, fading_seed=14, output_size=4)
        for u in range(10):
            expected = (WAVELENGTH / (4 * math.pi * D0)) ** 2 * (D0 / users.distance[u]) ** scen.pathloss_exponent
            assert users.pathloss[u] == pytest.approx(expected, rel=1e-12)

    def test_deterministic_and_fading_stream_separable(self):
        scen = scenario(user_count=50)
        a = ss.drop_users(scen, seed=7, fading_seed=17, output_size=4)
        b = ss.drop_users(scen, seed=7, fading_seed=17, output_size=4)
        np.testing.assert_array_equal(a.fading, b.fading)
        np.testing.assert_array_equal(a.distance, b.distance)
        np.testing.assert_array_equal(a.pathloss, b.pathloss)
        c = ss.drop_users(scen, seed=7, fading_seed=123, output_size=4)
        np.testing.assert_array_equal(a.distance, c.distance)
        assert not np.array_equal(a.fading[0], c.fading[0])
        prefix = a[:10]
        assert len(a) == 50 and len(prefix) == 10
        np.testing.assert_array_equal(prefix.fading, a.fading[:10])
        np.testing.assert_array_equal(prefix.pathloss, a.pathloss[:10])


class TestEffectiveChannels:
    def test_orthogonal_fading_gives_zero_row(self):
        response = np.array([[1.0], [0.0]], dtype=complex)
        channels = ss.effective_channels(make_users([0.0, 1.0]), response)
        assert channels[0, 0] == 0.0

    def test_matched_direction_gives_column_norm(self):
        rng = np.random.default_rng(0)
        column = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        response = column[:, None]
        channels = ss.effective_channels(make_users(column / np.linalg.norm(column)), response)
        assert channels[0, 0] == pytest.approx(np.linalg.norm(column), rel=1e-12)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(5)
        response = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        rows = [(rng.standard_normal(4) + 1j * rng.standard_normal(4), float(rng.uniform(0.1, 2))) for _ in range(3)]
        users = make_users([f for f, _ in rows], rho=[r for _, r in rows])
        channels = ss.effective_channels(users, response)
        for u in range(3):
            for n in range(2):
                expected = math.sqrt(users.pathloss[u]) * np.vdot(users.fading[u], response[:, n])
                assert channels[u, n] == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ss.ConfigurationError):
            ss.effective_channels(make_users([1.0, 0.0]), np.zeros((3, 2), dtype=complex))


class TestUserSinr:
    def test_single_stream_has_no_interference(self):
        assert user_sinr(np.array([2.0 + 0j]), 0, 0.5) == pytest.approx(8.0, rel=1e-12)

    def test_symmetric_row(self):
        row = np.full(4, math.sqrt(3.0), dtype=complex)
        nu = 0.7
        assert user_sinr(row, 1, nu) == pytest.approx(3.0 / (3 * 3.0 + nu), rel=1e-12)

    def test_matches_explicit_sum(self):
        rng = np.random.default_rng(9)
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        nu = 0.123
        for n in range(4):
            interference = sum(abs(row[j]) ** 2 for j in range(4) if j != n)
            assert user_sinr(row, n, nu) == pytest.approx(abs(row[n]) ** 2 / (interference + nu), rel=1e-12)

    def test_sinr_matrix_consistent(self):
        rng = np.random.default_rng(10)
        eff = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        matrix = ss.sinr_matrix(eff, 0.2)
        for u in range(5):
            for n in range(3):
                assert matrix[u, n] == pytest.approx(user_sinr(eff[u], n, 0.2), rel=1e-12)

    def test_monotone_in_noise(self):
        rng = np.random.default_rng(11)
        row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert user_sinr(row, 0, 0.01) > user_sinr(row, 0, 0.02)


class TestScheduleSlot:
    def test_single_user_wins_best_beam_only(self):
        eff = np.array([[1.0, 3.0]], dtype=complex)
        result = ss.schedule_slot(eff, 0.1)
        assert result.beam_users[1] == 0
        assert result.beam_users[0] == ss.UNSERVED
        assert result.beam_rates[0] == 0.0
        assert result.beam_rates[1] == pytest.approx(math.log2(1 + user_sinr(eff[0], 1, 0.1)))

    def test_diagonal_dominance_assigns_identity(self):
        eff = (np.eye(4) * 10 + 0.01 * np.ones((4, 4))).astype(complex)
        result = ss.schedule_slot(eff, 0.1)
        np.testing.assert_array_equal(result.beam_users, np.arange(4))

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            users = int(rng.integers(1, 11))
            streams = int(rng.integers(1, 5))
            eff = rng.standard_normal((users, streams)) + 1j * rng.standard_normal((users, streams))
            nu = float(rng.uniform(0.01, 1.0))
            result = ss.schedule_slot(eff, nu)
            expected = exhaustive_schedule(eff, nu)
            for n in range(streams):
                assert result.beam_users[n] == expected[n][0]
                assert result.beam_sinrs[n] == pytest.approx(expected[n][1], rel=1e-12)

    def test_argmax_scale_invariant_per_user(self):
        rng = np.random.default_rng(22)
        eff = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        before = np.argmax(ss.sinr_matrix(eff, 0.3), axis=1)
        eff_scaled = eff.copy()
        eff_scaled[2] *= 7.5
        after = np.argmax(ss.sinr_matrix(eff_scaled, 0.3), axis=1)
        assert before[2] == after[2]

    def test_user_served_at_most_once_per_slot(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            eff = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
            result = ss.schedule_slot(eff, 0.05)
            served = [u for u in result.beam_users if u != ss.UNSERVED]
            assert len(served) == len(set(served))


    def test_winner_sinr_matches_random_beamforming_distribution(self):
        # Orthonormal beams and i.i.d. Rayleigh users of equal path loss: with
        # fading entries of variance 1/V, s = noise * V. One beam per slot
        # keeps the samples independent; the empirical CDF must stay inside
        # the 99% Dvoretzky-Kiefer-Wolfowitz band of F(x)^K on [1, 12].
        v, streams, users, slots, noise = 9, 4, 50, 4000, 0.01
        rng = np.random.default_rng(5)
        beams, _ = np.linalg.qr(rng.standard_normal((v, streams)) + 1j * rng.standard_normal((v, streams)))
        shape = (slots, users, v)
        fading = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(0.5 / v)
        samples = np.sort(
            [
                ss.schedule_slot(ss.effective_channels(make_users(fading[m]), beams), noise).beam_sinrs[m % streams]
                for m in range(slots)
            ]
        )

        def winner_cdf(x):
            return beam_sinr_cdf(x, streams, noise * v) ** users

        # The sup of |empirical - F^K| over [1, 12]: at the two ends, and on
        # either side of each sample step inside.
        steps = np.arange(1, slots + 1) / slots
        inside = (samples >= 1.0) & (samples <= 12.0)
        gaps = np.maximum(np.abs(steps - winner_cdf(samples)), np.abs(steps - 1.0 / slots - winner_cdf(samples)))
        ends = np.array([1.0, 12.0])
        end_gaps = np.abs(np.searchsorted(samples, ends, side="right") / slots - winner_cdf(ends))
        band = math.sqrt(math.log(2.0 / 0.01) / (2.0 * slots))
        assert band < 0.026
        assert max(gaps[inside].max(), end_gaps.max()) <= band


class TestRates:
    def test_all_unserved_gives_zero(self):
        empty = ss.SlotScheduleResult(
            beam_users=np.full(3, ss.UNSERVED), beam_sinrs=np.zeros(3), beam_rates=np.zeros(3)
        )
        assert ss.ta_sum_rate([empty, empty]) == 0.0

    def test_single_served_beam_unit_sinr(self):
        result = ss.SlotScheduleResult(
            beam_users=np.array([0, ss.UNSERVED]), beam_sinrs=np.array([1.0, 0.0]),
            beam_rates=np.array([math.log2(2.0), 0.0]),
        )
        assert ss.ta_sum_rate([result]) == pytest.approx(1.0)

    def test_two_slot_mean(self):
        def slot_with_sum(total):
            return ss.SlotScheduleResult(
                beam_users=np.array([0]), beam_sinrs=np.array([0.0]), beam_rates=np.array([total])
            )

        assert ss.ta_sum_rate([slot_with_sum(3.0), slot_with_sum(5.0)]) == pytest.approx(4.0)

    def test_per_user_rate_matrix_layout(self):
        result = ss.SlotScheduleResult(
            beam_users=np.array([2, ss.UNSERVED, 0]), beam_sinrs=np.zeros(3), beam_rates=np.array([1.5, 0.0, 0.25])
        )
        rates = ss.per_user_rate_matrix([result], user_count=4)
        assert rates.shape == (4, 1)
        assert rates[2, 0] == 1.5 and rates[0, 0] == 0.25 and rates[1, 0] == 0.0


class TestFairness:
    def test_equal_rate_users_count(self):
        rates = np.zeros((10, 1))
        rates[[1, 4, 6], 0] = 2.5
        assert ss.fairness_index(rates) == pytest.approx((3.0, 3.0))

    def test_disjoint_slots_distinguish_variants(self):
        rates = np.zeros((10, 2))
        rates[[1, 2, 3, 4], 0] = 1.0
        rates[[5, 6, 7, 8], 1] = 1.0
        assert ss.fairness_index(rates) == pytest.approx((4.0, 8.0))  # (per-slot, coherence)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(31)
        rates = rng.uniform(0, 3, (7, 4))
        per_slot = np.mean([np.sum(rates[:, m]) ** 2 / np.sum(rates[:, m] ** 2) for m in range(4)])
        assert ss.fairness_index(rates)[0] == pytest.approx(per_slot, rel=1e-12)
        mean_rates = rates.mean(axis=1)
        coherence = np.sum(mean_rates) ** 2 / np.sum(mean_rates**2)
        assert ss.fairness_index(rates)[1] == pytest.approx(coherence, rel=1e-12)

    def test_all_zero_window_contributes_zero(self):
        rates = np.zeros((5, 2))
        rates[0, 1] = 1.0
        assert ss.fairness_index(rates)[0] == pytest.approx(0.5)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            ss.fairness_index(np.array([[-1.0]]))


class TestOverhead:
    def test_remark_arithmetic(self):
        counts = ss.overhead(4, 2, 100, 9, 1.0)
        assert counts.train_partial == 8
        assert counts.train_full == 9
        assert counts.feedback_partial == 200.0
        assert counts.feedback_full == 900
        assert counts.within_training_budget  # 2 <= 9/4

    def test_budget_boundary(self):
        assert ss.overhead(4, 2, 10, 9, 1.0).within_training_budget
        assert not ss.overhead(4, 3, 10, 9, 1.0).within_training_budget
        assert ss.overhead(4, 2, 10, 8, 1.0).within_training_budget  # 2 == 8/4

    def test_feedback_scales_with_eta(self):
        assert ss.overhead(4, 2, 100, 9, 2.0).feedback_partial == 400.0


class TestBaseline:
    def test_orthonormal_channels_have_no_interference(self):
        users = make_users(np.eye(4))
        nu = 0.01
        result = ss.baseline_mimo(users, 4, nu, total_precoder_power=1.0)
        # Channel inversion with unit-norm channels: per-precoder power 1/4.
        np.testing.assert_allclose(result.beam_sinrs, 0.25 / nu, rtol=1e-12)

    def test_selects_top_norm_users(self):
        rng = np.random.default_rng(41)
        users = make_users([rng.standard_normal(5) + 1j * rng.standard_normal(5) for _ in range(6)])
        norms = [float(np.sum(np.abs(users.fading[u]) ** 2)) for u in range(6)]
        expected = sorted(range(6), key=lambda i: (-norms[i], i))[:2]
        result = ss.baseline_mimo(users, 2, 0.1, total_precoder_power=1.0)
        assert list(result.beam_users) == expected

    def test_tie_breaks_toward_smaller_index(self):
        fading = np.array([1.0, 0.0], dtype=complex)
        users = make_users([fading, fading * 1j, fading * -1])
        result = ss.baseline_mimo(users, 2, 0.1, total_precoder_power=1.0)
        assert list(result.beam_users) == [0, 1]

    def test_total_power_normalization(self):
        # Noise comparable to the received power, so the SINRs move with the budget.
        rng = np.random.default_rng(42)
        fading = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(5)]
        users = make_users(fading, rho=rng.uniform(0.5, 2.0, 5))
        for total in (1.0, 0.37):
            selected, sinrs = baseline_sinrs(users, 3, 0.05, total)
            result = ss.baseline_mimo(users, 3, 0.05, total_precoder_power=total)
            assert list(result.beam_users) == selected
            np.testing.assert_allclose(result.beam_sinrs, sinrs, rtol=1e-12)

    def test_equal_rate_fairness_counts_streams(self):
        users = make_users(np.vstack([np.eye(4), 0.1 * np.eye(4)[:1]]))
        results = [ss.baseline_mimo(users, 4, 0.01, total_precoder_power=1.0)] * 2
        rates = ss.per_user_rate_matrix(results, len(users))
        assert ss.fairness_index(rates)[1] == pytest.approx(4.0)

    def test_too_few_users_rejected(self):
        with pytest.raises(ss.ConfigurationError):
            ss.baseline_mimo(make_users([1.0, 0.0]), 2, 0.1, total_precoder_power=1.0)
