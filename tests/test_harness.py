import dataclasses
import json
import math
import re
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import stacksim as ss
from stacksim import harness

PINNED_DOWNLINK = Path(__file__).with_name("data") / "downlink_pinned.csv"


def tiny_downlink_config(trials=2, seed=11):
    """Small custom experiment exercising synthesis plus the downlink path."""
    stack = ss.StackDescription(
        input_shape=(2, 2),
        inner_shape=(3, 3),
        output_shape=(3, 3),
        ac_layers=1,
        pc_layers=2,
        upa_shape=(2, 2),
        slot_count=2,
    )
    scenario = ss.DownlinkScenario(user_count=12, slot_count=2, streams=4)
    return harness.ExperimentConfig(
        kind=harness.ExperimentKind.CUSTOM,
        stack=stack,
        scenario=scenario,
        sweep=harness.SweepAxes(user_counts=(6, 12)),
        trial_count=trials,
        master_seed=seed,
        pgd={"max_iterations": 40},
    )


def random_valid_config(rng):
    """A valid config of a random kind: a feed of up to 4x4 antennas, boundary
    sides 1-12, inner sides 1-24, and random swept axes."""
    kinds = list(harness.ExperimentKind)
    while True:
        kind = kinds[rng.integers(len(kinds))]
        upa = tuple(int(v) for v in rng.integers(1, 5, size=2))
        slots = int(rng.integers(1, 5))
        stack = ss.StackDescription(
            input_shape=tuple(rng.integers(1, 13, size=2)),
            inner_shape=tuple(rng.integers(1, 25, size=2)),
            output_shape=tuple(rng.integers(1, 13, size=2)),
            ac_layers=1,
            pc_layers=2,
            upa_shape=upa,
            slot_count=slots,
        )
        streams = upa[0] * upa[1]
        sweep = {}
        if rng.random() < 0.5:
            sweep["inner_counts"] = sorted({int(side) ** 2 for side in rng.integers(1, 25, size=3)})
        if kind.downlink and rng.random() < 0.5:
            sweep["user_counts"] = sorted({streams + int(u) for u in rng.integers(0, 200, size=3)})
        if kind.downlink and rng.random() < 0.5:
            sweep["slot_counts"] = sorted({int(m) for m in rng.integers(1, 5, size=2)})
        config = harness.ExperimentConfig(
            kind=kind,
            stack=stack,
            scenario=ss.DownlinkScenario(user_count=streams + int(rng.integers(0, 200)), slot_count=slots, streams=streams),
            sweep=harness.SweepAxes(**sweep),
        )
        if harness.validate_config(config) == []:
            return config


class TestConfigIO:
    def test_round_trip(self):
        config = tiny_downlink_config()
        again = harness.config_from_dict(json.loads(json.dumps(harness.config_to_dict(config))))
        assert again == config

    def test_unknown_fields_rejected_at_every_level(self):
        base = harness.config_to_dict(tiny_downlink_config())
        for mutation, message in (
            ({"bogus": 1}, "unknown config fields: bogus"),
            ({"stack": {**base["stack"], "oops": 2}}, "unknown stack fields: oops"),
            ({"scenario": {**base["scenario"], "what": 3}}, "unknown scenario fields: what"),
            ({"sweep": {**base["sweep"], "axis": []}}, "unknown sweep fields: axis"),
            ({"pgd": {"nope": 4}}, "unknown pgd fields: nope"),
        ):
            with pytest.raises(ss.ConfigurationError, match=message):
                harness.config_from_dict({**base, **mutation})

    def test_field_types_checked(self):
        base = harness.config_to_dict(tiny_downlink_config())
        # A JSON integer is a number, and null is allowed where the field is optional.
        stack, sweep = {**base["stack"], "alpha_pc": 1}, {**base["sweep"], "pc_layer_counts": None}
        again = harness.config_from_dict({**base, "eta_feedback": 2, "stack": stack, "sweep": sweep})
        assert again.eta_feedback == 2 and again.stack.alpha_pc == 1 and again.sweep.pc_layer_counts is None
        for mutation, message in (
            ({"trial_count": 2.0}, "config field trial_count must be an integer, got float"),
            ({"eta_feedback": True}, "config field eta_feedback must be a number, got bool"),
            ({"stack": {**base["stack"], "centered_alignment": 0}}, "centered_alignment must be a boolean, got int"),
            ({"scenario": {**base["scenario"], "streams": None}}, "field streams must be an integer, got NoneType"),
            ({"pgd": {"step_growth": "2"}}, "pgd field step_growth must be a number, got str"),
            ({"pgd": []}, "config field pgd must be a JSON object, got list"),
        ):
            with pytest.raises(ss.ConfigurationError, match=re.escape(message)):
                harness.config_from_dict({**base, **mutation})

    def test_missing_required_fields(self):
        with pytest.raises(ss.ConfigurationError, match="missing config fields"):
            harness.config_from_dict({"kind": "custom"})


class TestValidation:
    def test_all_violations_listed(self):
        # The users axis overrides the base user count, so the bad count is a swept one.
        config = dataclasses.replace(
            tiny_downlink_config(),
            trial_count=0,
            eta_feedback=0.0,
            scenario=ss.DownlinkScenario(user_count=12, streams=3),
            sweep=harness.SweepAxes(user_counts=(0, 12)),
        )
        with pytest.raises(ss.ValidationError) as excinfo:
            harness.run_experiment(config)
        message = str(excinfo.value)
        assert "trial_count" in message
        assert "eta_feedback" in message
        assert "{'users': 0}: scenario: user_count must be at least 1" in message
        assert "{'users': 12}" not in message
        assert "must match the stack's antenna count" in message

    def test_problem_of_every_point_reported_once(self):
        config = harness.with_overrides(harness.PRESETS["fig6"], scale=0.25)
        config = dataclasses.replace(config, stack=dataclasses.replace(config.stack, alpha_pc=2.0))
        assert len(harness.sweep_points(config)) == 18
        assert harness.validate_config(config) == ["alpha_pc must be in [0, 1], got 2.0"]
        # Every point has this one, but the unswept user_count is fine: the
        # prefix names the swept value at fault.
        config = harness.with_overrides(harness.PRESETS["fig5"], scale=0.25)
        config = dataclasses.replace(config, sweep=harness.SweepAxes(user_counts=(-5,)))
        assert harness.validate_config(config) == ["{'users': -5}: scenario: user_count must be at least 1"]

    @pytest.mark.parametrize(
        "preset, axis, values",
        [("fig4", "user_counts", (-5, 7)), ("fig3", "slot_counts", (1, 2))],
        ids=["fig4-user_counts", "fig3-slot_counts"],
    )
    def test_synthesis_kinds_reject_downlink_axes(self, preset, axis, values):
        # A synthesis never reads a point's users or slots, so such an axis
        # could only repeat one point's records under other labels.
        config = harness.PRESETS[preset]
        config = dataclasses.replace(config, sweep=dataclasses.replace(config.sweep, **{axis: values}))
        assert harness.validate_config(config) == [
            f"sweep axis {axis} is not used by {config.kind.value} experiments"
        ]

    def test_swept_slot_count_sets_stack_and_scenario(self):
        # A slots axis sets both slot counts, so the base mismatch never runs.
        config = dataclasses.replace(
            tiny_downlink_config(),
            stack=dataclasses.replace(tiny_downlink_config().stack, slot_count=1),
            sweep=harness.SweepAxes(slot_counts=(1, 2)),
        )
        assert harness.validate_config(config) == []

    def test_non_square_swept_size_rejected(self):
        for cells in (10, -4):
            with pytest.raises(ss.ConfigurationError, match=f"perfect squares, got {cells}"):
                harness.SweepAxes(inner_counts=(16, cells))

    def test_training_budget_warning(self):
        config = dataclasses.replace(tiny_downlink_config(), sweep=harness.SweepAxes(slot_counts=(3,)))
        # V/N = 9/4, so three slots exceed the training budget.
        with pytest.warns(UserWarning, match="training-overhead budget"):
            harness.run_experiment(config)


class TestSweep:
    def test_point_expansion_order(self):
        sweep = harness.SweepAxes(inner_counts=(25, 36), pc_layer_counts=(4, 5))
        config = dataclasses.replace(tiny_downlink_config(), sweep=sweep)
        points = harness.sweep_points(config)
        assert [items for items, _, _ in points] == [
            (("inner_cells", 25), ("pc_layers", 4)),
            (("inner_cells", 25), ("pc_layers", 5)),
            (("inner_cells", 36), ("pc_layers", 4)),
            (("inner_cells", 36), ("pc_layers", 5)),
        ]

    def test_base_point_is_the_config(self):
        config = dataclasses.replace(tiny_downlink_config(), sweep=harness.SweepAxes())
        assert harness.sweep_points(config) == [((), config.stack, config.scenario)]

    def test_point_applies_axes(self):
        sweep = harness.SweepAxes(inner_counts=(36,), pc_layer_counts=(7,), user_counts=(9,), slot_counts=(3,))
        config = dataclasses.replace(tiny_downlink_config(), sweep=sweep)
        ((items, desc, scenario),) = harness.sweep_points(config)
        assert items == (("inner_cells", 36), ("pc_layers", 7), ("users", 9), ("slots", 3))
        assert desc == dataclasses.replace(config.stack, inner_shape=(6, 6), pc_layers=7, slot_count=3)
        assert scenario == dataclasses.replace(config.scenario, user_count=9, slot_count=3)


class TestRunExperiment:
    def test_records_structure_and_determinism(self):
        config = tiny_downlink_config()
        first = harness.run_experiment(config)
        second = harness.run_experiment(config)
        assert len(first) == len(second) > 0
        for a, b in zip(first, second):
            assert (a.experiment, a.sweep, a.metric, a.seed) == (b.experiment, b.sweep, b.metric, b.seed)
            assert a.value == b.value  # bit-identical, elapsed_s excluded
        metrics = {r.metric for r in first}
        assert {"objective_db", "ta_sum_rate", "ta_sum_rate_baseline", "fairness_coherence",
                "overhead_train_partial", "training_budget_ok"} <= metrics

    def test_synthesis_shared_across_user_sweep(self):
        records = harness.run_experiment(tiny_downlink_config())
        by_point = {}
        for r in records:
            if r.metric == "objective_db":
                by_point.setdefault(dict(r.sweep)["users"], []).append(r.value)
        assert by_point[6] == by_point[12]

    def test_one_stack_and_synthesis_per_group(self, monkeypatch):
        real_build, real_synth, real_metrics = harness.build_stack, harness.synthesize, harness._downlink_metrics
        built, synthesized, served = [], {}, []

        def building(desc):
            # The previous group's stack is released before the next one is built.
            assert all(ref() is None for ref in built)
            stack = real_build(desc)
            built.append(weakref.ref(stack))
            return stack

        def synthesizing(stack, pgd_overrides, master_seed, trial):
            assert (stack.inner_size, trial) not in synthesized
            synthesized[stack.inner_size, trial] = real_synth(stack, pgd_overrides, master_seed, trial)
            return synthesized[stack.inner_size, trial]

        def serving(config, stack, scenario, trial, synth_key, users):
            # The group's stack holds the coefficients of the trial being served.
            assert stack is built[-1]()
            for layer, values in synthesized[stack.inner_size, trial].values.items():
                np.testing.assert_array_equal(stack.tunable(layer), values)
            served.append((stack.inner_size, trial, scenario.user_count))
            return real_metrics(config, stack, scenario, trial, synth_key, users)

        monkeypatch.setattr(harness, "build_stack", building)
        monkeypatch.setattr(harness, "synthesize", synthesizing)
        monkeypatch.setattr(harness, "_downlink_metrics", serving)
        config = dataclasses.replace(
            tiny_downlink_config(trials=2),
            sweep=harness.SweepAxes(inner_counts=(9, 16), user_counts=(6, 12)),
            pgd={"max_iterations": 5},
        )
        records = harness.run_experiment(config)
        # One stack per inner size, each serving both user counts of a trial
        # from one synthesis before the next trial is synthesized.
        assert len(built) == 2
        assert sorted(synthesized) == [(q, t) for q in (9, 16) for t in (0, 1)]
        assert served == [(q, t, u) for q in (9, 16) for t in (0, 1) for u in (6, 12)]
        # Records stay point-major: every trial of a point, then the next point.
        seeds = [ss.stream_seed(config.master_seed, "trial", t) for t in (0, 1)]
        order = [(items, seed) for items, _, _ in harness.sweep_points(config) for seed in seeds]
        assert list(dict.fromkeys((r.sweep, r.seed) for r in records)) == order

    def test_one_user_pool_per_trial(self, monkeypatch):
        real_drop, real_metrics = harness.drop_users, harness._downlink_metrics
        pools, served = [], []

        def drawing(*args):
            pools.append(real_drop(*args))
            return pools[-1]

        def serving(config, stack, scenario, trial, synth_key, users):
            served.append((trial, scenario.user_count, users))
            return real_metrics(config, stack, scenario, trial, synth_key, users)

        monkeypatch.setattr(harness, "drop_users", drawing)
        monkeypatch.setattr(harness, "_downlink_metrics", serving)
        config = dataclasses.replace(
            tiny_downlink_config(trials=2),
            sweep=harness.SweepAxes(user_counts=(6, 12), slot_counts=(1, 2)),
            pgd={"max_iterations": 5},
        )
        harness.run_experiment(config)
        # One draw per trial, at the largest user count and the stack's output size.
        assert [users.fading.shape for users in pools] == [(12, 9)] * 2
        for trial, pool in enumerate(pools):
            expected = ss.drop_users(
                dataclasses.replace(config.scenario, user_count=12),
                ss.stream_seed(config.master_seed, "user-drop", trial),
                ss.stream_seed(config.master_seed, "channels", trial, 9),
                9,
            )
            np.testing.assert_array_equal(pool.distance, expected.distance)
            np.testing.assert_array_equal(pool.pathloss, expected.pathloss)
            np.testing.assert_array_equal(pool.fading, expected.fading)
        # Every point of every trial serves a prefix of its trial's pool.
        assert sorted((trial, count) for trial, count, _ in served) == [(t, u) for t in (0, 1) for u in (6, 6, 12, 12)]
        for trial, count, users in served:
            np.testing.assert_array_equal(users.fading, pools[trial].fading[:count])
            np.testing.assert_array_equal(users.pathloss, pools[trial].pathloss[:count])

    def test_failed_trial_recorded_and_run_continues(self, monkeypatch):
        config = tiny_downlink_config(trials=2)
        real = harness.generate_target
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise FloatingPointError("synthetic numeric failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "generate_target", flaky)
        records = harness.run_experiment(config)
        failed = [r for r in records if r.metric == "trial_failed"]
        assert len(failed) == 1
        ok = [r for r in records if r.metric == "ta_sum_rate"]
        assert len(ok) == 3  # 2 points x 2 trials, minus the failed trial

    @pytest.mark.parametrize("defect", ["nan_power_ratio", "inf_target"])
    def test_non_finite_trial_recorded_as_failed(self, monkeypatch, tmp_path, caplog, defect):
        # A NaN power ratio must stop the trial before the baseline's
        # argument check raises a ValueError; an inf target entry makes PGD
        # raise numpy's invalid-operation error.
        config = tiny_downlink_config(trials=2)
        name = "radiated_power_ratio" if defect == "nan_power_ratio" else "generate_target"
        real = getattr(harness, name)
        calls = {"n": 0}

        def defective(*args, **kwargs):
            calls["n"] += 1
            result = real(*args, **kwargs)
            if calls["n"] > 1:
                return result
            if defect == "nan_power_ratio":
                return float("nan")
            entries = result.entries.copy()
            entries[0, 0] = np.inf
            return dataclasses.replace(result, entries=entries)

        monkeypatch.setattr(harness, name, defective)
        records = harness.run_experiment(config)
        assert [r.metric for r in records].count("trial_failed") == 1
        assert "failed" in caplog.text
        assert all(np.isfinite(r.value) for r in records)
        assert len([r for r in records if r.metric == "ta_sum_rate"]) == 3  # the run continued
        harness.write_summary_json(records, config, tmp_path / "summary.json")

        def reject(constant):
            raise AssertionError(f"summary.json holds {constant}")

        json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)

    def test_pinned_downlink_values(self, tmp_path):
        # Every results.csv column but elapsed_s, recorded before the slot
        # phases became one array and the baseline one result per interval; a
        # refactor of the downlink path must reproduce it byte for byte.
        config = dataclasses.replace(
            tiny_downlink_config(),
            sweep=harness.SweepAxes(user_counts=(6, 12), slot_counts=(1, 2, 3)),
            pgd={"max_iterations": 10},
        )
        with pytest.warns(UserWarning, match="training-overhead budget"):  # 3 slots > V/N = 9/4
            records = harness.run_experiment(config)
        harness.write_csv(records, tmp_path / "results.csv")
        rows = [line.rsplit(",", 1)[0] for line in (tmp_path / "results.csv").read_text().splitlines()]
        assert rows == PINNED_DOWNLINK.read_text().splitlines()

    def test_overhead_metrics_match_formulas(self):
        records = harness.run_experiment(tiny_downlink_config(trials=1))
        values = {dict(r.sweep)["users"]: r.value for r in records if r.metric == "overhead_feedback_partial"}
        assert values == {6: 12.0, 12: 24.0}


class TestSummaries:
    def test_singleton_statistics(self):
        rec = harness.ResultRecord("custom", (("users", 5),), "m", 2.0, 1, 0.0)
        rows = harness.summarize([rec])
        assert rows[0]["median"] == rows[0]["mean"] == 2.0
        assert rows[0]["count"] == 1

    def test_simple_stats(self):
        records = [
            harness.ResultRecord("custom", (("users", 5),), "m", v, i, 0.0) for i, v in enumerate([1.0, 2.0, 3.0])
        ]
        row = harness.summarize(records)[0]
        assert row["median"] == 2.0 and row["mean"] == 2.0

    def test_nearest_rank_percentiles_match_sort_oracle(self):
        rng = np.random.default_rng(3)
        values = rng.uniform(0, 10, 37)
        records = [harness.ResultRecord("custom", (), "m", float(v), i, 0.0) for i, v in enumerate(values)]
        row = harness.summarize(records)[0]
        ordered = sorted(values)
        assert row["p10"] == ordered[int(np.ceil(0.1 * 37)) - 1]
        assert row["p90"] == ordered[int(np.ceil(0.9 * 37)) - 1]

    def test_all_failed_point_flagged(self):
        records = [harness.ResultRecord("custom", (("users", 5),), "trial_failed", 1.0, 0, 0.0)]
        rows = harness.summarize(records)
        assert rows == [{"users": 5, "metric": "all", "count": 0, "flagged": True}]


class TestCsv:
    def test_schema_and_round_trip(self, tmp_path):
        records = harness.run_experiment(tiny_downlink_config(trials=1))
        path = tmp_path / "results.csv"
        harness.write_csv(records, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "experiment,users,metric,value,seed,elapsed_s"
        assert len(lines) == 1 + len(records)
        first = lines[1].split(",")
        assert first[0] == "custom"
        assert float(first[3]) == records[0].value

    def test_summary_json_contains_resolved_config(self, tmp_path):
        config = tiny_downlink_config(trials=1)
        records = harness.run_experiment(config)
        path = tmp_path / "summary.json"
        harness.write_summary_json(records, config, path)
        payload = json.loads(path.read_text())
        assert payload["config"]["scenario"]["pathloss_exponent"] == 3.2
        assert payload["config"]["master_seed"] == config.master_seed
        assert any(row["metric"] == "ta_sum_rate" for row in payload["summary"])


class TestPresetsAndScale:
    def test_fig3_preset_axes(self):
        config = harness.PRESETS["fig3"]
        # The one synthesis kind; fig4 differs from fig3 only in its sweep.
        assert config.kind is harness.ExperimentKind.SYNTH_CONVERGENCE
        assert dataclasses.replace(harness.PRESETS["fig4"], sweep=config.sweep) == config
        assert config.sweep.inner_counts == (25, 36, 49, 64)
        assert config.sweep.pc_layer_counts == tuple(range(4, 15))
        assert config.stack.input_shape == (3, 3) and config.stack.output_shape == (5, 5)

    def test_fig5_preset_full_size(self):
        config = harness.PRESETS["fig5"]
        assert config.stack.inner_shape == (24, 24)
        assert config.stack.input_shape == (10, 10)
        assert config.stack.output_shape == (3, 3)
        assert config.scenario.slot_count == 2
        assert config.trial_count == 100

    def test_scale_shrinks_consistently(self):
        config = harness.with_overrides(harness.PRESETS["fig5"], scale=0.25)
        assert config.stack.inner_shape == (12, 12)
        assert config.stack.input_shape == (5, 5)
        # The output layer keeps the V = 9 cells that training M = 2 slots of N = 4 streams needs.
        assert config.stack.output_shape == (3, 3)
        assert min(config.sweep.user_counts) >= config.scenario.streams
        assert harness.validate_config(config) == []

    def test_scale_keeps_every_config_valid_and_no_larger(self):
        # Boundary sides were floored at the feed's longest side and inner sides
        # at the longest boundary side, which made some side longer than its
        # unscaled length in about half of these configs.
        rng = np.random.default_rng(18)
        for _ in range(300):
            config = random_valid_config(rng)
            factor = float(rng.uniform(0.05, 0.75))
            scaled = harness.apply_scale(config, factor)
            assert harness.validate_config(scaled) == [], (config, factor)
            for name in ("input_shape", "inner_shape", "output_shape"):
                full, small = getattr(config.stack, name), getattr(scaled.stack, name)
                assert all(s <= f for s, f in zip(small, full)), (name, config, factor)
            for q in config.sweep.inner_counts or ():
                one = dataclasses.replace(config, sweep=dataclasses.replace(config.sweep, inner_counts=(q,)))
                assert harness.apply_scale(one, factor).sweep.inner_counts[0] <= q, (config, factor)
            if config.kind.downlink:
                # Training within budget at full size stays within budget once scaled.
                slots = max(config.sweep.slot_counts or (config.scenario.slot_count,))
                streams = config.scenario.streams
                budget = [ss.overhead(streams, slots, 1, math.prod(c.stack.output_shape)).within_training_budget
                          for c in (config, scaled)]
                assert budget[1] or not budget[0], (config, factor)

    def test_scale_never_enlarges_a_stack_narrower_than_its_feed(self):
        # With a 1x4 feed, each boundary side was floored at 4 and each inner
        # side at the longest boundary side: this stack scaled to 4x4/4x4/4x4.
        stack = ss.StackDescription(
            input_shape=(2, 2), inner_shape=(3, 3), output_shape=(2, 2), ac_layers=1, pc_layers=2,
            upa_shape=(1, 4), slot_count=1,
        )
        config = harness.ExperimentConfig(
            kind=harness.ExperimentKind.SUMRATE_VS_USERS,
            stack=stack,
            scenario=ss.DownlinkScenario(user_count=8, slot_count=1, streams=4),
            sweep=harness.SweepAxes(),
        )
        scaled = harness.with_overrides(config, scale=0.25)
        assert (scaled.stack.input_shape, scaled.stack.inner_shape, scaled.stack.output_shape) == ((2, 2),) * 3
        assert harness.validate_config(scaled) == []

    def test_scale_shrinks_an_inner_layer_by_its_cells(self):
        # Inner sides were floored at the longest scaled boundary side (4), a rule
        # this 2x19 layer never obeyed: it kept all 38 cells. Z, V <= Q needs 4.
        stack = ss.StackDescription(
            input_shape=(1, 8), inner_shape=(2, 19), output_shape=(2, 2), ac_layers=1, pc_layers=2, slot_count=1
        )
        config = harness.ExperimentConfig(
            kind=harness.ExperimentKind.SUMRATE_VS_USERS,
            stack=stack,
            scenario=ss.DownlinkScenario(user_count=40, slot_count=1, streams=4),
            sweep=harness.SweepAxes(),
        )
        scaled = harness.with_overrides(config, scale=0.25)
        assert (scaled.stack.input_shape, scaled.stack.inner_shape, scaled.stack.output_shape) == (
            (1, 4), (1, 10), (2, 2)
        )
        assert math.prod(scaled.stack.inner_shape) < math.prod(stack.inner_shape)
        assert harness.validate_config(scaled) == []
        # A swept inner layer follows the same rule: 6x6 shrinks to 3x3, not 4x4.
        swept = dataclasses.replace(config, sweep=harness.SweepAxes(inner_counts=(36,)))
        assert harness.with_overrides(swept, scale=0.25).sweep.inner_counts == (9,)

    def test_scale_rejects_an_invalid_config(self):
        # An empty swept axis reached max() over no sweep points and raised a bare ValueError.
        config = dataclasses.replace(harness.PRESETS["fig5"], sweep=harness.SweepAxes(user_counts=()))
        with pytest.raises(ss.ValidationError, match="swept axis users must be non-empty"):
            harness.apply_scale(config, 0.25)

    def test_scale_one_validates_too(self):
        # Factor 1.0 returned the config before validating it.
        config = dataclasses.replace(harness.PRESETS["fig5"], trial_count=0)
        for factor in (0.5, 1.0):
            with pytest.raises(ss.ValidationError, match="trial_count must be at least 1"):
                harness.apply_scale(config, factor)

    def test_scaled_downlink_presets_keep_the_training_budget(self):
        # --scale 0.25 shrank the 3x3 output layer to 2x2, so fig5 (M = 2 slots,
        # N = 4 streams) warned that training cost more than full acquisition.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            harness._warn_training_budget(harness.with_overrides(harness.PRESETS["fig5"], scale=0.25))
        # fig6 warns for M = 3 only, as its full-size preset does: V = 9 is the unscaled layer.
        for scale in (0.25, 1.0):
            with pytest.warns(UserWarning) as caught:
                harness._warn_training_budget(harness.with_overrides(harness.PRESETS["fig6"], scale=scale))
            assert [str(w.message).split(";")[0] for w in caught] == [
                "slot count 3 exceeds the training-overhead budget (9/4)"
            ]
        # The synthesis presets have no slots to train and scale as before.
        assert harness.with_overrides(harness.PRESETS["fig3"], scale=0.25).stack.output_shape == (3, 3)

    def test_scaled_non_square_output_keeps_the_training_budget(self):
        # A 2x8 output layer serving N = 4 streams in M = 3 slots scaled to 2x4:
        # the side floor of ceil(sqrt(12)) = 4 cannot lift the short side, so
        # V = 8 < 12 and the run warned. The long side now grows to keep V >= 12.
        stack = ss.StackDescription(
            input_shape=(8, 8), inner_shape=(16, 16), output_shape=(2, 8), ac_layers=1, pc_layers=3, slot_count=3
        )
        base = harness.ExperimentConfig(
            kind=harness.ExperimentKind.SUMRATE_VS_USERS,
            stack=stack,
            scenario=ss.DownlinkScenario(user_count=40, slot_count=3, streams=4),
            sweep=harness.SweepAxes(),
        )
        assert harness.validate_config(base) == []
        config = harness.with_overrides(base, scale=0.25)
        assert config.stack.output_shape == (2, 6)
        assert harness.validate_config(config) == []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            harness._warn_training_budget(config)
        # Below the budget at full size, the layer stops at its unscaled shape.
        small = dataclasses.replace(base, stack=dataclasses.replace(stack, output_shape=(2, 5)))
        assert harness.with_overrides(small, scale=0.25).stack.output_shape == (2, 5)

    def test_overrides_apply_given_values_only(self):
        base = harness.PRESETS["fig6"]
        config = harness.with_overrides(base, seed=3, eta=2.4)
        assert (config.master_seed, config.trial_count) == (3, base.trial_count)
        assert config.scenario == dataclasses.replace(base.scenario, pathloss_exponent=2.4)
        assert harness.with_overrides(base) == base
        assert harness.PRESETS["fig6"].master_seed == 0  # the table itself is never changed

    def test_scale_bounds(self):
        with pytest.raises(ValueError):
            harness.apply_scale(harness.PRESETS["fig5"], 1.5)
