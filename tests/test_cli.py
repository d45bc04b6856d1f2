import csv
import json

import click
import pytest
from click.testing import CliRunner

import stacksim as ss
from stacksim import harness
from stacksim.cli import main
from stacksim.pgd import write_trace_csv
from stacksim.stack import build_stack


@pytest.fixture()
def runner():
    return CliRunner()


def test_fig3_writes_results(runner, tmp_path):
    out = tmp_path / "fig3"
    result = runner.invoke(main, ["fig3", "--trials", "1", "--scale", "0.2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "results.csv").exists()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["config"]["kind"] == "synth_convergence"
    assert "objective_db" in result.output
    # One optimizer trace per sweep point and trial.
    config = harness.with_overrides(harness.PRESETS["fig3"], trials=1, scale=0.2)
    tags = ["_".join(f"{k}{v}" for k, v in items) for items, _, _ in harness.sweep_points(config)]
    assert sorted(path.name for path in out.glob("trace_*.csv")) == sorted(f"trace_{tag}_trial0.csv" for tag in tags)


def test_fig4_emits_traces(runner, tmp_path):
    out = tmp_path / "fig4"
    result = runner.invoke(main, ["fig4", "--trials", "1", "--scale", "0.2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    traces = list(out.glob("trace_*.csv"))
    assert traces, "expected per-run optimizer traces"
    header = traces[0].read_text().splitlines()[0]
    assert header.startswith("iteration,objective_linear,objective_db,step_layer_2")


def test_run_custom_config(runner, tmp_path):
    config = harness.config_to_dict(
        harness.ExperimentConfig(
            kind=harness.ExperimentKind.SYNTH_CONVERGENCE,
            stack=harness.with_overrides(harness.PRESETS["fig4"], scale=0.2).stack,
            scenario=harness.PRESETS["fig4"].scenario,
            sweep=harness.SweepAxes(inner_counts=(9,)),
            trial_count=1,
            master_seed=3,
            pgd={"max_iterations": 20},
        )
    )
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "run"
    result = runner.invoke(main, ["run", str(config_file), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "results.csv").exists()


def test_run_rejects_unknown_fields(runner, tmp_path):
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps({"kind": "custom", "bogus": 1}))
    result = runner.invoke(main, ["run", str(config_file)])
    assert result.exit_code != 0
    assert "unknown config fields" in result.output


def test_run_reports_validation_errors(runner, tmp_path):
    config = harness.config_to_dict(harness.with_overrides(harness.PRESETS["fig5"], trials=1, scale=0.2))
    config["scenario"]["streams"] = 5  # mismatch with the 2x2 array
    config_file = tmp_path / "invalid.json"
    config_file.write_text(json.dumps(config))
    result = runner.invoke(main, ["run", str(config_file)])
    assert result.exit_code != 0
    assert "must match the stack's antenna count" in result.output


BARE_STACK = {
    "input_shape": [2, 2],
    "inner_shape": [3, 3],
    "output_shape": [3, 3],
    "ac_layers": 1,
    "pc_layers": 2,
    "upa_shape": [2, 2],
}


def synth_config(stack, pgd=None, **changes):
    """A single synthesis as a run config: one synth_convergence point of one
    trial. Synthesis never reads a scenario, so the config has none."""
    config = {
        "kind": "synth_convergence",
        "stack": stack,
        "sweep": {},
        "trial_count": 1,
        "pgd": pgd or {},
    }
    return {**config, **changes}


def test_synth_from_bare_stack_config(runner, tmp_path):
    config_file = tmp_path / "synth.json"
    config_file.write_text(json.dumps(synth_config(BARE_STACK, {"max_iterations": 25})))
    out = tmp_path / "synth"
    result = runner.invoke(main, ["run", str(config_file), "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [path.name for path in out.glob("trace_*.csv")] == ["trace_base_trial0.csv"]
    with open(out / "results.csv", newline="") as fh:
        metrics = {row["metric"]: float(row["value"]) for row in csv.DictReader(fh)}
    assert metrics["pgd_iterations"] <= 25
    assert metrics["pgd_converged"] in (0.0, 1.0)
    # The config names no scenario; summary.json still records the default one.
    scenario = json.loads((out / "summary.json").read_text())["config"]["scenario"]
    assert {"streams", "user_count", "slot_count"} <= set(scenario)
    assert "objective_db (median over trials):" in result.output


@pytest.mark.parametrize(
    "pgd, message",
    [({"bogus": 1}, "unknown pgd fields: bogus"), ({"seed": 5}, "pgd seed cannot be set")],
)
def test_synth_rejects_bad_pgd_block(runner, tmp_path, pgd, message):
    # An unknown field crashed with a TypeError; a seed was echoed to the
    # summary but overridden by the derived "pgd-init" seed.
    config_file = tmp_path / "synth.json"
    config_file.write_text(json.dumps(synth_config(BARE_STACK, pgd)))
    result = runner.invoke(main, ["run", str(config_file), "--out", str(tmp_path / "synth")])
    assert result.exit_code != 0
    assert message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_run_rejects_pgd_seed(runner, tmp_path):
    config = harness.config_to_dict(harness.with_overrides(harness.PRESETS["fig4"], trials=1, scale=0.2))
    config["pgd"] = {"seed": 5}
    config_file = tmp_path / "seeded.json"
    config_file.write_text(json.dumps(config))
    result = runner.invoke(main, ["run", str(config_file), "--out", str(tmp_path / "run")])
    assert result.exit_code != 0
    assert "pgd seed cannot be set" in result.output


@pytest.mark.parametrize("command", ["fig3", "fig4", "fig5", "fig6"])
def test_zero_trials_rejected(runner, tmp_path, command):
    result = runner.invoke(main, [command, "--trials", "0", "--scale", "0.25", "--out", str(tmp_path / command)])
    assert result.exit_code != 0
    assert "trial_count must be at least 1" in result.output
    assert not (tmp_path / command).exists()  # a rejected config writes nothing


@pytest.mark.parametrize("flag, value", [("--scale", "nan"), ("--eta", "inf")])
def test_non_finite_flags_rejected(runner, tmp_path, flag, value):
    # NaN scale crashed in apply_scale; an infinite eta zeroed every rate.
    out = tmp_path / "fig5"
    result = runner.invoke(main, ["fig5", "--trials", "1", "--scale", "0.12", flag, value, "--out", str(out)])
    assert result.exit_code != 0
    assert f"Invalid value for '{flag}': {float(value)} is not a finite number" in result.output
    assert result.output.count("Error:") == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


COMMON_OPTIONS = {"--seed": None, "--trials": None, "--out": None, "--scale": 1.0}
DOWNLINK_OPTIONS = {**COMMON_OPTIONS, "--eta": None}


def test_cli_surface(runner):
    # The preset commands are generated from harness.PRESETS; this pins what they offer.
    expected = {
        "fig3": ((), COMMON_OPTIONS, "Synthesis error vs number of phase-controlled layers and inner cells."),
        "fig4": ((), COMMON_OPTIONS, "Optimizer convergence traces for several inner layer sizes."),
        "fig5": ((), DOWNLINK_OPTIONS, "Time-averaged sum rate vs user count, against the full-feedback baseline."),
        "fig6": ((), DOWNLINK_OPTIONS, "Fairness vs user count for several slot counts."),
        "run": (("config_file",), DOWNLINK_OPTIONS, "Run a custom experiment from a JSON config file."),
    }
    assert set(main.commands) == set(expected)
    for name, (arguments, options, help_line) in expected.items():
        command = main.commands[name]
        assert tuple(param.name for param in command.params if isinstance(param, click.Argument)) == arguments
        assert {param.opts[0]: param.default for param in command.params if isinstance(param, click.Option)} == options
        assert command.get_short_help_str(limit=200) == help_line
    # The path-loss reference distance is fixed (downlink.REFERENCE_DISTANCE_M);
    # --trials 0 stops a command that took the flag before it runs.
    for command, flag in (("fig3", "--eta"), ("fig5", "--d0")):
        result = runner.invoke(main, [command, flag, "2", "--trials", "0"])
        assert result.exit_code == 2 and f"No such option '{flag}'" in result.output


SMALL_STACK = {**BARE_STACK, "slot_count": 2}
NO_AC_LAYERS = {k: v for k, v in SMALL_STACK.items() if k != "ac_layers"}


def small_run_config(**changes):
    config = {
        "kind": "custom",
        "stack": SMALL_STACK,
        "scenario": {"user_count": 6, "slot_count": 2},
        "sweep": {},
        "trial_count": 1,
        "pgd": {"max_iterations": 5},
    }
    return {**config, **changes}


# Each case is read by run, in one of two forms: "run", a downlink experiment
# config, or "synth", a single synthesis (synth_config).
@pytest.mark.parametrize(
    "form, config, message",
    [
        ("run", small_run_config(stack=NO_AC_LAYERS), "missing stack fields: ac_layers"),
        ("run", small_run_config(scenario={"slot_count": 2}), "missing scenario fields: user_count"),
        ("run", small_run_config(stack=[]), "stack must be a JSON object, got list"),
        ("run", small_run_config(kind="bogus"), "'bogus' is not a valid ExperimentKind"),
        ("run", small_run_config(trial_count="abc"), "config field trial_count must be an integer, got str"),
        ("run", small_run_config(sweep={"user_counts": 5}), "sweep axis user_counts must be a list of integers, got 5"),
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "slot_count": 1}),
            "scenario slot_count (2) must match the stack's slot_count (1)",
        ),
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "slot_count": 3}),
            "scenario slot_count (2) must match the stack's slot_count (3)",
        ),
        ("synth", synth_config(NO_AC_LAYERS), "missing stack fields: ac_layers"),
        # The amplitude range is the stack's alone; a pgd block cannot set one.
        ("run", small_run_config(pgd={"alpha_max": 100.0}), "unknown pgd fields: alpha_max"),
        ("synth", synth_config(SMALL_STACK, {"alpha_min": 5.0}), "unknown pgd fields: alpha_min"),
        # The pgd block is checked in full when read.
        ("synth", synth_config(SMALL_STACK, {"max_iterations": 0}), "pgd: max_iterations must be at least 1"),
        # A value of the wrong JSON type; true is not an integer.
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "ac_layers": "1"}),
            "stack field ac_layers must be an integer, got str",
        ),
        (
            "run",
            small_run_config(scenario={"user_count": "6", "slot_count": 2}),
            "scenario field user_count must be an integer, got str",
        ),
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "ac_layers": True}),
            "stack field ac_layers must be an integer, got bool",
        ),
        (
            "synth",
            synth_config(SMALL_STACK, {"max_iterations": "5"}),
            "pgd field max_iterations must be an integer, got str",
        ),
        # A grid shape is a list of exactly two integers, never truncated.
        *(
            (form, config, f"stack field {field} must be a list of two integers, got {got}")
            for field, shape, got in (
                ("input_shape", 3, "int"),
                ("upa_shape", [2, 2, 2], "[2, 2, 2]"),
                ("inner_shape", [2.7, 2], "[2.7, 2]"),
                ("output_shape", [True, 3], "[true, 3]"),
            )
            for form, config in (
                ("run", small_run_config(stack={**SMALL_STACK, field: shape})),
                ("synth", synth_config({**SMALL_STACK, field: shape})),
            )
        ),
        # Each sweep point is validated as it runs: -5 ran on a slice of the
        # user pool, and fewer users than streams crashed after synthesis.
        (
            "run",
            small_run_config(sweep={"user_counts": [-5, 6]}),
            "{'users': -5}: scenario: user_count must be at least 1",
        ),
        (
            "run",
            small_run_config(sweep={"user_counts": [2, 6]}),
            "{'users': 2}: scenario: user_count (2) must be at least streams (4)",
        ),
        (
            "run",
            small_run_config(scenario={"user_count": 2, "slot_count": 2}),
            "scenario: user_count (2) must be at least streams (4)",
        ),
        # Sweep values are JSON integers, as every integer field.
        *(
            ("run", small_run_config(sweep={"user_counts": [value, 6]}), message)
            for value, message in (
                ("10", "sweep axis user_counts must be a list of integers, got ['10', 6]"),
                (10.7, "sweep axis user_counts must be a list of integers, got [10.7, 6]"),
                (True, "sweep axis user_counts must be a list of integers, got [True, 6]"),
            )
        ),
        # The element areas are fixed (stacksim.propagation): naming one is rejected.
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "feed_element_area_wl2": 0}),
            "unknown stack fields: feed_element_area_wl2",
        ),
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "meta_element_area_wl2": -0.25}),
            "unknown stack fields: meta_element_area_wl2",
        ),
        (
            "synth",
            synth_config({**SMALL_STACK, "meta_element_area_wl2": 0}),
            "unknown stack fields: meta_element_area_wl2",
        ),
        # A synthesis kind has no users or slots to sweep.
        (
            "run",
            small_run_config(kind="synth_convergence", sweep={"user_counts": [-5, 7]}),
            "sweep axis user_counts is not used by synth_convergence experiments",
        ),
        # NaN and infinite numbers are rejected when read: a NaN amplitude
        # bound once crashed in PGD's projection, and infinite values ran to
        # exit status 0.
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "alpha_pc": float("nan")}),
            "stack field alpha_pc must be a finite number, got NaN",
        ),
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "alpha_pc": float("inf")}),
            "stack field alpha_pc must be a finite number, got Infinity",
        ),
        (
            "run",
            small_run_config(scenario={"user_count": 6, "slot_count": 2, "pathloss_exponent": float("inf")}),
            "scenario field pathloss_exponent must be a finite number, got Infinity",
        ),
        # The path-loss reference distance is fixed (downlink.REFERENCE_DISTANCE_M).
        (
            "run",
            small_run_config(scenario={"user_count": 6, "slot_count": 2, "reference_distance_m": 1.0}),
            "unknown scenario fields: reference_distance_m",
        ),
        (
            "run",
            small_run_config(scenario={"user_count": 6, "slot_count": 2, "pathloss_exponent": float("-inf")}),
            "scenario field pathloss_exponent must be a finite number, got -Infinity",
        ),
        # Every grid count is at least 1: a negative pair has a positive
        # product, so the size checks passed and the grid build crashed.
        *(
            ("run", small_run_config(stack={**SMALL_STACK, field: shape}), f"{field} counts must be at least 1")
            for field, shape in (
                ("input_shape", [-2, -2]),
                ("upa_shape", [-2, -2]),
                ("inner_shape", [-3, -3]),
                ("output_shape", [-3, -3]),
            )
        ),
        (
            "run",
            small_run_config(kind="synth_convergence", stack={**SMALL_STACK, "upa_shape": [0, 2]}),
            "upa_shape counts must be at least 1, got [0, 2]",
        ),
        # The amplitude range (stack.ALPHA_BOUNDS) and the amplitude-controlled
        # layers' phase, 0, are fixed: naming one is rejected.
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "alpha_min_db": -22.0, "alpha_max_db": 13.0, "ac_phase_seed": 3}),
            "unknown stack fields: ac_phase_seed, alpha_max_db, alpha_min_db",
        ),
        # With alpha_pc 0 the stack radiates nothing: the baseline raised on its
        # zero power budget after the whole synthesis.
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "alpha_pc": 0.0}),
            "alpha_pc must be positive in a downlink experiment",
        ),
        # A repeated sweep value ran its point twice and doubled its count.
        ("run", small_run_config(sweep={"user_counts": [6, 6]}), "sweep axis user_counts repeats 6"),
        # Fields that restated another value: the carrier is fixed
        # (propagation.CARRIER_HZ), outputs go to --out, and the Armijo constant is fixed.
        (
            "run",
            small_run_config(scenario={"user_count": 6, "slot_count": 2, "carrier_hz": 28e9}),
            "unknown scenario fields: carrier_hz",
        ),
        ("run", small_run_config(output_path="elsewhere"), "unknown config fields: output_path"),
        ("run", small_run_config(pgd={"armijo_constant": 1e-4}), "unknown pgd fields: armijo_constant"),
        ("synth", synth_config(SMALL_STACK, {"armijo_constant": 1e-4}), "unknown pgd fields: armijo_constant"),
        # A scenario, where given, still needs its one required field.
        ("synth", synth_config(SMALL_STACK, scenario={}), "missing scenario fields: user_count"),
        # The cell, the link budget and PGD's stopping tolerance are fixed
        # values: naming one is rejected, even at its fixed value.
        *(
            (
                "run",
                small_run_config(scenario={"user_count": 6, "slot_count": 2, field: value}),
                f"unknown scenario fields: {field}",
            )
            for field, value in (
                ("bs_height_m", 10.0),
                ("inner_radius_m", 10.0),
                ("outer_radius_m", 50.0),
                ("bandwidth_hz", 10e6),
                ("tx_power_dbm", 15.0),
                ("noise_psd_dbm_hz", -174.0),
            )
        ),
        ("run", small_run_config(pgd={"relative_tolerance": 1e-8}), "unknown pgd fields: relative_tolerance"),
        (
            "synth",
            synth_config(SMALL_STACK, {"relative_tolerance": 1e-8}),
            "unknown pgd fields: relative_tolerance",
        ),
        # The carrier, the spacings, the element areas and the input layer's
        # beta are fixed values too (stacksim.propagation, stack.BETA).
        *(
            (form, config, f"unknown stack fields: {field}")
            for field, value in (
                ("frequency_hz", 28e9),
                ("element_spacing_wl", 0.5),
                ("layer_separation_wl", 0.5),
                ("feed_separation_wl", 0.5),
                ("feed_element_area_wl2", None),
                ("meta_element_area_wl2", None),
                ("beta", 1.0),
            )
            for form, config in (
                ("run", small_run_config(stack={**SMALL_STACK, field: value})),
                ("synth", synth_config({**SMALL_STACK, field: value})),
            )
        ),
        # The output layer is always phase-controlled.
        (
            "run",
            small_run_config(stack={**SMALL_STACK, "terminal_kind": "pc"}),
            "unknown stack fields: terminal_kind",
        ),
        # Only a synthesis may omit the scenario: a downlink run serves its users.
        (
            "run",
            {key: value for key, value in small_run_config().items() if key != "scenario"},
            "missing config fields: scenario",
        ),
        # The layer counts: the output layer is one of the pc_layers.
        ("run", small_run_config(stack={**SMALL_STACK, "pc_layers": 0}), "pc_layers must be at least 1 (the output layer)"),
        ("run", small_run_config(stack={**SMALL_STACK, "ac_layers": -1}), "ac_layers must be non-negative, got -1"),
        # fig3's former kind: every synthesis is synth_convergence.
        (
            "synth",
            synth_config(SMALL_STACK, kind="synth_sweep_layers"),
            "'synth_sweep_layers' is not a valid ExperimentKind",
        ),
    ],
)
def test_malformed_config_exits_with_one_error_line(runner, tmp_path, form, config, message):
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps(config))
    result = runner.invoke(main, ["run", str(config_file), "--out", str(tmp_path / "out")])
    assert result.exit_code == 1
    assert message in result.output
    assert result.output.count("Error:") == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not (tmp_path / "out").exists()


def test_non_square_inner_counts_rejected_under_scale(runner, tmp_path):
    # The sizes are checked when the config is read, before --scale takes their square roots.
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps(small_run_config(kind="synth_convergence", sweep={"inner_counts": [10, 16]})))
    result = runner.invoke(main, ["run", str(config_file), "--scale", "0.5", "--out", str(tmp_path / "out")])
    assert result.exit_code != 0
    assert "swept layer sizes must be perfect squares, got 10" in result.output
    assert result.output.count("Error:") == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize(
    "config, message",
    [
        (small_run_config(stack={**SMALL_STACK, "input_shape": [-2, -2]}),
         "input_shape counts must be at least 1, got [-2, -2]"),
        (small_run_config(scenario={"user_count": 2, "slot_count": 2}),
         "scenario: user_count (2) must be at least streams (4)"),
        (small_run_config(sweep={"user_counts": [-5, 20]}),
         "{'users': -5}: scenario: user_count must be at least 1"),
    ],
    ids=["negative-shape", "users-below-streams", "negative-swept-users"],
)
def test_invalid_config_rejected_before_scale(runner, tmp_path, config, message):
    # --scale floors sizes and user counts, so scaling first ran each of these
    # configs as a valid one and wrote its results.
    config_file = tmp_path / "bad.json"
    config_file.write_text(json.dumps(config))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", str(config_file), "--scale", "0.5", "--out", str(out)])
    assert result.exit_code != 0
    assert message in result.output
    assert result.output.count("Error:") == 1
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


def test_synth_matches_experiment_trial_zero(runner, tmp_path):
    # A single synthesis run writes the trace of harness.synthesize at trial 0.
    pgd = {"max_iterations": 25}
    config_file = tmp_path / "synth.json"
    config_file.write_text(json.dumps(synth_config(BARE_STACK, pgd, master_seed=5)))
    out = tmp_path / "synth"
    result = runner.invoke(main, ["run", str(config_file), "--out", str(out)])
    assert result.exit_code == 0, result.output

    stack = build_stack(ss.StackDescription(**BARE_STACK))
    write_trace_csv(harness.synthesize(stack, pgd, 5, 0), tmp_path / "direct.csv")
    assert (out / "trace_base_trial0.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_fig5_scaled_smoke(runner, tmp_path):
    out = tmp_path / "fig5"
    result = runner.invoke(
        main, ["fig5", "--trials", "1", "--scale", "0.12", "--seed", "1", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert lines[0] == "experiment,users,metric,value,seed,elapsed_s"
    # Every downlink run prints the sum rate and both fairness variants.
    for headline in ("ta_sum_rate", "fairness_per_slot", "fairness_coherence"):
        assert f"{headline} (median over trials):" in result.output


def test_fig6_fairness_variant_flag(runner, tmp_path):
    # Both fairness variants are recorded and printed; no flag picks one.
    out = tmp_path / "fig6"
    result = runner.invoke(main, ["fig6", "--trials", "1", "--scale", "0.12", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "fairness_per_slot (median over trials):" in result.output
    assert "fairness_coherence (median over trials):" in result.output
    csv_text = (out / "results.csv").read_text()
    assert "fairness_coherence" in csv_text and "fairness_per_slot" in csv_text
    flag = runner.invoke(main, ["fig6", "--fairness-variant", "per-slot", "--out", str(out)])
    assert flag.exit_code != 0 and "No such option '--fairness-variant'" in flag.output
