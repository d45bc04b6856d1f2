import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

RESULTS = [
    "experiment,users,metric,value,seed,elapsed_s",
    "sumrate_vs_users,4,ta_sum_rate,0.25,11,1.5",
    "sumrate_vs_users,4,objective_db,-20.0,11,1.5",
]
TRACE = ["iteration,objective_linear,objective_db,step_layer_2", "0,2.0,0.0,", "1,1.0,-3.0,4.0"]


def summary_row(metric, value, users=4):
    return {"users": users, "metric": metric, "count": 1, "median": value, "mean": value, "p10": value, "p90": value}


ROWS = [summary_row("ta_sum_rate", 0.25), summary_row("objective_db", -20.0)]
SUMMARY = {"config": {"pgd": {"max_iterations": 3}}, "summary": ROWS}


def write_run(root: Path, results=RESULTS, trace=TRACE, summary=SUMMARY) -> Path:
    (root / "fig4").mkdir(parents=True)
    (root / "fig4" / "results.csv").write_text("\n".join(results) + "\n")
    (root / "fig4" / "trace_inner_cells25_trial0.csv").write_text("\n".join(trace) + "\n")
    (root / "fig4" / "summary.json").write_text(json.dumps(summary))
    return root


def test_only_elapsed_time_may_differ(tmp_path, capsys):
    slower = [line.replace(",1.5", ",9.5") for line in RESULTS]
    parent, change = write_run(tmp_path / "a"), write_run(tmp_path / "b", results=slower)
    assert compare_outputs.main([str(parent), str(change)]) == 0
    assert "3 files compared, 0 differing records" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change, expected",
    [
        ({"results": [RESULTS[0], RESULTS[1].replace("0.25", "0.2"), RESULTS[2]]},
         "fig4/results.csv: ta_sum_rate: 1 differing records, largest relative difference 0.2"),
        ({"results": [RESULTS[0], RESULTS[1].replace(",11,", ",12,"), RESULTS[2]]},
         "fig4/results.csv: seed: 1 differing records, largest relative difference 0.0833"),
        ({"trace": TRACE[:2]}, "objective_linear: 1 differing records, largest relative difference inf"),
        ({"summary": {**SUMMARY, "config": {"pgd": {"max_iterations": 4}}}},
         "fig4/summary.json: config.pgd.max_iterations: 1 differing records, largest relative difference 0.25"),
        ({"summary": {**SUMMARY, "config": {"pgd": {}}}},
         "pgd.max_iterations: 1 differing records, largest relative difference inf"),
        ({"summary": {**SUMMARY, "summary": [ROWS[0], summary_row("objective_db", -16.0)]}},
         "fig4/summary.json: summary.users=4,metric=objective_db.median: 1 differing records, "
         "largest relative difference 0.2"),
    ],
)
def test_any_other_difference_fails(tmp_path, capsys, change, expected):
    parent, changed = write_run(tmp_path / "a"), write_run(tmp_path / "b", **change)
    assert compare_outputs.main([str(parent), str(changed)]) == 1
    assert expected in capsys.readouterr().out


def test_label_difference_named_by_its_column(tmp_path, capsys):
    # A row whose value and seed agree differs in no metric, only in its label.
    relabelled = [RESULTS[0], *(line.replace("sumrate_vs_users", "custom") for line in RESULTS[1:])]
    parent, change = write_run(tmp_path / "a"), write_run(tmp_path / "b", results=relabelled)
    assert compare_outputs.main([str(parent), str(change)]) == 1
    differing = [line for line in capsys.readouterr().out.splitlines() if "differing records, largest" in line]
    assert differing == ["fig4/results.csv: experiment: 2 differing records, largest relative difference inf"]


def test_summary_json_compared_exactly(tmp_path, capsys):
    parent = write_run(tmp_path / "a", summary={"config": {"master_seed": 2}, "summary": []})
    change = write_run(tmp_path / "b", summary={"config": {"master_seed": 3}, "summary": []})
    assert compare_outputs.main([str(parent), str(change)]) == 1
    out = capsys.readouterr().out
    assert "fig4/summary.json: config.master_seed: 1 differing records, largest relative difference 0.333" in out
    assert "3 files compared, 1 differing records" in out


def test_added_metric_differs_alone(tmp_path, capsys):
    # Records are paired by sweep point and metric: a metric added before
    # the others shifts no other record.
    parent = write_run(tmp_path / "a")
    change = write_run(
        tmp_path / "b",
        results=[RESULTS[0], "sumrate_vs_users,4,pgd_converged,1.0,11,1.5", *RESULTS[1:]],
        summary={**SUMMARY, "summary": [summary_row("pgd_converged", 1.0), *ROWS]},
    )
    assert compare_outputs.main([str(parent), str(change)]) == 1
    lines = capsys.readouterr().out.splitlines()
    differing = [line for line in lines if "differing records, largest" in line]
    assert differing[0] == "fig4/results.csv: pgd_converged: 1 differing records, largest relative difference inf"
    assert len(differing) == 6
    for line in differing[1:]:
        assert line.startswith("fig4/summary.json: summary.users=4,metric=pgd_converged.")
        assert line.endswith(": 1 differing records, largest relative difference inf")
    assert lines[-1] == "3 files compared, 6 differing records"


def test_file_on_one_side_only_fails(tmp_path, capsys):
    parent, change = write_run(tmp_path / "a"), write_run(tmp_path / "b")
    (change / "fig4" / "trace_inner_cells36_trial0.csv").write_text(TRACE[0] + "\n")
    assert compare_outputs.main([str(parent), str(change)]) == 1
    assert "fig4/trace_inner_cells36_trial0.csv: present in CHANGE_DIR only" in capsys.readouterr().out


def test_empty_directories_fail(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert compare_outputs.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
