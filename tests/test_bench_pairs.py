import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0, 12.0, 11.0, 13.0, 14.0]


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles(PARENT) == (11.0, 12.0, 13.0)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


@pytest.mark.parametrize(
    "change, better, wins, beyond_iqr, change_better",
    [
        # One tie, three wins, one loss; the medians differ by exactly the IQR (2), not more.
        ([9.0, 12.0, 10.0, 10.0, 15.0], "lower", 3, False, True),
        ([9.0, 12.0, 10.0, 10.0, 15.0], "higher", 1, False, False),
        ([7.0, 8.0, 8.0, 9.0, 9.0], "lower", 5, True, True),
        ([7.0, 8.0, 8.0, 9.0, 9.0], "higher", 0, True, False),
    ],
)
def test_compare_counts_wins_and_tests_medians_against_parent_iqr(change, better, wins, beyond_iqr, change_better):
    stats = bench_pairs.compare(PARENT, change, better)
    assert stats["parent"] == (11.0, 12.0, 13.0)
    assert stats["change"] == bench_pairs.quartiles(change)
    assert (stats["wins"], stats["pairs"]) == (wins, 5)
    assert stats["beyond_iqr"] is beyond_iqr
    assert stats["change_better"] is change_better


def test_compare_needs_paired_runs():
    with pytest.raises(ValueError):
        bench_pairs.compare(PARENT, PARENT[:4], "lower")


FAKE_BENCH = """
import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
tree = Path.cwd()
with open(tree.parent / "order.log", "a") as log:
    log.write(f"{tree.name} {seed} {sys.argv[sys.argv.index('--seconds') + 1]}\\n")
wall = seed + (0.5 if tree.name == "change" else 1.0)
print(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))
"""


def test_runs_alternate_and_report_each_metric(tmp_path, capsys):
    declared = {
        "command": [sys.executable, "fake_bench.py"],
        "run_seconds": 3,
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}],
    }
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "fake_bench.py").write_text(FAKE_BENCH)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(declared))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--first-seed", "4", "--pairs", "3"]
    assert bench_pairs.main(argv) == 0
    assert (tmp_path / "order.log").read_text().split("\n")[:-1] == [
        "parent 4 3", "change 4 3", "change 5 3", "parent 5 3", "parent 6 3", "change 6 3",
    ]
    last = capsys.readouterr().out.splitlines()[-1]
    # Parent walls 5, 6, 7 (IQR 1); change walls 4.5, 5.5, 6.5.
    assert last.startswith("wall_s (s): parent 6 [5.5, 6.5], change 5.5 [5, 6] (-8.3%); change won 3/3;")
    assert "differ by no more than the parent's IQR 1" in last
