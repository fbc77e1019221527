"""bench/ab.py: its arguments and its report, never its timings."""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tvdist

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import ab  # noqa: E402

SRC = str(ROOT / "src")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--change", SRC, "--workload", "markov-near"], "--parent and --change are both required"),
        (["--parent", SRC, "--change", SRC, "--workload", "nope"], "invalid choice: 'nope'"),
        (["--parent", str(ROOT / "tests"), "--change", SRC, "--workload", "markov-near"], "no tvdist package under"),
        (["--parent", SRC, "--change", SRC, "--workload", "markov-near", "--pairs", "0"], "must be at least 1, got 0"),
        (["--parent", SRC, "--change", SRC, "--workload", "markov-near", "--passes", "x"], "a whole number, got 'x'"),
    ],
)
def test_bad_arguments_exit_2_naming_the_problem(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_summary_counts_wins_and_ties_for_neither():
    report = ab.summarize([4.0, 2.0, 3.0, 5.0], [3.0, 2.0, 4.0, 1.0], match=True)
    assert report["pairs"] == 4
    assert (report["change_wins"], report["parent_wins"]) == (2, 1)
    # statistics.quantiles' default, exclusive method
    assert report["parent"] == {"median": 3.5, "q1": 2.25, "q3": 4.75}
    assert report["change"] == {"median": 2.5, "q1": 1.25, "q3": 3.75}
    assert report["parent_best_s"] == [4.0, 2.0, 3.0, 5.0]


def test_one_pair_reports_its_times_as_median_and_quartiles():
    report = ab.summarize([2.0], [1.0], match=False)
    assert report["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert report["change_wins"] == 1 and report["match"] is False


def test_match_compares_every_report_field():
    # a change to tries, upper or eps_s alone is a mismatch, like one to the estimate
    base = {"estimate": 0.5, "max_support": 7, "tries": 3, "upper": 0.75, "eps_s": 0.005, "elapsed": 1.0}
    assert ab.matched(base) == [(0.5).hex(), 7, 3, (0.75).hex(), (0.005).hex()]
    for key, value in [("estimate", 0.25), ("max_support", 8), ("tries", 2), ("upper", None), ("eps_s", 0.01)]:
        assert ab.matched({**base, key: value}) != ab.matched(base)
    # elapsed differs run to run and is not compared
    assert ab.matched({**base, "elapsed": 2.0}) == ab.matched(base)


def test_tally_counts_calls_by_tries():
    outputs = [["e", 1, 2, "u", "w"], ["e", 1, 0, "u", "w"], ["e", 1, 2, "u", "w"], ["e", 0, None, None, None]]
    assert ab.tally(outputs) == {"0": 1, "2": 2, "None": 1}


def test_the_battery_covers_its_grid():
    runs = ab.battery(tvdist)
    forced = [run for run in runs if run[4]]
    assert (len(runs), len(forced)) == (8008, 3072)
    assert {run[1].n for run in forced} == {2, 3, 4}
    assert all(run[1].n <= 8 for run in runs if run[2] == 1e-3)
    # each pair at each eps runs once with and once without its table
    assert sum(run[3] for run in runs) == len(runs) // 2
    near = {(run[1].n, run[1].q) for run in runs if run[1].q == 10}
    assert near == {(50, 10), (16, 10)}


def test_battery_outputs_force_only_the_forced_runs():
    runs = ab.battery(tvdist)
    # forced and unforced runs in turn: a forced run ends at the paper's
    # width, and the run after it is not forced
    sample = [runs[-2], runs[0], runs[-1], runs[1]]
    holds = tvdist.product._holds
    outputs = ab.battery_outputs(tvdist, sample)
    assert tvdist.product._holds is holds
    assert all(len(fields) == len(ab.MATCHED) + 2 for fields in outputs)
    assert (outputs[0][2], outputs[2][2]) == (3, 3)
    assert [outputs[1], outputs[3]] == ab.battery_outputs(tvdist, runs[:2])
    # the table's sha256 exactly where the run returned its table
    assert [fields[-1] is not None for fields in outputs] == [run[3] for run in sample]


def test_a_tree_without_the_certificate_to_force_is_refused():
    with pytest.raises(SystemExit, match="no product._holds to force"):
        ab.battery_outputs(SimpleNamespace(product=SimpleNamespace(), __file__="tvdist"), [])


@pytest.mark.parametrize("workload", ["product-near", "cli-small"])
def test_a_side_reports_every_matched_field_of_each_call(workload):
    # the library's report and the CLI's document give the same fields; an
    # exact run's document leaves tries, upper and eps_s out
    outputs = ab._side(Path(SRC), workload, 1, 1)["outputs"]
    assert outputs and all(len(fields) == len(ab.MATCHED) for fields in outputs)
    folded = [fields for fields in outputs if fields[2] is not None]
    assert folded and all(isinstance(fields[0], str) and fields[2] >= 0 for fields in folded)
    assert all(fields[3] is not None and fields[4] is not None for fields in folded if fields[2] > 0)
    if workload == "cli-small":
        assert any(fields[2:] == [None, None, None] for fields in outputs)


def test_a_tree_against_itself_matches(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "ab.py"), "--parent", SRC, "--change", SRC,
         "--workload", "product-near", "--pairs", "1", "--passes", "2"],
        capture_output=True, text=True, timeout=300, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    *text, last = proc.stdout.strip().splitlines()
    report = json.loads(last)
    assert report["workload"] == "product-near" and report["seed"] == 1 and report["passes"] == 2
    assert report["pairs"] == 1 and report["match"] is True
    assert sum(report["tries"].values()) == 3 and set(report["tries"]) <= {"0", "1", "2", "3"}
    assert report["change_wins"] + report["parent_wins"] <= 1
    for side in ("parent", "change"):
        assert set(report[side]) == {"median", "q1", "q3"}
        assert len(report[f"{side}_best_s"]) == 1 and report[f"{side}_best_s"][0] > 0
    assert text[0].startswith("parent: median ") and text[1].startswith("change: median ")
    assert text[2].endswith("outputs match")
