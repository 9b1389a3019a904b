"""``tools/bench.py``'s parsing and summarising, on canned benchmark output.

No benchmark runs here: the pair driver's real runs take minutes and stay
out of the test suite.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).parent.parent / "tools" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BETTER = {"wall_s": "lower", "evals_per_s": "higher", "peak_rss_mb": "lower"}


def _output(attempted, correct=True, failed=0, **metrics):
    """What ``perfbench/run.py`` prints: comment lines, metric lines, then one JSON line."""
    result = {"attempted": attempted, "correct": correct, "failed": failed,
              "metrics": {name: {"unit": "s", "value": value} for name, value in metrics.items()}}
    lines = ["# rspin benchmark: workload=g0-window seed=1 seconds=34 trace=0",
             *(f"{name} {value!r} s" for name, value in metrics.items()), json.dumps(result, sort_keys=True)]
    return "\n".join(lines) + "\n"


def _runs(pairs):
    """Runs of both sides from ``[(parent metrics, change metrics), ..]``."""
    return [{"pair": i, "side": side, "metrics": metrics}
            for i, sides in enumerate(pairs) for side, metrics in zip(bench.SIDES, sides)]


def test_a_run_is_read_from_its_last_line():
    run = bench.parse_run(_output(1170, wall_s=0.0385, peak_rss_mb=24.02))
    assert run == {"correct": True, "attempted": 1170, "failed": 0,
                   "metrics": {"wall_s": 0.0385, "peak_rss_mb": 24.02}}


@pytest.mark.parametrize("stdout", ["", "# only a comment\n", "wall_s 0.1 s\n"])
def test_a_run_without_its_json_line_is_refused(stdout):
    with pytest.raises(ValueError):
        bench.parse_run(stdout)


def test_quartiles_are_inclusive_and_a_single_value_is_all_three():
    assert bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_pairs_are_won_by_the_better_side_of_each_metric_and_ties_by_neither():
    pairs = [({"wall_s": 4.0, "evals_per_s": 10.0, "peak_rss_mb": 24.0},
              {"wall_s": 3.0, "evals_per_s": 12.0, "peak_rss_mb": 24.0}),
             ({"wall_s": 4.2, "evals_per_s": 11.0, "peak_rss_mb": 24.1},
              {"wall_s": 4.4, "evals_per_s": 13.0, "peak_rss_mb": 24.3}),
             ({"wall_s": 4.1, "evals_per_s": 9.0, "peak_rss_mb": 24.2},
              {"wall_s": 3.1, "evals_per_s": 8.0, "peak_rss_mb": 24.0})]
    summary = bench.summarise(_runs(pairs), BETTER)
    assert summary["wall_s"] == {
        "better": "lower", "pairs": 3, "change_won": 2, "parent_won": 1,
        "parent": {"q1": 4.05, "median": 4.1, "q3": 4.15},
        "change": {"q1": 3.05, "median": 3.1, "q3": 3.75},
    }
    assert (summary["evals_per_s"]["change_won"], summary["evals_per_s"]["parent_won"]) == (2, 1)
    assert (summary["peak_rss_mb"]["change_won"], summary["peak_rss_mb"]["parent_won"]) == (1, 1)


def test_a_pair_missing_a_side_or_a_metric_is_left_out():
    runs = _runs([({"wall_s": 4.0}, {"wall_s": 3.0}), ({"wall_s": 4.0}, {})])
    runs.append({"pair": 2, "side": "parent", "metrics": {"wall_s": 1.0}})
    summary = bench.summarise(runs, BETTER)
    assert list(summary) == ["wall_s"]
    assert summary["wall_s"]["pairs"] == 1 and summary["wall_s"]["change_won"] == 1


def test_the_changes_sentence_quotes_the_file_the_medians_and_the_wins():
    pairs = [({"wall_s": 4.0}, {"wall_s": 3.0}), ({"wall_s": 5.0}, {"wall_s": 3.5})]
    record = {"python": "3.11.7", "seconds": 34.0, "parent": {"commit": "483e651aaaa"},
              "change": {"commit": "0123456bbbb"},
              "workloads": {"g0-window": {"pairs": 2, "summary": bench.summarise(_runs(pairs), BETTER)}}}
    assert bench.sentence(record, "BENCH_x.json") == (
        "Benchmark pairs in `BENCH_x.json` (tools/bench.py, Python 3.11.7, parent 483e651 -> change 0123456, "
        "34 s runs, medians): g0-window (2 pairs): wall_s 4.5 -> 3.25 (parent IQR 0.5, change won 2/2)."
    )


@pytest.mark.parametrize("text", ["g0-window", "g0-window:0", ":3", "g0-window:x"])
def test_a_plan_needs_a_workload_and_a_positive_pair_count(text):
    with pytest.raises(bench.argparse.ArgumentTypeError):
        bench._plan(text)
    assert bench._plan("g0-window:10") == ("g0-window", 10)


def _main_on_canned_runs(monkeypatch, tmp_path, outputs):
    """Run ``main`` for one ``g0-window`` pair per entry of ``outputs``, a map of ``(seed, side)`` to run output.

    Nothing is exported or run: ``_run`` reads the canned output, and the
    file is written under ``tmp_path``.
    """
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 34, "end_to_end": [{"name": "wall_s", "better": "lower"}]}))
    monkeypatch.setattr(bench, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench, "_git", lambda *args: "0123456789abcdef\n")
    monkeypatch.setattr(bench, "_export", lambda commit, into: None)
    monkeypatch.setattr(bench, "_run", lambda copy, workload, seed, seconds:
                        bench.parse_run(outputs[seed, bench.os.path.basename(copy)]))
    pairs = len(outputs) // 2
    return bench.main(["--label", "t", "--parent", "HEAD~1", "--change", "HEAD", f"g0-window:{pairs}"])


def test_runs_that_fail_a_check_are_named_and_nothing_is_quoted(monkeypatch, tmp_path, capsys):
    outputs = {(1, "parent"): _output(40, wall_s=0.03), (1, "change"): _output(41, correct=False, wall_s=0.02),
               (2, "parent"): _output(40, failed=3, wall_s=0.03), (2, "change"): _output(41, wall_s=0.02)}
    assert _main_on_canned_runs(monkeypatch, tmp_path, outputs) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if not line.startswith("#")] == [
        "BENCH_t.json: g0-window seed 1 change: correct false, failed 0 of 41",
        "BENCH_t.json: g0-window seed 2 parent: correct true, failed 3 of 40",
    ]
    # the runs are kept for inspection, each with what it reported
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(run["seed"], run["side"], run["correct"], run["failed"])
            for run in record["workloads"]["g0-window"]["runs"]] == [
        (1, "parent", True, 0), (1, "change", False, 0), (2, "change", True, 0), (2, "parent", True, 3)]


def test_runs_that_pass_every_check_are_quoted_and_exit_0(monkeypatch, tmp_path, capsys):
    outputs = {(seed, side): _output(40, wall_s=0.03 if side == "parent" else 0.02)
               for seed in (1, 2) for side in bench.SIDES}
    assert _main_on_canned_runs(monkeypatch, tmp_path, outputs) == 0
    out, err = capsys.readouterr()
    assert out.startswith("Benchmark pairs in `BENCH_t.json`") and "change won 2/2" in out
    assert [line for line in err.splitlines() if not line.startswith("#")] == []
