"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench/tests -q

They check that each workload runs and prints every metric BENCHMARK.json
names, with its unit; that a wrong expected value is counted as a failure;
and that the benchmark refuses to run without the package's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402

SECONDS = {"g0-window": 1.0, "dr1-window": 0.5, "cli-session": 1.0}


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_prints_every_named_metric(workload, trace):
    seconds = SECONDS[workload] if trace == 0 else 0.2
    proc = bench("--workload", workload, "--seed", "3", "--seconds", str(seconds),
                 "--trace", str(trace), "--plan", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def _wrong_loop_sum(monkeypatch):
    import rspin.genus0

    real = rspin.genus0.loop_sum
    monkeypatch.setattr(rspin.genus0, "loop_sum", lambda *a, **k: real(*a, **k) + 1)


def _wrong_window_digest(monkeypatch):
    import workloads

    windows = workloads.PLANS["dr1-window"]["smoke"]["windows"]
    (window, (count, nonvanishing, keys, values)), rest = windows[0], windows[1:]
    wrong = ((window, (count, nonvanishing, keys, "0" * 16)),) + rest
    monkeypatch.setitem(workloads.PLANS["dr1-window"]["smoke"], "windows", wrong)


def _wrong_b_value(monkeypatch):
    import rspin.dr1

    real = rspin.dr1.b_value
    monkeypatch.setattr(rspin.dr1, "b_value", lambda *a, **k: real(*a, **k) + 1)


@pytest.mark.parametrize(
    "workload, corrupt",
    [("g0-window", _wrong_loop_sum), ("dr1-window", _wrong_window_digest),
     ("cli-session", _wrong_b_value)],
)
def test_wrong_expected_value_counts_in_error_ratio(workload, corrupt, monkeypatch):
    run.import_rspin()
    corrupt(monkeypatch)
    record = run.measure(workload, seed=3, seconds=0.1, trace=False, plan="smoke")
    assert record["failed"] >= 1
    assert record["correct"] is False
    assert record["error_ratio"] == record["failed"] / record["attempted"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "g0-window", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
