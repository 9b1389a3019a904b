"""Run the benchmark on two commits in pairs and write ``BENCH_<label>.json``.

Run from the root of a checkout, naming the two commits and, for each
workload, how many pairs of runs to make:

    python3 tools/bench.py --label my-change --parent HEAD~1 --change HEAD \\
        g0-window:10 dr1-window:5 cli-session:5

Each commit is put into a fresh directory with ``git archive``, and
``python3 <copy>/perfbench/run.py`` runs there unchanged, with
``PYTHONDONTWRITEBYTECODE=1``: the copies hold no bytecode, so every run
compiles the sources it imports. Each run lasts BENCHMARK.json's
``run_seconds``. A pair is one run of each side with the same seed, 1 for
the first pair, 2 for the next and so on; the side that runs first alternates
from pair to pair. The copies go in a new temporary directory (under
``$TMPDIR`` if set), removed at the end. The file written at the repository root holds both
commits, the Python version, the bytecode state, every run's metrics and
``attempted`` count (a faster change runs more rounds, which can raise
``peak_rss_mb`` by itself), each side's median and quartiles per metric,
and how many pairs each side won. The script then prints one sentence for
CHANGES.md that quotes the file. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The result of one ``perfbench/run.py`` run: its last output line, a JSON object."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the benchmark printed nothing")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and first and third quartiles (inclusive method; a single value is all three)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: Sequence[dict], better: Dict[str, str]) -> Dict[str, dict]:
    """Per metric: each side's quartiles, and the pairs each side won (ties to neither).

    ``runs`` holds one entry per run with ``pair``, ``side`` and ``metrics``;
    ``better`` maps a metric to ``"lower"`` or ``"higher"``.
    """
    by_pair: Dict[int, Dict[str, dict]] = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    pairs = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    summary = {}
    for name, direction in better.items():
        pairs_with = [(p["parent"][name], p["change"][name]) for p in pairs
                      if name in p["parent"] and name in p["change"]]
        if not pairs_with:
            continue
        sign = 1 if direction == "lower" else -1
        summary[name] = {
            "better": direction,
            "pairs": len(pairs_with),
            "parent": quartiles([old for old, _ in pairs_with]),
            "change": quartiles([new for _, new in pairs_with]),
            "change_won": sum(1 for old, new in pairs_with if sign * (new - old) < 0),
            "parent_won": sum(1 for old, new in pairs_with if sign * (old - new) < 0),
        }
    return summary


def sentence(record: dict, filename: str) -> str:
    """One CHANGES.md sentence quoting every workload's medians and pair wins from ``record``."""
    parts = []
    for workload, entry in record["workloads"].items():
        metrics = "; ".join(
            f"{name} {s['parent']['median']:.4g} -> {s['change']['median']:.4g} "
            f"(parent IQR {s['parent']['q3'] - s['parent']['q1']:.2g}, change won {s['change_won']}/{s['pairs']})"
            for name, s in entry["summary"].items()
        )
        parts.append(f"{workload} ({entry['pairs']} pairs): {metrics}")
    return (f"Benchmark pairs in `{filename}` (tools/bench.py, Python {record['python']}, "
            f"parent {record['parent']['commit'][:7]} -> change {record['change']['commit'][:7]}, "
            f"{record['seconds']:g} s runs, medians): " + "; ".join(parts) + ".")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def _export(commit: str, into: str) -> None:
    """Put the committed files of ``commit`` into the empty directory ``into``."""
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", into], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise RuntimeError(f"git archive {commit} exited {archive.returncode}")


def _run(copy: str, workload: str, seed: int, seconds: float) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, os.path.join(copy, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=copy, env=env, capture_output=True, text=True, timeout=seconds * 10 + 300,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {copy} exited {done.returncode}: {done.stderr}")
    return parse_run(done.stdout)


def _declared() -> Tuple[float, Dict[str, str]]:
    """BENCHMARK.json's run length, and its end-to-end metrics with the direction that is better."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return declared["run_seconds"], {m["name"]: m["better"] for m in declared["end_to_end"]}


def _plan(text: str) -> Tuple[str, int]:
    workload, _, pairs = text.partition(":")
    if not workload or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:PAIRS, got {text!r}")
    return workload, int(pairs)


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="the commit measured against")
    parser.add_argument("--change", required=True, help="the commit measured")
    parser.add_argument("plans", nargs="+", type=_plan, metavar="WORKLOAD:PAIRS")
    args = parser.parse_args(argv)

    seconds, better = _declared()
    record = {
        "label": args.label,
        "parent": {"rev": args.parent, "commit": _git("rev-parse", args.parent + "^{commit}").strip()},
        "change": {"rev": args.change, "commit": _git("rev-parse", args.change + "^{commit}").strip()},
        "python": platform.python_version(),
        "seconds": seconds,
        "workloads": {},
    }
    work = tempfile.mkdtemp(prefix="bench-")
    try:
        copies = {}
        for side in SIDES:
            copies[side] = os.path.join(work, side)
            os.mkdir(copies[side])
            _export(record[side]["commit"], copies[side])
        for workload, pairs in args.plans:
            runs: List[dict] = []
            for pair in range(pairs):
                seed = pair + 1
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for position, side in enumerate(order):
                    result = _run(copies[side], workload, seed, seconds)
                    runs.append({"pair": pair, "seed": seed, "side": side, "position": position, **result})
                    print(f"# {workload} pair {pair} {side}: attempted {result['attempted']}, "
                          f"failed {result['failed']}", file=sys.stderr)
            record["workloads"][workload] = {"pairs": pairs, "runs": runs, "summary": summarise(runs, better)}
        record["bytecode"] = {
            "PYTHONDONTWRITEBYTECODE": "1",
            "pycache_left_in_copies": any("__pycache__" in dirs for _, dirs, _ in os.walk(work)),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    filename = f"BENCH_{args.label}.json"
    with open(os.path.join(ROOT, filename), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(sentence(record, filename))
    return 0


if __name__ == "__main__":
    sys.exit(main())
