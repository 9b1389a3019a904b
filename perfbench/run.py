"""Benchmark rspin end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload g0-window --seed 1 --seconds 34 --trace 0

The benchmark imports ``rspin`` from ``src/`` of the checkout it sits in and
refuses to run against any other copy. It sets the workload up several times
(each time importing rspin afresh; ``setup_s`` is the median), then runs
whole rounds of seeded requests for as long as they fit in ``--seconds``,
checking every answer exactly.

With ``--trace 0`` it reports the end-to-end metrics. With ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, including the tracing overhead. Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(provenance, percentile used for the tail, error ratio, ROADMAP counts) and,
for traced runs, the spans are written under ``.perfbench_out/``.

Exit codes: 0 when a result was printed (``correct`` says whether every check
passed), 2 when the benchmark cannot run against this checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 3
HASH_SEED = "0"
WORKLOAD_NAMES = ("g0-window", "dr1-window", "cli-session")


class CheckoutError(Exception):
    """The benchmark cannot measure the checked-out code."""


def import_rspin() -> None:
    """Import rspin from this checkout's ``src/``, and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import rspin.cli  # noqa: F401
    except ImportError as exc:
        raise CheckoutError(f"cannot import rspin from {SRC}: {exc}") from exc
    import rspin

    where = os.path.realpath(rspin.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise CheckoutError(f"rspin resolves to {where}, not to {SRC}")


def reimport_rspin() -> None:
    """Import rspin afresh for a set-up repetition, then put the first copy back.

    The fresh modules are thrown away, so the workload and the tracer keep
    working on the modules imported first.
    """
    loaded = {k: v for k, v in sys.modules.items() if k == "rspin" or k.startswith("rspin.")}
    for name in loaded:
        del sys.modules[name]
    try:
        import rspin.cli  # noqa: F401
    finally:
        sys.modules.update(loaded)


def provenance() -> dict:
    """What was measured, on what: recorded with every result."""
    import rspin

    sources = hashlib.sha256()
    package = os.path.dirname(rspin.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                sources.update(name.encode() + b"\0" + fh.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "rspin_file": rspin.__file__,
        "src_sha256": sources.hexdigest(),
        "git_commit": commit,
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }


def pin_to_one_cpu() -> None:
    """Run this process and its CLI children on one CPU.

    The yardstick in ``speed.py`` then samples the CPU the requests run on;
    the benchmark waits while a CLI child runs, so they never compete.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(workload_name: str, seed: int, seconds: float, trace: bool, plan: str = "full") -> dict:
    """Set up, run rounds for ``seconds``, and return the full result record."""
    import_rspin()
    import metrics
    import workloads
    from speed import Speed
    from tracing import SPAN_FIELDS, Tracer

    speed = Speed()
    speed.sample()
    workload = workloads.make(workload_name, plan, seed, speed)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            reimport_rspin()
            workload.setup()
            setups.append((t0, time.perf_counter()))
            speed.sample()

        tracer = Tracer() if trace else None
        plain, traced = [], []
        # Rounds run while the next one is expected to end inside the time
        # box (at least one untraced and, with --trace 1, one traced round),
        # so every run does a whole number of rounds and ends near the box.
        deadline = time.perf_counter() + seconds
        last = {}
        while True:
            traced_round = trace and len(traced) < len(plain)
            gc.collect()  # every round starts from the same collector state
            speed.sample()
            t0 = time.perf_counter()
            if traced_round:
                with tracer.installed():
                    traced.append(workload.run_round(tracer))
            else:
                plain.append(workload.run_round(None))
            last[traced_round] = time.perf_counter() - t0
            speed.sample()
            following = trace and len(traced) < len(plain)
            if plain and (traced or not trace):
                expected_end = time.perf_counter() + last.get(following, last[traced_round])
                if expected_end > deadline:
                    break
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        workload.close()

    rounds = plain + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    e2e, e2e_notes = metrics.end_to_end(setups, plain, peak_rss_mb, speed, workload.plan["tail_pct"])
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "plan": plan,
        "provenance": provenance(),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_ratio": failed / attempted,
        "failures": [f for r in rounds for f in r.failures][:20],
        "setup_repeats_s": [end - start for start, end in setups],
        "end_to_end": e2e,
        "end_to_end_notes": e2e_notes,
    }
    if trace:
        record["per_layer"], record["per_layer_notes"] = metrics.per_layer(tracer, traced, plain, speed)
        record["spans"] = {"fields": SPAN_FIELDS, "rows": tracer.spans,
                           "aggregates": dict(tracer.aggregates)}
    return record


def report(record: dict) -> dict:
    """Print the human-readable lines; return the one-line result."""
    import metrics
    from speed import REFERENCE_S

    print(f"# rspin benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']}")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    notes = record["end_to_end_notes"]
    print(f"# {notes['rounds']} untraced rounds, {notes['samples']} requests, tail "
          f"p{notes['tail_percentile']:g} with {notes['samples_beyond_tail']:g} samples beyond it")
    if notes["samples_beyond_tail"] < 10 and not record["trace"]:
        print("# WARNING: fewer than 10 samples beyond the tail percentile")
    print(f"# times scaled to the yardstick's reference speed; median yardstick "
          f"{notes['yardstick_median_s']:.6f} s over {notes['yardstick_samples']} samples "
          f"(reference {REFERENCE_S} s); raw: " + json.dumps(notes["raw"], sort_keys=True))
    print(f"# error_ratio {record['error_ratio']:.6g} "
          f"({record['failed']} failed of {record['attempted']} attempted)")
    for failure in record["failures"]:
        print("# FAILED " + failure)
    if record["trace"]:
        values, units = record["per_layer"], {k: u for k, (u, _) in metrics.PER_LAYER.items()}
        layer_notes = record["per_layer_notes"]
        print(f"# {layer_notes['traced_rounds']} traced rounds; per-layer values are per round")
        for name in layer_notes["absent"]:
            print(f"# absent {name} (its traced call is gone or changed shape)")
        for check in layer_notes["roadmap"]:
            state = "matches" if check["match"] else "DIFFERS"
            print(f"# ROADMAP {check['what']}: expected {check['expected']}, "
                  f"seen {check['seen']} ({state})")
        for name, base in layer_notes["bases"].items():
            print(f"# base of {name}: {base:.6g}")
    else:
        values, units = record["end_to_end"], metrics.END_TO_END
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def save(record: dict) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + "-spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)


def main(argv=None) -> int:
    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing is randomised per process, which changes dict and
        # set layouts and so the speed and peak memory of this dict-heavy
        # code from run to run; run with one fixed hash seed instead.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plan", choices=("full", "smoke"), default="full",
                        help="'smoke' runs tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    pin_to_one_cpu()
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.plan)
    except CheckoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(record)
    save(record)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
