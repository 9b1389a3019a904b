"""Metric names, units and how each is computed from rounds and traces.

End-to-end metrics come from untraced rounds, with every timed unit scaled to
the yardstick's reference speed (see ``speed.py``); the raw figures go into
the full record beside them. Per-layer metrics come from the traced rounds
of a ``--trace 1`` run and are given per round (one round is one fixed batch
of requests, so per-round figures compare across runs that fit a different
number of rounds into their time box). Their times are raw, and
those named ``*_s`` include traced callees unless the name says ``self``.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Tuple

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

LAYERS = ("core", "genus0", "elimination", "dr1", "store", "verify", "cli", "bench")
GENUS0_RULES = ("selection", "vanishing-axiom", "three-point", "four-point",
                "zero-entry", "cache", "wdvv-elimination")
DR1_RULES = ("selection", "vanishing-axiom", "cache", "relation-3",
             "case-1", "case-2", "case-3", "window-elimination")
SUITES = ("loop", "relations", "oracle", "axioms")
SUBCOMMANDS = ("g0", "dr1", "b", "loopsum", "verify", "table")

# name -> (unit, traced name it depends on, or None)
PER_LAYER: Dict[str, Tuple[str, Optional[str]]] = {
    "core.bracket_keys": ("count", "core.bracket_key"),
    "core.bracket_key_s": ("s", "core.bracket_key"),
    "core.parse_key_calls": ("count", "core.parse_key"),
    "core.parse_key_s": ("s", "core.parse_key"),
    "genus0.window_sum_s": ("s", "genus0.window_sum"),
    "genus0.solve_bracket_calls": ("count", "genus0.solve_bracket"),
    **{f"genus0.rule.{rule}": ("count", "genus0.solve_bracket") for rule in GENUS0_RULES},
    "genus0.wdvv_build_calls": ("count", "genus0.wdvv_build"),
    "genus0.wdvv_build_self_s": ("s", "genus0.wdvv_build"),
    "genus0.unknowns": ("count", "genus0.wdvv_build"),
    "genus0.equations": ("count", "genus0.wdvv_build"),
    "elimination.solve_calls": ("count", "elimination.solve"),
    "elimination.solve_s": ("s", "elimination.solve"),
    "elimination.rows": ("count", "elimination.solve"),
    "elimination.cols": ("count", "elimination.solve"),
    "elimination.determined": ("count", "elimination.solve"),
    "elimination.free": ("count", "elimination.solve"),
    "elimination.rows_per_unknown": ("ratio", "elimination.solve"),
    "dr1.enumerate_s": ("s", "dr1.enumerate"),
    "dr1.enumerated": ("count", "dr1.enumerate"),
    "dr1.nonvanishing_ratio": ("ratio", "dr1.closed"),
    "dr1.relational_s": ("s", "dr1.relational"),
    "dr1.closed_s": ("s", "dr1.closed"),
    "dr1.b_trr_calls": ("count", "dr1.b_trr"),
    "dr1.b_trr_s": ("s", "dr1.b_trr"),
    **{f"dr1.rule.{rule}": ("count", "dr1.relational") for rule in DR1_RULES},
    "store.get_calls": ("count", "store.get"),
    "store.hit_ratio": ("ratio", "store.get"),
    "store.put_calls": ("count", "store.put"),
    "store.put_s": ("s", "store.put"),
    "store.load_s": ("s", "store.load"),
    "store.load_entries": ("count", "store.load"),
    "store.save_s": ("s", "store.save"),
    "store.save_bytes": ("bytes", "store.save"),
    **{f"verify.{suite}_ms": ("ms", None) for suite in SUITES},
    "cli.startup_ms": ("ms", None),
    **{f"cli.request_ms.{sub}": ("ms", None) for sub in SUBCOMMANDS},
    **{f"{layer}.self_s": ("s", None) for layer in LAYERS},
    "trace.overhead_ratio": ("ratio", None),
    "trace.accounted_ratio": ("ratio", None),
    "trace.spans": ("count", None),
    "trace.roadmap_checks": ("count", None),
    "trace.roadmap_mismatches": ("count", None),
}


def quantile(sorted_values: List[float], pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _timings(setups, rounds, measure, tail_pct: float) -> Dict[str, float]:
    """Timing metrics, with ``measure(start, end)`` giving a unit's seconds."""
    latencies = sorted(measure(s, e) for rnd in rounds for s, e, req in rnd.units if req)
    per_round = [sum(measure(s, e) for s, e, _ in rnd.units) for rnd in rounds]
    values = {
        "setup_s": statistics.median(measure(s, e) for s, e in setups),
        "wall_s": statistics.median(per_round),
        "evals_per_s": len(latencies) / sum(per_round),
        "latency_p50_ms": 1000.0 * quantile(latencies, 50.0),
        "latency_tail_ms": 1000.0 * quantile(latencies, tail_pct),
    }
    return values


def end_to_end(
    setups, rounds, peak_rss_mb: float, speed, tail_pct: float
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics from untraced rounds, plus notes for the report.

    The tail percentile is fixed per workload, so the metric means the same
    thing on every commit; the notes say how many samples lay beyond it.

    ``setups`` holds the ``(start, end)`` of each set-up repetition (a fresh
    import of rspin plus the workload's set-up); ``setup_s`` is their median.
    """
    values = _timings(setups, rounds, speed.scaled, tail_pct)
    values["peak_rss_mb"] = peak_rss_mb
    samples = sum(req for rnd in rounds for _, _, req in rnd.units)
    notes = {
        "rounds": len(rounds),
        "samples": samples,
        "tail_percentile": tail_pct,
        "samples_beyond_tail": samples * (100.0 - tail_pct) / 100.0,
        "raw": _timings(setups, rounds, lambda s, e: e - s, tail_pct),
        "yardstick_samples": len(speed.durations),
        "yardstick_median_s": statistics.median(speed.durations),
        "yardstick_range_s": [min(speed.durations), max(speed.durations)],
    }
    return values, notes


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# Counts that the ROADMAP baseline table states for systems a workload covers.
def roadmap_checks(tracer) -> List[Tuple[str, object, object]]:
    """(what, expected, seen) for every ROADMAP count this trace covers."""
    checks = []
    if (12, 5) in tracer.systems:
        checks.append(("wdvv_equations(12, 5) unknowns, equations", (74, 1085), tracer.systems[(12, 5)]))
    window = (12, 6, 12)
    if window in tracer.windows:
        checks.append(("enumerate_brackets(12, 6, 12) brackets", {25621}, tracer.windows[window]))
        if len([w for w in tracer.windows if w[0] == 12]) == 1 and tracer.enumerations_by_r[12]:
            seen = tracer.nonvanishing_by_r[12] / tracer.enumerations_by_r[12]
            checks.append(("enumerate_brackets(12, 6, 12) non-vanishing", 1711, seen))
    if tracer.aggregates.get("dr1.relational", [0])[0]:
        checks.append(("window-elimination fallbacks", 0, tracer.counts["dr1.rule.window-elimination"]))
    return checks


def _scaled_seconds(rnd, speed) -> float:
    return sum(speed.scaled(s, e) for s, e, _ in rnd.units)


def per_layer(tracer, traced, plain, speed) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Per-layer metrics per traced round, with absent ones left out."""
    n = len(traced)
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals[name][0] / n if name in totals else 0.0

    def incl(name):
        return totals[name][1] / n if name in totals else 0.0

    def own(name):
        return totals[name][2] / n if name in totals else 0.0

    def count(key):
        return counts[key] / n

    layer_self = tracer.layer_self()
    traced_s = sum(rnd.seconds for rnd in traced)
    startup = [x for rnd in traced for x in rnd.cli_startup_s]
    values = {
        "core.bracket_keys": calls("core.bracket_key"),
        "core.bracket_key_s": incl("core.bracket_key"),
        "core.parse_key_calls": calls("core.parse_key"),
        "core.parse_key_s": incl("core.parse_key"),
        "genus0.window_sum_s": incl("genus0.window_sum"),
        "genus0.solve_bracket_calls": calls("genus0.solve_bracket"),
        "genus0.wdvv_build_calls": calls("genus0.wdvv_build"),
        "genus0.wdvv_build_self_s": own("genus0.wdvv_build"),
        "genus0.unknowns": count("genus0.unknowns"),
        "genus0.equations": count("genus0.equations"),
        "elimination.solve_calls": calls("elimination.solve"),
        "elimination.solve_s": incl("elimination.solve"),
        "elimination.rows": count("elimination.rows"),
        "elimination.cols": count("elimination.cols"),
        "elimination.determined": count("elimination.determined"),
        "elimination.free": count("elimination.free"),
        "elimination.rows_per_unknown": _ratio(counts["elimination.rows"], counts["elimination.cols"]),
        "dr1.enumerate_s": incl("dr1.enumerate"),
        "dr1.enumerated": count("dr1.enumerated"),
        "dr1.nonvanishing_ratio": _ratio(counts["dr1.nonvanishing"], calls("dr1.closed") * n),
        "dr1.relational_s": incl("dr1.relational"),
        "dr1.closed_s": incl("dr1.closed"),
        "dr1.b_trr_calls": calls("dr1.b_trr"),
        "dr1.b_trr_s": incl("dr1.b_trr"),
        "store.get_calls": calls("store.get"),
        "store.hit_ratio": _ratio(counts["store.hits"], calls("store.get") * n),
        "store.put_calls": calls("store.put"),
        "store.put_s": incl("store.put"),
        "store.load_s": incl("store.load"),
        "store.load_entries": count("store.load_entries"),
        "store.save_s": incl("store.save"),
        "store.save_bytes": count("store.save_bytes"),
        "cli.startup_ms": 1000.0 * _median(startup),
        "trace.overhead_ratio": statistics.median(_scaled_seconds(r, speed) for r in traced)
        / statistics.median(_scaled_seconds(r, speed) for r in plain),
        "trace.accounted_ratio": sum(layer_self.values()) / traced_s,
        "trace.spans": len(tracer.spans) / n,
    }
    for rule in GENUS0_RULES:
        values[f"genus0.rule.{rule}"] = count(f"genus0.rule.{rule}")
    for rule in DR1_RULES:
        values[f"dr1.rule.{rule}"] = count(f"dr1.rule.{rule}")
    # The suites time themselves; read their reports from untraced rounds.
    for suite in SUITES:
        values[f"verify.{suite}_ms"] = _median(
            ms for rnd in plain for ms in rnd.verify_ms.get(suite, ())
        )
    for sub in SUBCOMMANDS:
        values[f"cli.request_ms.{sub}"] = 1000.0 * _median(
            x for rnd in traced for x in rnd.cli_run_s.get(sub, ())
        )
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / n
    checks = roadmap_checks(tracer)
    values["trace.roadmap_checks"] = len(checks)
    values["trace.roadmap_mismatches"] = sum(want != seen for _, want, seen in checks)

    gone = tracer.missing | tracer.unavailable
    absent = sorted(name for name, (_, dep) in PER_LAYER.items() if dep in gone)
    metrics = {name: values[name] for name in PER_LAYER if name not in absent}
    notes = {
        "traced_rounds": n,
        "missing_targets": sorted(tracer.missing),
        "unreadable_results": sorted(tracer.unavailable),
        "absent": absent,
        "roadmap": [
            {"what": what, "expected": _plain(want), "seen": _plain(seen), "match": want == seen}
            for what, want, seen in checks
        ],
        "bases": {
            "elimination.rows_per_unknown": counts["elimination.cols"] / n,
            "dr1.nonvanishing_ratio": calls("dr1.closed"),
            "store.hit_ratio": calls("store.get"),
            "trace.accounted_ratio": traced_s / n,
        },
    }
    return metrics, notes


def _plain(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    return value
