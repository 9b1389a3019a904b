"""The benchmark's three workloads: seeded inputs, timed rounds, exact checks.

Every workload runs in a closed loop with one client: the next request starts
when the previous one has been checked. Requests are grouped in rounds; a
round is a fixed batch drawn once from the seed, so every round of a run does
the same work and round times are comparable. Each request starts cold: the
benchmark passes its own fresh ``CacheStore`` (or, for the CLI, a freshly
copied cache file), so no state is carried between requests, rounds or runs.

* ``g0-window``: one genus-0 window sum ``sum_{a+b=m} <a, b, x>`` per request,
  solved through WDVV equations and exact elimination.
* ``dr1-window``: enumerate fixed genus-1 windows, then cross-check every
  bracket in them, closed form against the relational solver.
* ``cli-session``: one ``python -m rspin.cli`` process per request against a
  cache file built in set-up, with reads, writes, suites and a table.

Why each was chosen, and which layer each loads, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Dict, List, Optional, Tuple

from rspin import core, dr1, genus0, store

clock = time.perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
CLI_CHILD = os.path.join(BENCH_DIR, "cli_child.py")
CLI_TIMEOUT_S = 120


@dataclass
class Round:
    """Outcome of one round: timed units of work and checks.

    A unit is a timed stretch of work: each request, and for ``dr1-window``
    each window enumeration. Checking answers, shuffling and yardstick samples
    happen between units and are not timed. Units are kept in flat arrays:
    ``dr1-window`` times about 38,000 requests a round, and a list of tuples
    for them would grow the benchmark's own peak memory by about 5 MB a round.
    """

    starts: array = field(default_factory=lambda: array("d"))
    ends: array = field(default_factory=lambda: array("d"))
    is_request: array = field(default_factory=lambda: array("b"))
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    verify_ms: Dict[str, List[int]] = field(default_factory=dict)
    cli_startup_s: List[float] = field(default_factory=list)
    cli_run_s: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, start: float, end: float, is_request: bool) -> None:
        self.starts.append(start)
        self.ends.append(end)
        self.is_request.append(is_request)

    @property
    def units(self):
        """``(start, end, is_request)`` for every timed unit."""
        return zip(self.starts, self.ends, self.is_request)

    @property
    def seconds(self) -> float:
        return sum(self.ends) - sum(self.starts)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def multisets(lo: int, hi: int, count: int, total: int):
    """Ascending ``count``-tuples over ``[lo, hi]`` with the given sum.

    rspin has its own generators for this and for ``k_rows``, but they are
    internal; the benchmark draws its inputs without relying on them.
    """
    if count == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, hi + 1):
        rest = total - first
        if first * (count - 1) <= rest <= hi * (count - 1):
            for tail in multisets(first, hi, count - 1, rest):
                yield (first,) + tail


def k_rows(n: int, k_sum_max: int):
    """Rows of ``n`` integers summing to 0, not all 0, with ``sum |k| <= k_sum_max``."""

    def parts(total, largest, slots):
        if total == 0:
            yield ()
        elif slots:
            for first in range(min(total, largest), 0, -1):
                for rest in parts(total - first, first, slots - 1):
                    yield (first,) + rest

    for s in range(1, k_sum_max // 2 + 1):
        for pos in parts(s, s, n - 1):
            for neg in parts(s, s, n - len(pos)):
                yield pos + (0,) * (n - len(pos) - len(neg)) + tuple(-q for q in neg)


def nonvanishing_dr1(r: int, n_max: int, k_sum_max: int) -> List[core.DR1Bracket]:
    """Canonical genus-1 brackets that pass the grading and carry no twist ``r-1``."""
    found: Dict[str, core.DR1Bracket] = {}
    for n in range(2, n_max + 1):
        for twists in multisets(0, r - 2, n, (n - 1) * r):
            for a_row in sorted(set(permutations(twists))):
                for k_row in k_rows(n, k_sum_max):
                    bracket = core.DR1Bracket(r, zip(k_row, a_row))
                    found.setdefault(bracket.key, bracket)
    return [found[key] for key in sorted(found)]


def g0_windows(r: int, points: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """All classic windows ``(m, x)`` with ``m <= r-2`` and ``points - 2`` spectators."""
    p = points - 2
    return [
        (m, x)
        for m in range(0, r - 1)
        for x in multisets(0, r - 2, p, p * r - m - 2)
    ]


def check_module_caches() -> None:
    """Refuse to go on if a module-global cache picked up state.

    The benchmark always passes its own store, so these stay empty; once the
    globals are deleted there is nothing to check.
    """
    for module, attr in ((genus0, "_DEFAULT_CACHE"), (dr1, "_RELATIONAL_CACHE")):
        cache = getattr(module, attr, None)
        if cache is not None and len(cache):
            raise RuntimeError(f"{module.__name__}.{attr} holds {len(cache)} entries")


class Workload:
    """Set-up, rounds and clean-up of one workload in one process."""

    name = ""

    def __init__(self, plan: dict, seed: int, speed):
        self.plan = plan
        self.seed = seed
        self.speed = speed
        self.next_request = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, tracer) -> Round:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    def _request(self, rnd: Round, tracer, fn: Callable):
        """Run and time one request; return its result or the exception raised."""
        request_id = self.next_request
        self.next_request += 1
        t0 = clock()
        try:
            if tracer is None:
                result = fn()
            else:
                with tracer.for_request(request_id), tracer.span("bench.request"):
                    result = fn()
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        rnd.add(t0, clock(), True)
        self.speed.maybe_sample()
        return result


class G0Window(Workload):
    """Cold genus-0 window sums, checked against the closed formula."""

    name = "g0-window"

    def setup(self) -> None:
        rng = random.Random(self.seed)
        requests = []
        for r, points, count in self.plan["strata"]:
            windows = g0_windows(r, points)
            for _ in range(count):
                m, x = rng.choice(windows)
                want = {genus0.loop_sum(r, m, x)}
                if m == r - 2:
                    want.add(24 * dr1.b_value(r, x))
                requests.append((r, m, x, want))
        rng.shuffle(requests)
        self.requests = requests
        m, x = g0_windows(6, 5)[0]
        genus0.bracket_window_sum(6, m, x, store.CacheStore())  # warm-up

    def run_round(self, tracer) -> Round:
        rnd = Round()
        for r, m, x, want in self.requests:
            got = self._request(
                rnd, tracer, lambda: genus0.bracket_window_sum(r, m, x, store.CacheStore())
            )
            rnd.check(len(want) == 1 and got in want, f"window r={r} m={m} x={x}: got {got!r}")
        check_module_caches()
        return rnd


class DR1Window(Workload):
    """Enumerate fixed genus-1 windows and cross-check every bracket in them."""

    name = "dr1-window"

    def setup(self) -> None:
        self.rng = random.Random(self.seed)
        warm = store.CacheStore()
        for bracket in dr1.enumerate_brackets(4, 3, 4):  # warm-up
            dr1.closed_form(bracket)
            dr1.solve_relational(bracket, warm)

    def run_round(self, tracer) -> Round:
        rnd = Round()
        for window, expected in self.plan["windows"]:
            t0 = clock()
            if tracer is None:
                brackets = dr1.enumerate_brackets(*window)
            else:
                with tracer.span("bench.enumerate_window"):
                    brackets = dr1.enumerate_brackets(*window)
            rnd.add(t0, clock(), False)
            self.speed.sample()
            keys = [b.key for b in brackets]
            order = list(range(len(brackets)))
            self.rng.shuffle(order)
            cache = store.CacheStore()
            values: List[str] = [""] * len(brackets)
            nonvanishing = 0
            for i in order:
                bracket = brackets[i]
                got = self._request(
                    rnd, tracer,
                    lambda: (dr1.closed_form(bracket), dr1.solve_relational(bracket, cache)),
                )
                ok = not isinstance(got, Exception) and (
                    (got[0].value, got[0].status) == (got[1].value, got[1].status)
                )
                rnd.check(ok, f"{keys[i]}: {got!r}")
                if ok:
                    values[i] = core.format_rational(got[0].value)
                    nonvanishing += got[0].status == "ok"
            seen = (
                len(brackets),
                nonvanishing,
                digest(keys),
                digest(k + "=" + v for k, v in zip(keys, values)),
            )
            rnd.check(seen == expected, f"window {window}: expected {expected}, saw {seen}")
            # Free this window before enumerating the next, so the peak is
            # one window's, not two.
            del brackets, keys, order, cache, values
        check_module_caches()
        return rnd


class CliSession(Workload):
    """One CLI process per request against a cache file prebuilt in set-up."""

    name = "cli-session"

    def __init__(self, plan: dict, seed: int, speed):
        super().__init__(plan, seed, speed)
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="cli-", dir=WORK_ROOT)
        self.pristine = os.path.join(self.work, "pristine.json")
        self.cache_path = os.path.join(self.work, "cache.json")
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.env.pop("RSPIN_CACHE", None)
        self.built: Optional[bytes] = None

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it, or it holds other files

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def _build_cache(self) -> store.CacheStore:
        cache = store.CacheStore()
        solved = nonvanishing_dr1(*self.plan["cache_dr1"])
        for bracket in solved:
            dr1.solve_relational(bracket, cache)
        for r, points in self.plan["cache_g0"]:
            first = next(multisets(1, r - 2, points, (points - 2) * r - 2))
            genus0.solve_bracket(r, first, cache)
        cache.save(self.pristine)
        with open(self.pristine, "rb") as fh:
            content = fh.read()
        if self.built is not None and content != self.built:
            raise RuntimeError("set-up built two different cache files from the same inputs")
        self.built = content
        self.solved_dr1 = solved
        return cache

    def setup(self) -> None:
        plan = self.plan
        rng = random.Random(self.seed)
        cache = self._build_cache()
        g0_hits = sorted(k for k, _ in cache.items() if k.startswith("g0:"))
        r_miss, points_miss = plan["miss_g0"]
        miss_store = store.CacheStore()
        miss_keys = [
            core.Genus0Bracket(r_miss, a)
            for a in multisets(1, r_miss - 2, points_miss, (points_miss - 2) * r_miss - 2)
        ]
        for bracket in miss_keys:
            genus0.solve_bracket(r_miss, bracket.a, miss_store)
        dr1_misses = nonvanishing_dr1(*plan["miss_dr1"])

        def g0_request(bracket, value):
            argv = ["g0", "--r", str(bracket.r), "--a", _csv(bracket.a), "--cache", self.cache_path]
            return ("g0", argv, _expect_text(str(value)))

        def dr1_request(bracket):
            want = str(dr1.closed_form(bracket).value)
            argv = [
                "dr1", "--r", str(bracket.r), "--k", _csv(bracket.k_row),
                "--a", _csv(bracket.a_row), "--method", "both", "--cache", self.cache_path,
            ]
            return ("dr1", argv, _expect_text(want + "\n" + want))

        session = []
        mix = plan["mix"]
        for key in rng.sample(g0_hits, mix["g0-hit"]):
            session.append(g0_request(core.parse_key(key), cache.get(key)))
        for bracket in rng.sample(self.solved_dr1, mix["dr1-hit"]):
            session.append(dr1_request(bracket))
        for bracket in rng.sample(miss_keys, mix["g0-miss"]):
            value = genus0.solve_bracket(bracket.r, bracket.a, miss_store).value
            if bracket.key in cache:
                raise RuntimeError(f"{bracket.key} is meant to miss the cache")
            session.append(g0_request(bracket, value))
        for bracket in rng.sample(dr1_misses, mix["dr1-miss"]):
            if bracket.key in cache:
                raise RuntimeError(f"{bracket.key} is meant to miss the cache")
            session.append(dr1_request(bracket))
        b_rows = [
            (r, a)
            for r in range(4, 11)
            for n in range(2, 6)
            for a in multisets(0, r - 2, n, (n - 1) * r)
        ]
        for r, a in rng.sample(b_rows, mix["b"]):
            session.append(("b", ["b", "--r", str(r), "--a", _csv(a)],
                            _expect_text(str(dr1.b_value(r, a)))))
        windows = [(r, m, x) for r in range(5, 13) for p in (3, 4, 5) for m, x in g0_windows(r, p)]
        for r, m, x in rng.sample(windows, mix["loopsum"]):
            argv = ["loopsum", "--r", str(r), "--m", str(m), "--x", _csv(x)]
            session.append(("loopsum", argv, _expect_text(str(genus0.loop_sum(r, m, x)))))
        for _ in range(mix["table"]):
            argv, want = rng.choice(plan["tables"])
            session.append(("table", list(argv), _expect_digest(want)))
        for _ in range(mix["verify"]):
            argv = ["verify", "--format", "json"] + list(plan["verify_bounds"])
            session.append(("verify", argv, _expect_suites(plan["verify_cases"])))
        rng.shuffle(session)
        self.session = session
        shutil.copyfile(self.pristine, self.cache_path)
        if self._spawn(["b", "--r", "9", "--a", "7,7,6,7"]).stdout != "1/1458\n":
            raise RuntimeError("warm-up CLI call failed")

    def _spawn(self, argv, traced: Optional[str] = None):
        if traced is None:
            cmd = [sys.executable, "-m", "rspin.cli"] + argv
        else:
            cmd = [sys.executable, CLI_CHILD, traced] + argv
        return subprocess.run(
            cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
        )

    def run_round(self, tracer) -> Round:
        rnd = Round()
        shutil.copyfile(self.pristine, self.cache_path)
        spans_path = os.path.join(self.work, "spans.json")
        for sub, argv, check in self.session:
            if tracer is None:
                proc = self._request(rnd, None, lambda: self._spawn(argv))
            else:
                proc = self._request(
                    rnd, tracer, lambda: self._traced_call(tracer, argv, spans_path, rnd, sub)
                )
            if isinstance(proc, Exception):
                rnd.check(False, f"{' '.join(argv)}: {proc!r}")
                continue
            problem = "exit code %d" % proc.returncode if proc.returncode else check(proc.stdout)
            rnd.check(problem is None, f"{' '.join(argv)}: {problem}; stderr {proc.stderr[-300:]!r}")
            if sub == "verify" and problem is None:
                for payload in json.loads(proc.stdout):
                    rnd.verify_ms.setdefault(payload["suite"], []).append(payload["elapsed_ms"])
        return rnd

    def _traced_call(self, tracer, argv, spans_path, rnd: Round, sub: str):
        t0 = clock()
        proc = self._spawn(argv, traced=spans_path)
        with open(spans_path, "r", encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(spans_path)
        tracer.add_span("cli.startup", t0, child["t_run"])
        tracer.adopt(child["state"])
        rnd.cli_startup_s.append(child["t_run"] - t0 - child["overhead_s"])
        rnd.cli_run_s.setdefault(sub, []).append(child["t_end"] - child["t_run"])
        return proc


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _expect_text(want: str):
    def check(stdout: str) -> Optional[str]:
        return None if stdout == want + "\n" else f"expected {want!r}, got {stdout[:200]!r}"

    return check


def _expect_digest(want: str):
    def check(stdout: str) -> Optional[str]:
        got = hashlib.sha256(stdout.encode()).hexdigest()[:16]
        return None if got == want else f"output digest {got}, expected {want}"

    return check


def _expect_suites(cases: Dict[str, int]):
    def check(stdout: str) -> Optional[str]:
        try:
            payloads = json.loads(stdout)
            seen = {p["suite"]: (p["cases"], len(p["failures"])) for p in payloads}
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable suite report: {exc}"
        want = {suite: (count, 0) for suite, count in cases.items()}
        return None if seen == want else f"suites {seen}, expected {want}"

    return check


# Plans. "full" is what the benchmark measures; "smoke" is a tiny version of
# each for the harness's own tests. "tail_pct" is the percentile reported as
# latency_tail_ms: the highest of p99.9, p99, p90, p75 and p50 with at least
# ten samples beyond it in a 34-second run of the plan on the machine the
# benchmark was written on, fixed so that the metric means the same thing on
# every commit. Every expected count and digest below was recorded from the
# code as it stands when the benchmark was written: a change that shrinks a
# window fails its check instead of looking faster.
PLANS = {
    "g0-window": {
        # (r, points, windows per round). The median falls in the middle of
        # the (8, 6) windows and the p75 tail in the middle of the (10, 5)
        # ones, and each of the two costs at least twice its cheaper
        # neighbour, so noise cannot reorder strata around either. One
        # window each of (9, 6), (12, 5) (elimination-heavy: 74 unknowns,
        # 1085 rows) and (10, 7) (generation-heavy) make the top.
        "full": {"strata": ((8, 5, 5), (8, 6, 7), (10, 5, 5), (9, 6, 1),
                            (12, 5, 1), (10, 7, 1)),
                 "tail_pct": 75.0},
        "smoke": {"strata": ((6, 5, 1), (7, 5, 1)), "tail_pct": 50.0},
    },
    "dr1-window": {
        # (r, n_max, k_sum_max) -> (brackets, non-vanishing, key digest, value digest)
        "full": {"windows": (
            ((8, 6, 12), (2944, 126, "a3d1900f083bd5d2", "a6628fd1660ba2f1")),
            ((10, 6, 12), (9704, 494, "95a9f5913cc6d9e6", "c4b828c672bb730d")),
            ((12, 6, 12), (25621, 1711, "90be3d12db422087", "a19622f55594a972")),
        ), "tail_pct": 99.9},
        "smoke": {"windows": (
            ((5, 4, 6), (46, 3, "f650e3100aafd86e", "83bd31c52eccf2a1")),
            ((6, 4, 6), (88, 11, "c17310f75e5feca7", "6cd2ad567915c6cc")),
        ), "tail_pct": 99.0},
    },
    "cli-session": {
        "full": {
            "cache_dr1": (12, 6, 12),
            "cache_g0": ((8, 5), (9, 5), (8, 6)),
            "miss_g0": (7, 5),
            "miss_dr1": (11, 4, 8),
            "mix": {"g0-hit": 4, "dr1-hit": 4, "g0-miss": 1, "dr1-miss": 2,
                    "b": 1, "loopsum": 1, "table": 1, "verify": 2},
            "verify_bounds": (),
            "tail_pct": 90.0,
            "verify_cases": {"loop": 23, "relations": 1348, "oracle": 369, "axioms": 193},
            "tables": (
                (("table", "--kind", "dr1", "--r", "6", "--n-max", "4", "--k-sum-max", "6"),
                 "faadf6b927144ee0"),
                (("table", "--kind", "g0", "--r", "7", "--n-max", "5"), "5795a0bda92685e2"),
            ),
        },
        "smoke": {
            "cache_dr1": (6, 3, 4),
            "cache_g0": ((6, 5),),
            "miss_g0": (7, 5),
            "miss_dr1": (7, 3, 4),
            "mix": {"g0-hit": 1, "dr1-hit": 1, "g0-miss": 1, "dr1-miss": 1,
                    "b": 1, "loopsum": 1, "table": 1, "verify": 1},
            "verify_bounds": ("--r-max", "4", "--n-max", "4", "--k-sum-max", "4"),
            "tail_pct": 50.0,
            "verify_cases": {"loop": 7, "relations": 52, "oracle": 21, "axioms": 47},
            "tables": (
                (("table", "--kind", "g0", "--r", "7", "--n-max", "5"), "5795a0bda92685e2"),
            ),
        },
    },
}

WORKLOADS = {cls.name: cls for cls in (G0Window, DR1Window, CliSession)}


def make(name: str, plan: str, seed: int, speed) -> Workload:
    return WORKLOADS[name](PLANS[name][plan], seed, speed)

