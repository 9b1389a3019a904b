"""Property suites: every identity the library relies on, swept over windows.

Each suite enumerates a finite window of parameters, evaluates an identity
on both sides with exact arithmetic, and reports mismatches. Nothing is
sampled and nothing is approximate; a suite passes exactly when its failure
list is empty. Each suite's body only walks its cases, yielding one outcome
per case; one runner counts the cases, keeps the failures, times the walk
and builds the ``SuiteReport``.

The default window bounds are r <= 6, n <= 5 and sum(|k|) <= 8; every bound
is a parameter.
"""

from __future__ import annotations

import functools
import time
from typing import Iterable, List, Tuple

from .core import (
    STATUS_VANISHING_ZERO,
    SUITES,
    DR1Bracket,
    Genus0Bracket,
    ReductionStalledError,
    _Record,
    ascending_multisets,
    format_rational,
    genus_of,
)
from .dr1 import (
    _anchored_rows,
    _residual_closed,
    b_value,
    b_value_trr,
    closed_form,
    enumerate_brackets,
    relation3_check,
    solve_relational,
)
from .genus0 import bracket_window_sum, loop_sum, solve_bracket
from .lg import bracket as lg_bracket
from .store import CacheStore

__all__ = [
    "SuiteReport",
    "check_prop_loop",
    "check_relations",
    "check_oracle_equivalence",
    "check_axioms",
    "SUITES",
    "run_suite",
]


class SuiteReport(_Record):
    """Outcome of one suite: counts, failures and wall time.

    ``failures`` holds (case key, expected, got) triples; the values are
    kept as strings so non-numeric outcomes (a stalled reduction, a wrong
    status) can be reported through the same channel. Failures are sorted
    by case key, making reports deterministic for fixed bounds. Reports
    compare by all four fields; they are mutable, so they do not hash.
    """

    __slots__ = _fields = ("suite", "cases", "failures", "elapsed_ms")

    def __init__(
        self,
        suite: str,
        cases: int,
        failures: Iterable[Tuple[str, str, str]] = (),
        elapsed_ms: int = 0,
    ):
        self.suite = suite
        self.cases = cases
        self.failures: List[Tuple[str, str, str]] = sorted(failures, key=lambda f: f[0])
        self.elapsed_ms = elapsed_ms

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": [
                {"key": key, "expected": expected, "got": got}
                for key, expected, got in self.failures
            ],
            "elapsed_ms": self.elapsed_ms,
        }

    def summary_line(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.failures)} failures)"
        return f"{self.suite}: {self.cases} cases, {state}, {self.elapsed_ms} ms"


def _suite(name: str):
    """Make a case walk into the suite ``name``, the one place a ``SuiteReport`` is built.

    The decorated body is a generator that yields one outcome per case:
    ``None`` for a pass, or the failure's (case key, expected, got) triple.
    The decorated function keeps the body's name, signature and docstring;
    it walks every case, counts them, keeps the failures and times the walk.
    """

    def decorate(walk):
        @functools.wraps(walk)
        def run(*args, **kwargs) -> SuiteReport:
            t0 = time.perf_counter()
            outcomes = list(walk(*args, **kwargs))
            elapsed_ms = int((time.perf_counter() - t0) * 1000)
            return SuiteReport(name, len(outcomes), filter(None, outcomes), elapsed_ms)

        return run

    return decorate


@_suite("loop")
def check_prop_loop(r_max: int, n_max: int, extended: bool = False) -> SuiteReport:
    """Window-sum identity: loop_sum against a brute-force bracket sum.

    For every r <= r_max and point count up to n_max, all valid (m, x)
    windows are enumerated and the closed formula is compared with the sum
    of solve_bracket values over the window (the WDVV route, asked for by
    name: this suite tests it). ``extended`` widens m from
    r - 2 up to r on windows with at least two spectator twists; at the
    boundary m = r with exactly two spectators the formula exceeds the
    actual sum by exactly (r-1)/r, and this suite reports those windows as
    failures rather than skipping them.
    """
    cache = CacheStore()
    for r in range(2, r_max + 1):
        m_hi = r if extended else r - 2
        for m in range(0, m_hi + 1):
            for n_pt in range(3, n_max + 1):
                x_len = n_pt - 2
                if extended and m > r - 2 and x_len < 2:
                    continue
                total_x = x_len * r - m - 2
                for x in ascending_multisets(0, r - 2, x_len, total_x):
                    formula = loop_sum(r, m, x, extended=extended)
                    summed = bracket_window_sum(r, m, x, cache, method="wdvv")
                    yield None if formula == summed else (
                        "loop:r={}:m={}:x={}".format(r, m, ",".join(str(v) for v in x)),
                        format_rational(summed),
                        format_rational(formula),
                    )


@_suite("relations")
def check_relations(r_max: int, k_sum_max: int, n_max: int) -> SuiteReport:
    """Residuals of every relation instance vanish under the closed form.

    Every canonical bracket in the window anchors relation-1 instances at
    each distinct positive slot (in both orientations) and relation-2
    instances at each distinct zero slot; each instance's residual must be
    exactly zero. Relation-3 shaped brackets must evaluate to zero. The
    instances anchored in a bracket share its ``(r, sorted a)`` context, so
    B is computed once per bracket; one row memo per r serves the window.
    """
    for r in range(2, r_max + 1):
        memo: dict = {}
        for br in enumerate_brackets(r, n_max, k_sum_max):
            if relation3_check(br):
                got = closed_form(br).value
                yield None if got == 0 else ("relation3:" + br.key, "0/1", format_rational(got))
            b = b_value(r, br.a_row)
            for o_idx, slot, zero, kind, (b_coeff, terms) in _anchored_rows(br, memo):
                resid = _residual_closed(b_coeff, terms, b)
                if resid != 0:
                    key = f"{kind}:{br.key}:orient={o_idx}:slot={slot}"
                    if zero is not None:
                        key += f":zero={zero}"
                    yield key, "0/1", format_rational(resid)
                else:
                    yield None


@_suite("oracle")
def check_oracle_equivalence(r_max: int, k_sum_max: int, n_max: int) -> SuiteReport:
    """Relational solving agrees with the closed form on the whole window.

    Uses a fresh relational cache so repeated runs are independent. A
    stalled reduction counts as a failure with got = "reduction-stalled".
    """
    cache = CacheStore()
    for r in range(2, r_max + 1):
        for br in enumerate_brackets(r, n_max, k_sum_max):
            want = closed_form(br)
            try:
                got = solve_relational(br, cache)
            except ReductionStalledError:
                yield br.key, format_rational(want.value), "reduction-stalled"
                continue
            if got.value != want.value:
                yield br.key, format_rational(want.value), format_rational(got.value)
            elif got.status != want.status:
                yield br.key, want.status, got.status
            else:
                yield None


@_suite("axioms")
def check_axioms(r_max: int, n_max: int) -> SuiteReport:
    """Vanishing rules and bookkeeping consistency across evaluators.

    Checks, per r up to r_max and point counts up to n_max:
    - genus-0 brackets whose status is ``vanishing-axiom-zero`` (a twist
      r - 1) evaluate to zero with that status;
    - genus-0 brackets with >= 4 points and a zero twist: the value
      ``solve_bracket`` reads from a formula (the min formula at 4 points,
      the zero-entry shortcut past 4) equals that of the Landau-Ginzburg
      route (:func:`rspin.lg.bracket`), which reads neither. At 4 points
      this case is ``zero-entry-formula:`` and a ``zero-entry:`` case
      checks the value is zero; past 4 points it is ``zero-entry:``;
    - genus_of reports 0 on genus-0 twist rows and 1 on one-point-plus-
      spectators genus-1 rows;
    - b_value (product formula) equals b_value_trr (genus-0 window sum,
      one genus-0 store per r), and both closed_form and solve_relational
      vanish on genus-1 rows carrying a twist r - 1.
    """
    for r in range(2, r_max + 1):
        for n in range(3, n_max + 1):
            for a in ascending_multisets(0, r - 1, n, (n - 2) * r - 2):
                br = Genus0Bracket(r, a)
                g = genus_of(r, [(0, ai) for ai in a])
                yield None if g == 0 else ("genus:" + br.key, "0", str(g))
                if br.status == STATUS_VANISHING_ZERO:
                    got = solve_bracket(r, a)
                    ok = got.value == 0 and got.status == STATUS_VANISHING_ZERO
                    yield None if ok else ("vanish:" + br.key, "0/1", format_rational(got.value))
                elif 0 in a and n >= 4:
                    got = solve_bracket(r, a).value
                    if n == 4:
                        yield None if got == 0 else ("zero-entry:" + br.key, "0/1", format_rational(got))
                    # the LG route computes what the shortcut past four points asserts
                    want = lg_bracket(r, a).value
                    case = "zero-entry-formula:" if n == 4 else "zero-entry:"
                    yield None if got == want else (
                        case + br.key, format_rational(want), format_rational(got)
                    )
        b_cache = CacheStore()
        for n in range(1, n_max + 1):
            for a in ascending_multisets(0, r - 1, n, (n - 1) * r):
                direct = b_value(r, a)
                via_trr = b_value_trr(r, a, b_cache)
                yield None if direct == via_trr else (
                    "b:r={}:a={}".format(r, ",".join(str(v) for v in a)),
                    format_rational(direct),
                    format_rational(via_trr),
                )
                rows = [(1, a[0])] + [(0, ai) for ai in a[1:]]
                g = genus_of(r, rows)
                yield None if g == 1 else (
                    "genus-b:r={}:a={}".format(r, ",".join(str(v) for v in a)), "1", str(g)
                )
                if r - 1 in a and n >= 2:
                    br1 = DR1Bracket(r, [(2, a[0]), (-2, a[1])] + [(0, ai) for ai in a[2:]])
                    got_c = closed_form(br1)
                    got_r = solve_relational(br1, CacheStore())
                    ok = got_c.value == 0 and got_r.value == 0
                    yield None if ok else (
                        "vanish-dr1:" + br1.key,
                        "0/1",
                        format_rational(got_c.value) + "|" + format_rational(got_r.value),
                    )


def run_suite(
    name: str,
    r_max: int = 6,
    n_max: int = 5,
    k_sum_max: int = 8,
    extended: bool = False,
) -> List[SuiteReport]:
    """Run one named suite, or all of them, with shared window bounds."""
    checks = {
        "loop": lambda: check_prop_loop(r_max, n_max, extended=extended),
        "relations": lambda: check_relations(r_max, k_sum_max, n_max),
        "oracle": lambda: check_oracle_equivalence(r_max, k_sum_max, n_max),
        "axioms": lambda: check_axioms(r_max, n_max),
    }
    if name != "all" and name not in checks:
        raise ValueError(f"unknown suite {name!r}")
    return [checks[suite]() for suite in SUITES if name in ("all", suite)]
