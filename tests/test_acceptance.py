"""Acceptance gate: eight criteria, each printing one PASS or FAIL line.

Every check is exact (Fraction equality, no tolerance) and carries a wall
clock bound. Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to
see the PASS/FAIL lines on passing criteria too).
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import combinations_with_replacement, islice

from rspin.core import CacheError, DR1Bracket, ascending_multisets, parse_rational
from rspin.dr1 import (
    b_value,
    b_value_trr,
    closed_form,
    enumerate_brackets,
    relation1_instance,
    relation3_check,
)
from rspin.genus0 import solve_bracket
from rspin.store import CacheStore
from rspin.verify import (
    check_axioms,
    check_oracle_equivalence,
    check_prop_loop,
    check_relations,
)


def _finish(num: int, ok: bool, elapsed: float, bound: float, detail: str) -> None:
    state = "PASS" if ok and elapsed < bound else "FAIL"
    print(f"ACCEPTANCE {num}: {state} ({elapsed:.2f}s / {bound:.0f}s limit) - {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < bound, f"criterion {num} exceeded {bound}s ({elapsed:.2f}s)"


def test_criterion_1_initial_values():
    t0 = time.perf_counter()
    triples = 0
    ok = True
    for r in range(2, 11):
        for a in ascending_multisets(0, r - 1, 3, r - 2):
            triples += 1
            if solve_bracket(r, a).value != 1:
                ok = False
    ok = ok and solve_bracket(5, (1, 1, 3, 3)).value == Fraction(1, 5)
    ok = ok and solve_bracket(4, (1, 1, 2, 2)).value == Fraction(1, 4)
    _finish(1, ok, time.perf_counter() - t0, 1.0,
            f"{triples} selection-valid triples all equal 1; 4-point goldens 1/5 and 1/4")


def _boundary_defects(r_max: int) -> dict:
    """The m = r windows with two spectators x1 + x2 = r - 2, keyed as the
    loop suite keys them, each mapped to its defect (r-1)/r.

    There every term is a 4-point bracket <a, r-a, x1, x2> = min(a-1,
    r-1-a, x1, x2)/r, and with t = min(x1, x2) the terms add up to
    t(r-2-t)/r, while the formula gives (x1+1)(x2+1)/r = (t(r-2-t) + r-1)/r.
    """
    return {
        f"loop:r={r}:m={r}:x={x1},{r - 2 - x1}": Fraction(r - 1, r)
        for r in range(2, r_max + 1)
        for x1 in range(0, (r - 2) // 2 + 1)
    }


def test_criterion_2_window_sum_formula():
    t0 = time.perf_counter()
    classic = check_prop_loop(6, 5)
    extended = check_prop_loop(6, 5, extended=True)
    want = _boundary_defects(6)
    # failures are (key, bracket sum, formula); the defect is formula - sum
    defects = {
        key: parse_rational(formula) - parse_rational(summed)
        for key, summed, formula in extended.failures
    }
    ok = classic.passed and defects == want
    ok = ok and (classic.cases, extended.cases) == (23, 44)
    if ok:
        detail = (
            f"classic {classic.cases} + extended {extended.cases} windows: "
            f"all agree except the {len(want)} m = r two-spectator windows, "
            "each off by exactly (r-1)/r"
        )
    else:
        wrong = sorted(k for k in want.keys() & defects.keys() if defects[k] != want[k])
        detail = (
            f"classic failures {[key for key, _, _ in classic.failures]}; "
            f"extended failures off the boundary {sorted(defects.keys() - want.keys())}; "
            f"boundary windows missing {sorted(want.keys() - defects.keys())}; "
            f"boundary defects other than (r-1)/r {wrong}; "
            f"cases {classic.cases} + {extended.cases} (want 23 + 44)"
        )
    _finish(2, ok, time.perf_counter() - t0, 300.0, detail)


def test_criterion_3_genus0_window_sum_b_equals_product_formula():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for r in range(2, 11):
        for n in range(1, 6):
            total = (n - 1) * r
            if total > n * (r - 1):
                continue
            for a in ascending_multisets(0, r - 1, n, total):
                cases += 1
                if b_value_trr(r, a) != b_value(r, a):
                    ok = False
    ok = ok and all(b_value(r, (0,)) == Fraction(r - 1, 24) for r in range(2, 11))
    _finish(3, ok, time.perf_counter() - t0, 60.0,
            f"{cases} twist rows, product formula = genus-0 window sum / 24; (r-1)/24 at n=1")


def test_criterion_4_closed_form_goldens():
    t0 = time.perf_counter()
    ok = closed_form(DR1Bracket(4, [(2, 2), (-2, 2)])).value == Fraction(1, 32)
    ok = ok and closed_form(DR1Bracket(6, [(2, 4), (1, 4), (-3, 4)])).value == Fraction(1, 72)
    zeros = 0
    for r in range(2, 7):
        for br in enumerate_brackets(r, 5, 8):
            if relation3_check(br):
                zeros += 1
                if closed_form(br).value != 0:
                    ok = False
    _finish(4, ok, time.perf_counter() - t0, 1.0,
            f"goldens 1/32 and 1/72; {zeros} relation-3 shapes all 0")


def test_criterion_5_relation_residuals():
    t0 = time.perf_counter()
    report = check_relations(6, 8, 5)
    ok = report.passed
    # the worked identities, pinned at nonzero B so coefficients matter
    ten = relation1_instance(9, [1, 1, -1, -1], [7, 7, 6, 7])
    fifteen = relation1_instance(9, [2, 2, -2, -2], [7, 7, 6, 7])
    ok = ok and ten.b_coefficient == 10 and ten.residual_closed() == 0
    ok = ok and fifteen.b_coefficient == 15 and fifteen.residual_closed() == 0
    ok = ok and b_value(9, (7, 7, 6, 7)) != 0
    detail = f"{report.cases} instances, residuals all 0; 10B and 15B identities hold"
    if not report.passed:
        detail = f"{len(report.failures)} nonzero residuals, first: {report.failures[0]}"
    _finish(5, ok, time.perf_counter() - t0, 300.0, detail)


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    report = check_oracle_equivalence(6, 8, 5)
    stalled = [f for f in report.failures if f[2] == "reduction-stalled"]
    ok = report.passed and not stalled
    detail = f"{report.cases} brackets, relational = closed on all, 0 stalled"
    if not ok:
        detail = f"{len(report.failures)} mismatches ({len(stalled)} stalled), first: {report.failures[0]}"
    _finish(6, ok, time.perf_counter() - t0, 600.0, detail)


def test_criterion_7_axiom_suite():
    t0 = time.perf_counter()
    report = check_axioms(6, 5)
    detail = f"{report.cases} vanishing/bookkeeping cases"
    if not report.passed:
        detail = f"first failure: {report.failures[0]}"
    _finish(7, report.passed, time.perf_counter() - t0, 60.0, detail)


def test_criterion_8_cache_round_trip(tmp_path):
    t0 = time.perf_counter()
    store = CacheStore()
    # five-point values over r^2 = 2500 scale to integers, and the twists are
    # graded (sum 148, none 0 or 49), as those of true nonzero values are
    source = (a for a in combinations_with_replacement(range(1, 49), 5) if sum(a) == 148)
    for i, a in enumerate(islice(source, 10_000)):
        key = "g0:r=50:a={}".format(",".join(map(str, a)))
        store.put(key, Fraction(i - 11, 2500))
    path = tmp_path / "cache.json"
    store.save(str(path))
    loaded = CacheStore.load(str(path))
    ok = dict(loaded.items()) == dict(store.items()) and len(loaded) == 10_000
    # atomicity: a failed save must leave the existing file intact
    before = path.read_text()
    import json as _json
    orig_dump = _json.dump

    def exploding(*args, **kwargs):
        raise OSError("synthetic failure")

    _json.dump = exploding
    try:
        store.put("g0:r=50:a=0,0,0", Fraction(99))
        try:
            store.save(str(path))
            ok = False
        except CacheError as exc:
            # the OS error surfaces as a cache error that names the file
            ok = ok and isinstance(exc.__cause__, OSError) and str(path) in str(exc)
    finally:
        _json.dump = orig_dump
    ok = ok and path.read_text() == before
    _finish(8, ok, time.perf_counter() - t0, 30.0,
            "10,000 entries round-trip bit-identical; crash mid-save leaves file intact")
