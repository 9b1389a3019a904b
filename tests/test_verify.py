"""Property suites: green windows, known-divergent windows, determinism."""

from __future__ import annotations

import json

import pytest

import rspin.dr1
import rspin.verify
from rspin.core import DR1Bracket, EvalResult, ReductionStalledError, format_rational
from rspin.dr1 import closed_form
from rspin.dr1 import anchored_instances, enumerate_brackets
from rspin.verify import (
    SuiteReport,
    check_axioms,
    check_oracle_equivalence,
    check_prop_loop,
    check_relations,
    run_suite,
)


def test_loop_suite_passes_classic_range():
    report = check_prop_loop(5, 4)
    assert report.suite == "loop"
    assert report.passed
    assert report.cases >= 10


def test_loop_suite_r2_passes():
    report = check_prop_loop(2, 4)
    assert report.passed


def test_loop_suite_extended_fails_exactly_on_the_boundary():
    """Extended range m <= r: the failures are precisely the windows with
    m = r and two spectator twists, for every r in the window."""
    report = check_prop_loop(6, 5, extended=True)
    assert not report.passed
    got = {key for key, _, _ in report.failures}
    want = set()
    for r in range(2, 7):
        total_x = 2 * r - r - 2
        for x1 in range(0, r - 1):
            x2 = total_x - x1
            if x1 <= x2 <= r - 2:
                want.add(f"loop:r={r}:m={r}:x={x1},{x2}")
    assert got == want
    # everything else in the extended range agrees
    assert len(report.failures) == len(want)


def test_relations_suite_passes():
    report = check_relations(5, 6, 4)
    assert report.passed
    assert report.cases > 100


def _skew_relation_rows(monkeypatch):
    """Add 1 to the last coefficient of every integer relation row over a nonzero bracket."""
    real = rspin.dr1._relation_row

    def skewed(kind, r, pairs, status, anchor, memo):
        b_coeff, terms = real(kind, r, pairs, status, anchor, memo)
        if status == "ok":
            # the last term has sum |k| two above the row, so a nonzero value
            terms[list(terms)[-1]] += 1
        return b_coeff, terms

    monkeypatch.setattr(rspin.dr1, "_relation_row", skewed)


def test_relations_suite_sees_a_skewed_coefficient(monkeypatch):
    # one coefficient off by one on every instance over a nonzero bracket:
    # each of those instances must fail, and no other
    ok_instances = sum(
        1
        for r in range(2, 7)
        for br in enumerate_brackets(r, 5, 8)
        if br.status == "ok"
        for _ in anchored_instances(br)
    )
    _skew_relation_rows(monkeypatch)
    report = check_relations(6, 8, 5)
    assert report.cases == 1348
    assert ok_instances > 0 and len(report.failures) == ok_instances


def test_oracle_suite_sees_a_skewed_coefficient(monkeypatch):
    # the solver's case-2 and case-3 steps read the same integer rows as
    # the relations suite, so the same skew must show in the oracle suite
    assert check_oracle_equivalence(6, 8, 5).passed
    _skew_relation_rows(monkeypatch)
    report = check_oracle_equivalence(6, 8, 5)
    assert report.cases == 369 and report.failures
    assert all(got != "reduction-stalled" for _, _, got in report.failures)


def test_relations_suite_sees_a_wrong_closed_form(monkeypatch):
    # one nonzero bracket off by one in the closed form: the instances that
    # hold it as a term fail, all of them over its twist multiset
    target = DR1Bracket(6, [(2, 4), (-1, 4), (-1, 4)])
    assert target.status == "ok"
    real = rspin.dr1.closed_form

    def wrong(bracket):
        result = real(bracket)
        if bracket == target:
            return EvalResult(result.value + 1, result.status, result.trace)
        return result

    monkeypatch.setattr(rspin.dr1, "closed_form", wrong)
    report = check_relations(6, 8, 5)
    assert report.cases == 1348 and report.failures
    assert all(":r=6:" in key and ":a=4,4,4:" in key for key, _, _ in report.failures)


def test_oracle_suite_passes():
    report = check_oracle_equivalence(5, 6, 4)
    assert report.passed
    assert report.cases > 50


def test_axioms_suite_passes():
    report = check_axioms(5, 4)
    assert report.passed
    assert report.cases > 30


def test_axioms_suite_checks_four_point_zero_entries_against_lg(monkeypatch):
    # a wrong 4-point value with a zero twist: the zero-entry case sees that it
    # is not 0, and the zero-entry-formula case that it is not LG's value
    real = rspin.verify.solve_bracket

    def wrong(r, a, cache=None):
        result = real(r, a, cache)
        if len(a) == 4 and 0 in a and r - 1 not in a:
            return EvalResult(result.value + 1, result.status, result.trace)
        return result

    monkeypatch.setattr(rspin.verify, "solve_bracket", wrong)
    kinds = {key.split(":")[0] for key, _, _ in check_axioms(5, 4).failures}
    assert kinds == {"zero-entry", "zero-entry-formula"}


def test_axioms_suite_checks_five_point_zero_entries_against_lg(monkeypatch):
    # past four points solve_bracket answers a zero twist with a shortcut 0,
    # which the LG route computes: at the default bounds one bracket has it
    real_solve, real_lg = rspin.verify.solve_bracket, rspin.verify.lg_bracket

    def off_by_one(real):
        def wrong(r, a, *args):
            result = real(r, a, *args)
            if len(a) >= 5 and 0 in a and result.status == "ok":
                return EvalResult(result.value + 1, result.status, result.trace)
            return result

        return wrong

    case = "zero-entry:g0:r=6:a=0,4,4,4,4"
    monkeypatch.setattr(rspin.verify, "solve_bracket", off_by_one(real_solve))
    report = check_axioms(6, 5)
    assert report.cases == 193 and report.failures == [(case, "0/1", "1/1")]
    monkeypatch.setattr(rspin.verify, "solve_bracket", real_solve)
    monkeypatch.setattr(rspin.verify, "lg_bracket", off_by_one(real_lg))
    report = check_axioms(6, 5)
    assert report.cases == 193 and report.failures == [(case, "1/1", "0/1")]


def test_oracle_suite_reports_a_stalled_reduction_and_a_wrong_status(monkeypatch):
    stalled = DR1Bracket(4, [(2, 2), (-2, 2)])
    vanishing = DR1Bracket(4, [(1, 3), (-1, 1)])
    assert closed_form(vanishing).status == "vanishing-axiom-zero"
    real = rspin.verify.solve_relational

    def patched(bracket, cache):
        if bracket == stalled:
            raise ReductionStalledError(bracket.key)
        if bracket == vanishing:
            return EvalResult(0, "ok", ("patched",))
        return real(bracket, cache)

    monkeypatch.setattr(rspin.verify, "solve_relational", patched)
    report = check_oracle_equivalence(4, 4, 3)
    assert report.cases == 17
    assert report.failures == [
        (vanishing.key, "vanishing-axiom-zero", "ok"),
        (stalled.key, format_rational(closed_form(stalled).value), "reduction-stalled"),
    ]


def test_reports_are_deterministic():
    a = check_prop_loop(5, 5, extended=True)
    b = check_prop_loop(5, 5, extended=True)
    assert a.cases == b.cases
    assert a.failures == b.failures


def test_report_json_schema():
    report = check_prop_loop(4, 4, extended=True)
    payload = json.loads(json.dumps(report.to_payload()))
    assert set(payload) == {"suite", "cases", "failures", "elapsed_ms"}
    for failure in payload["failures"]:
        assert set(failure) == {"key", "expected", "got"}
    keys = [f["key"] for f in payload["failures"]]
    assert keys == sorted(keys)


def test_failures_sorted_by_key():
    report = SuiteReport("demo", 3, [("b", "1", "2"), ("a", "1", "3")])
    assert [key for key, _, _ in report.failures] == ["a", "b"]
    assert not report.passed


def test_run_suite_dispatch():
    # the default bounds are the window CI and the benchmark pin
    for bounds, cases in (
        ({"r_max": 4, "n_max": 4, "k_sum_max": 4}, (7, 52, 21, 47)),
        ({}, (23, 1348, 369, 193)),
    ):
        reports = run_suite("all", **bounds)
        assert [(rep.suite, rep.cases, rep.failures) for rep in reports] == [
            ("loop", cases[0], []),
            ("relations", cases[1], []),
            ("oracle", cases[2], []),
            ("axioms", cases[3], []),
        ]
    single = run_suite("axioms", r_max=3, n_max=4)
    assert len(single) == 1 and single[0].suite == "axioms"
    with pytest.raises(ValueError):
        run_suite("nonsense")
