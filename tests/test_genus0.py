"""Genus-0 evaluation: closed small-point formulas, window sums, WDVV solving.

The 5-point golden values below were frozen from hand derivations of the
associativity systems (r = 4 and r = 5) and from an independent elimination
over window-sum constraints (r = 6) before the solver existed; they guard
the generator against silent regressions.
"""

from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rspin.cli import run
from rspin.core import (
    EvalResult,
    GradingError,
    Genus0Bracket,
    InconsistentSystemError,
    UnderdeterminedError,
    ascending_multisets,
    genus0_key,
    parse_key,
)
from rspin.elimination import solve_exact
from rspin.genus0 import (
    WdvvSystem,
    _scaled,
    bracket_window_sum,
    loop_sum,
    solve_bracket,
    wdvv_equations,
)
from rspin.store import CacheStore


def test_three_point_is_one_on_all_selection_valid_triples():
    for r in range(2, 11):
        total = r - 2
        for a1 in range(0, r):
            for a2 in range(a1, r):
                a3 = total - a1 - a2
                if a3 < a2 or a3 > r - 1:
                    continue
                res = solve_bracket(r, (a1, a2, a3))
                assert res.value == 1
                assert res.status == "ok"


def test_three_point_selection_violation():
    res = solve_bracket(5, (1, 1, 2))
    assert res.value == 0
    assert res.status == "dimension-mismatch-zero"


def test_four_point_goldens():
    assert solve_bracket(5, (1, 1, 3, 3)).value == Fraction(1, 5)
    assert solve_bracket(4, (1, 1, 2, 2)).value == Fraction(1, 4)


def test_four_point_vanishing_twist():
    res = solve_bracket(5, (4, 0, 1, 3))
    assert res.value == 0
    assert res.status == "vanishing-axiom-zero"


def test_four_point_zero_entry_agrees_with_zero_rule():
    # the min over {a_i} and {r-1-a_i} is 0 exactly when some a_i is 0
    res = solve_bracket(4, (0, 2, 2, 2))
    assert res.value == 0
    assert res.status == "ok"


def _closed_small(r, a):
    """The 3- and 4-point result the dispatch must give, written out independently."""
    if sum(a) != (len(a) - 2) * r - 2:
        return EvalResult(0, "dimension-mismatch-zero", ("selection",))
    if r - 1 in a:
        return EvalResult(0, "vanishing-axiom-zero", ("vanishing-axiom",))
    if len(a) == 3:
        return EvalResult(1, "ok", ("three-point",))
    return EvalResult(Fraction(min(min(a), min(r - 1 - x for x in a)), r), "ok", ("four-point",))


def _grading_error(call, *args):
    with pytest.raises(GradingError) as info:
        call(*args)
    return str(info.value)


def test_three_and_four_point_agree_with_solve_bracket_on_every_twist_tuple():
    # every ordered tuple, graded or not, at 2 <= r <= 9, trace included
    for r in range(2, 10):
        for size in (3, 4):
            for a in product(range(r), repeat=size):
                assert solve_bracket(r, a) == _closed_small(r, a), (r, a)
            for i, bad in product(range(size), (-1, r, True)):
                a = [r - 2] * size
                a[i] = bad
                want = f"twist {bad!r} is not an integer" if bad is True else (
                    f"twist {bad} out of range [0, {r - 1}] for r={r}")
                assert _grading_error(solve_bracket, r, a) == want, (r, a)
    assert _grading_error(solve_bracket, 1, (0, 0, 0)) == "r must be an integer >= 2, got 1"


def test_solve_bracket_makes_a_store_only_when_a_request_reaches_it(monkeypatch):
    made = []
    monkeypatch.setattr("rspin.genus0.CacheStore", lambda: made.append(1) or CacheStore())
    for a, rule in (((1, 1, 2), "three-point"), ((1, 3, 3, 3), "four-point"), ((1, 1, 1, 1, 1), "selection"),
                    ((1, 1, 4, 5, 5), "vanishing-axiom"), ((0, 4, 4, 4, 4), "zero-entry")):
        assert solve_bracket(6, a).trace == (rule,)
    assert made == []
    assert solve_bracket(6, (2, 3, 3, 4, 4)).trace == ("wdvv-elimination",)
    assert made == [1]


def test_loop_sum_goldens():
    assert loop_sum(5, 2, (3, 3)) == Fraction(1, 5)
    assert loop_sum(4, 2, (2, 2)) == Fraction(1, 4)
    # single spectator at the classic edge
    assert loop_sum(4, 2, (0,)) == 3


def test_loop_sum_precondition_errors():
    with pytest.raises(GradingError):
        loop_sum(4, 2, (1,))          # sum constraint violated
    with pytest.raises(GradingError):
        loop_sum(4, 3, (1, 1))        # m beyond classic range
    with pytest.raises(GradingError):
        loop_sum(4, 4, (2,), extended=True)  # extended needs >= 2 spectators
    with pytest.raises(GradingError):
        loop_sum(4, 2, (3, 3))        # spectator twist r - 1 not allowed


def test_loop_sum_extended_range_accepts_m_up_to_r():
    # formula value at the extended edge; its relation to the actual
    # bracket sum is covered by the divergence tests below
    assert loop_sum(4, 4, (1, 1), extended=True) == 1


def test_window_sum_matches_formula_in_classic_range():
    cache = CacheStore()
    for r in range(2, 7):
        for m in range(0, r - 1):
            for x_len in (1, 2, 3):
                total_x = x_len * r - m - 2
                from rspin.core import ascending_multisets
                for x in ascending_multisets(0, r - 2, x_len, total_x):
                    want = loop_sum(r, m, x)
                    assert bracket_window_sum(r, m, x, cache, method="wdvv") == want
                    assert bracket_window_sum(r, m, x, method="lg") == want


DIVERGENT_WINDOWS = [
    # (r, m, x, true window sum, formula value)
    (4, 4, (1, 1), Fraction(1, 4), Fraction(1)),
    (5, 5, (1, 2), Fraction(2, 5), Fraction(6, 5)),
    (6, 6, (2, 2), Fraction(2, 3), Fraction(3, 2)),
    (6, 6, (1, 3), Fraction(1, 2), Fraction(4, 3)),
    (6, 6, (0, 4), Fraction(0), Fraction(5, 6)),
    (4, 4, (0, 2), Fraction(0), Fraction(3, 4)),
    (3, 3, (0, 1), Fraction(0), Fraction(2, 3)),
    (2, 2, (0, 0), Fraction(0), Fraction(1, 2)),
    (5, 5, (0, 3), Fraction(0), Fraction(4, 5)),
]


@pytest.mark.parametrize("r,m,x,true_sum,formula", DIVERGENT_WINDOWS)
def test_extended_boundary_diverges_from_bracket_sum(r, m, x, true_sum, formula):
    """At m = r with exactly two spectators the formula overshoots the sum
    by exactly (r-1)/r.

    The sums on the left are assembled purely from the 3/4-point initial
    values and the vanishing rules, so the discrepancy is intrinsic to the
    formula's claimed range, not to the solver.
    """
    assert bracket_window_sum(r, m, x, method="wdvv") == true_sum
    assert bracket_window_sum(r, m, x, method="lg") == true_sum
    assert loop_sum(r, m, x, extended=True) == formula
    assert formula - true_sum == Fraction(r - 1, r)


def test_extended_interior_still_matches():
    # m = r - 1 windows and m = r windows with three spectators do agree
    cache = CacheStore()
    checked = 0
    from rspin.core import ascending_multisets
    for r in range(2, 7):
        for m in (r - 1, r):
            for x_len in (2, 3):
                if m == r and x_len == 2:
                    continue
                total_x = x_len * r - m - 2
                for x in ascending_multisets(0, r - 2, x_len, total_x):
                    want = loop_sum(r, m, x, extended=True)
                    assert bracket_window_sum(r, m, x, cache, method="wdvv") == want
                    assert bracket_window_sum(r, m, x, method="lg") == want
                    checked += 1
    assert checked > 10


WDVV_GOLDENS = [
    (4, (2, 2, 2, 2, 2), Fraction(1, 8)),
    (5, (1, 3, 3, 3, 3), Fraction(0)),
    (5, (2, 2, 3, 3, 3), Fraction(2, 25)),
    (6, (1, 3, 4, 4, 4), Fraction(0)),
    (6, (2, 2, 4, 4, 4), Fraction(1, 18)),
    (6, (2, 3, 3, 4, 4), Fraction(1, 18)),
    (6, (3, 3, 3, 3, 4), Fraction(1, 9)),
]


@pytest.mark.parametrize("r,a,value", WDVV_GOLDENS)
def test_five_point_goldens(r, a, value):
    res = solve_bracket(r, a)
    assert res.value == value
    assert res.status == "ok"


# Every value the associativity systems below pin down, recorded from the
# string-keyed engine with dense Gauss-Jordan elimination that the current
# one replaced. Solving (10, 7) also solves (10, 6) into the store, so the
# table holds 308 entries.
FROZEN_TABLE = Path(__file__).parent / "data" / "g0_wdvv_frozen.json"
FROZEN_SYSTEMS = (
    [(r, 5) for r in range(2, 13)]
    + [(r, 6) for r in range(2, 10)]
    + [(r, 7) for r in range(2, 9)]
    + [(10, 7)]
)


def test_wdvv_values_match_frozen_table():
    store = CacheStore()
    for r, n in FROZEN_SYSTEMS:
        values, free = solve_exact(*wdvv_equations(r, n, store))
        assert free == [], (r, n)
        for a, value in values.items():
            store.put(genus0_key(r, a), value / r ** (n - 3))
    got = dict(store.items())
    want = dict(CacheStore.load(str(FROZEN_TABLE)).items())
    assert len(want) == 308
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_frozen_values_are_integral_after_scaling():
    # Observed, not proved: r^(n-3) * <a> is an integer on every frozen value,
    # which is what keeps the associativity rows in integers.
    entries = list(CacheStore.load(str(FROZEN_TABLE)).items())
    assert len(entries) == 308
    for key, value in entries:
        bracket = parse_key(key)
        assert (value * bracket.r ** (bracket.n - 3)).denominator == 1, key


def test_build_keeps_non_integral_scaled_values_exact():
    store = CacheStore()
    store.put(genus0_key(5, (2, 2, 3, 3, 3)), Fraction(1, 7))
    store.put(genus0_key(5, (3, 3, 3, 3, 3, 3)), Fraction(2, 25))
    odd, rule = _scaled(5, (2, 2, 3, 3, 3), store)
    assert type(odd) is Fraction and odd == Fraction(25, 7) and rule == "cache"
    even, rule = _scaled(5, (3, 3, 3, 3, 3, 3), store)
    assert type(even) is int and even == 10 and rule == "cache"
    small = [_scaled(5, a, store) for a in ((1, 1, 1), (1, 1, 3, 3), (2, 2, 2, 2))]
    assert small == [(1, "three-point"), (1, "four-point"), (2, "four-point")]


@pytest.mark.parametrize("r,scale,rows", [(7, Fraction(1, 7), 11), (8, Fraction(2, 3), 36), (9, Fraction(1, 5), 94)])
def test_rows_with_non_integral_constants_are_cleared_whole(r, scale, rows):
    # The 6-point constants are linear in the 5-point values, so scaling all
    # of those by one factor keeps the system consistent and scales its
    # solution by the same factor. A Fraction constant must clear the whole
    # row, not the constant alone.
    store = CacheStore()
    values, _free = solve_exact(*wdvv_equations(r, 5, store))
    for a, value in values.items():
        store.put(genus0_key(r, a), value / r ** 2)
    want, free = solve_exact(*wdvv_equations(r, 6, store))
    assert free == [] and want
    scaled = CacheStore()
    for key, value in store.items():
        scaled.put(key, value * scale)
    assert any(type(_scaled(r, a, scaled)[0]) is Fraction for a in values)
    system = wdvv_equations(r, 6, scaled)
    assert len(system.equations) == rows
    assert all(type(v) is int for coeffs, rhs in system.equations for v in (rhs, *coeffs.values()))
    got, free = solve_exact(*system)
    assert free == []
    assert got == {a: value * scale for a, value in want.items()}


@pytest.mark.parametrize("r,n,unknowns,equations", [
    (12, 5, 74, 1085), (12, 7, 61, 525), (14, 5, 139, 2799), (14, 6, 170, 3048), (13, 7, 98, 1075),
])
def test_wdvv_system_sizes(r, n, unknowns, equations):
    system = wdvv_equations(r, n)
    assert (len(system.unknowns), len(system.equations)) == (unknowns, equations)
    assert system.unknowns == tuple(sorted(system.unknowns))
    keys, rows = system
    assert keys is system.unknowns and rows is system.equations


def _primitive(coeffs, rhs):
    """Scale a row with a nonzero coefficient to its primitive integer form.

    The result has integer entries with greatest common divisor 1 and a
    positive coefficient at the smallest key, so two rows are proportional
    exactly when their primitive forms are equal. The generator hands its
    rows to elimination unnormalised; the reference loop and the digests
    compare rows in this form.
    """
    if not all(type(v) is int for v in (rhs, *coeffs.values())):
        den = lcm(rhs.denominator, *(v.denominator for v in coeffs.values()))
        coeffs = {k: int(v * den) for k, v in coeffs.items()}
        rhs = int(rhs * den)
    divisor = gcd(rhs, *coeffs.values())
    if coeffs[min(coeffs)] < 0:
        divisor = -divisor
    if divisor != 1:
        coeffs = {k: v // divisor for k, v in coeffs.items()}
        rhs //= divisor
    return coeffs, rhs


def _reference_system(r, n, cache, zero_instances):
    """Associativity system at (r, n), drawing the twists of each instance from 0.

    This is the loop from before instances holding a twist 0 were skipped,
    with its own value memo and a plain sum over index subsets of the rest.
    A smaller bracket missing from ``cache`` has its own system built the
    same way, solved and stored. For each multiset holding a 0 it appends
    the list of its distinct pairing expansions to ``zero_instances``.
    Returns the unknowns and the rows in primitive form, each kept once.
    """
    total = (n - 2) * r - 2
    memo = {}

    def value(a):
        if a not in memo:
            if len(a) == 3:
                memo[a] = 1
            elif len(a) == 4:
                memo[a] = min(a[0], r - 1 - a[3])
            elif a[0] == 0:
                memo[a] = 0
            else:
                if genus0_key(r, a) not in cache:
                    unknowns, equations = _reference_system(r, len(a), cache, [])
                    values, _free = solve_exact(unknowns, equations)
                    for key, v in values.items():
                        cache.put(genus0_key(r, key), v / r ** (len(a) - 3))
                memo[a] = cache.get(genus0_key(r, a)) * r ** (len(a) - 3)
        return memo[a]

    def pairing(first, second, rest):
        coeffs, const = {}, 0
        for mask in range(1 << len(rest)):
            one = tuple(t for i, t in enumerate(rest) if mask >> i & 1)
            other = tuple(t for i, t in enumerate(rest) if not mask >> i & 1)
            twist_sum = sum(first + one)
            nu = (-2 - twist_sum) % r
            if nu == r - 1 or twist_sum + nu != (len(first + one) - 1) * r - 2:
                continue
            left = tuple(sorted(first + one + (nu,)))
            right = tuple(sorted(second + other + (r - 2 - nu,)))
            if len(left) == n and left[0]:
                coeffs[left] = coeffs.get(left, 0) + value(right)
            elif len(right) == n and right[0]:
                coeffs[right] = coeffs.get(right, 0) + value(left)
            else:
                const += value(left) * value(right)
        return {k: v for k, v in coeffs.items() if v}, const

    equations, seen = [], set()
    for y in ascending_multisets(0, max(0, r - 2), n + 1, total):
        for dist in sorted(set(combinations(y, 4))):
            rest = list(y)
            for v in dist:
                rest.remove(v)
            d0, d1, d2, d3 = dist
            pairings = {}
            for p, q in (((d0, d1), (d2, d3)), ((d0, d2), (d1, d3)), ((d0, d3), (d1, d2))):
                tag = (p, q) if p <= q else (q, p)
                if tag not in pairings:
                    pairings[tag] = pairing(p, q, tuple(rest))
            if 0 in y:
                zero_instances.append(list(pairings.values()))
            for (ca, ka), (cb, kb) in combinations(pairings.values(), 2):
                coeffs = {k: ca.get(k, 0) - cb.get(k, 0) for k in {**ca, **cb}}
                coeffs = {k: v for k, v in coeffs.items() if v}
                if not coeffs:
                    assert kb == ka
                    continue
                row = _primitive(coeffs, kb - ka)
                tag = (tuple(sorted(row[0].items())), row[1])
                if tag not in seen:
                    seen.add(tag)
                    equations.append(row)
    return tuple(ascending_multisets(1, r - 2, n, total)), equations


def test_skipping_zero_twist_instances_changes_nothing():
    # Instances whose twists hold a 0 give only 0 = 0 rows, so drawing the
    # twists from 1 must leave the unknowns, the rows, their order and what
    # the build stores unchanged.
    zero_pairings = 0
    for r in range(2, 11):
        for n in (5, 6, 7):
            want_store, got_store = CacheStore(), CacheStore()
            zero_instances = []
            unknowns, equations = _reference_system(r, n, want_store, zero_instances)
            system = wdvv_equations(r, n, got_store)
            assert system.unknowns == unknowns, (r, n)
            assert [_primitive(*row) for row in system.equations] == equations, (r, n)
            assert dict(got_store.items()) == dict(want_store.items()), (r, n)
            for expansions in zero_instances:
                assert all(e == expansions[0] for e in expansions), (r, n)
                zero_pairings += len(expansions) > 1
    assert zero_pairings > 1000


def _generator_digest(rs, ns):
    # Unknowns, rows, row order, key order inside each row and what the
    # build stores, each (r, n) built into a fresh store. Each row is hashed
    # in primitive form, so the digest holds the rows up to a nonzero factor.
    digest = hashlib.sha256()
    for r in rs:
        for n in ns:
            store = CacheStore()
            system = wdvv_equations(r, n, store)
            rows = [_primitive(*row) for row in system.equations]
            rows = [(list(coeffs.items()), rhs) for coeffs, rhs in rows]
            digest.update(repr((r, n, system.unknowns, rows, list(store.items()))).encode())
    return digest.hexdigest()


def test_generator_output_is_pinned():
    want = "d7a1df517fb53efcfccf72f37423b8c41ebf58fc8978c7835c72c543915ec2a1"
    assert _generator_digest(range(4, 11), (5, 6, 7)) == want


def test_generator_output_is_pinned_where_rows_repeat():
    # At (12, 5) two of every three generated rows repeat an earlier raw
    # row and are skipped before they are built.
    want = "38e8b7cee10095c327462468c895023a3e05d3ad2ff00663e648aacab688f4ca"
    assert _generator_digest((11, 12), (5, 6)) == want


@pytest.mark.parametrize("r,n,smaller", [(7, 6, 8), (8, 6, 14), (8, 7, 24), (9, 7, 41)])
def test_a_wrong_smaller_value_makes_the_system_inconsistent(r, n, smaller):
    # Every (n-1)-point value enters some row's constant, so moving any one
    # of them by 1/r leaves the n-point system without a solution.
    store = CacheStore()
    values, _free = solve_exact(*wdvv_equations(r, n - 1, store))
    for a, value in values.items():
        store.put(genus0_key(r, a), value / r ** (n - 4))
    entries = list(store.items())
    assert len(entries) == smaller
    for key, _ in entries:
        perturbed = CacheStore()
        for other, v in entries:
            perturbed.put(other, v + Fraction(1, r) if other == key else v)
        with pytest.raises(ValueError, match="inconsistent"):
            solve_exact(*wdvv_equations(r, n, perturbed))


def test_rows_that_only_elimination_finds_inconsistent_name_the_system(monkeypatch):
    # two rows pin one unknown to two values: elimination's own raise,
    # which solve_bracket names with the system it solved
    key = (1, 3, 5, 5, 5)
    contradiction = WdvvSystem((key,), (({key: 1}, 1), ({key: 1}, 2)))
    monkeypatch.setattr("rspin.genus0.wdvv_equations", lambda r, n, cache: contradiction)
    with pytest.raises(InconsistentSystemError, match="^inconsistent genus-0 WDVV system at r=7, n=5$"):
        solve_bracket(7, key, CacheStore())
    with pytest.raises(InconsistentSystemError, match="^inconsistent linear system$"):
        solve_exact(*contradiction)


def test_a_bracket_the_rows_leave_free_names_every_unknown(monkeypatch, capsys):
    # x + y = 1 pivots on x, whose row holds the free y: neither is
    # determined, and the message counts both unknowns of the system
    key, other = (1, 3, 5, 5, 5), (1, 4, 4, 5, 5)
    underdetermined = WdvvSystem((key, other), (({key: 1, other: 1}, 1),))
    monkeypatch.setattr("rspin.genus0.wdvv_equations", lambda r, n, cache: underdetermined)
    assert solve_exact(*underdetermined) == ({}, [other])
    message = "associativity equations leave g0:r=7:a=1,3,5,5,5 undetermined (1 free of 2 unknowns)"
    with pytest.raises(UnderdeterminedError, match=f"^{re.escape(message)}$"):
        solve_bracket(7, key, CacheStore())
    assert run(["g0", "--r", "7", "--a", "1,3,5,5,5"]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


def test_wdvv_system_r2_is_empty():
    system = wdvv_equations(2, 5)
    assert system.unknowns == ()


def test_wdvv_needs_five_points():
    with pytest.raises(GradingError):
        wdvv_equations(4, 4)


def test_solve_bracket_statuses():
    bad_dim = solve_bracket(4, (3, 1, 1, 3))
    assert bad_dim.value == 0
    assert bad_dim.status == "dimension-mismatch-zero"
    vanish = solve_bracket(4, (3, 1, 1, 1))
    assert vanish.value == 0
    assert vanish.status == "vanishing-axiom-zero"
    zero_entry = solve_bracket(4, (0, 2, 2, 2))
    assert zero_entry.value == 0
    assert zero_entry.status == "ok"


def test_solve_bracket_permutation_invariance():
    a = (2, 3, 3, 4, 4)
    from itertools import permutations
    want = solve_bracket(6, a).value
    for perm in sorted(set(permutations(a))):
        assert solve_bracket(6, perm).value == want


def test_solve_bracket_uses_cache():
    cache = CacheStore()
    first = solve_bracket(4, (2, 2, 2, 2, 2), cache)
    assert "g0:r=4:a=2,2,2,2,2" in cache
    second = solve_bracket(4, (2, 2, 2, 2, 2), cache)
    assert first.value == second.value
    assert "cache" in second.trace


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=6), st.data())
def test_vanishing_twist_always_zero(r, data):
    n = data.draw(st.integers(min_value=3, max_value=5))
    total = (n - 2) * r - 2
    rest = data.draw(
        st.lists(st.integers(min_value=0, max_value=r - 1), min_size=n - 1, max_size=n - 1)
    )
    a = tuple(rest) + (r - 1,)
    res = solve_bracket(r, a)
    assert res.value == 0
