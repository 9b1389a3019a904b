"""Genus-0 evaluation: closed small-point formulas, window sums, WDVV solving.

The 5-point golden values below were frozen from hand derivations of the
associativity systems (r = 4 and r = 5) and from an independent elimination
over window-sum constraints (r = 6) before the solver existed; they guard
the generator against silent regressions.
"""

from __future__ import annotations

import hashlib
import inspect
import re
import sys
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rspin.core import (
    CacheError,
    EvalResult,
    GradingError,
    Genus0Bracket,
    InconsistentSystemError,
    ascending_multisets,
    format_rational,
    genus0_key,
    parse_key,
)
from rspin import lg
from rspin.elimination import solve_exact
from rspin.genus0 import (
    _Build,
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
    # the lemma's row needs no store: with none given, none is made
    assert solve_bracket(6, (2, 3, 3, 4, 4)).trace == ("wdvv-elimination",)
    assert made == []


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
                    assert bracket_window_sum(r, m, x, cache) == want
                    assert lg.window_sum(r, m, x) == want


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
    assert bracket_window_sum(r, m, x) == true_sum
    assert lg.window_sum(r, m, x) == true_sum
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
                    assert bracket_window_sum(r, m, x, cache) == want
                    assert lg.window_sum(r, m, x) == want
                    checked += 1
    assert checked > 10


@pytest.mark.parametrize("r,n", [(8, 5), (8, 6), (10, 7), (12, 5)])
def test_a_window_fills_the_store_as_solve_bracket_does(r, n):
    # the first window at (r, n) with a bracket read off its row, against the
    # first unknown: one fill for the window, the same keys and values
    m, x = next((m, x) for m in range(2, r - 1) for x in ascending_multisets(1, r - 2, n - 2, (n - 2) * r - m - 2))
    window, single = CacheStore(), CacheStore()
    assert bracket_window_sum(r, m, x, window) == loop_sum(r, m, x)
    solve_bracket(r, next(ascending_multisets(1, r - 2, n, (n - 2) * r - 2)), single)
    assert len(window) > 0 and dict(window.items()) == dict(single.items())
    # a filled store is checked, and left as it is
    assert bracket_window_sum(r, m, x, window) == loop_sum(r, m, x)
    assert dict(window.items()) == dict(single.items())


def test_the_store_fill_is_pinned_byte_for_byte():
    # solve_bracket on the first unknown of each stratum, a fresh store each:
    # every key and value a fill puts, pinned by the digest of their lines
    # (sorted keys, one stratum after another), so a change to the fill's
    # order, set or values fails here even when every caller changes with it
    digest = hashlib.sha256()
    for r, n in [(8, 5), (8, 6), (10, 7), (12, 5), (12, 6), (14, 6), (40, 5)]:
        store = CacheStore()
        solve_bracket(r, next(ascending_multisets(1, r - 2, n, (n - 2) * r - 2)), store)
        for key, value in store.items():
            digest.update(f"{key}={format_rational(value)}\n".encode())
    assert digest.hexdigest() == "c9749ae37ef5d12d4de46ddb9d717c9cf2ce6b24cafde320ac4e7941a4b7a4a8"


def test_a_store_is_filled_without_recursion():
    # <19,20,21,23,35> at r = 40 takes about 80 frames by its row on demand; given a
    # store, the fill comes first and runs bottom-up, so it fits in 40 frames
    # above the caller's, and so does a window of that stratum
    want = lg.window_sum(40, 39, (21, 23, 35))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        bracket = solve_bracket(40, (19, 20, 21, 23, 35), CacheStore())
        window = bracket_window_sum(40, 39, (21, 23, 35), CacheStore())
    finally:
        sys.setrecursionlimit(limit)
    assert bracket == EvalResult(Fraction(63, 800), "ok", ("wdvv-elimination",))
    assert window == want == Fraction(36, 25)


def test_a_window_refuses_a_wrong_stored_value_naming_its_key():
    store = CacheStore()
    store.put(genus0_key(8, (1, 3, 6, 6, 6)), Fraction(1, 64))
    message = "stored value 1/64 for g0:r=8:a=1,3,6,6,6 disagrees with the recomputed 0"
    with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
        bracket_window_sum(8, 4, (6, 6, 6), store)
    # also from a window that does not hold that bracket, but reads the (8, 5) values
    with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
        bracket_window_sum(8, 6, (4, 6, 6), store)


def test_a_window_of_closed_form_brackets_puts_nothing():
    # three and four points, and five and six points, each bracket with a twist 0
    store = CacheStore()
    for r, m, x in [(8, 5, (1,)), (8, 2, (6, 6)), (8, 10, (0, 6, 6)), (8, 12, (0, 6, 6, 6))]:
        assert bracket_window_sum(r, m, x, store) == lg.window_sum(r, m, x)
    assert not store.dirty and len(store) == 0


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
            store.put(genus0_key(r, a), Fraction(value, r ** (n - 3)))
    got = dict(store.items())
    want = dict(CacheStore.load(str(FROZEN_TABLE)).items())
    assert len(want) == 308
    assert sorted(got) == sorted(want)
    assert [key for key in want if got[key] != want[key]] == []


def test_frozen_values_are_integral_after_scaling():
    # Proved in the rspin.genus0 docstring (Corollary 2) and checked here:
    # r^(n-3) * <a> is an integer on every frozen value, which is what keeps
    # the associativity rows in integers.
    entries = list(CacheStore.load(str(FROZEN_TABLE)).items())
    assert len(entries) == 308
    for key, value in entries:
        bracket = parse_key(key)
        assert (value * bracket.r ** (bracket.n - 3)).denominator == 1, key


def test_build_keeps_non_integral_scaled_values_exact():
    # No row gives a value that does not scale to an integer: solve_bracket
    # refuses such a stored value as it refuses any wrong one, and the
    # system builder, which reads stored values, refuses it naming its key,
    # the value and r^(n-3)
    store = CacheStore()
    store.put(genus0_key(5, (2, 2, 3, 3, 3)), Fraction(1, 7))
    message = "stored value 1/7 for g0:r=5:a=2,2,3,3,3 disagrees with the recomputed 2/25"
    with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
        solve_bracket(5, (3, 3, 3, 3, 3, 3), store)
    message = "g0:r=5:a=2,2,3,3,3: stored value 1/7 times r^(n-3) = 25 is not an integer"
    with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
        wdvv_equations(5, 6, store)
    build = _Build(5, 6)
    even, rule = _scaled(5, (3, 3, 3, 3, 3, 3), build)
    assert type(even) is int and even == 6 and rule == "wdvv-elimination"
    small = [_scaled(5, a, build) for a in ((1, 1, 1), (1, 1, 3, 3), (2, 2, 2, 2), (0, 3, 3, 3, 3))]
    assert small == [(1, "three-point"), (1, "four-point"), (2, "four-point"), (0, "zero-entry")]


@pytest.mark.parametrize("r,scale,rows", [(7, Fraction(1, 7), 11), (8, Fraction(2, 3), 36), (9, Fraction(1, 5), 94)])
def test_rows_with_non_integral_constants_are_cleared_whole(r, scale, rows):
    # The 6-point constants are linear in the 5-point values, so scaling all
    # of those by one factor would keep the system consistent; but a 5-point
    # value that does not scale to an integer is refused, naming its key, as
    # soon as the 6-point rows read it, and no row gets a Fraction constant.
    store = CacheStore()
    values, _free = solve_exact(*wdvv_equations(r, 5, store))
    for a, value in values.items():
        store.put(genus0_key(r, a), Fraction(value, r ** 2))
    system = wdvv_equations(r, 6, store)
    assert len(system.equations) == rows
    assert all(type(v) is int for coeffs, rhs in system.equations for v in (rhs, *coeffs.values()))
    want, free = solve_exact(*system)
    assert free == [] and want
    scaled = CacheStore()
    for key, value in store.items():
        scaled.put(key, value * scale)
    with pytest.raises(CacheError, match=rf"^g0:r={r}:a=\d+(,\d+){{4}}: stored value \S+ times r\^\(n-3\) = {r * r} is not"):
        wdvv_equations(r, 6, scaled)


def _lemma_row(r, u, scaled_value):
    """The row the ``rspin.genus0`` lemma names for the unknown ``u``, rebuilt here.

    With ``m`` ones in ``u``, ``s = u[m]``, ``c, d = u[-2:]`` and ``R`` the
    rest, it is pairing ``{1, s-1 | c, d}`` minus pairing ``{1, c | s-1, d}``
    of the instance ``R + {1, s-1, c, d}``. A pairing ``{a, b | e, f}`` sums
    ``<a, b, R_I, nu> <r-2-nu, e, f, R_J>`` over the index splits ``I + J``
    of ``R``, with ``nu`` graded into ``[0, r - 2]``. Returns
    ``({unknown: coefficient}, constant)`` in scaled units, read as
    ``sum coefficient * S(unknown) = constant``.
    """
    n, m = len(u), u.count(1)
    s, c, d = u[m], u[-2], u[-1]
    rest = u[:m] + u[m + 1:-2]
    coeffs, constant = {}, 0
    for sign, (a, b), (e, f) in ((1, (1, s - 1), (c, d)), (-1, (1, c), (s - 1, d))):
        for side in product((0, 1), repeat=len(rest)):
            left = [t for t, k in zip(rest, side) if k]
            right = [t for t, k in zip(rest, side) if not k]
            nu = (len(left) + 1) * r - 2 - a - b - sum(left)
            if not 0 <= nu <= r - 2:
                continue
            one, two = tuple(sorted((a, b, nu, *left))), tuple(sorted((r - 2 - nu, e, f, *right)))
            if len(one) == n:
                coeffs[one] = coeffs.get(one, 0) + sign * scaled_value(two)
            elif len(two) == n:
                coeffs[two] = coeffs.get(two, 0) + sign * scaled_value(one)
            else:
                constant -= sign * scaled_value(one) * scaled_value(two)
    return {key: v for key, v in coeffs.items() if v}, constant


def test_each_unknown_leads_the_row_the_lemma_names():
    # The rspin.genus0 lemma, checked without the generator: each unknown U
    # is the last unknown of a row that wdvv_equations draws, with
    # coefficient +-1, so the systems pin every unknown (Corollary 1) and
    # the scaled values are integers (Corollary 2).
    checked = 0
    for r in range(4, 14):
        store = CacheStore()

        def scaled_value(a):
            value = solve_bracket(r, a).value * r ** (len(a) - 3)
            assert value.denominator == 1, (r, a)
            return value.numerator

        for n in range(5, 8 if r < 12 else 7):
            system = wdvv_equations(r, n, store)
            generated = {(frozenset(coeffs.items()), rhs) for coeffs, rhs in system.equations}
            for u in system.unknowns:
                coeffs, constant = _lemma_row(r, u, scaled_value)
                assert coeffs[u] in (1, -1), (r, u)
                assert all(key < u for key in coeffs if key != u), (r, u)
                negated = {key: -v for key, v in coeffs.items()}
                assert ((frozenset(coeffs.items()), constant) in generated
                        or (frozenset(negated.items()), -constant) in generated), (r, u)
                checked += 1
            values, free = solve_exact(*system)
            assert free == [], (r, n)
            assert all(value.denominator == 1 for value in values.values()), (r, n)
            for a, value in values.items():
                store.put(genus0_key(r, a), Fraction(value, r ** (n - 3)))
    assert checked == 704


@pytest.mark.parametrize("r,n", [(8, 5), (12, 5), (12, 6), (10, 7), (14, 6), (12, 7)])
def test_the_lemmas_row_gives_what_elimination_gives(r, n):
    # each unknown from its own row, one call and one memo each, against the
    # whole system solved by substitution
    unknowns, equations = wdvv_equations(r, n)
    values, free = solve_exact(unknowns, equations)
    assert free == [] and len(values) == len(unknowns) > 10
    wrong = [a for a, value in values.items() if solve_bracket(r, a).value != Fraction(value, r ** (n - 3))]
    assert wrong == []


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
                        cache.put(genus0_key(r, key), Fraction(v, r ** (len(a) - 3)))
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
        store.put(genus0_key(r, a), Fraction(value, r ** (n - 4)))
    entries = list(store.items())
    assert len(entries) == smaller
    for key, _ in entries:
        perturbed = CacheStore()
        for other, v in entries:
            perturbed.put(other, v + Fraction(1, r) if other == key else v)
        with pytest.raises(ValueError, match="inconsistent"):
            solve_exact(*wdvv_equations(r, n, perturbed))


def test_a_wrong_stored_value_is_caught_by_the_row_check_naming_the_system():
    # <1,3,6,6,6> at r = 8 is 0; stored as 1/64 (scaled by r^2, the integer 1)
    # it gives six-point rows with no unknown and a nonzero constant, which
    # the generator keeps for the solver's row check
    def wrong():
        store = CacheStore()
        store.put("g0:r=8:a=1,3,6,6,6", Fraction(1, 64))
        return store

    system = wdvv_equations(8, 6, wrong())
    assert [rhs for coeffs, rhs in system.equations if not coeffs] == [-2, -3, 1, -4]
    with pytest.raises(InconsistentSystemError, match="^inconsistent linear system$"):
        solve_exact(*system)


def test_the_system_builder_puts_only_values_from_rows():
    # wdvv_equations reads a stored value into its rows, but each value it
    # puts comes from the lemma's rows alone: a wrong five-point value at
    # r = 8 leaves every other (8, 5) value it fills true
    r = 8
    true = {genus0_key(r, a): solve_bracket(r, a).value for a in ascending_multisets(1, r - 2, 5, 3 * r - 2)}
    for key in true:
        store = CacheStore()
        store.put(key, true[key] + Fraction(1, r * r))
        wdvv_equations(r, 6, store)
        assert dict(store.items()) == {**true, key: true[key] + Fraction(1, r * r)}, key


@pytest.mark.parametrize("a", [(1, 3, 6, 6, 6), (3, 3, 6, 6, 6, 6), (2, 2, 6, 6, 6)])
def test_solve_bracket_never_serves_a_stored_value(a):
    # Each request recomputes its strata and names the stored value that
    # disagrees, whether it asked for that bracket or not; that value stays
    store = CacheStore()
    store.put("g0:r=8:a=1,3,6,6,6", Fraction(1, 64))
    message = "stored value 1/64 for g0:r=8:a=1,3,6,6,6 disagrees with the recomputed 0"
    with pytest.raises(CacheError, match=f"^{re.escape(message)}$"):
        solve_bracket(8, a, store)
    assert store.get("g0:r=8:a=1,3,6,6,6") == Fraction(1, 64)


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
    cache.dirty = False
    second = solve_bracket(4, (2, 2, 2, 2, 2), cache)
    # the stored value is checked against the row, not read
    assert first == second == EvalResult(Fraction(1, 8), "ok", ("wdvv-elimination",))
    assert not cache.dirty


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
