"""The Landau-Ginzburg route (``rspin.lg``) against the WDVV route of ``rspin.genus0``.

The two routes share no code past the argument checks: LG builds no
equation and reads no store, WDVV has no flat coordinates. So each one
checks the other, bracket by bracket and window by window, and the mutant
tests below show that the comparison notices a wrong coefficient on
either side.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

import rspin.elimination
import rspin.genus0
from rspin import lg
from rspin.core import (
    EvalResult,
    GradingError,
    InconsistentSystemError,
    StructureError,
    ascending_multisets,
    parse_key,
)
from rspin.dr1 import b_value
from rspin.genus0 import bracket_window_sum, loop_sum, solve_bracket
from rspin.store import CacheStore

FROZEN_TABLE = Path(__file__).parent / "data" / "g0_wdvv_frozen.json"


def _brackets(r_max: int = 8):
    """Every graded 3- to 7-point twist row at r <= r_max, 7 points only up to r = 7."""
    for r in range(2, r_max + 1):
        for n in range(3, 8 if r <= 7 else 7):
            for a in ascending_multisets(0, r - 1, n, (n - 2) * r - 2):
                yield r, a


def _windows(r_max: int = 8):
    """Every classic and extended window (m <= r) at r <= r_max with 3 to 6 points."""
    for r in range(2, r_max + 1):
        for m in range(0, r + 1):
            for p in range(1, 5):
                for x in ascending_multisets(0, r - 1, p, p * r - m - 2):
                    yield r, m, x


def _bracket_mismatches(rows):
    """The rows where the two routes differ in value or status; WDVV shares one store per r."""
    stores = {}
    mismatches = []
    for r, a in rows:
        want = solve_bracket(r, a, stores.setdefault(r, CacheStore()))
        got = lg.bracket(r, a)
        if (got.value, got.status) != (want.value, want.status):
            mismatches.append((r, a))
    return mismatches


def _window_mismatches(windows):
    """The windows where the two routes differ; WDVV shares one store per r."""
    stores = {}
    return [
        (r, m, x) for r, m, x in windows
        if lg.window_sum(r, m, x) != bracket_window_sum(r, m, x, stores.setdefault(r, CacheStore()))
    ]


def test_lg_brackets_equal_wdvv_on_every_small_bracket():
    rows = list(_brackets())
    assert len(rows) == 344
    assert sum(1 for r, a in rows if 0 in a) > 50
    assert sum(1 for r, a in rows if solve_bracket(r, a).value) > 80
    assert _bracket_mismatches(rows) == []


def test_lg_brackets_equal_the_lemmas_rows_on_random_brackets_up_to_r_30():
    # WDVV by the lemma's rows alone, one bracket per call, where building
    # whole systems would take minutes: graded rows with twists in [1, r - 2]
    rng = random.Random(7)
    rows = []
    while len(rows) < 300:
        r, n = rng.randint(17, 30), rng.randint(5, 7)
        a = [rng.randint(1, r - 2) for _ in range(n - 1)]
        if 1 <= (n - 2) * r - 2 - sum(a) <= r - 2:
            rows.append((r, tuple(a) + ((n - 2) * r - 2 - sum(a),)))
    values = {row: lg.bracket(*row).value for row in rows}
    assert sum(1 for value in values.values() if value) > 250
    wrong = [row for row in rows if solve_bracket(*row) != EvalResult(values[row], "ok", ("wdvv-elimination",))]
    assert wrong == []
    # the two seven-point brackets CI pins: WDVV systems at (16, 7) took
    # seconds, and at (30, 7) could not be built at all
    for r, a, value in [(30, (4, 4, 28, 28, 28, 28, 28), Fraction(1, 33750)),
                        (16, (4, 4, 14, 14, 14, 14, 14), Fraction(3, 8192))]:
        assert solve_bracket(r, a).value == lg.bracket(r, a).value == value


def test_lg_bracket_statuses_follow_solve_bracket():
    assert lg.bracket(5, (1, 1, 3)) == solve_bracket(5, (1, 1, 3))
    assert lg.bracket(5, (4, 1, 0, 3)) == solve_bracket(5, (4, 1, 0, 3))
    assert lg.bracket(7, (5, 4, 3, 3, 4)) == EvalResult(Fraction(4, 49), "ok", ("lg",))
    assert lg.bracket(6, (0, 4, 4, 4, 4)) == EvalResult(Fraction(0), "ok", ("lg",))
    with pytest.raises(StructureError):
        lg.bracket(5, (3, 3))
    with pytest.raises(GradingError):
        lg.bracket(5, (1, 1, 5))


def test_lg_brackets_equal_the_frozen_wdvv_table():
    entries = list(CacheStore.load(str(FROZEN_TABLE)).items())
    assert len(entries) == 308
    wrong = []
    for key, value in entries:
        bracket = parse_key(key)
        if lg.bracket(bracket.r, bracket.a).value != value:
            wrong.append(key)
    assert wrong == []


def test_lg_windows_equal_wdvv_on_classic_and_extended_windows():
    windows = list(_windows())
    assert len(windows) == 278
    assert sum(1 for r, m, x in windows if m > r - 2) > 100
    # the m = r two-spectator windows, where loop_sum is off by (r-1)/r; the
    # nine at r <= 6 are tests/test_genus0.py's DIVERGENT_WINDOWS
    assert sum(1 for r, m, x in windows if m == r and len(x) == 2 and r - 1 not in x) == 16
    assert _window_mismatches(windows) == []


def _disagreeing(windows):
    """The windows where the row route, LG and ``loop_sum`` do not all agree."""
    return [w for w in windows if not bracket_window_sum(*w) == lg.window_sum(*w) == loop_sum(*w)]


def test_both_window_routes_equal_the_formula_on_every_classic_window_up_to_r_16():
    # m <= r - 2 and one to four spectators: the cases of verify's loop suite at --r-max 16 --n-max 6
    windows = [(r, m, x) for r in range(2, 17) for m in range(r - 1) for p in range(1, 5)
               for x in ascending_multisets(0, r - 2, p, p * r - m - 2)]
    assert len(windows) == 790
    assert _disagreeing(windows) == []


def test_both_window_routes_equal_the_formula_on_seven_point_windows_up_to_r_30():
    rng = random.Random(11)
    windows = []
    while len(windows) < 30:
        r = rng.randint(17, 30)
        m, x = rng.randint(0, r - 2), [rng.randint(0, r - 2) for _ in range(4)]
        if 0 <= (last := 5 * r - m - 2 - sum(x)) <= r - 2:
            windows.append((r, m, tuple(sorted(x + [last]))))
    assert _disagreeing(windows) == []


def test_b_equals_one_lg_window_on_every_row_up_to_r_16():
    # B(r, a) is the genus-0 window sum over b + c = r - 2 in front of a, over
    # 24: every B row with twists up to r - 2 at r <= 16 and n <= 6, each
    # window summed by LG in one pass against the product formula
    checked = 0
    for r in range(2, 17):
        for n in range(1, 7):
            for a in ascending_multisets(0, r - 2, n, (n - 1) * r):
                assert lg.window_sum(r, r - 2, a) / 24 == b_value(r, a), (r, a)
                checked += 1
    assert checked == 225


def test_the_window_route_fills_the_store_it_is_given_and_lg_takes_none():
    store = CacheStore()
    want = loop_sum(8, 6, (6, 6, 6, 6))
    assert lg.window_sum(8, 6, (6, 6, 6, 6)) == want
    assert bracket_window_sum(8, 6, (6, 6, 6, 6), store) == want
    assert store.dirty and len(store) > 0
    with pytest.raises(TypeError):
        lg.window_sum(8, 6, (6, 6, 6, 6), store)
    with pytest.raises(TypeError):
        bracket_window_sum(8, 6, (6, 6, 6, 6), store, method="lg")


@pytest.mark.parametrize(
    "r,m,x",
    [
        (4, 2, ()),  # no fixed twist, but pairs to sum
        (4, 7, ()),  # no pair in range
        (4, -1, (1,)),
        (4, True, (1, 1)),
        (4, 2, (1, 4)),
        (1, 0, (0,)),
        (5, 3, (3, 4, 4)),  # a twist r - 1
        (5, 3, (3, 3, 3)),  # graded wrong
        (6, 10, (4, 4, 4)),  # graded wrong, m = 2r - 2
        (6, 9, (0, 1)),  # every pair holds a twist r - 1
        (4, 6, ()),  # pairs to sum, each holding a twist r - 1, but no fixed twist
    ],
)
def test_both_window_routes_share_argument_checks_and_zeros(r, m, x):
    outcomes = []
    for route in (bracket_window_sum, lg.window_sum):
        try:
            outcomes.append(route(r, m, x))
        except (GradingError, StructureError) as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]


def test_lg_answers_with_wdvv_elimination_and_the_formula_gone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Landau-Ginzburg route called into another route")

    want_window = loop_sum(10, 8, (6, 8, 8, 8))
    want_bracket = solve_bracket(8, (3, 3, 6, 6, 6, 6)).value
    monkeypatch.setattr(rspin.genus0, "wdvv_equations", refuse)
    monkeypatch.setattr(rspin.genus0, "loop_sum", refuse)
    monkeypatch.setattr(rspin.genus0, "solve_bracket", refuse)
    monkeypatch.setattr(rspin.elimination, "solve_exact", refuse)
    assert lg.window_sum(10, 8, (6, 8, 8, 8)) == want_window
    assert bracket_window_sum(10, 8, (6, 8, 8, 8)) == want_window
    assert lg.bracket(8, (3, 3, 6, 6, 6, 6)).value == want_bracket != 0


# Mutants: each wrong coefficient must show up as a mismatch between the routes.
MUTANT_ROWS = [(r, a) for r, a in _brackets(7) if len(a) >= 5]
MUTANT_WINDOWS = [w for w in _windows(7) if len(w[2]) >= 3]


def test_a_perturbed_flat_coordinate_coefficient_is_caught(monkeypatch):
    real = lg._flat_weights

    def perturbed(r, k):
        weights = real(r, k)
        for row in weights:
            row[2:3] = [c + Fraction(1, 7) for c in row[2:3]]
        return weights

    monkeypatch.setattr(lg, "_flat_weights", perturbed)
    assert _bracket_mismatches(MUTANT_ROWS)
    assert _window_mismatches(MUTANT_WINDOWS)


@pytest.mark.parametrize("change", ["sign", "factor"])
def test_a_wrong_sign_or_factor_in_a_primary_field_is_caught(monkeypatch, change):
    real = lg._phi

    def wrong(r, a, wp):
        phi = real(r, a, wp)
        scale = -1 if change == "sign" else 2
        # the terms that carry nilpotents: the leading -p^a alone gives the 3-point values
        return {q: {m: c * scale if m else c for m, c in e.items()} for q, e in phi.items()}

    monkeypatch.setattr(lg, "_phi", wrong)
    assert _bracket_mismatches(MUTANT_ROWS)
    assert _window_mismatches(MUTANT_WINDOWS)


def test_a_perturbed_wdvv_four_point_value_is_caught(monkeypatch):
    real = rspin.genus0._scaled

    def perturbed(r, a, cache):
        value, rule = real(r, a, cache)
        return (value + 1 if len(a) == 4 and a == (1, 2, 4, 5) else value), rule

    monkeypatch.setattr(rspin.genus0, "_scaled", perturbed)
    rows = [(7, a) for a in ascending_multisets(1, 5, 5, 19)]
    try:
        caught = _bracket_mismatches(rows)
    except InconsistentSystemError:
        caught = True
    assert caught


def _rows_off_lg(r, n, store=None):
    """The rows of ``wdvv_equations(r, n, store)`` that LG's scaled values do not satisfy."""
    system = rspin.genus0.wdvv_equations(r, n, store)
    scaled = {a: r ** (n - 3) * lg.bracket(r, a).value for a in system.unknowns}
    return [
        (coeffs, const) for coeffs, const in system.equations
        if sum(c * scaled[a] for a, c in coeffs.items()) != const
    ]


@pytest.mark.parametrize("r,n", [(8, 6), (12, 5)])
def test_every_generated_wdvv_row_vanishes_on_lg_values(r, n):
    # checks generation without elimination: a wrong row that elimination
    # finds redundant, or a wrong constant, would survive solving
    assert _rows_off_lg(r, n) == []


def test_a_perturbed_wdvv_row_coefficient_is_caught(monkeypatch):
    real = rspin.genus0.wdvv_equations

    def perturbed(r, n, cache=None):
        unknowns, equations = real(r, n, cache)
        rows = list(equations)
        # one coefficient of a nonzero unknown, so that its row no longer holds
        i, key = next((i, a) for i, (coeffs, _) in enumerate(rows) for a in coeffs if lg.bracket(r, a).value)
        coeffs, const = rows[i]
        rows[i] = {**coeffs, key: coeffs[key] + 1}, const
        return rspin.genus0.WdvvSystem(unknowns, tuple(rows))

    store = CacheStore()
    solve_bracket(8, (1, 3, 6, 6, 6), store)  # the (8, 5) values the (8, 6) rows read
    monkeypatch.setattr(rspin.genus0, "wdvv_equations", perturbed)
    assert len(_rows_off_lg(8, 6, store)) == 1


def test_a_perturbed_wdvv_row_constant_is_caught(monkeypatch):
    real = rspin.genus0._Build.expand
    calls = []

    def perturbed(self, *args):
        ranks, const = real(self, *args)
        calls.append(1)
        return ranks, const + 1 if len(calls) == 40 else const

    store = CacheStore()
    solve_bracket(8, (1, 3, 6, 6, 6), store)  # the (8, 5) values the (8, 6) rows read
    monkeypatch.setattr(rspin.genus0._Build, "expand", perturbed)
    assert _rows_off_lg(8, 6, store)
