"""Genus-1 brackets: coefficient B, closed form, relations, relational solving.

Golden values come from the closed form evaluated by hand; the relational
route must reproduce them without ever consulting that formula.
"""

from __future__ import annotations

import copy
import hashlib
import pickle
from contextlib import contextmanager
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import rspin.core
import rspin.dr1
import rspin.genus0
import rspin.store
from rspin.cli import run
from rspin.core import (
    DR1Bracket,
    EvalResult,
    GradingError,
    ReductionStalledError,
    STATUS_DIMENSION_ZERO,
    StructureError,
    ascending_multisets,
    dr1_selection,
    format_rational,
    parse_key,
)
from rspin.dr1 import (
    RELATIONAL_REACH_MAX,
    anchored_instances,
    b_value,
    b_value_trr,
    closed_form,
    enumerate_brackets,
    relation1_instance,
    relation2_instance,
    relation3_check,
    solve_relational,
)
from rspin.store import CacheStore
from rspin.verify import check_axioms, check_oracle_equivalence, check_prop_loop, check_relations


def test_b_value_goldens():
    assert b_value(4, (2, 2)) == Fraction(1, 96)
    # n = 1 forces the twist 0 and gives (r-1)/24
    for r in range(2, 11):
        assert b_value(r, (0,)) == Fraction(r - 1, 24)
    # twist r - 1 kills the product
    assert b_value(4, (3, 2, 3)) == 0
    # selection violation yields 0, not an error
    assert b_value(4, (2, 1)) == 0


def test_b_value_rejects_bad_twists():
    with pytest.raises(GradingError):
        b_value(4, (4, 0))
    with pytest.raises(GradingError):
        b_value(4, ())


def test_genus0_window_sum_b_matches_product_formula():
    # b_value_trr sums genus-0 brackets over the window a + b = r - 2,
    # alone or sharing one genus-0 store per r
    for r in range(2, 11):
        cache = CacheStore()
        for n in range(1, 5):
            total = (n - 1) * r
            if total > n * (r - 1):
                continue
            for a in ascending_multisets(0, r - 1, n, total):
                assert b_value_trr(r, a) == b_value(r, a) == b_value_trr(r, a, cache), (r, a)


def test_genus0_window_sum_b_is_independent_of_the_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("the genus-0 B route read a product formula")

    # the product formula under every module name it is bound to, and loop_sum
    for module, name in ((rspin.core, "_product"), (rspin.dr1, "_product"), (rspin.genus0, "_product"),
                         (rspin.genus0, "loop_sum")):
        assert hasattr(module, name), (module.__name__, name)
        monkeypatch.setattr(module, name, refuse)
    for r in range(2, 11):
        assert b_value_trr(r, (0,)) == Fraction(r - 1, 24)
    assert b_value_trr(4, (2, 2)) == Fraction(1, 96)
    assert b_value_trr(4, (2, 1)) == 0  # selection fails
    assert b_value_trr(4, (3, 1)) == 0  # twist r - 1


def test_axiom_suite_passes_no_genus0_store(monkeypatch):
    # a genus-0 store is never read for an answer, so sharing one would only
    # cost the checks of what it holds
    real = rspin.genus0.bracket_window_sum
    rs = set()

    def recording(r, m, x, cache=None):
        assert cache is None
        rs.add(r)
        return real(r, m, x, cache)

    monkeypatch.setattr(rspin.genus0, "bracket_window_sum", recording)
    assert check_axioms(6, 5).passed
    assert sorted(rs) == list(range(2, 7))


@pytest.mark.parametrize("module,suite,prefix", [
    (rspin.dr1, lambda: check_axioms(6, 5), "b:r="),
    (rspin.genus0, lambda: check_prop_loop(6, 5), "loop:r="),
], ids=["dr1-axioms", "genus0-loop"])
def test_a_wrong_product_formula_fails_its_suite(monkeypatch, module, suite, prefix):
    # the one product, doubled on three-twist rows where one module binds it:
    # B in dr1 fails the axioms suite, loop_sum in genus0 the loop suite
    real = rspin.core._product

    def doubled_at_three(r, a, num, den):
        value = real(r, a, num, den)
        return 2 * value if len(a) == 3 else value

    assert suite().passed
    monkeypatch.setattr(module, "_product", doubled_at_three)
    keys = [key for key, _, _ in suite().failures]
    assert keys and all(key.startswith(prefix) and key.count(",") == 2 for key in keys)


def test_closed_form_goldens():
    res = closed_form(DR1Bracket(4, [(2, 2), (-2, 2)]))
    assert res.value == Fraction(1, 32)
    assert res.status == "ok"
    res = closed_form(DR1Bracket(6, [(2, 4), (1, 4), (-3, 4)]))
    assert res.value == Fraction(1, 72)


def test_closed_form_statuses():
    # selection violated: sum(a) != (n-1) r
    bad = closed_form(DR1Bracket(4, [(1, 2), (-1, 1)]))
    assert bad.value == 0
    assert bad.status == "dimension-mismatch-zero"
    # twist r - 1 present
    van = closed_form(DR1Bracket(4, [(2, 3), (-2, 1)]))
    assert van.value == 0
    assert van.status == "vanishing-axiom-zero"


def test_relation3_shapes_evaluate_to_zero():
    for r, pairs in [
        (4, [(1, 2), (-1, 2)]),
        (6, [(1, 4), (-1, 4), (0, 4)]),
        (5, [(1, 3), (-1, 4), (0, 4), (0, 4)]),
    ]:
        br = DR1Bracket(r, pairs)
        assert relation3_check(br)
        assert closed_form(br).value == 0
        assert solve_relational(br, CacheStore()).value == 0


def test_relation3_check_rejects_other_shapes():
    assert not relation3_check(DR1Bracket(4, [(2, 2), (-2, 2)]))
    assert not relation3_check(DR1Bracket(8, [(1, 6), (1, 6), (-1, 6), (-1, 6)]))


def test_relation1_ten_b_identity_structure():
    # context k = (1,1,-1,-1) on distinct-twist rows: coefficient pattern
    # 10 B = -6<ctx> + 2<2,1,-2,-1> + 2<2,1,-1,-2>
    inst = relation1_instance(9, [1, 1, -1, -1], [7, 7, 6, 7])
    assert inst.kind == "relation1"
    assert inst.b_coefficient == 10
    ctx = DR1Bracket(9, [(1, 7), (1, 7), (-1, 6), (-1, 7)])
    c1 = DR1Bracket(9, [(2, 7), (1, 7), (-2, 6), (-1, 7)])
    c2 = DR1Bracket(9, [(2, 7), (1, 7), (-1, 6), (-2, 7)])
    assert inst.terms == {ctx: Fraction(-6), c1: Fraction(2), c2: Fraction(2)}
    assert inst.residual_closed() == 0


def test_relation1_fifteen_b_identity_structure():
    # context k = (2,2,-2,-2):
    # 15 B = -7<ctx> - 1<3,1,-2,-2> + 3<3,2,-3,-2> + 3<3,2,-2,-3>
    inst = relation1_instance(9, [2, 2, -2, -2], [7, 7, 6, 7])
    assert inst.b_coefficient == 15
    ctx = DR1Bracket(9, [(2, 7), (2, 7), (-2, 6), (-2, 7)])
    g2 = DR1Bracket(9, [(3, 7), (1, 7), (-2, 6), (-2, 7)])
    g3a = DR1Bracket(9, [(3, 7), (2, 7), (-3, 6), (-2, 7)])
    g3b = DR1Bracket(9, [(3, 7), (2, 7), (-2, 6), (-3, 7)])
    assert inst.terms == {
        ctx: Fraction(-7),
        g2: Fraction(-1),
        g3a: Fraction(3),
        g3b: Fraction(3),
    }
    assert inst.residual_closed() == 0


def test_relation1_term_order_follows_the_formula_on_unsorted_rows():
    # the row, then each lowered positive, then each deepened negative, even
    # when a negative entry comes before a positive one in the row given
    inst = relation1_instance(9, [1, -2, 2, -1], [6, 7, 7, 7])
    assert list(inst.terms.items()) == [
        (DR1Bracket(9, [(1, 6), (-2, 7), (2, 7), (-1, 7)]), Fraction(-6)),
        (DR1Bracket(9, [(2, 6), (-2, 7), (1, 7), (-1, 7)]), Fraction(-1)),
        (DR1Bracket(9, [(2, 6), (-3, 7), (2, 7), (-1, 7)]), Fraction(3)),
        (DR1Bracket(9, [(2, 6), (-2, 7), (2, 7), (-2, 7)]), Fraction(2)),
    ]
    assert inst.residual_closed() == 0


def test_relation1_merges_coinciding_keys():
    # equal twists make the two deepened children the same canonical key
    inst = relation1_instance(8, [1, 1, -1, -1], [6, 6, 6, 6])
    child = DR1Bracket(8, [(2, 6), (1, 6), (-2, 6), (-1, 6)])
    assert inst.terms[child] == 4
    # lowering the 2 next to the designated 1 on one twist gives the row
    # back: the anchor term grows by that coefficient, it never cancels
    inst = relation1_instance(6, [1, 2, -3], [4, 4, 4])
    row = DR1Bracket(6, [(1, 4), (2, 4), (-3, 4)])
    assert inst.terms[row] == -(1 + 3 + 1) - (2 - 1)
    assert inst.residual_closed() == 0


def test_relation1_requires_positive_designated():
    with pytest.raises(StructureError, match="designated"):
        relation1_instance(4, [-1, 1], [2, 2])
    with pytest.raises(StructureError, match="designated"):
        relation1_instance(4, [0, 1, -1], [1, 2, 1])


def test_relation1_rejects_unbalanced_rows():
    with pytest.raises(StructureError):
        relation1_instance(4, [2, -1], [2, 2])


def test_relation2_structure():
    # (k1+1) B = -<1,0,-1> + <2,-1,-1>
    inst = relation2_instance(6, [1, 0, -1], [4, 4, 4])
    assert inst.kind == "relation2"
    assert inst.b_coefficient == 2
    ctx = DR1Bracket(6, [(1, 4), (0, 4), (-1, 4)])
    new = DR1Bracket(6, [(2, 4), (-1, 4), (-1, 4)])
    assert inst.terms == {ctx: Fraction(-1), new: Fraction(1)}
    assert inst.residual_closed() == 0


def test_relation2_requires_zero_entry():
    with pytest.raises(StructureError, match="zero"):
        relation2_instance(4, [1, -1], [2, 2])


def test_relation_residuals_vanish_on_window():
    # every instance anchored anywhere in a small window
    for r in (4, 5):
        for br in enumerate_brackets(r, 4, 6):
            pairs = list(br.entries)
            k_row = [k for k, _ in pairs]
            a_row = [a for _, a in pairs]
            for i, k in enumerate(k_row):
                if k < 1:
                    continue
                order = [i] + [j for j in range(len(pairs)) if j != i]
                inst = relation1_instance(r, [k_row[j] for j in order], [a_row[j] for j in order])
                assert inst.residual_closed() == 0, (br.key, i)
                if 0 in k_row:
                    inst2 = relation2_instance(r, [k_row[j] for j in order], [a_row[j] for j in order])
                    assert inst2.residual_closed() == 0, (br.key, i)


def test_anchored_instances_match_the_public_builders():
    # the suite's unchecked route and the public, validating one build the
    # same instance from the same ordered row: equal, and with the same repr,
    # so the same term order. The suite shares one row memo per r.
    count = 0
    for r in range(2, 9):
        memo = {}
        for br in enumerate_brackets(r, 5, 10):
            flipped = tuple(sorted(((-k, a) for k, a in br.entries), key=lambda e: (-e[0], e[1])))
            for o_idx, slot, zero, inst in anchored_instances(br, memo):
                pairs = (br.entries, flipped)[o_idx]
                first = [slot] if zero is None else [slot, zero]
                row = [pairs[j] for j in first] + [p for j, p in enumerate(pairs) if j not in first]
                k_row, a_row = [k for k, _ in row], [a for _, a in row]
                if zero is None:
                    public = relation1_instance(r, k_row, a_row)
                else:
                    public = relation2_instance(r, k_row, a_row)
                assert inst == public and repr(inst) == repr(public), (br.key, o_idx, slot, zero)
                # the anchor term never cancels: the terms with the row's own
                # sum |k| (the row, its lowered positives) are all negative
                assert inst.terms[br] < 0
                count += 1
    assert count == 11661


SOLVE_GOLDENS = [
    # (r, pairs, value)
    (4, [(2, 2), (-2, 2)], Fraction(1, 32)),
    (6, [(2, 4), (1, 4), (-3, 4)], Fraction(1, 72)),
    (6, [(2, 4), (-1, 4), (-1, 4)], Fraction(1, 216)),   # 2B at B = 1/432
    (4, [(1, 2), (-1, 2)], Fraction(0)),
    (8, [(1, 6), (1, 6), (-1, 6), (-1, 6)], Fraction(1, 2048)),   # all-unit case
    (8, [(4, 2), (-4, 6)], Fraction(25, 64)),                     # deep magnitude descent
    (9, [(2, 7), (2, 7), (-2, 6), (-2, 7)], Fraction(7, 1458)),
]


@pytest.mark.parametrize("r,pairs,value", SOLVE_GOLDENS)
def test_solve_relational_goldens(r, pairs, value):
    res = solve_relational(DR1Bracket(r, pairs), CacheStore())
    assert res.value == value
    assert res.status == "ok"


def test_relational_engine_never_parses_keys(monkeypatch):
    # relation terms stay brackets end to end; a key string is parsed only
    # when one arrives from outside (a cache file, a rejected put)
    def refuse(key):
        raise AssertionError(f"parse_key({key!r}) called")

    monkeypatch.setattr(rspin.core, "parse_key", refuse)
    monkeypatch.setattr(rspin.store, "parse_key", refuse)
    relations = check_relations(4, 6, 4)
    assert relations.cases > 0 and relations.passed
    oracle = check_oracle_equivalence(4, 6, 4)
    assert oracle.cases > 0 and oracle.passed
    for r, pairs, value in SOLVE_GOLDENS:
        assert solve_relational(DR1Bracket(r, pairs), CacheStore()).value == value


def test_solve_relational_statuses_mirror_closed_form():
    bad = solve_relational(DR1Bracket(4, [(1, 2), (-1, 1)]), CacheStore())
    assert bad.status == "dimension-mismatch-zero"
    van = solve_relational(DR1Bracket(4, [(2, 3), (-2, 1)]), CacheStore())
    assert van.status == "vanishing-axiom-zero"


def test_solve_relational_memoizes():
    cache = CacheStore()
    br = DR1Bracket(8, [(4, 2), (-4, 6)])
    first = solve_relational(br, cache)
    assert br.key in cache
    second = solve_relational(br, cache)
    assert second.value == first.value
    assert second.trace == ("cache",)


def test_enumerate_brackets_window_properties():
    brs = enumerate_brackets(5, 4, 6)
    keys = [br.key for br in brs]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))
    for br in brs:
        assert br.status != STATUS_DIMENSION_ZERO
        assert sum(abs(k) for k in br.k_row) <= 6
        assert br.n <= 4
    # enumeration is deterministic
    assert keys == [br.key for br in enumerate_brackets(5, 4, 6)]


def _reference_brackets(r, n_max, k_sum_max):
    """Brute force: every twist permutation against every balanced order row.

    Each candidate goes through the validating ``DR1Bracket`` constructor,
    duplicates are dropped by key and the survivors sorted by key.
    """

    def partitions(total, max_part, max_len):
        if total == 0:
            yield ()
            return
        if max_len == 0:
            return
        for first in range(min(total, max_part), 0, -1):
            for rest in partitions(total - first, first, max_len - 1):
                yield (first,) + rest

    found = {}
    for n in range(2, n_max + 1):
        for a_ms in ascending_multisets(0, r - 1, n, (n - 1) * r):
            a_perms = set(permutations(a_ms))
            for s in range(1, k_sum_max // 2 + 1):
                for pos in partitions(s, s, n - 1):
                    for neg in partitions(s, s, n - len(pos)):
                        zeros = n - len(pos) - len(neg)
                        k_row = list(pos) + [0] * zeros + [-q for q in neg]
                        for a_row in a_perms:
                            br = DR1Bracket(r, zip(k_row, a_row))
                            found.setdefault(br.key, br)
    return [found[key] for key in sorted(found)]


ENUMERATION_WINDOWS = [
    (r, n_max, k_sum_max)
    for r in range(2, 13)
    for n_max, k_sum_max in ((5, 8), (5, 3), (3, 8))
] + [(8, 6, 12)]


@pytest.mark.parametrize("window", ENUMERATION_WINDOWS, ids=str)
def test_enumerate_brackets_matches_brute_force(window):
    got = enumerate_brackets(*window)
    assert got == _reference_brackets(*window)
    # the unchecked constructor only ever receives canonical rows
    for br in got:
        again = DR1Bracket(br.r, br.entries)
        assert again == br
        assert again.key == br.key


# Windows with two-digit orders and twists, where the numeric order of the
# (k row, a row) pairs differs from key order.
TWO_DIGIT_WINDOWS = [
    (r, n_max, k_sum_max) for r in (11, 12, 13) for n_max, k_sum_max in ((3, 22), (2, 30), (4, 20))
]


@pytest.mark.parametrize("window", TWO_DIGIT_WINDOWS, ids=str)
def test_enumerate_brackets_key_order_with_two_digit_entries(window):
    got = enumerate_brackets(*window)
    want = _reference_brackets(*window)
    assert sorted(want, key=lambda br: (br.k_row, br.a_row)) != want
    assert got == want
    assert [br.status for br in got] == [br.status for br in want]


def test_enumerate_brackets_builds_no_key(monkeypatch):
    def refuse(*args):
        raise AssertionError("key string built")

    monkeypatch.setattr(rspin.core, "_dr1_key", refuse)
    brackets = enumerate_brackets(12, 6, 12)
    assert len(brackets) == 25621
    # the guard is live: reading a key does reach the patched builder
    with pytest.raises(AssertionError, match="key string built"):
        brackets[0].key


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


# (r, n_max, k_sum_max) -> (brackets, non-vanishing, key digest, key=value digest),
# the genus-1 windows of the benchmark with its pins
PINNED_WINDOWS = {
    (8, 6, 12): (2944, 126, "a3d1900f083bd5d2", "a6628fd1660ba2f1"),
    (10, 6, 12): (9704, 494, "95a9f5913cc6d9e6", "c4b828c672bb730d"),
    (12, 6, 12): (25621, 1711, "90be3d12db422087", "a19622f55594a972"),
}


@pytest.mark.parametrize("window", PINNED_WINDOWS, ids=str)
def test_enumerate_brackets_pinned_window(window):
    brackets = enumerate_brackets(*window)
    keys = [br.key for br in brackets]
    cache = CacheStore()
    results = [solve_relational(br, cache) for br in brackets]
    seen = (
        len(keys),
        sum(res.status == "ok" for res in results),
        _digest(keys),
        _digest(f"{key}={format_rational(res.value)}" for key, res in zip(keys, results)),
    )
    assert seen == PINNED_WINDOWS[window]


def _reference_sorted(entries):
    """The entry sort as a key-function sort, as it was first written."""
    return tuple(sorted(entries, key=lambda e: (-e[0], e[1])))


def _reference_orient(pairs):
    cand = _reference_sorted(pairs)
    flip = _reference_sorted([(-k, a) for k, a in pairs])
    cand_profile = tuple(k for k, _ in cand if k > 0)
    flip_profile = tuple(k for k, _ in flip if k > 0)
    if flip_profile != cand_profile:
        return flip if flip_profile > cand_profile else cand
    return min(cand, flip)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.integers(-6, 6), st.integers(0, 19)), min_size=2, max_size=7))
def test_plain_tuple_sorts_match_the_key_function_sort(pairs):
    assert rspin.core._sorted_dr1_entries(pairs) == _reference_sorted(pairs)
    assert rspin.core._orient(pairs) == _reference_orient(pairs)
    # balance the row through its last order to make a bracket of it
    balanced = pairs[:-1] + [(-sum(k for k, _ in pairs[:-1]), pairs[-1][1])]
    if not any(k for k, _ in balanced):
        return
    br = DR1Bracket(20, balanced)
    assert br.entries == _reference_orient(balanced)
    flipped = _reference_sorted([(-k, a) for k, a in br.entries])
    assert rspin.core._flip(br.entries) == flipped
    k_row, a_row = tuple(k for k, _ in br.entries), tuple(a for _, a in br.entries)
    assert br.key == f"dr1:r=20:k={','.join(map(str, k_row))}:a={','.join(map(str, a_row))}"


def test_enumerate_brackets_checks_r():
    with pytest.raises(GradingError):
        enumerate_brackets(1, 4, 6)


def test_no_module_level_store():
    assert not [name for name, value in vars(rspin.dr1).items() if isinstance(value, CacheStore)]


def test_solve_relational_without_store_keeps_no_state():
    br = DR1Bracket(8, [(4, 2), (-4, 6)])
    first = solve_relational(br)
    second = solve_relational(br)
    assert first.value == second.value == Fraction(25, 64)
    assert second.trace != ("cache",)


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([4, 5, 6]), st.data())
def test_solve_relational_agrees_with_closed_form(r, data):
    brs = enumerate_brackets(r, 4, 6)
    br = data.draw(st.sampled_from(brs))
    assert solve_relational(br, CacheStore()).value == closed_form(br).value


# -- the grading status each bracket is born with ---------------------------

STATUSES = ("ok", "dimension-mismatch-zero", "vanishing-axiom-zero")
ZERO_TRACES = {"dimension-mismatch-zero": ("selection",), "vanishing-axiom-zero": ("vanishing-axiom",)}


def _reference_status(r, a_row):
    """The status the evaluators reported before brackets carried one."""
    if not dr1_selection(r, a_row):
        return "dimension-mismatch-zero"
    if r - 1 in a_row:
        return "vanishing-axiom-zero"
    return "ok"


@contextmanager
def _recording_canonical():
    """Collect every bracket ``DR1Bracket._canonical`` builds meanwhile.

    Relation terms and rewriting children are built there, from a parent's
    pairs and with the status they inherit.
    """
    original = DR1Bracket.__dict__["_canonical"]
    made = []

    def record(cls, r, pairs, status):
        bracket = original.__func__(cls, r, pairs, status)
        made.append(bracket)
        return bracket

    DR1Bracket._canonical = classmethod(record)
    try:
        yield made
    finally:
        DR1Bracket._canonical = original


def _check_born_status(br):
    """Status, identity and immutability of one bracket, however it was built."""
    assert br.status == _reference_status(br.r, br.a_row), br.key
    assert (br.status != STATUS_DIMENSION_ZERO) == dr1_selection(br.r, br.a_row)
    # equality, hash, order and repr see (r, entries) only
    for twin in (parse_key(br.key), DR1Bracket(br.r, br.entries)) + tuple(
        DR1Bracket._from_canonical(br.r, br.entries, status) for status in STATUSES
    ):
        assert twin == br and hash(twin) == hash(br) and repr(twin) == repr(br)
        assert not twin < br and not br < twin and twin <= br
    assert "status" not in repr(br)
    for name in ("r", "entries", "status", "extra"):
        with pytest.raises(AttributeError):
            setattr(br, name, None)
    assert not hasattr(br, "__dict__")
    for again in (copy.copy(br), copy.deepcopy(br), pickle.loads(pickle.dumps(br))):
        assert again == br and again.status == br.status


def _check_zero_answers(br):
    """A zero bracket answers as before: value 0, its status, one rule."""
    if br.status == "ok":
        return
    want = EvalResult(Fraction(0), br.status, ZERO_TRACES[br.status])
    assert closed_form(br) == want
    assert solve_relational(br, CacheStore()) == want
    assert solve_relational(br) == want


@st.composite
def status_rows(draw):
    """(r, pairs) with r in 2..12; half the twist rows pass the genus-1 grading."""
    r = draw(st.integers(min_value=2, max_value=12))
    n = draw(st.integers(min_value=2, max_value=6))
    graded = list(ascending_multisets(0, r - 1, n, (n - 1) * r))
    if graded and draw(st.booleans()):
        a = draw(st.permutations(draw(st.sampled_from(graded))))
    else:
        a = draw(st.lists(st.integers(min_value=0, max_value=r - 1), min_size=n, max_size=n))
    ks = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n - 1, max_size=n - 1))
    ks.append(-sum(ks))
    if not any(ks):
        ks[0], ks[1] = 1, -1
    return r, list(zip(ks, a))


@settings(deadline=None, max_examples=150)
@given(status_rows())
def test_status_of_public_constructor_and_of_inherited_rows(row):
    r, pairs = row
    br = DR1Bracket(r, pairs)
    _check_born_status(br)
    _check_zero_answers(br)
    # relation terms are rebuilt from the bracket's own pairs: same multiset;
    # the term of the unedited row is the bracket itself, not a rebuilt copy
    with _recording_canonical() as made:
        for _, _, _, inst in anchored_instances(br):
            assert all(term is br or term in made for term in inst.terms)
    assert made
    for term in made:
        assert term.status == br.status
        _check_born_status(term)
    # rewriting children of a reduction (zero brackets are never reduced)
    if br.status == "ok":
        with _recording_canonical() as made:
            result = solve_relational(br, CacheStore())
        assert (result.value, result.status) == (closed_form(br).value, "ok")
        for child in made:
            assert child.status == "ok"
            _check_born_status(child)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=6),
)
def test_status_of_enumerated_windows(r, n_max, k_sum_max):
    brs = enumerate_brackets(r, n_max, k_sum_max)
    assert all(br.status != "dimension-mismatch-zero" for br in brs)
    for br in brs:
        _check_born_status(br)
        _check_zero_answers(br)


def test_status_windows_reach_every_status():
    # windows hold both statuses a graded row can have; the third needs a
    # row that fails the grading, which only the public constructor takes
    seen = {br.status for br in enumerate_brackets(6, 4, 4)}
    assert seen == {"ok", "vanishing-axiom-zero"}
    assert DR1Bracket(6, [(1, 4), (-1, 3)]).status == "dimension-mismatch-zero"


def test_reduction_computes_its_product_b_once(monkeypatch):
    # the solver's B is the product formula, computed once per reduction
    calls = []
    reductions = []
    real_b, real_reduce = rspin.dr1._product, rspin.dr1._reduce_once

    def counted_b(r, a, num, den):
        calls.append((r, tuple(sorted(a)), num, den))
        return real_b(r, a, num, den)

    def counted_reduce(bracket, b, memo):
        reductions.append(bracket)
        return real_reduce(bracket, b, memo)

    monkeypatch.setattr(rspin.dr1, "_product", counted_b)
    monkeypatch.setattr(rspin.dr1, "_reduce_once", counted_reduce)
    cache = CacheStore()
    rules = {}
    deep = 0
    for br in enumerate_brackets(8, 4, 10):
        before_b, before_reduce = len(calls), len(reductions)
        res = solve_relational(br, cache)
        rules[res.trace[0]] = rules.get(res.trace[0], 0) + 1
        reduced = res.trace[0] in ("case-1", "case-2", "case-3")
        assert len(calls) - before_b == (1 if reduced else 0), (br.key, res.trace)
        if reduced:
            assert calls[-1] == (8, tuple(sorted(br.a_row)), 1, 24)
            deep += len(reductions) - before_reduce > 1
        # asking again is a cache hit, or a zero status: no B either way
        again = solve_relational(br, cache)
        assert again.value == res.value and len(calls) - before_b == (1 if reduced else 0)
    assert deep > 0  # some top-level reductions visit several brackets
    assert {"case-1", "case-3", "cache", "vanishing-axiom"} <= set(rules)


def _children(step):
    """The brackets a rewriting step asks for, each answered with 0."""
    children = []
    try:
        child = next(step)
        while True:
            children.append(child)
            child = step.send(Fraction(0))
    except StopIteration:
        return children


def test_every_reduction_move_applies():
    # The rspin.dr1 lemma, checked on the rows it names, rebuilt here: on
    # every ok bracket that is not relation-3 shaped, the case-1 move finds
    # an orientation leading with an order >= 2 and holding a -1, the case-3
    # anchor has a designated entry >= 1, and the bracket is a term of the
    # relation-1 row that cases 2 and 3 solve, with a nonzero coefficient.
    # Each move asks for exactly the other brackets of the rebuilt row.
    counts = {"case-1": 0, "case-2": 0, "case-3": 0}
    for r in range(2, 13):
        memo = {}
        for br in enumerate_brackets(r, 6, 16):
            if br.status != "ok" or relation3_check(br):
                continue
            pairs = br.entries
            mags = [abs(kk) for kk, _ in pairs if kk]
            rule, step = rspin.dr1._reduce_once(br, Fraction(0), memo)
            counts[rule] += 1
            if min(mags) == 1 < max(mags):
                assert rule == "case-1", br.key
                flipped = rspin.core._flip(pairs)
                stored_fits = pairs[0][0] >= 2 and any(kk == -1 for kk, _ in pairs)
                assert stored_fits or (flipped[0][0] >= 2 and any(kk == -1 for kk, _ in flipped)), br.key
                row = list(pairs if stored_fits else flipped)
                unit = [kk for kk, _ in row].index(-1)
                row[0], row[unit] = (row[0][0] - 1, row[0][1]), (0, row[unit][1])
                assert _children(step) == [DR1Bracket(r, row)], br.key
                continue
            if max(mags) == 1:
                assert rule == "case-2", br.key
                terms = rspin.dr1._relation_row("relation1", r, pairs, br.status, br, {})[1]
                assert terms[br] == -(len(mags) + 2), br.key
            else:
                assert rule == "case-3", br.key
                # orient the smallest magnitude to the negative side
                if -min(mags) not in [kk for kk, _ in pairs]:
                    pairs = rspin.core._flip(pairs)
                shallow = [kk for kk, _ in pairs].index(-min(mags))
                row = list(pairs)
                row[0], row[shallow] = (row[0][0] - 1, row[0][1]), (row[shallow][0] + 1, row[shallow][1])
                assert row[0][0] >= 1, br.key
                terms = rspin.dr1._relation_row("relation1", r, tuple(row), br.status, None, {})[1]
                assert terms[br] == min(mags) >= 2, br.key
            assert _children(step) == [term for term in terms if term != br], br.key
    assert counts == {"case-1": 3931, "case-2": 27, "case-3": 3305}


def test_deep_reduction_runs_without_python_recursion():
    # one rewriting step per unit of k: 247 nested steps, more than the
    # interpreter's recursion limit allows at several frames each
    br = DR1Bracket(4, [(248, 2), (-248, 2)])
    cache = CacheStore()
    res = solve_relational(br, cache)
    assert res == EvalResult(Fraction(20501, 32), "ok", ("case-3",))
    assert res.value == closed_form(br).value
    assert len(cache) == 248  # (j, -j) for j = 1..248
    assert solve_relational(br, cache).trace == ("cache",)
    # sum |k| = 4000: one stored bracket per step
    wide = DR1Bracket(4, [(2000, 2), (-2000, 2)])
    cache = CacheStore()
    assert solve_relational(wide, cache).value == closed_form(wide).value == Fraction(1333333, 32)
    assert len(cache) == 2000


def _stuck_case_3(monkeypatch):
    """Make every case-3 step ask for its own bracket, a reduction that cannot end."""
    real = rspin.dr1._reduce_once

    def own(bracket):
        return (yield bracket)

    def stuck(bracket, b, memo):
        rule, step = real(bracket, b, memo)
        return (rule, own(bracket)) if rule == "case-3" else (rule, step)

    monkeypatch.setattr(rspin.dr1, "_reduce_once", stuck)


def test_a_stalled_reduction_raises_naming_the_key(monkeypatch):
    _stuck_case_3(monkeypatch)
    br = DR1Bracket(8, [(4, 2), (-4, 6)])
    with pytest.raises(ReductionStalledError, match=f"^reduction-stalled: {br.key} revisited"):
        solve_relational(br, CacheStore())


def test_a_stalled_reduction_ends_the_cli_with_one_line(monkeypatch, capsys):
    _stuck_case_3(monkeypatch)
    code = run(["dr1", "--r", "8", "--k", "4,-4", "--a", "2,6", "--method", "relations"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "dr1:r=8:k=4,-4:a=2,6 revisited" in captured.err
    assert "Traceback" not in captured.err


def test_two_point_rows_past_the_reach_limit_are_refused():
    big = DR1Bracket(4, [(100000, 2), (-100000, 2)])
    with pytest.raises(ReductionStalledError, match=r"may reach 200000 brackets, above 100000"):
        solve_relational(big)
    # +-K reaches K brackets and is estimated at 2K: +-50,000 is the widest row that reduces
    assert rspin.dr1._reach_estimate(DR1Bracket(4, [(50000, 2), (-50000, 2)]).entries) == RELATIONAL_REACH_MAX
    over = DR1Bracket(4, [(50001, 2), (-50001, 2)])
    with pytest.raises(ReductionStalledError, match=r"may reach 100002 brackets, above 100000"):
        solve_relational(over)
    # the guard comes after the answers that need no reduction
    cache = CacheStore()
    cache.put(big.key, closed_form(big).value)
    assert solve_relational(big, cache).trace == ("cache",)
    zero = DR1Bracket(4, [(100000, 3), (-100000, 1)])
    assert zero.status == "vanishing-axiom-zero"
    assert solve_relational(zero).trace == ("vanishing-axiom",)


def test_multi_point_rows_past_the_reach_limit_are_refused():
    # four orders of 250, sum |k| = 1000, would reach millions of brackets:
    # refused before anything is stored
    big = DR1Bracket(8, [(250, 6), (250, 6), (-250, 6), (-250, 6)])
    cache = CacheStore()
    with pytest.raises(ReductionStalledError, match=r"may reach \d+ brackets, above 100000"):
        solve_relational(big, cache)
    assert len(cache) == 0
    cache.put(big.key, closed_form(big).value)
    assert solve_relational(big, cache).trace == ("cache",)
    # rows that reduce in about two seconds or less stay under the limit
    for r, k, a in [
        (8, (50, 50, -50, -50), (6, 6, 6, 6)),
        (8, (60, 60, -60, -60), (6, 6, 6, 6)),
        (8, (150, -50, -50, -50), (6, 6, 6, 6)),
        (10, (40, 30, -20, -25, -25), (8, 8, 8, 8, 8)),
        (20, (30, 30, -30, -30), (15, 16, 17, 12)),
        (6, (300, -150, -150), (4, 4, 4)),
        (4, (500, -500), (2, 2)),
    ]:
        assert rspin.dr1._reach_estimate(DR1Bracket(r, list(zip(k, a))).entries) <= RELATIONAL_REACH_MAX


def test_a_reduction_past_the_limit_is_stopped_as_it_runs(monkeypatch, capsys):
    # the estimate (11,586) passes a limit of 12,000, but the full reduction
    # stores 16,806 brackets: it stops at the limit, with the top key named
    monkeypatch.setattr(rspin.dr1, "RELATIONAL_REACH_MAX", 12_000)
    br = DR1Bracket(30, list(zip((10, 9, 8, -9, -9, -9), (27, 26, 26, 22, 23, 26))))
    assert rspin.dr1._reach_estimate(br.entries) == 11_586
    message = f"{br.key} reached more than 12000 brackets, the most the relational route reduces"
    cache = CacheStore()
    with pytest.raises(ReductionStalledError, match=f"^{message}$"):
        solve_relational(br, cache)
    assert len(cache) == 12_000
    code = run(["dr1", "--r", "30", "--k", "10,9,8,-9,-9,-9", "--a", "27,26,26,22,23,26",
                "--method", "relations"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("r, k, a", [
    (20, (20, 20, -20, -20), (15, 16, 17, 12)),  # both signs hold the smallest magnitude
    (20, (20, -20, 20, -20), (15, 16, 17, 12)),
    (8, (20, 20, -20, -20), (6, 6, 6, 6)),
    (10, (20, 20, -13, -13, -14), (8, 8, 8, 8, 8)),
    (12, (12, 12, -12, -12, 6, -6), (10, 10, 10, 10, 10, 10)),
    (12, (200, -100, -100), (7, 8, 9)),
])
def test_reach_estimate_holds(r, k, a):
    br = DR1Bracket(r, list(zip(k, a)))
    cache = CacheStore()
    solve_relational(br, cache)
    assert len(cache) <= rspin.dr1._reach_estimate(br.entries)
