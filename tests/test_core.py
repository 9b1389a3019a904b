"""Key canonicalization, selection rules and bookkeeping in rspin.core."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rspin.core import (
    CacheError,
    DR1Bracket,
    EvalResult,
    Genus0Bracket,
    GradingError,
    KeyCheck,
    STATUS_DIMENSION_ZERO,
    StructureError,
    ascending_multisets,
    dr1_selection,
    format_rational,
    genus0_selection,
    genus_of,
    parse_key,
    parse_rational,
)


def test_genus_of_examples():
    # one insertion of twist 0 with one psi power at r=2: genus 1
    assert genus_of(2, [(1, 0)]) == 1
    # three plain insertions summing per the genus-0 rule
    assert genus_of(5, [(0, 0), (0, 1), (0, 2)]) == 0
    assert genus_of(3, [(0, 1), (0, 1), (0, 2)]) is None
    # the total 3 is a multiple of r + 1 = 3, but 2g = 3/3 + 2 - n = 1 is odd
    assert genus_of(2, [(0, 0), (0, 1)]) is None


def test_genus_of_rejects_bad_twists():
    with pytest.raises(GradingError):
        genus_of(4, [(0, 4)])
    with pytest.raises(GradingError):
        genus_of(4, [(0, -1)])


def test_selection_rules():
    assert genus0_selection(5, (1, 1, 3, 3))
    assert not genus0_selection(5, (1, 3, 3))
    assert dr1_selection(4, (2, 2))
    assert not dr1_selection(4, (2, 1))


def test_genus0_bracket_sorts_and_keys():
    br = Genus0Bracket(5, (3, 1, 1, 3))
    assert br.a == (1, 1, 3, 3)
    assert br.key == "g0:r=5:a=1,1,3,3"
    assert parse_key(br.key) == br


@pytest.mark.parametrize(
    "a,status,selection",
    [
        ((3, 1, 1, 3), "ok", True),
        ((1, 3, 3), "dimension-mismatch-zero", False),
        ((4, 0, 4, 0), "vanishing-axiom-zero", True),
    ],
    ids=["ok", "dimension-zero", "vanishing"],
)
def test_genus0_bracket_is_born_with_its_status(a, status, selection):
    br = Genus0Bracket(5, a)
    assert br.status == status
    assert (status != STATUS_DIMENSION_ZERO) == selection == genus0_selection(5, a)
    for again in (copy.copy(br), copy.deepcopy(br), pickle.loads(pickle.dumps(br))):
        assert again == br
        assert again.status == status
    # status is not a field: repr and hash use (r, a) alone
    assert repr(br) == f"Genus0Bracket(r=5, a={tuple(sorted(a))!r})"
    assert hash(br) == hash((5, tuple(sorted(a))))


def test_genus0_bracket_needs_three():
    with pytest.raises(StructureError):
        Genus0Bracket(5, (1, 1))


def test_dr1_bracket_canonical_examples():
    br = DR1Bracket(4, [(-2, 2), (2, 2)])
    assert br.key == "dr1:r=4:k=2,-2:a=2,2"
    # orientation: the flipped profile (2) beats (1,1)
    br2 = DR1Bracket(6, [(1, 4), (1, 4), (-2, 4)])
    assert br2.k_row[0] == 2
    assert parse_key(br2.key) == br2


def test_dr1_bracket_rejects_bad_rows():
    with pytest.raises(StructureError):
        DR1Bracket(4, [(1, 2), (1, 2)])
    with pytest.raises(StructureError):
        DR1Bracket(4, [(0, 2), (0, 2)])
    with pytest.raises(GradingError):
        DR1Bracket(4, [(1, 4), (-1, 0)])


def test_eval_result_zero_statuses():
    ok = EvalResult(Fraction(1, 5))
    assert ok.status == "ok"
    zero = EvalResult(Fraction(0), "dimension-mismatch-zero")
    assert zero.value == 0
    with pytest.raises(ValueError):
        EvalResult(Fraction(1), "vanishing-axiom-zero")


def test_rational_round_trip():
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert parse_rational("0/1") == 0
    assert parse_rational(format_rational(Fraction(22, 8))) == Fraction(11, 4)
    with pytest.raises(CacheError):
        parse_rational("3/0")
    with pytest.raises(CacheError):
        parse_rational("1.5")


@pytest.mark.parametrize(
    "text",
    [
        "2/10\n", "1/5\n", "2/10", "0/5", "-0/1", "01/5", "1/05", "+1/5", "1/0", "1/-5",
        " 1/5", "1 /5", "\u0661/\u0665", "\uff11/\uff15", "1/5/1", "5", "",
    ],
)
def test_parse_rational_rejects_other_spellings(text):
    with pytest.raises(CacheError) as info:
        parse_rational(text)
    assert repr(text) in str(info.value)


@given(st.fractions())
def test_parse_rational_inverts_format_rational(value):
    assert parse_rational(format_rational(value)) == value


def test_parse_key_rejects_malformed():
    for bad in ("g0:r=5", "dr1:r=4:k=2,-2", "g0:r=x:a=1,1,3", "noise", "g0:r=5:a="):
        with pytest.raises(StructureError):
            parse_key(bad)


def test_ascending_multisets_enumeration():
    got = list(ascending_multisets(0, 3, 2, 3))
    assert got == [(0, 3), (1, 2)]
    assert list(ascending_multisets(0, 2, 0, 0)) == [()]
    assert list(ascending_multisets(0, 2, 2, 9)) == []


@st.composite
def dr1_rows(draw):
    r = draw(st.integers(min_value=2, max_value=9))
    n = draw(st.integers(min_value=2, max_value=5))
    ks = draw(st.lists(st.integers(min_value=-4, max_value=4), min_size=n - 1, max_size=n - 1))
    ks.append(-sum(ks))
    if all(k == 0 for k in ks) or not all(-9 <= k <= 9 for k in ks):
        ks[-1] += 1
        ks.append(-1)
    a = draw(st.lists(st.integers(min_value=0, max_value=r - 1), min_size=len(ks), max_size=len(ks)))
    return r, list(zip(ks, a))


@given(dr1_rows())
def test_dr1_canonicalization_idempotent(row):
    r, pairs = row
    br = DR1Bracket(r, pairs)
    again = DR1Bracket(r, br.entries)
    assert br == again
    assert br.key == again.key


@given(dr1_rows(), st.randoms())
def test_dr1_canonicalization_permutation_invariant(row, rng):
    r, pairs = row
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    assert DR1Bracket(r, pairs) == DR1Bracket(r, shuffled)


@given(dr1_rows())
def test_dr1_canonicalization_flip_invariant(row):
    r, pairs = row
    flipped = [(-k, a) for k, a in pairs]
    assert DR1Bracket(r, pairs) == DR1Bracket(r, flipped)


@given(st.integers(min_value=2, max_value=9), st.data())
def test_genus0_key_permutation_invariant(r, data):
    a = data.draw(st.lists(st.integers(min_value=0, max_value=r - 1), min_size=3, max_size=6))
    perm = data.draw(st.permutations(a))
    assert Genus0Bracket(r, a).key == Genus0Bracket(r, perm).key


# Spellings that int() accepts but a canonical key never uses; "-{}" also
# spells 0 as "-0" and turns twists negative.
_ODD_SPELLINGS = ("0{}", "+{}", " {}", "{}\n", "-{}", "{}_0")
_DR1_EDITS = ("none", "shuffle", "flip", "flip-sorted", "twist", "r", "unbalance", "zeros", "empty")


@st.composite
def key_strings(draw):
    """Keys near the canonical ones: valid, reordered, mis-oriented, out of range, misspelled."""

    def spell(v):
        odd = draw(st.integers(min_value=0, max_value=20 * len(_ODD_SPELLINGS)))
        return _ODD_SPELLINGS[odd].format(v) if odd < len(_ODD_SPELLINGS) else str(v)

    def join(values):
        return ",".join(spell(v) for v in values)

    if draw(st.booleans()):
        r = draw(st.integers(min_value=0, max_value=9))
        a = draw(st.lists(st.integers(min_value=0, max_value=max(r, 1)), max_size=5))
        if draw(st.integers(min_value=0, max_value=3)):
            a.sort()
        key = f"g0:r={spell(r)}:a={join(a)}"
    else:
        r, pairs = draw(dr1_rows())
        pairs = list(DR1Bracket(r, pairs).entries)
        edit = draw(st.sampled_from(("none",) * 4 + _DR1_EDITS))
        if edit == "shuffle":
            pairs = draw(st.permutations(pairs))
        elif edit in ("flip", "flip-sorted"):
            pairs = [(-k, a) for k, a in pairs]
            if edit == "flip-sorted":
                pairs.sort(key=lambda e: (-e[0], e[1]))
        elif edit == "twist":
            i = draw(st.integers(min_value=0, max_value=len(pairs) - 1))
            pairs[i] = (pairs[i][0], draw(st.sampled_from([-1, r, r + 3])))
        elif edit == "r":
            r = draw(st.sampled_from([-2, 0, 1, max(a for _, a in pairs)]))
        elif edit == "unbalance":
            pairs[0] = (pairs[0][0] + 1, pairs[0][1])
        elif edit == "zeros":
            pairs = [(0, a) for _, a in pairs]
        elif edit == "empty":
            pairs = []
        k_row = [k for k, _ in pairs]
        a_row = [a for _, a in pairs]
        key = f"dr1:r={spell(r)}:k={join(k_row)}:a={join(a_row)}"
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        key += draw(st.sampled_from(["\n", ":", " "]))
    return key


def _round_trips(key):
    try:
        return parse_key(key).key == key
    except ValueError:
        return False


@settings(max_examples=600)
@given(key_strings())
def test_fresh_key_check_matches_parse_round_trip(key):
    assert KeyCheck()(key) == _round_trips(key)


@given(st.lists(key_strings(), max_size=10))
def test_key_check_memo_matches_parse_round_trip(keys):
    """One checker answers every key as a fresh one would, whatever it saw before.

    Besides the drawn keys, in order and then again reversed, it sees keys
    that mix their fields: the second and third fields of one key with the
    last field of another, or with that field reversed (what a sign flip
    does to the twists of a two-order row), under both kinds. So a field
    first met in a rejected key comes back in a canonical one, and the
    reverse.
    """
    parts = [key.split(":") for key in keys if key.count(":") >= 2]
    lasts = [p[-1] for p in parts]
    lasts += [last[:2] + ",".join(reversed(last[2:].split(","))) for last in lasts]
    mixed = [
        ":".join(mix)
        for p in parts
        for last in lasts
        for mix in (["dr1", p[1], p[2], last], ["g0", p[1], last])
    ]
    check = KeyCheck()
    for key in keys + mixed + keys[::-1]:
        assert check(key) == _round_trips(key), key


def test_key_check_examples():
    for r in (4, 6):
        assert KeyCheck()(DR1Bracket(r, [(-2, r - 2), (2, 2)]).key)
        assert KeyCheck()(Genus0Bracket(r, [r - 2, 1, r - 2, 1]).key)
    for bad in (
        "dr1:r=4:k=-2,2:a=2,2",  # wrong orientation
        "dr1:r=4:k=2,-2:a=2,2\n",
        "dr1:r=4:k=2,-0,-2:a=2,0,2",
        "dr1:r=4:k=+2,-2:a=2,2",
        "dr1:r=4:k=2,-2:a=2,4",  # twist out of range
        "g0:r=5:a=01,1,3,3",
        "g0:r=5:a= 1,1,3,3",
        "g0:r=5:a=",
        "g0:r=5:a=1,1,3,3:",
    ):
        assert not KeyCheck()(bad), bad
        assert not _round_trips(bad), bad
