"""Genus-1 double-ramification brackets: closed form and relation solving.

A bracket pairs an integer row ``k`` summing to zero with a twist row ``a``.
The one-point quantity

    B(r, a) = (1/24) * ((n-1)! / r^(n-1)) * prod(r - 1 - a_i)

shows up as the inhomogeneous term of every relation, and the full bracket
has the closed form ``(sum(k_i^2)/2 - 1) * B``. Both are
:func:`rspin.core._product`, the product ``loop_sum`` shares.

Why B is a genus-0 window sum: on Mbar_{1,n}, genus-1 topological
recursion gives ``psi_i = delta_irr/12 + sum_{S containing i} delta_0^S``.
Each ``delta_0^S`` stratum carries a genus-1 component with only primary
insertions, whose selection rule ``sum(b) = m * r`` fails for twists up to
``r - 2`` (and a twist ``r - 1`` kills the class), so Witten's class meets
only the ``delta_irr`` part of ``DR_1(k)``. Its coefficient is
``(sum(k_i^2)/2 - 1)/12`` (Pixton's formula at g = 1,
Janda-Pandharipande-Pixton-Zvonkine arXiv:1602.04705; Hain
arXiv:1102.4031), and Witten's class on ``delta_irr`` gives
``(1/2) sum_{a+b=r-2} <a, b, x>_0``; hence ``24 * B`` is that genus-0
window sum. :func:`b_value_trr` computes B that way, from genus 0 alone.

:func:`solve_relational` recomputes bracket values without the closed
form. Its base cases are the pattern ``(+1, -1, 0, ..)`` (value zero) and
B from the product formula, so it checks what the relations prove: the
factor ``sum(k_i^2)/2 - 1``. Other rows reduce by three rewriting moves
taken from the linear relations below. Measure a row by N, its number of
nonzero ``k`` entries, and m, its smallest nonzero magnitude. A case-1
step (a unit beside a larger entry) trades a ``-1`` for a zero: N drops.
A case-3 step (every magnitude at least 2) reads rows with the same N and
a smaller m. A case-2 step (every nonzero entry ``+-1``) keeps N and m,
but its children are case-1 rows, whose children have N - 1. So every
reduction ends at the ``(+1, -1)`` base case, as every move applies.
**Lemma.** Take an ``ok`` bracket that is not relation-3 shaped. *Case 1:*
if the row leads with 1, a magnitude at least 2 is negative; if it holds no
``-1``, its unit is a ``+1`` and its negatives are at least 2 deep; so the
row or its flip leads with an order at least 2 and holds a ``-1``. *Case
3:* the anchor's designated entry, the lead order less one, is at least 1.
*Cases 2 and 3:* the bracket is a term of its own relation row, the
unedited one with coefficient ``-(N + 2)`` in case 2, the shallowest
negative deepened back with coefficient ``m >= 2`` in case 3, and terms
never cancel (:func:`_relation_row`). A key revisited during its own
reduction would break this argument and raises
:class:`rspin.core.ReductionStalledError` naming the key. Each move is a
generator, and one loop drives them from an explicit stack, so a deep
reduction (one step per unit of ``k`` on a two-point row) costs no Python
recursion. Rows that may reach more brackets than
:data:`RELATIONAL_REACH_MAX` are refused before reducing, and a reduction
that would store more is stopped as it runs. Relation rows stay in
integers from builder to solver: ``_relation_row`` gives
``(b_coefficient, {bracket: coefficient})`` in ints, which the case-2 and
case-3 moves solve for the bracket and the verification suite reads
directly; only the public builders box them into ``Fraction`` values
inside a :class:`RelationInstance`. A public builder checks its row by
building the row's :class:`rspin.core.DR1Bracket` and adds only what a
relation needs: rows of equal length, a designated entry ``k[0] >= 1``
and, for relation 2, a zero slot. The case-1 move is relation 2 solved
by hand.

Whether a bracket can be nonzero depends on its twist multiset only, which
every move keeps, so each :class:`rspin.core.DR1Bracket` is born with its
grading status: :func:`enumerate_brackets` derives it once per twist
multiset, relation terms and rewriting children take their parent's, and
both evaluators answer a zero bracket with one attribute read and a shared
result. For the same reason B is computed once per top-level reduction.

Windows come out in key order with no key string built and no bracket
sorted. With ``r`` fixed, ``dr1:r=R:k=K:a=A`` orders as ``(K + ":", A)``.
``":"`` sorts after ``","``, ``"-"`` and the digits, so it keeps key order
even were one ``K`` a prefix of another (balanced rows never are: each
ends in its deepest negative order). ``","`` sorts before the digits, so
``A`` strings order as twist rows compared entry by entry under the rank
of ``str(a)`` among ``str(0..r-1)`` (the identity for r <= 10). Order rows
are sorted by ``K + ":"``, the twist rows of each run size pattern by
rank, and the rows walked in that order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import comb
from typing import Dict, List, Optional, Sequence, Tuple

from .core import (
    STATUS_OK,
    DR1Bracket,
    EvalResult,
    GradingError,
    ReductionStalledError,
    StructureError,
    _ZERO_RESULTS,
    _Frozen,
    _check_r,
    _check_twists,
    _dr1_status,
    _flip,
    _product,
    ascending_multisets,
)
from .store import CacheStore

__all__ = [
    "b_value",
    "b_value_trr",
    "closed_form",
    "RelationInstance",
    "relation1_instance",
    "relation2_instance",
    "relation3_check",
    "anchored_instances",
    "solve_relational",
    "RELATIONAL_REACH_MAX",
    "enumerate_brackets",
]


def b_value(r: int, a: Sequence[int]) -> Fraction:
    """The genus-1 one-point coefficient B(r, a): :func:`rspin.core._product` over 24.

    Rows violating the genus-1 selection rule ``sum(a) = (n-1)*r`` carry no
    bracket and the coefficient is taken to be 0. A twist equal to ``r - 1``
    kills the product through its ``r - 1 - a_i`` factor.
    """
    a = _b_row(r, a, "b_value")
    return _product(r, a, 1, 24) if a else Fraction(0)


def _b_row(r: int, a: Sequence[int], name: str) -> Tuple[int, ...]:
    """``a`` checked as a B row of ``name``: the twists, or ``()`` off the selection rule."""
    _check_r(r)
    a = _check_twists(r, a)
    if not a:
        raise GradingError(f"{name} needs at least one twist")
    return a if sum(a) == (len(a) - 1) * r else ()


def b_value_trr(r: int, a: Sequence[int], cache: Optional[CacheStore] = None) -> Fraction:
    """B(r, a) as the genus-0 window sum ``sum_{b+c=r-2} <b, c, a>_0`` over 24.

    Each bracket comes from the lemma's rows of :mod:`rspin.genus0`, one memo
    per window (:func:`rspin.genus0.bracket_window_sum`), so this route never
    reads the product formula of :func:`b_value` (the module docstring says
    why the two agree). Rows violating the selection rule give 0. Calls at
    one ``r`` may share ``cache``, the genus-0 store, which each window fills
    and checks once and never reads for an answer.
    """
    from . import genus0  # imported here, so that genus-1 requests never run genus0

    a = _b_row(r, a, "b_value_trr")
    return genus0.bracket_window_sum(r, r - 2, a, cache) / 24 if a else Fraction(0)


def closed_form(bracket: DR1Bracket) -> EvalResult:
    """Evaluate a bracket as ``(sum(k_i^2)/2 - 1) * B(r, a)``: :func:`rspin.core._product` over 48."""
    if bracket.status != STATUS_OK:
        return _ZERO_RESULTS[bracket.status]
    entries = bracket.entries
    value = _product(bracket.r, [aa for _, aa in entries], sum([kk * kk for kk, _ in entries]) - 2, 48)
    return EvalResult(value, STATUS_OK, ("closed-form",))


class RelationInstance(_Frozen):
    """One linear relation ``b_coefficient * B(context) = sum(terms)``.

    ``terms`` maps canonical brackets to rational coefficients; repeated
    brackets produced while assembling an instance accumulate. ``context``
    is the ``(r, sorted-a-row)`` pair fixing which B appears on the left.
    Equality and ``repr`` use all four fields; ``terms`` is a dict, so an
    instance cannot be hashed.
    """

    __slots__ = _fields = ("kind", "b_coefficient", "terms", "context")

    def __init__(
        self,
        kind: str,
        b_coefficient: Fraction,
        terms: Dict[DR1Bracket, Fraction],
        context: Tuple[int, Tuple[int, ...]],
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "b_coefficient", b_coefficient)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "context", context)

    def residual_closed(self) -> Fraction:
        """Left side minus right side with every bracket evaluated closed-form.

        Zero for every valid instance; B comes from the product formula.
        """
        return _residual_closed(self.b_coefficient, self.terms, b_value(*self.context))


def _residual_closed(b_coefficient, terms, b: Fraction) -> Fraction:
    """``b_coefficient * b - sum(coeff * closed_form(bracket))`` over ``terms``, zero products skipped."""
    total = b * b_coefficient if b else Fraction(0)
    for bracket, coeff in terms.items():
        value = closed_form(bracket).value
        if value:
            total -= value * coeff
    return total


def _public_instance(kind: str, r: int, k: Sequence[int], a: Sequence[int]) -> RelationInstance:
    """The relation ``kind`` on a public row: a :class:`DR1Bracket` with a positive designated entry."""
    k, a = tuple(k), tuple(a)
    if len(k) != len(a):
        raise StructureError("k and a rows differ in length")
    pairs = tuple(zip(k, a))
    bracket = DR1Bracket(r, pairs)
    if k[0] < 1:
        raise StructureError("designated entry not positive")
    if kind == "relation2" and all(k):
        raise StructureError("relation needs a zero entry (n_0 = 0)")
    row = _relation_row(kind, r, pairs, bracket.status, bracket, {})
    return _boxed(kind, (r, tuple(sorted(a))), row)


def relation1_instance(r: int, k: Sequence[int], a: Sequence[int]) -> RelationInstance:
    """String-equation relation anchored at the designated entry ``k[0]``.

    With ``k[0] >= 1`` designated, ``n_+`` / ``n_-`` counting the positive
    and negative entries, and tilde values the magnitudes of the negative
    ones, the relation reads::

        (k[0]+1)(n_+ + n_- + 1) B
            = -(k[0] + n_+ + n_- + 1) <k | a>
              - sum over other positives i of (k_i - 1) <.. k[0]+1 .. k_i-1 ..>
              + sum over negatives j of (|k_j| + 1) <.. k[0]+1 .. k_j-1 ..>

    The twist row never moves; only the integer row is edited.
    """
    return _public_instance("relation1", r, k, a)


def relation2_instance(r: int, k: Sequence[int], a: Sequence[int]) -> RelationInstance:
    """Zero-slot relation: trade one ``k = 0`` entry for a ``-1`` entry.

    Requires ``k[0] >= 1`` designated and at least one zero entry. The first
    zero slot (in the order given) becomes ``-1`` while the designated entry
    is bumped to ``k[0] + 1``::

        (k[0] + 1) B = -<k | a> + <.. k[0]+1 .. -1 ..| a>
    """
    return _public_instance("relation2", r, k, a)


def _boxed(kind: str, context: Tuple[int, Tuple[int, ...]], row) -> RelationInstance:
    """The public :class:`RelationInstance` of an integer row of :func:`_relation_row`."""
    return RelationInstance(kind, Fraction(row[0]), {br: Fraction(c) for br, c in row[1].items()}, context)


def _relation_row(kind: str, r: int, pairs: Tuple[Tuple[int, int], ...], status: str,
                  anchor: Optional[DR1Bracket], memo: dict) -> Tuple[int, Dict[DR1Bracket, int]]:
    """The relation ``kind`` on a checked row of ``(k, a)`` pairs, designated entry first.

    Returns ``(b_coefficient, {bracket: coefficient})`` in ints, terms in
    formula order, each with ``status``; it checks nothing. ``anchor`` is the
    row's own canonical bracket when the caller holds it, else None.
    ``memo``, owned by the caller and shareable by rows with one ``r``, maps
    each other row, sorted, to its canonical bracket. Coefficients never
    cancel: terms with the row's own ``sum(|k|)`` take negative ones, terms
    two higher positive ones.
    """
    k0, a0 = pairs[0]
    ks = [kk for kk, _ in pairs]
    if kind == "relation1":
        nonzero = len(ks) - ks.count(0)
        b_coeff, coeff = (k0 + 1) * (nonzero + 1), -(k0 + nonzero + 1)
        edits = [i for i in range(1, len(ks)) if ks[i] > 1] + [i for i in range(1, len(ks)) if ks[i] < 0]
    else:
        b_coeff, coeff = k0 + 1, -1
        edits = [ks.index(0)]
    rows = [(pairs, coeff)]
    for i in edits:
        # <.. k[0]+1 .. k_i-1 ..> with coefficient 1 - k_i; a zero slot becomes -1
        kk, aa = pairs[i]
        row = list(pairs)
        row[0] = (k0 + 1, a0)
        row[i] = (kk - 1, aa)
        rows.append((row, 1 - kk))
    terms: Dict[DR1Bracket, int] = {}
    for row, coeff in rows:
        bracket = anchor if row is pairs else None
        if bracket is None:
            key = tuple(sorted(row))
            bracket = memo.get(key)
            if bracket is None:
                bracket = memo[key] = DR1Bracket._canonical(r, row, status)
        terms[bracket] = terms.get(bracket, 0) + coeff
    return b_coeff, terms


def relation3_check(bracket: DR1Bracket) -> bool:
    """True when the integer row is one ``+1``, one ``-1`` and zeros.

    Such brackets vanish outright; this is the terminal base case of the
    relational solver. Canonical entries run from the largest order down.
    """
    entries = bracket.entries
    return (entries[0][0] == 1 and entries[-1][0] == -1
            and entries[1][0] < 1 and entries[-2][0] > -1)


def anchored_instances(bracket: DR1Bracket, memo: Optional[dict] = None):
    """Yield ``(orientation, slot, zero_slot, instance)`` for each relation anchored in a bracket.

    Values are flip-invariant but relation instances are not, so both
    orientations of the row (0: as stored, 1: sign-flipped, when different)
    anchor instances. Each distinct positive ``(k, a)`` slot anchors one
    relation-1 instance (``zero_slot`` None) and one relation-2 instance per
    distinct zero-order twist. Every instance takes ``bracket`` itself as the
    term of its unedited row; ``memo`` (one per ``r``, shared across a
    window) canonicalises the edited rows.
    """
    context = (bracket.r, tuple(sorted(bracket.a_row)))
    for o_idx, slot, zero_slot, kind, row in _anchored_rows(bracket, {} if memo is None else memo):
        yield o_idx, slot, zero_slot, _boxed(kind, context, row)


def _anchored_rows(bracket: DR1Bracket, memo: dict):
    """:func:`anchored_instances` as ``(orientation, slot, zero_slot, kind, row)``, rows in ints."""
    r, status = bracket.r, bracket.status
    orientations = [bracket.entries]
    flipped = _flip(bracket.entries)
    if flipped != bracket.entries:
        orientations.append(flipped)
    for o_idx, pairs in enumerate(orientations):
        zero_slots: Dict[int, int] = {}
        for i, (kk, aa) in enumerate(pairs):
            if kk == 0:
                zero_slots.setdefault(aa, i)
        seen = set()
        for i, pair in enumerate(pairs):
            if pair[0] < 1 or pair in seen:
                continue
            seen.add(pair)
            rest = pairs[:i] + pairs[i + 1:]
            yield o_idx, i, None, "relation1", _relation_row(
                "relation1", r, (pair,) + rest, status, bracket, memo
            )
            for z in zero_slots.values():
                row = (pair, pairs[z]) + tuple(p for j, p in enumerate(pairs) if j != i and j != z)
                yield o_idx, i, z, "relation2", _relation_row(
                    "relation2", r, row, status, bracket, memo
                )


# The largest _reach_estimate solve_relational reduces, and the most
# brackets one reduction stores: on random rows of three to six nonzero
# orders, near-ties included, no reduction reached 1.5 times its estimate,
# so at 60-100 us a bracket a row at the limit takes seconds; rows measured
# under two pass. A two-point row +-K stores K brackets; its estimate, 2K
# above K = 25,000, admits K <= 50,000.
RELATIONAL_REACH_MAX = 100_000


def _reach_estimate(entries: Sequence[Tuple[int, int]]) -> int:
    """An estimate of the brackets a reduction of ``entries`` reaches.

    Moves never make a zero order nonzero or flip a sign, so rows with j
    nonzero orders hold one of ``F_j`` signed twist sub-multisets. Case-3
    steps lower the smallest magnitude m_j while moving one other order, so
    each gives about ``C(m_j + j - 2, j - 1)`` rows (twice at the top if both
    signs hold its smallest magnitude); below the top, m_j sums the
    ``N - j + 1`` smallest magnitudes, at most ``sum|k| / j``. As
    ``F_j <= C(N, j)``, ``2^N C(sum|k|/2 + N - 2, N - 1)`` is returned
    instead when within the limit.
    """
    mags = sorted(abs(kk) for kk, _ in entries if kk)
    n, half = len(mags), sum(mags) // 2
    coarse = 2 ** n * comb(half + n - 2, n - 1)
    if coarse <= RELATIONAL_REACH_MAX:
        return coarse
    pos, neg = (tuple((a, len(list(g))) for a, g in groupby(sorted(a for kk, a in entries if kk * sign > 0)))
                for sign in (1, -1))
    tied = min(kk for kk, _ in entries if kk > 0) == min(-kk for kk, _ in entries if kk < 0)
    total = comb(mags[0] + n - 2, n - 1) if tied else 0
    for j in range(2, n + 1):
        choices = sum(len(list(_sub_multisets(pos, u))) * len(list(_sub_multisets(neg, j - u))) for u in range(1, j))
        total += choices * comb(min(2 * half // j, sum(mags[:n - j + 1])) + j - 2, j - 1)
    return total


def _solve_from_row(row, target: DR1Bracket, b: Fraction):
    """Solve one integer relation row of :func:`_relation_row` for the coefficient of ``target``.

    A rewriting step: it yields each other term's bracket and is sent back
    its value (see :func:`_relational_value`). The row is the caller's own
    and holds ``target`` with a nonzero coefficient (the module's lemma).
    """
    b_coeff, terms = row
    target_coeff = terms.pop(target)
    rhs = b * b_coeff
    for bracket, coeff in terms.items():
        rhs -= (yield bracket) * coeff
    return rhs / target_coeff


def _relational_value(top: DR1Bracket, key: str, cache: CacheStore) -> Tuple[Fraction, str]:
    """Value and first rule of a bracket that is neither stored nor relation-3.

    The reduction's state is local: one B for every bracket reached (all
    keep the top's twist multiset), the row memo, the keys under reduction
    and the count of brackets stored. Each rewriting step is a generator
    that yields the children it needs and is sent their values; the steps
    sit on an explicit stack, so any depth runs in constant Python stack.
    Children are looked up, reduced and stored in the order a recursive
    walk would take, so the store ends up the same.
    """
    b, memo, visiting, stored = _product(top.r, top.a_row, 1, 24), {}, {key}, 0
    rule, step = _reduce_once(top, b, memo)
    stack = [(key, step)]
    value = None
    while True:
        key, step = stack[-1]
        try:
            child = step.send(value)
        except StopIteration as done:
            value = done.value
            stack.pop()
            visiting.discard(key)
        else:
            key = child.key
            value = cache.get(key)
            if value is not None:
                continue
            if not relation3_check(child):
                if key in visiting:
                    raise ReductionStalledError(f"reduction-stalled: {key} revisited during its own reduction")
                visiting.add(key)
                stack.append((key, _reduce_once(child, b, memo)[1]))
                continue
            value = Fraction(0)
        # a finished step, or a relation-3 child: store it
        stored += 1
        if stored > RELATIONAL_REACH_MAX:
            raise ReductionStalledError(f"{top.key} reached more than {RELATIONAL_REACH_MAX} brackets, "
                                        "the most the relational route reduces")
        cache.put(key, value)
        if not stack:
            return value, rule


def _reduce_once(bracket: DR1Bracket, b: Fraction, memo: dict):
    """The rule that reduces ``bracket`` and its rewriting step, not yet started.

    Case 1 (a unit beside a larger magnitude) is :func:`_case_unit_present`.
    Cases 2 and 3 solve a relation-1 row for the bracket. Case 2 (all
    nonzero entries ``+-1``, two or more of each sign, as relation 3 took
    ``(+1, -1)``) anchors it at the bracket's leading ``+1``; its children
    are case-1 rows. Case 3 (all magnitudes at least 2) orients the smallest
    magnitude to the negative side and anchors it at the row with the
    leading entry one lower and the shallowest negative one shallower; the
    other terms have a smaller smallest magnitude, which drives termination.
    Each move applies, by the module's lemma.
    """
    pairs = bracket.entries
    mags = [abs(kk) for kk, _ in pairs if kk != 0]
    if min(mags) == 1 < max(mags):
        return "case-1", _case_unit_present(bracket, b)
    if max(mags) == 1:
        # sorted entries lead with their largest order, here a +1
        rule, row, own = "case-2", pairs, bracket
    else:
        if min(kk for kk, _ in pairs if kk > 0) < min(-kk for kk, _ in pairs if kk < 0):
            pairs = _flip(bracket.entries)
        # sorted pairs lead with the anchor and hold the shallowest negative
        # first among the negatives
        shallow = next(i for i, (kk, _) in enumerate(pairs) if kk < 0)
        row = list(pairs)
        row[0] = (row[0][0] - 1, row[0][1])
        row[shallow] = (row[shallow][0] + 1, row[shallow][1])
        rule, row, own = "case-3", tuple(row), None
    return rule, _solve_from_row(_relation_row("relation1", bracket.r, row, bracket.status, own, memo), bracket, b)


def _case_unit_present(bracket: DR1Bracket, b: Fraction):
    """Some entry has magnitude 1 and some other entry magnitude >= 2.

    The row, else its flip (the module's lemma), leads with ``p >= 2`` and
    holds a ``-1``; trade the ``-1`` for a zero while lowering ``p``:

        <.., p, .., -1, ..> = p * B + <.., p-1, .., 0, ..>

    This is relation 2 anchored at the child, designated entry ``p - 1``
    and its zero slot, solved for the bracket. It is written out because
    its one child and fixed coefficient need no relation row: built
    through :func:`_relation_row`, case-1 steps made relational solving of
    the ``dr1-window`` benchmark windows about a quarter slower.
    """
    pairs = list(bracket.entries)  # sorted: the largest order leads
    if pairs[0][0] < 2 or all(kk != -1 for kk, _ in pairs):
        pairs = list(_flip(pairs))
    neg_idx = next(i for i, (kk, _) in enumerate(pairs) if kk == -1)
    p = pairs[0][0]
    pairs[0] = (p - 1, pairs[0][1])
    pairs[neg_idx] = (0, pairs[neg_idx][1])
    child = DR1Bracket._canonical(bracket.r, pairs, bracket.status)
    return p * b + (yield child)


def _sub_multisets(counts: Tuple[Tuple[int, int], ...], size: int):
    """Yield ``(ascending sub-multiset, remaining counts)`` for each distinct choice.

    ``counts`` holds ``(value, multiplicity)`` pairs, ascending in value, with
    every multiplicity positive; the remaining counts keep that form.
    """
    if size == 0:
        yield (), counts
        return
    if not counts:
        return
    (value, mult), later = counts[0], counts[1:]
    for take in range(min(mult, size), -1, -1):
        left = ((value, mult - take),) if take < mult else ()
        for sub, rest in _sub_multisets(later, size - take):
            yield (value,) * take + sub, left + rest


def _handouts(counts: Tuple[Tuple[int, int], ...], sizes: Tuple[int, ...], tails: dict, splits: dict):
    """Yield each way to hand the twist ``counts`` out to runs of ``sizes``.

    A hand-out holds one ascending sub-multiset per run, so distinct
    hand-outs give distinct twist rows. ``tails`` keeps the hand-outs to the
    later runs, which many size patterns share, and ``splits`` the
    :func:`_sub_multisets` of each ``(counts, size)``, which many first runs
    share.
    """
    if not sizes:
        yield ()
        return
    subs = splits.get((counts, sizes[0]))
    if subs is None:
        subs = splits[counts, sizes[0]] = list(_sub_multisets(counts, sizes[0]))
    for sub, rest in subs:
        later = tails.get((rest, sizes[1:]))
        if later is None:
            later = tails[rest, sizes[1:]] = list(_handouts(rest, sizes[1:], tails, splits))
        for tail in later:
            yield (sub,) + tail


def _canonical_brackets(r: int, n_max: int, s_max: int):
    """Yield each canonical bracket with at most ``n_max`` insertions once, in key order.

    Rows have balanced orders, not all zero, with ``sum(|k|) <= s_max``, and
    are canonical as in :class:`rspin.core.DR1Bracket`: positive orders by
    descending magnitude, zeros, negative orders by ascending magnitude,
    twists ascending inside each run of equal orders; the positive profile
    ``P`` at least the negative one ``Q``; when ``P == Q``, the row at most
    its re-sorted sign flip. Each ``(P, Q)`` pair fixes an order row, and
    handing the twists out to its runs as ascending sub-multisets yields
    sorted rows directly. The hand-out depends only on the run sizes, so it
    is made, and sorted by twist rank, once per size pattern.
    """
    by_n: Dict[int, list] = {}
    for n in range(2, n_max + 1):
        for a_ms in ascending_multisets(0, r - 1, n, (n - 1) * r):
            counts = tuple((a, len(list(group))) for a, group in groupby(a_ms))
            by_n.setdefault(n, []).append((counts, _dr1_status(r, a_ms)))

    def partitions(total, top, most):
        """The partitions of ``total`` into at most ``most`` parts of at most ``top``, descending."""
        return [p[::-1] for size in range(1, most + 1) for p in ascending_multisets(1, top, size, total)]

    k_rows = []
    for n in by_n:
        for s in range(1, s_max // 2 + 1):
            for pos in partitions(s, s, n - 1):
                for neg in partitions(s, pos[0], n - len(pos)):
                    if neg <= pos:
                        k_row = pos + (0,) * (n - len(pos) - len(neg)) + tuple(-q for q in reversed(neg))
                        k_rows.append((",".join(map(str, k_row)) + ":", k_row, neg == pos))
    k_rows.sort()
    by_rank = sorted(range(r), key=str)
    rank = {a: i for i, a in enumerate(by_rank)}
    slots = {k: [(k, a) for a in by_rank] for k in range(-(s_max // 2), s_max // 2 + 1)}
    handed: Dict[Tuple[Tuple[int, ...], bool], list] = {}
    tails: dict = {}
    splits: dict = {}
    for _, k_row, tied in k_rows:
        sizes = tuple(len(list(group)) for _, group in groupby(k_row))
        rows = handed.get((sizes, tied))
        if rows is None:
            # When P == Q the run sizes read the same both ways and the sign
            # flip hands each run the twists of its mirror run, so a row is
            # at most its flip when its runs are at most their reverse.
            rows = handed[sizes, tied] = sorted(
                (tuple([rank[a] for run in runs for a in run]), status)
                for counts, status in by_n[len(k_row)]
                for runs in _handouts(counts, sizes, tails, splits)
                if not tied or runs <= runs[::-1]
            )
        pairs = [slots[k] for k in k_row]
        for ranks, status in rows:
            yield DR1Bracket._from_canonical(r, tuple(map(list.__getitem__, pairs, ranks)), status)


def enumerate_brackets(r: int, n_max: int, k_sum_max: int) -> List[DR1Bracket]:
    """All canonical brackets with n <= n_max insertions and sum(|k|) <= k_sum_max.

    Twist rows run over the genus-1 selection rule ``sum(a) = (n-1) * r``
    with every twist in [0, r-1]. Each canonical bracket appears once, and
    the list is in key order though no key is built: order rows ``K`` sort
    by ``K + ":"`` and twist rows by the rank of each twist's string, which
    is key order (see the module docstring). Each twist multiset's status is
    derived once for all the rows over it; its twists are in [0, r-1] by
    construction, so they need no check.
    """
    _check_r(r)
    return list(_canonical_brackets(r, n_max, k_sum_max))


def solve_relational(bracket: DR1Bracket, cache: Optional[CacheStore] = None) -> EvalResult:
    """Evaluate a bracket purely through the linear relations.

    A bracket whose status is not ``"ok"`` gets the same shared zero result
    as from :func:`closed_form`. Otherwise the value is computed without
    reference to :func:`closed_form`: base cases are the relation-3
    vanishing pattern and B from the product formula (once per call, as
    every bracket reached shares the twist multiset), and composite
    brackets reduce by the three rewriting moves, which terminate (see the
    module docstring), in one loop that holds the reduction's state. A
    reduction that revisits a key raises :class:`rspin.core.ReductionStalledError`
    naming the key; so does a bracket that is neither stored nor a
    relation-3 zero and that may reach more than :data:`RELATIONAL_REACH_MAX`
    brackets, before any reduction, and a reduction as it would store one
    bracket more than that. With ``cache`` None the call uses a fresh store,
    so nothing outlives it.
    """
    if bracket.status != STATUS_OK:
        return _ZERO_RESULTS[bracket.status]
    if cache is None:
        cache = CacheStore()
    key = bracket.key
    hit = cache.get(key)
    if hit is not None:
        return EvalResult(hit, STATUS_OK, ("cache",))
    if relation3_check(bracket):
        cache.put(key, Fraction(0))
        return EvalResult(Fraction(0), STATUS_OK, ("relation-3",))
    reach = _reach_estimate(bracket.entries)
    if reach > RELATIONAL_REACH_MAX:
        raise ReductionStalledError(f"{key} may reach {reach} brackets, above {RELATIONAL_REACH_MAX}, "
                                    "the most the relational route reduces")
    value, rule = _relational_value(bracket, key, cache)
    return EvalResult(value, STATUS_OK, (rule,))
