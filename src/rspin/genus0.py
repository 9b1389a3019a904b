"""Genus-0 correlator evaluation: closed 3/4-point values and WDVV solving.

Small brackets have closed forms: any grading-valid 3-point bracket equals 1,
and a 4-point bracket equals ``(1/r) * min`` over the twists and their
reflections ``r - 1 - a_i``. Brackets with five or more insertions are not
given by a formula here; instead, associativity of the genus-0 theory yields
linear equations tying an n-point bracket to products of smaller ones, and
:func:`solve_bracket` assembles and solves that system exactly.

Two vanishing rules shortcut the solver and also prune the generated
equations: a twist equal to ``r - 1`` kills any bracket, and a twist equal
to ``0`` kills any bracket with at least four insertions. An associativity
instance whose twists hold a 0 therefore checks nothing: if the 0 is one of
the four distinguished insertions, every pairing reduces to the same
bracket of the other twists (the 0 can only sit in a 3-point component,
``<0, d, r - 2 - d> = 1``), and if it is among the rest, every term holds a
vanishing component. :func:`wdvv_equations` draws no such instance.

The associativity systems are kept in integers: an n-point bracket enters as
``S(a) = r^(n-3) * <a>``, an integer on every value computed so far (one
that is not stays an exact ``Fraction``). The two components of a
degeneration carry ``n + 3`` points between them, so every term of an
(n+1)-point instance scales by the same ``r^(n-3)``, which the solver
divides out once.

:func:`loop_sum` evaluates the closed formula
``((n-1)!/r^(n-1)) * prod(r-1-x_i)`` for the window sum
``sum_{a+b=m} <a, b, x_1..x_n>``. The formula is exact for ``m <= r - 2``.
The ``extended`` flag admits ``m <= r`` for ``len(x) >= 2``; it stays exact
for ``m = r - 1`` and for ``m = r`` with ``len(x) >= 3``, but at exactly
``m = r`` with ``len(x) = 2`` it exceeds the actual bracket sum (see
``bracket_window_sum``) by exactly ``(r-1)/r``: there every term is a
4-point bracket ``min(a-1, r-1-a, x_1, x_2)/r``, and these add up to
``(x_1+1)(x_2+1)/r - (r-1)/r``. Extended-range results there describe the
formula, not the sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, groupby
from math import comb, factorial, gcd, lcm
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .core import (
    STATUS_DIMENSION_ZERO,
    STATUS_OK,
    STATUS_VANISHING_ZERO,
    EvalResult,
    Genus0Bracket,
    GradingError,
    UnderdeterminedError,
    _ZERO_RESULTS,
    _check_r,
    _check_twists,
    ascending_multisets,
    genus0_key,
)
from .store import CacheStore

__all__ = [
    "three_point",
    "four_point",
    "loop_sum",
    "WdvvSystem",
    "wdvv_equations",
    "solve_bracket",
    "bracket_window_sum",
]

Key = Tuple[int, ...]
Scaled = Union[int, Fraction]


def three_point(r: int, a1: int, a2: int, a3: int) -> EvalResult:
    """Evaluate a 3-point bracket: 1 whenever the grading holds.

    Grading failures return 0 with ``dimension-mismatch-zero``. A twist of
    ``r - 1`` cannot coexist with a valid 3-point grading (the remaining
    twists would need a negative sum). The same as :func:`solve_bracket`.
    """
    return solve_bracket(r, (a1, a2, a3))


def four_point(r: int, a1: int, a2: int, a3: int, a4: int) -> EvalResult:
    """Evaluate a 4-point bracket by the minimum-twist-distance formula.

    For ``sum a_i = 2r - 2`` the value is ``(1/r) * min`` over the multiset
    ``{a_1..a_4, r-1-a_1..r-1-a_4}``. A zero twist therefore gives value 0
    with status ``ok`` (the formula itself vanishes), while a twist of
    ``r - 1`` is reported as the vanishing axiom. The same as
    :func:`solve_bracket`.
    """
    return solve_bracket(r, (a1, a2, a3, a4))


def loop_sum(r: int, m: int, x: Sequence[int], extended: bool = False) -> Fraction:
    """Closed formula ``((n-1)!/r^(n-1)) * prod(r-1-x_i)`` for a window sum.

    Parameters
    ----------
    r, m, x:
        Window data: the sum runs over twist pairs ``a + b = m`` in front of
        the fixed twists ``x``. Requires ``0 <= x_i <= r-2`` and the grading
        ``sum(x) = len(x)*r - m - 2``.
    extended:
        Classically ``m <= r - 2``. With ``extended=True`` the range
        ``m <= r`` is admitted for ``len(x) >= 2``; single-``x`` windows
        stay restricted because the count there is ``m + 1`` only while
        every twist pair stays in range. At ``m = r`` with ``len(x) = 2``
        the value is the bracket sum plus exactly ``(r-1)/r``.

    Raises
    ------
    GradingError
        On any precondition violation, including ``m`` out of the allowed
        range and a mismatched twist sum.
    """
    _check_r(r)
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise GradingError(f"window sum bound m={m!r} must be a non-negative integer")
    xs = _check_twists(r, x)
    n = len(xs)
    if n < 1:
        raise GradingError("loop_sum needs at least one fixed twist")
    if any(v > r - 2 for v in xs):
        raise GradingError(f"fixed twists must lie in [0, {r - 2}] for r={r}")
    if m > r - 2:
        if m > r:
            raise GradingError(f"m={m} exceeds the extended bound r={r}")
        if not extended:
            raise GradingError(f"m={m} exceeds r-2={r - 2}; pass extended=True for m <= r")
        if n < 2:
            raise GradingError("extended range requires at least two fixed twists")
    if sum(xs) != n * r - m - 2:
        raise GradingError(
            f"twist sum {sum(xs)} does not match n*r - m - 2 = {n * r - m - 2}"
        )
    value = Fraction(factorial(n - 1), r ** (n - 1))
    for v in xs:
        value *= r - 1 - v
    return value


class WdvvSystem(NamedTuple):
    """Exact linear system for all unsolved n-point brackets at one (r, n).

    A bracket ``(r; a)`` is keyed by its ascending twist tuple ``a``.
    ``unknowns`` holds these keys in ascending order; that order is also the
    elimination pivot order. Each equation is ``(coeffs, constant)`` meaning
    ``sum coeffs[key] * S[key] = constant`` in scaled units
    ``S[key] = r^(n-3) * <key>``, with constants fully evaluated from smaller
    brackets. Each row is primitive: its entries are integers with no common
    factor and a positive leading coefficient (a row holding a non-integral
    scaled value is cleared of denominators first). The pair unpacks as the
    arguments of :func:`rspin.elimination.solve_exact`.
    """

    unknowns: Tuple[Key, ...]
    equations: Tuple[Tuple[Dict[Key, int], int], ...]


def _solve_into(r: int, a: Key, cache: CacheStore) -> Fraction:
    """Solve the system at (r, len(a)), store every value it pins, return a's.

    ``a`` must be ascending, graded and have every twist in ``[1, r - 2]``.
    The system is in scaled units, so each value is divided by ``r^(n-3)``.
    """
    from .elimination import solve_exact  # run only when a request solves

    scaled, free = solve_exact(*wdvv_equations(r, len(a), cache))
    scale = r ** (len(a) - 3)
    values = {key: value / scale for key, value in scaled.items()}
    for key, value in values.items():
        cache.put(genus0_key(r, key), value)
    if a not in values:
        raise UnderdeterminedError(
            f"associativity equations leave {genus0_key(r, a)} undetermined "
            f"({len(free)} free of {len(values) + len(free)} unknowns)"
        )
    return values[a]


def _splits(r: int, rest: Key) -> List[Tuple[Key, Key, int, int]]:
    """Every way to share ascending ``rest`` between two components, both taking some.

    Returns ``(one side, other side, count, room)`` tuples. Equal twists are
    interchangeable, so each distinct split appears once, with the number of
    index subsets of ``rest`` that produce it. The two splits that give all
    of ``rest`` to one side are left out (:meth:`_SystemBuild.pairing_terms`
    writes those out). ``room`` is the grading target of the component that
    takes ``one``, less ``sum(one)``: beside the distinguished pair ``first``
    its node twist is ``room - sum(first)``, and it is graded only if that
    lies in ``[0, r - 1]``.
    """
    out: List[Tuple[Key, Key, int]] = [((), (), 1)]
    for twist, group in groupby(rest):
        size = len(tuple(group))
        out = [
            (one + (twist,) * k, other + (twist,) * (size - k), count * comb(size, k))
            for one, other, count in out
            for k in range(size + 1)
        ]
    # out[0] gives ``one`` nothing and out[-1] gives it all of ``rest``.
    return [
        (one, other, count, (len(one) + 1) * r - 2 - sum(one))
        for one, other, count in out[1:-1]
    ]


class _SystemBuild:
    """State of one :func:`wdvv_equations` call: the bracket values it reads.

    ``memo`` maps each component met so far to its scaled value
    ``S(a) = r^(len(a)-3) * <a>``. Components are ascending, graded, and
    have twists in ``[0, r - 2]`` (the multiset twists stay below ``r - 1``,
    and a node twist of ``r - 1`` drops the term), so neither the range nor
    the vanishing axiom needs checking.
    """

    def __init__(self, r: int, cache: CacheStore):
        self.r = r
        self.cache = cache
        self.memo: Dict[Key, Scaled] = {}

    def value(self, a: Key) -> Scaled:
        """Scaled closed 3/4-point form, zero-twist rule, or store value."""
        value = self.memo.get(a)
        if value is None:
            size = len(a)
            if size == 3:
                value = 1
            elif size == 4:
                value = min(a[0], self.r - 1 - a[3])
            elif a[0] == 0:
                value = 0
            else:
                stored = self.cache.get(genus0_key(self.r, a))
                if stored is None:
                    stored = _solve_into(self.r, a, self.cache)
                value = stored * self.r ** (size - 3)
                if value.denominator == 1:
                    value = value.numerator
            self.memo[a] = value
        return value

    def pairing_terms(
        self,
        first: Tuple[int, int],
        second: Tuple[int, int],
        rest: Key,
        splits: List[Tuple[Key, Key, int, int]],
    ) -> Tuple[Dict[Key, int], Scaled]:
        """Expand one degeneration side into (unknown coefficients, known part).

        The four distinguished twists split as ``first | second``; the
        remaining insertions ``rest`` (twists in ``[1, r - 2]``) distribute
        over the two components, and each component picks up the node twist
        forced by its side. The two component gradings hold or fail
        together (their twist sums add up to the sum over both), and a
        failed one, or a node twist of ``r - 1``, makes the product 0.

        A component has ``n`` points exactly when it takes all of ``rest``.
        The other one is then the 3-point bracket ``<p, q, r - 2 - p - q>``
        of its pair, equal to 1 when ``p + q <= r - 2``, and the n-point
        side gets node twist ``p + q`` (never 0), so it is an unknown with
        coefficient 1. Those two splits are written out first; ``splits``
        (from :func:`_splits`) lists the others, whose components both have
        fewer than ``n`` points and are known. Every product of scaled values
        carries the same factor ``r^(n-3)``, since the two components carry
        ``n + 3`` points between them.
        """
        top = self.r - 2
        coeffs: Dict[Key, int] = {}
        for pair, other_pair in ((first, second), (second, first)):
            node = pair[0] + pair[1]
            if node <= top:
                unknown = tuple(sorted(other_pair + rest + (node,)))
                coeffs[unknown] = coeffs.get(unknown, 0) + 1
        memo, value = self.memo, self.value
        base = first[0] + first[1]
        const = 0
        for one, other, count, room in splits:
            nu = room - base
            if nu < 0 or nu > top:
                continue
            left = tuple(sorted(first + one + (nu,)))
            right = tuple(sorted(second + other + (top - nu,)))
            # Read both factors even when one is 0: a store miss solves and
            # stores the smaller system either way.
            lv = memo.get(left)
            if lv is None:
                lv = value(left)
            rv = memo.get(right)
            if rv is None:
                rv = value(right)
            if lv and rv:
                const += lv * rv * count
        return coeffs, const


def _primitive(coeffs: Dict[Key, Scaled], rhs: Scaled) -> Tuple[Dict[Key, int], int]:
    """Scale a row with a nonzero coefficient to its primitive integer form.

    The result has integer entries with greatest common divisor 1 and a
    positive coefficient at the smallest key, so two rows are proportional
    exactly when their primitive forms are equal.
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


def wdvv_equations(r: int, n: int, cache: Optional[CacheStore] = None) -> WdvvSystem:
    """Build the exact associativity system for all n-point unknowns at r.

    Every instance comes from a multiset of ``n + 1`` twists in
    ``[1, r - 2]`` (graded so that each two-component degeneration can
    satisfy both component gradings) with four distinguished insertions;
    equating two distinct pairings of the distinguished four yields one
    linear equation. Multisets holding a twist ``r - 1`` or ``0`` are not
    drawn, as their rows are identically zero. A twist ``r - 1`` sits in
    one component of every term, which then vanishes. For a twist 0 among
    the distinguished four, paired with ``d``, each pairing reduces to the
    one term in which that pair forms the 3-point bracket
    ``<0, d, r - 2 - d> = 1``: any larger component holding the 0 is 0. The
    other component is the multiset without the 0 in every pairing, so the
    three pairings agree. A twist 0 among the rest lies in a component of at
    least four points in every term, so every term is 0. Either way the
    rows read ``0 = 0`` whatever the stored values are. Each distinct pairing
    is expanded once per instance, and each distinct rest of the multiset is
    split once per call. All instances are enumerated, brought to primitive
    integer form (see :class:`WdvvSystem`), and deduplicated. Unknowns are
    the grading-valid n-point brackets with twists in ``[1, r - 2]``, keyed
    by ascending twist tuples; anything else is already known to the
    recursion. Values of smaller brackets are memoized for the length of the
    call; those with five or more points come from ``cache`` (a fresh store
    when it is None), solving their own system into it on a miss.
    """
    _check_r(r)
    if n < 5:
        raise GradingError(f"the associativity solver starts at n=5, got n={n}")
    if cache is None:
        cache = CacheStore()
    total = (n - 2) * r - 2
    unknowns = tuple(ascending_multisets(1, r - 2, n, total))
    build = _SystemBuild(r, cache)
    split_memo: Dict[Key, List[Tuple[Key, Key, int, int]]] = {}
    equations: List[Tuple[Dict[Key, int], int]] = []
    seen = set()
    for y in ascending_multisets(1, r - 2, n + 1, total):
        for dist in sorted(set(combinations(y, 4))):
            rest = list(y)
            for v in dist:
                rest.remove(v)
            rest = tuple(rest)
            splits = split_memo.get(rest)
            if splits is None:
                splits = split_memo[rest] = _splits(r, rest)
            d0, d1, d2, d3 = dist
            pairings: Dict[Tuple[Tuple[int, int], Tuple[int, int]], tuple] = {}
            for p, q in (((d0, d1), (d2, d3)), ((d0, d2), (d1, d3)), ((d0, d3), (d1, d2))):
                tag = (p, q) if p <= q else (q, p)
                if tag not in pairings:
                    pairings[tag] = build.pairing_terms(p, q, rest, splits)
            for (ca, ka), (cb, kb) in combinations(pairings.values(), 2):
                coeffs = dict(ca)
                for k, v in cb.items():
                    coeffs[k] = coeffs.get(k, 0) - v
                coeffs = {k: v for k, v in coeffs.items() if v}
                rhs = kb - ka
                if not coeffs:
                    if rhs:
                        raise ValueError("inconsistent associativity instance")
                    continue
                coeffs, rhs = _primitive(coeffs, rhs)
                tag = (tuple(sorted(coeffs.items())), rhs)
                if tag not in seen:
                    seen.add(tag)
                    equations.append((coeffs, rhs))
    return WdvvSystem(unknowns, tuple(equations))


def solve_bracket(r: int, a: Sequence[int], cache: Optional[CacheStore] = None) -> EvalResult:
    """Evaluate a genus-0 bracket of any size, exactly.

    Dispatch order: grading check ``sum a = (n - 2) r - 2``, vanishing
    axiom, the closed forms (1 at three points, ``min(a_i, r - 1 - a_i)/r``
    at four; :func:`three_point` and :func:`four_point` return these), the
    zero-twist rule for five or more insertions, then the associativity
    system at (r, n) with memoization through ``cache``. With ``cache``
    None, a fresh store is made once a request gets that far. Raises
    ``UnderdeterminedError`` if the system does not pin the bracket down;
    the value is never guessed.
    """
    bracket = Genus0Bracket(r, a)
    a_sorted, n = bracket.a, len(bracket.a)
    if sum(a_sorted) != (n - 2) * r - 2:
        return _ZERO_RESULTS[STATUS_DIMENSION_ZERO]
    if a_sorted[-1] == r - 1:
        return _ZERO_RESULTS[STATUS_VANISHING_ZERO]
    if n == 3:
        return EvalResult(Fraction(1), STATUS_OK, ("three-point",))
    if n == 4:
        return EvalResult(Fraction(min(a_sorted[0], r - 1 - a_sorted[3]), r), STATUS_OK, ("four-point",))
    if a_sorted[0] == 0:
        return EvalResult(Fraction(0), STATUS_OK, ("zero-entry",))
    if cache is None:
        cache = CacheStore()
    cached = cache.get(bracket.key)
    if cached is not None:
        return EvalResult(cached, STATUS_OK, ("cache",))
    return EvalResult(_solve_into(r, a_sorted, cache), STATUS_OK, ("wdvv-elimination",))


def bracket_window_sum(
    r: int, m: int, x: Sequence[int], cache: Optional[CacheStore] = None
) -> Fraction:
    """Brute-force window sum ``sum_{a+b=m} <a, b, x...>`` over in-range pairs.

    This is the quantity :func:`loop_sum` models. Twist pairs run over all
    ``a + b = m`` with ``0 <= a, b <= r - 1``; each bracket is evaluated by
    :func:`solve_bracket`, so the two sides of the comparison come from
    independent routes. With ``cache`` None one fresh store serves the
    whole window.
    """
    _check_r(r)
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise GradingError(f"window sum bound m={m!r} must be a non-negative integer")
    xs = _check_twists(r, x)
    if cache is None:
        cache = CacheStore()
    total = Fraction(0)
    for a in range(max(0, m - (r - 1)), min(r - 1, m) + 1):
        total += solve_bracket(r, (a, m - a) + xs, cache).value
    return total
