"""Genus-0 correlator evaluation: closed 3/4-point values and WDVV solving.

Small brackets have closed forms, written once, in :func:`_scaled`: any
grading-valid 3-point bracket equals 1, and a 4-point bracket equals
``(1/r) * min`` over the twists and their reflections ``r - 1 - a_i``.
Brackets with five or more insertions are not given by a formula; instead,
associativity of the genus-0 theory yields linear equations tying an
n-point bracket to products of smaller ones, and :func:`solve_bracket`
assembles and solves that system exactly. A second,
independent route, :mod:`rspin.lg`, reads every bracket off the
Landau-Ginzburg model; :func:`bracket_window_sum` takes it by default, and
the checks that exist to test the associativity route ask for ``"wdvv"``.

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
divides out once. Generation codes each twist multiset as one integer, a
count per twist in a fixed-width bit field, so that the component a pair,
a share of the rest and a node twist make is an integer sum, and its value
one dict lookup; tuples appear only where a value is read from the store
or solved for, and in the rows handed to elimination. Most generated rows
repeat an earlier one: a pairing's unknowns come back as a tuple of their
ranks, and a row whose two rank tuples and constant equal an earlier row's
is skipped before it is built. The rows go to elimination as built, integer
rows that are not normalised: :mod:`rspin.elimination` scales each pivot
row itself, and a scaled row, or a second row proportional to a kept one,
leaves the reduced echelon form it returns unchanged.

:func:`loop_sum` evaluates the closed formula (``rspin.core._product``)
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
from itertools import combinations
from math import comb
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .core import (
    STATUS_OK,
    EvalResult,
    Genus0Bracket,
    GradingError,
    InconsistentSystemError,
    UnderdeterminedError,
    _ZERO_RESULTS,
    _check_r,
    _check_window,
    _product,
    ascending_multisets,
    genus0_key,
)
from .store import CacheStore

__all__ = [
    "loop_sum",
    "WdvvSystem",
    "wdvv_equations",
    "solve_bracket",
    "bracket_window_sum",
]

Key = Tuple[int, ...]
Scaled = Union[int, Fraction]


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
    xs = _check_window(r, m, x)
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
    return _product(r, xs, 1, 1)


class WdvvSystem(NamedTuple):
    """Exact linear system for all unsolved n-point brackets at one (r, n).

    A bracket ``(r; a)`` is keyed by its ascending twist tuple ``a``.
    ``unknowns`` holds these keys in ascending order; that order is also the
    elimination pivot order. Each equation is ``(coeffs, constant)`` meaning
    ``sum coeffs[key] * S[key] = constant`` in scaled units
    ``S[key] = r^(n-3) * <key>``, with constants fully evaluated from smaller
    brackets. Each row is an integer row as generated, not normalised: a
    row whose constant is a ``Fraction`` (a stored value that does not scale
    to an integer) is multiplied through by that constant's denominator.
    The pair unpacks as the arguments of
    :func:`rspin.elimination.solve_exact`.
    """

    unknowns: Tuple[Key, ...]
    equations: Tuple[Tuple[Dict[Key, int], int], ...]


def _solve_into(r: int, a: Key, cache: CacheStore) -> Fraction:
    """Solve the system at (r, len(a)), store every value it pins, return a's.

    ``a`` must be ascending, graded and have every twist in ``[1, r - 2]``.
    The system is in scaled units, so each value is divided by ``r^(n-3)``.
    Inconsistent rows raise :class:`rspin.core.InconsistentSystemError`
    naming the system.
    """
    from .elimination import solve_exact  # run only when a request solves

    n = len(a)
    system = wdvv_equations(r, n, cache)  # outside the try: a smaller system names itself
    try:
        scaled, free = solve_exact(*system)
    except InconsistentSystemError:
        raise InconsistentSystemError(f"inconsistent genus-0 WDVV system at r={r}, n={n}") from None
    scale = r ** (n - 3)
    values = {key: value / scale for key, value in scaled.items()}
    for key, value in values.items():
        cache.put(genus0_key(r, key), value)
    if a not in values:
        raise UnderdeterminedError(
            f"associativity equations leave {genus0_key(r, a)} undetermined "
            f"({len(free)} free of {len(system.unknowns)} unknowns)"
        )
    return values[a]


def _scaled(r: int, a: Key, cache: Optional[CacheStore]) -> Tuple[Scaled, str]:
    """``(S(a), rule)``: the scaled value ``r^(len(a)-3) * <a>`` of an ascending, graded bracket.

    Its twists lie in ``[0, r - 2]``, so neither the range nor the vanishing
    axiom needs checking. Closed forms first (1 at three points, the least
    twist or reflection at four, 0 for a twist 0 past four), then the store;
    a miss solves a's system into ``cache``, a fresh store when it is None.
    """
    size = len(a)
    if size == 3:
        return 1, "three-point"
    if size == 4:
        return min(a[0], r - 1 - a[3]), "four-point"
    if a[0] == 0:
        return 0, "zero-entry"
    if cache is None:
        cache = CacheStore()
    value, rule = cache.get(genus0_key(r, a)), "cache"
    if value is None:
        value, rule = _solve_into(r, a, cache), "wdvv-elimination"
    value *= r ** (size - 3)
    return value.numerator if value.denominator == 1 else value, rule


class _Build:
    """State of one :func:`wdvv_equations` call, keyed by multiset codes.

    A multiset of twists in ``[0, r - 2]`` is coded as the sum of
    ``unit[t] = 1 << (width * t)`` over its twists, a count per twist in a
    bit field wide enough for ``n + 1`` points, so adding codes is multiset
    union. ``rank`` maps each unknown's code to its index in ``unknowns``,
    ``memo`` each component code met so far to its :func:`_scaled` value.
    """

    def __init__(self, r: int, n: int, unknowns: Tuple[Key, ...], cache: CacheStore):
        self.r, self.cache, self.width = r, cache, (n + 1).bit_length()
        self.unit = unit = [1 << (self.width * t) for t in range(r - 1)]
        self.rank = {sum([unit[t] for t in a]): i for i, a in enumerate(unknowns)}
        self.memo: Dict[int, Scaled] = {}
        self.rooms: Dict[int, List[Tuple[int, int, int]]] = {}
        self.shares: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}

    def counts(self, code: int) -> List[int]:
        mask = (1 << self.width) - 1
        return [code >> (self.width * t) & mask for t in range(self.r - 1)]

    def value(self, code: int) -> Scaled:
        """Memo miss: decode the component and read its value."""
        a = tuple(t for t, count in enumerate(self.counts(code)) for _ in range(count))
        value = self.memo[code] = _scaled(self.r, a, self.cache)[0]
        return value

    def splits(self, rest: int, base: int) -> List[Tuple[int, int, int]]:
        """Every graded way to share ``rest`` between two components, both taking some.

        Returns ``(left offset, right offset, count)``: the codes to add to
        the two pair codes, and how many index subsets of ``rest`` give that
        split. Beside the pair of twist sum ``base``, the share ``one`` takes
        the node twist ``nu = room - base`` that grades it, the other side
        ``r - 2 - nu``; a split with ``nu`` outside ``[0, r - 2]`` vanishes
        and is left out, and so are the two that give all of ``rest`` to one
        side. The shares of each rest and each result are kept for the call.
        """
        r, unit = self.r, self.unit
        rooms = self.rooms.get(rest)
        if rooms is None:
            rooms = [(0, r - 2, 1)]  # (code of one, room, count)
            for t, size in enumerate(self.counts(rest)):
                if size:
                    rooms = [(one + k * unit[t], room + k * (r - t), count * comb(size, k))
                             for one, room, count in rooms for k in range(size + 1)]
            # rooms[0] gives ``one`` nothing and rooms[-1] gives it all of ``rest``.
            rooms = self.rooms[rest] = rooms[1:-1]
        kept = self.shares[rest, base] = [
            (one + unit[nu], rest - one + unit[r - 2 - nu], count)
            for one, room, count in rooms
            if 0 <= (nu := room - base) <= r - 2
        ]
        return kept

    def expand(self, p: int, base: int, q: int, q_base: int, rest: int) -> Tuple[Tuple[int, ...], Scaled]:
        """Expand one degeneration side into (unknown ranks, known part).

        The four distinguished twists split into pairs with codes ``p``,
        ``q`` and twist sums ``base``, ``q_base``, and the insertions of
        ``rest`` distribute over the two components. A component has ``n``
        points exactly when it takes all of ``rest``; the other one is then
        the 3-point bracket of its pair, 1 when the pair's sum is at most
        ``r - 2``, and the n-point side, with that sum as node twist, is an
        unknown with coefficient 1. The unknowns come back as the tuple of
        their ranks, ``()``, ``(k1,)``, ``(k2,)`` or ``(k1, k2)``, each with
        coefficient 1 (``k1 == k2`` is one unknown with coefficient 2).
        :meth:`splits` lists the other terms, whose components are known.
        """
        top, unit, rank = self.r - 2, self.unit, self.rank
        ranks: Tuple[int, ...] = ()
        if base <= top:
            ranks = (rank[q + rest + unit[base]],)
        if q_base <= top:
            ranks += (rank[p + rest + unit[q_base]],)
        splits = self.shares.get((rest, base))
        if splits is None:
            splits = self.splits(rest, base)
        memo, value = self.memo, self.value
        const = 0
        for left, right, count in splits:
            # Read both factors even when one is 0: a store miss solves and
            # stores the smaller system either way.
            lv = memo.get(p + left)
            if lv is None:
                lv = value(p + left)
            rv = memo.get(q + right)
            if rv is None:
                rv = value(q + right)
            if lv and rv:
                const += lv * rv * count
        return ranks, const


def wdvv_equations(r: int, n: int, cache: Optional[CacheStore] = None) -> WdvvSystem:
    """Build the exact associativity system for all n-point unknowns at r.

    Every instance comes from a multiset of ``n + 1`` twists in
    ``[1, r - 2]`` (graded so that each two-component degeneration can
    satisfy both component gradings) with four distinguished insertions;
    equating two distinct pairings of the distinguished four yields one
    linear equation. Multisets holding a twist ``r - 1`` or ``0`` are not
    drawn: a twist ``r - 1`` sits in one component of every term, which then
    vanishes, and the module docstring shows why a twist 0 gives ``0 = 0``
    rows whatever the stored values are. Each distinct pairing is expanded
    once per instance, on integer multiset codes (see :class:`_Build`), and
    the splits of each rest are worked out once per pair sum and call. All
    instances are enumerated, and their rows deduplicated once, verbatim: a
    raw row (the two pairings' unknown-rank tuples and the constant) met
    before is skipped at once; any other row is built, must read ``0 = 0``
    if no unknown is left in it (else :class:`rspin.core.InconsistentSystemError`
    names the system), and is kept as an integer row, not
    normalised (see :class:`WdvvSystem`). Rows are keyed by the ranks of
    their unknowns until kept. Unknowns are the grading-valid n-point brackets
    with twists in ``[1, r - 2]``, keyed by ascending twist tuples; anything
    else is already known to the recursion. Values of smaller brackets are
    memoized for the length of the call; those with five or more points
    come from ``cache`` (a fresh store when it is None), solving their own
    system into it on a miss.
    """
    _check_r(r)
    if n < 5:
        raise GradingError(f"the associativity solver starts at n=5, got n={n}")
    if cache is None:
        cache = CacheStore()
    total = (n - 2) * r - 2
    unknowns = tuple(ascending_multisets(1, r - 2, n, total))
    build = _Build(r, n, unknowns, cache)
    unit = build.unit
    equations: List[Tuple[Dict[Key, int], int]] = []
    met = set()
    for y in ascending_multisets(1, r - 2, n + 1, total):
        whole = sum([unit[t] for t in y])
        # combinations() walks index quadruples in lex order, and the first
        # time a twist quadruple appears is its leftmost embedding in y. Two
        # quadruples first differing at place j share that embedding before
        # j, and at j, y being ascending, every index holding the smaller
        # twist comes before every index holding the larger one: leftmost
        # embeddings are ordered as the quadruples are, so dict.fromkeys
        # yields the distinct quadruples in ascending order.
        for d0, d1, d2, d3 in dict.fromkeys(combinations(y, 4)):
            rest = whole - unit[d0] - unit[d1] - unit[d2] - unit[d3]
            # p + q is the same in all three pairings, so min(p, q) names one.
            pairings: Dict[int, Tuple[Tuple[int, ...], Scaled]] = {}
            for a, b, c, d in ((d0, d1, d2, d3), (d0, d2, d1, d3), (d0, d3, d1, d2)):
                p, q = unit[a] + unit[b], unit[c] + unit[d]
                if (tag := p if p < q else q) not in pairings:
                    pairings[tag] = build.expand(p, a + b, q, c + d, rest)
            for (ca, ka), (cb, kb) in combinations(pairings.values(), 2):
                rhs = kb - ka
                # A repeat is skipped unbuilt; with the rhs in the tag, rows
                # that differ only in their constant still reach the
                # consistency check.
                if (raw := (ca, cb, rhs)) in met:
                    continue
                met.add(raw)
                coeffs: Dict[int, int] = {}
                for k in ca:
                    coeffs[k] = coeffs.get(k, 0) + 1
                for k in cb:
                    coeffs[k] = coeffs.get(k, 0) - 1
                coeffs = {k: v for k, v in coeffs.items() if v}
                if not coeffs:
                    if rhs:
                        raise InconsistentSystemError(
                            f"inconsistent associativity instance in the genus-0 WDVV system at r={r}, n={n}")
                    continue
                if type(rhs) is not int:
                    # The coefficients count pairings, so they are ints and
                    # one factor clears the row.
                    den, rhs = rhs.denominator, rhs.numerator
                    coeffs = {k: v * den for k, v in coeffs.items()}
                equations.append(({unknowns[k]: v for k, v in coeffs.items()}, rhs))
    return WdvvSystem(unknowns, tuple(equations))


def solve_bracket(r: int, a: Sequence[int], cache: Optional[CacheStore] = None) -> EvalResult:
    """Evaluate a genus-0 bracket of any size, exactly.

    A bracket whose grading status is not ``"ok"`` (``sum a = (n - 2) r - 2``
    fails, or a twist is ``r - 1``) gets the shared zero result. Any other
    is read by :func:`_scaled` and divided by ``r^(n-3)``: the closed forms
    (1 at three points, ``min(a_i, r - 1 - a_i)/r`` at four), the zero-twist
    rule for five or more insertions, then the store and the associativity
    system at (r, n), memoized through ``cache``. With ``cache`` None, a
    fresh store is made once a request gets that far. The trace is the one
    rule that gave the value. Raises ``UnderdeterminedError`` if the system
    does not pin the bracket down; the value is never guessed.
    """
    bracket = Genus0Bracket(r, a)
    if bracket.status != STATUS_OK:
        return _ZERO_RESULTS[bracket.status]
    scaled, rule = _scaled(r, bracket.a, cache)
    return EvalResult(Fraction(scaled, r ** (len(bracket.a) - 3)), STATUS_OK, (rule,))


def bracket_window_sum(
    r: int, m: int, x: Sequence[int], cache: Optional[CacheStore] = None, method: str = "lg"
) -> Fraction:
    """Brute-force window sum ``sum_{a+b=m} <a, b, x...>`` over in-range pairs.

    This is the quantity :func:`loop_sum` models. Twist pairs run over all
    ``a + b = m`` with ``0 <= a, b <= r - 1``. Neither route reads the
    closed formula of :func:`loop_sum`, so comparing the two checks it.

    method:
        ``"lg"`` (the default) sums the whole window in one Landau-Ginzburg
        pass, :func:`rspin.lg.window_sum`; it neither reads nor writes
        ``cache``. ``"wdvv"`` evaluates each bracket by :func:`solve_bracket`,
        with one store for the whole window (a fresh one when ``cache`` is
        None); the checks that exist to test the associativity route ask for
        it by name. Any other value raises ``ValueError``.

    Both routes make the same argument checks and raise the same errors.
    """
    if method == "lg":
        from .lg import window_sum  # run only when a request takes this route

        return window_sum(r, m, x)
    if method != "wdvv":
        raise ValueError(f"unknown genus-0 window method {method!r}")
    xs = _check_window(r, m, x)
    if cache is None:
        cache = CacheStore()
    total = Fraction(0)
    for a in range(max(0, m - (r - 1)), min(r - 1, m) + 1):
        total += solve_bracket(r, (a, m - a) + xs, cache).value
    return total
