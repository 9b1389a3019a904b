"""Genus-0 correlator evaluation: closed 3/4-point values and the lemma's rows.

Small brackets have closed forms, written once, in
``rspin.core._genus0_closed``: any grading-valid 3-point bracket equals 1,
and a 4-point bracket equals ``(1/r) * min`` over the twists and their
reflections ``r - 1 - a_i``. Associativity ties each larger bracket to
smaller ones (Kontsevich-Manin, hep-th/9402147): :func:`solve_bracket` and
:func:`bracket_window_sum` evaluate the one row in which the lemma below
shows the bracket is the last unknown, with coefficient 1, and
:func:`wdvv_equations` builds every row of an (r, n) system, the reference
the tests check against. A second, independent route, :mod:`rspin.lg`, reads
every bracket off the Landau-Ginzburg model; the tests and ``rspin g0
--method lg`` ask for it by name.

Two vanishing rules shortcut the solver and also prune the generated
equations: a twist equal to ``r - 1`` kills any bracket, and a twist equal
to ``0`` kills any bracket with at least four insertions. An associativity
instance whose twists hold a 0 therefore checks nothing: if the 0 is one of
the four distinguished insertions, every pairing reduces to the same
bracket of the other twists (the 0 can only sit in a 3-point component,
``<0, d, r - 2 - d> = 1``), and if it is among the rest, every term holds a
vanishing component. :func:`wdvv_equations` draws no such instance.

Values are kept in integers: an n-point bracket enters as
``S(a) = r^(n-3) * <a>``, an integer (Corollary 2 below). The two
components of a degeneration carry ``n + 3`` points between them, so every
term of an (n+1)-point instance scales by the same ``r^(n-3)``, which is
divided out once. Rows work on integer multiset codes (see :class:`_Build`);
:func:`wdvv_equations` skips repeated rows unbuilt and keeps the others as
built, not normalised.

**Lemma.** Take ``r >= 4``, ``n >= 5`` (at ``r <= 3`` there is no unknown)
and an unknown ``U = (u_1 <= .. <= u_n)`` of :func:`wdvv_equations` with
``m`` ones: ``m <= n - 3``, as ``m >= n - 2`` forces ``(n-4)(r-1) <= 0``. Put
``s = u_{m+1} >= 2``, ``c = u_{n-1}``, ``d = u_n``, ``R`` the other twists.
The generator draws ``y = R + {1, s-1, c, d}``; the first row of its
quadruple ``(1, s-1, c, d)`` is ``{1,s-1 | c,d}`` minus ``{1,c | s-1,d}``,
two pairings as ``c, d >= s``. ``U`` enters it once, with coefficient 1 as
``s <= r - 2``; the only other possible unknowns, ``<c+d,1,s-1,R>``,
``<s-1+d,1,c,R>`` and ``<1+c,s-1,d,R>``, hold ``m + 1`` ones or ``s - 1`` at
place ``m + 1``, so they sort below ``U``; only exact repeats are skipped.
**Corollary 1:** each unknown is the last of a row, with coefficient 1, so
that row alone gives ``S(U)`` from brackets with fewer points and n-point
ones sorting below ``U``, and a system pins every unknown or is
inconsistent: stored values enter only the constants. **Corollary 2:** by
induction on ``n``, then up that order, integer closed forms and stored
values give integer constants and ``S(U)``.

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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    STATUS_OK,
    CacheError,
    EvalResult,
    Genus0Bracket,
    GradingError,
    StructureError,
    _ZERO_RESULTS,
    _check_r,
    _check_window,
    _genus0_closed,
    _product,
    ascending_multisets,
    genus0_key,
)
from .store import CacheStore, _genus0_scaled

__all__ = [
    "loop_sum",
    "WdvvSystem",
    "wdvv_equations",
    "solve_bracket",
    "bracket_window_sum",
]

Key = Tuple[int, ...]


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
    ``unknowns`` holds these keys in ascending order;
    :func:`rspin.elimination.solve_exact` substitutes in that order. Each
    equation is ``(coeffs, constant)`` meaning
    ``sum coeffs[key] * S[key] = constant`` in scaled units
    ``S[key] = r^(n-3) * <key>``, with constants fully evaluated from smaller
    brackets. Each row is an integer row as generated, not normalised, and
    the rows pin every unknown (Corollary 1 of the module docstring). The
    pair unpacks as the arguments of :func:`rspin.elimination.solve_exact`.
    """

    unknowns: Tuple[Key, ...]
    equations: Tuple[Tuple[Dict[Key, int], int], ...]


def _scaled(r: int, a: Key, build: "_Build") -> Tuple[int, str]:
    """``(S(a), rule)``: the scaled value ``r^(len(a)-3) * <a>`` of an ascending, graded bracket.

    Its twists lie in ``[0, r - 2]``, so neither the range nor the vanishing
    axiom needs checking. Closed forms first (``rspin.core._genus0_closed``);
    any other bracket is read off ``build``'s memo when a fill
    (:meth:`_Build.fill`) has set it, else from the row the lemma names
    (:meth:`_Build.own_row`), never from a store.
    """
    closed = _genus0_closed(r, a)
    if closed:
        return closed
    code = sum([build.unit[t] for t in a])
    return build.memo[code] if code in build.memo else build.own_row(a, code), "wdvv-elimination"


class _Build:
    """Multiset codes and the value memo of one :func:`wdvv_equations`, :func:`solve_bracket` or window.

    A multiset of twists in ``[0, r - 2]`` is coded as the sum of
    ``unit[t] = 1 << (width * t)`` over its twists, a count per twist in a
    bit field wide enough for ``n + 1`` points, so adding codes is multiset
    union. ``memo`` maps each component code met so far to its
    :func:`_scaled` value.
    """

    def __init__(self, r: int, n: int):
        self.r, self.width = r, (n + 1).bit_length()
        self.unit = [1 << (self.width * t) for t in range(r - 1)]
        self.memo: Dict[int, int] = {}
        self.rooms: Dict[int, List[Tuple[int, int, int]]] = {}
        self.shares: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}

    def fill(self, n: int, cache: CacheStore) -> Iterator[Tuple[str, int, int, Fraction]]:
        """Put each graded bracket of 5..n points, twists in ``[1, r - 2]``, that ``cache`` lacks.

        One bottom-up pass, no recursion: strata 5..n in ascending order, each
        in ascending tuple order (``ascending_multisets``), every bracket ``a``
        set in the memo as :meth:`own_row` of ``a``. By the module's lemma,
        each term of that row is a product of components with fewer points,
        which an earlier stratum set or which have closed forms, or an n-point
        component that sorts below ``a``, which this stratum set before ``a``.
        So every term is in the memo, or is a closed form that :meth:`value`
        reads once. Each bracket's key is looked up in ``cache`` in that
        order, and its value put when missing.

        Yields ``(key, code, size, stored value)`` for each one it holds.
        """
        r, unit, memo = self.r, self.unit, self.memo
        for size in range(5, n + 1):
            scale = r ** (size - 3)
            for a in ascending_multisets(1, r - 2, size, (size - 2) * r - 2):
                code = sum([unit[t] for t in a])
                memo[code] = self.own_row(a, code)
                key = genus0_key(r, a)
                if (stored := cache.get(key)) is None:
                    cache.put(key, Fraction(memo[code], scale))
                else:
                    yield key, code, size, stored

    def fill_and_check(self, n: int, cache: CacheStore) -> None:
        """:meth:`fill` ``cache``, and raise ``CacheError`` naming the key and both values where it disagrees."""
        for key, code, size, stored in self.fill(n, cache):
            if stored != (value := Fraction(self.memo[code], self.r ** (size - 3))):
                raise CacheError(f"stored value {stored} for {key} disagrees with the recomputed {value}")

    def counts(self, code: int) -> List[int]:
        mask = (1 << self.width) - 1
        return [code >> (self.width * t) & mask for t in range(self.r - 1)]

    def value(self, code: int) -> int:
        """The scaled value of the component ``code``, read by :func:`_scaled` on a memo miss."""
        if code not in self.memo:
            a = tuple([t for t, count in enumerate(self.counts(code)) if count for _ in range(count)])
            self.memo[code] = _scaled(self.r, a, self)[0]
        return self.memo[code]

    def own_row(self, a: Key, code: int) -> int:
        """``S(a)`` from the lemma's row: ``{1,s-1 | c,d} - {1,c | s-1,d}``, less a's own term.

        ``code`` is ``a``'s multiset code. Called by :meth:`fill`, every other
        term is in the memo or closed-form. In a store-less call the terms
        recurse through the memo instead: about 90 frames deep at
        (r, n) = (30, 7), past Python's default limit from r = 600 at n = 5.
        """
        unit = self.unit
        s, c, d = a[a.count(1)], a[-2], a[-1]
        rest = code - unit[s] - unit[c] - unit[d]
        (mine, known), (theirs, other) = [self.expand(unit[w] + unit[x], w + x, unit[y] + unit[z], y + z, rest)
                                          for w, x, y, z in ((1, s - 1, c, d), (1, c, s - 1, d))]
        return other + sum([self.value(k) for k in theirs]) - known - sum([self.value(k) for k in mine if k != code])

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

    def expand(self, p: int, base: int, q: int, q_base: int, rest: int) -> Tuple[Tuple[int, ...], int]:
        """Expand one degeneration side into (codes of its largest components, known part).

        The four distinguished twists split into pairs with codes ``p``,
        ``q`` and twist sums ``base``, ``q_base``, and the insertions of
        ``rest`` distribute over the two components. A component has ``n``
        points exactly when it takes all of ``rest``; the other one is then
        the 3-point bracket of its pair, 1 when the pair's sum is at most
        ``r - 2``, and the n-point side, with that sum as node twist, enters
        with coefficient 1. Those components come back as the tuple of their
        codes, ``()``, ``(k1,)``, ``(k2,)`` or ``(k1, k2)`` (``k1 == k2`` is
        one bracket with coefficient 2). :meth:`splits` lists the other
        terms, whose components have fewer points.
        """
        top, unit = self.r - 2, self.unit
        codes: Tuple[int, ...] = ()
        if base <= top:
            codes = (q + rest + unit[base],)
        if q_base <= top:
            codes += (p + rest + unit[q_base],)
        splits = self.shares.get((rest, base))
        if splits is None:
            splits = self.splits(rest, base)
        memo, value = self.memo, self.value
        const = 0
        for left, right, count in splits:
            lv = memo[p + left] if p + left in memo else value(p + left)
            if lv:
                const += lv * (memo[q + right] if q + right in memo else value(q + right)) * count
        return codes, const


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
    raw row (the two pairings' unknown-code tuples and the constant) met
    before is skipped at once; any other row is built and kept as an integer
    row, not normalised (see :class:`WdvvSystem`), unless it reads ``0 = 0``.
    A row with no unknown left and a nonzero constant, which only a wrong
    stored value gives, is kept, and the solver's row check refuses it. Rows
    are keyed by the codes of their unknowns until kept. Unknowns are the
    grading-valid n-point brackets with twists in ``[1, r - 2]``, keyed by
    ascending twist tuples; anything else is already known to the recursion.
    Values of smaller brackets come from the lemma's rows, memoized for the
    call. Given ``cache`` and at least one instance, every graded bracket of
    5..n-1 points with twists in ``[1, r - 2]`` is read from it instead, and
    put there from its row when missing; a stored value that does not scale
    to an integer raises ``CacheError`` naming its key.
    """
    _check_r(r)
    if n < 5:
        raise GradingError(f"the associativity solver starts at n=5, got n={n}")
    total = (n - 2) * r - 2
    unknowns = tuple(ascending_multisets(1, r - 2, n, total))
    build = _Build(r, n)
    unit = build.unit
    keys = {sum([unit[t] for t in a]): a for a in unknowns}
    instances = list(ascending_multisets(1, r - 2, n + 1, total))
    if cache is not None and instances:
        # stored values enter the memo once fill() has found the missing ones, so no row reads them
        read = {code: _genus0_scaled(key, stored, r, size) for key, code, size, stored in build.fill(n - 1, cache)}
        build.memo.update(read)
    equations: List[Tuple[Dict[Key, int], int]] = []
    met = set()
    for y in instances:
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
            pairings: Dict[int, Tuple[Tuple[int, ...], int]] = {}
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
                row = {keys[k]: v for k, v in coeffs.items() if v}
                if row or rhs:
                    equations.append((row, rhs))
    return WdvvSystem(unknowns, tuple(equations))


def solve_bracket(r: int, a: Sequence[int], cache: Optional[CacheStore] = None) -> EvalResult:
    """Evaluate a genus-0 bracket of any size, exactly.

    A bracket whose grading status is not ``"ok"`` (``sum a = (n - 2) r - 2``
    fails, or a twist is ``r - 1``) gets the shared zero result. Any other
    is read by :func:`_scaled` and divided by ``r^(n-3)``: the closed forms
    (1 at three points, ``min(a_i, r - 1 - a_i)/r`` at four), the zero-twist
    rule for five or more insertions, then the row the lemma names, with one
    memo for the call. The trace is the one rule that gave the value.
    ``cache`` is never read for an answer: given one, a bracket with no closed
    form first has every graded bracket of 5..n points with twists in
    ``[1, r - 2]`` computed bottom-up (:meth:`_Build.fill`, no recursion), each
    value the store lacks is put, a stored value that disagrees raises
    ``CacheError`` naming its key and both values, and the bracket is then
    read off the filled memo. Without a store its row recurses on demand,
    which for one cold bracket costs far less than a fill.
    """
    bracket = Genus0Bracket(r, a)
    if bracket.status != STATUS_OK:
        return _ZERO_RESULTS[bracket.status]
    n = len(bracket.a)
    build = _Build(r, n)
    if cache is not None and _genus0_closed(r, bracket.a) is None:
        build.fill_and_check(n, cache)
    scaled, rule = _scaled(r, bracket.a, build)
    return EvalResult(Fraction(scaled, r ** (n - 3)), STATUS_OK, (rule,))


def bracket_window_sum(r: int, m: int, x: Sequence[int], cache: Optional[CacheStore] = None) -> Fraction:
    """Window sum ``sum_{a+b=m} <a, b, x...>`` over the pairs with ``0 <= a, b <= r - 1``.

    The quantity :func:`loop_sum` models, summed without its formula, so
    comparing the two checks it; :func:`rspin.lg.window_sum` sums it by the
    independent route, with the same argument checks and errors. Each graded
    bracket is read by :func:`_scaled`, all on one memo. ``cache`` is never
    read for an answer: when some bracket has no closed form, the store is
    filled and checked once for the window, first, as :func:`solve_bracket`
    does for one bracket, and the window is then read off the filled memo.
    """
    xs = _check_window(r, m, x)
    if m > 2 * r - 2:
        return Fraction(0)
    if not xs:
        raise StructureError("a genus-0 bracket needs >= 3 insertions, got 2")
    n = len(xs) + 2
    if r - 1 in xs or m + sum(xs) != (n - 2) * r - 2:
        return Fraction(0)
    build = _Build(r, n)
    # a pair holding a twist r - 1 vanishes
    brackets = [tuple(sorted((a, m - a) + xs)) for a in range(max(0, m - (r - 2)), min(r - 2, m) + 1)]
    if cache is not None and not all([_genus0_closed(r, a) for a in brackets]):
        build.fill_and_check(n, cache)
    return Fraction(sum([_scaled(r, a, build)[0] for a in brackets]), r ** (n - 3))
