"""Shared exact-arithmetic layer: canonical bracket keys and grading rules.

Everything downstream (the genus-0 evaluators, the genus-1 bracket solvers,
the verification suites, the cache, the CLI) works in terms of the two key
types defined here and the handful of arithmetic predicates that decide
whether a bracket can be nonzero at all:

* ``Genus0Bracket``: a genus-0 correlator key ``(r; a_1..a_n)``, twists
  ``a_i`` in ``[0, r-1]``, symmetric in its insertions. Canonical form sorts
  the twists ascending.
* ``DR1Bracket``: a genus-1 double-ramification bracket key
  ``(r; (k_1, a_1)..(k_n, a_n))`` with balanced integer orders
  (``sum k_i = 0``, not all zero). The value is invariant under permuting
  the pairs and under negating every ``k_i`` at once, so the canonical form
  fixes both an entry order and a sign orientation.

Both classes check their own rows and are born with their grading
``status``, from one rule per genus (``_genus0_status``, ``_dr1_status``):
the evaluators read it, and the selection predicates answer by those rules.
The product formula behind the genus-0 window sum, B and the genus-1
closed form (``_product``) and the genus-1 sign flip (``_flip``) live here.

Values are plain ``fractions.Fraction`` throughout; no floating point is
used anywhere in the package.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction
from math import factorial
from typing import Iterable, Optional, Sequence, Tuple

__all__ = [
    "GradingError",
    "StructureError",
    "ReductionStalledError",
    "InconsistentSystemError",
    "CacheError",
    "STATUS_OK",
    "STATUS_DIMENSION_ZERO",
    "STATUS_VANISHING_ZERO",
    "EvalResult",
    "Genus0Bracket",
    "DR1Bracket",
    "genus0_key",
    "genus_of",
    "genus0_selection",
    "dr1_selection",
    "format_rational",
    "parse_rational",
    "parse_key",
    "KeyCheck",
]

class GradingError(ValueError):
    """A twist is out of range or a dimension precondition cannot hold."""


class StructureError(ValueError):
    """A key is structurally invalid (unbalanced orders, too few entries)."""


class ReductionStalledError(RuntimeError):
    """The relational solver stopped: a key revisited in its own reduction, or a row past the reach limit."""


class InconsistentSystemError(ValueError):
    """A linear system's rows contradict each other; in genus 0, a smaller value it read is wrong."""


class CacheError(ValueError):
    """A cache file, key or value violates the store contract.

    A genus-0 value ``<a>`` read from a store must make ``r^(n-3) * <a>`` an
    integer, as :mod:`rspin.genus0` proves every true value does.
    """


STATUS_OK = "ok"
STATUS_DIMENSION_ZERO = "dimension-mismatch-zero"
STATUS_VANISHING_ZERO = "vanishing-axiom-zero"

# The rspin.verify suites, named here so that the CLI can offer them
# without running that module.
SUITES = ("loop", "relations", "oracle", "axioms")

# Exactly the spellings format_rational writes, up to the gcd check: ASCII
# digits, no leading zeros, no "-0", a positive denominator.
_VALUE_RE = re.compile(r"\A(0|-?[1-9][0-9]*)/([1-9][0-9]*)\Z")


def _check_r(r: int) -> int:
    if not isinstance(r, int) or isinstance(r, bool) or r < 2:
        raise GradingError(f"r must be an integer >= 2, got {r!r}")
    return r


def _check_twists(r: int, a: Iterable[int]) -> Tuple[int, ...]:
    """Validate twists against [0, r-1] and return them as a tuple."""
    out = []
    for x in a:
        if not isinstance(x, int) or isinstance(x, bool):
            raise GradingError(f"twist {x!r} is not an integer")
        if not 0 <= x <= r - 1:
            raise GradingError(f"twist {x} out of range [0, {r - 1}] for r={r}")
        out.append(x)
    return tuple(out)


def _check_window(r: int, m: int, x: Iterable[int]) -> Tuple[int, ...]:
    """Validate a window sum's ``r``, bound ``m`` and fixed twists ``x``; return ``x`` as a tuple."""
    _check_r(r)
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise GradingError(f"window sum bound m={m!r} must be a non-negative integer")
    return _check_twists(r, x)


class _Record:
    """Base of the value classes: a value is the tuple of its ``_fields``.

    Each subclass names, in constructor order, the two or more slots that
    make up its value. Instances compare equal when they are of the same
    class with equal fields (any other operand gets ``NotImplemented``),
    ``repr`` lists the fields by name, and pickling and copying call the
    constructor on them. All three read the fields through one
    ``operator.attrgetter`` per class, which ``__init_subclass__`` builds
    with the ``repr`` format. Defining ``__eq__`` alone leaves a record
    unhashable, as a mutable one must be.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" in cls.__dict__:
            cls._values = operator.attrgetter(*cls._fields)
            cls._repr = f"{cls.__name__}({', '.join(name + '=%r' for name in cls._fields)})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __repr__(self):
        return self._repr % self._values(self)

    def __reduce__(self):
        return (self.__class__, self._values(self))


class _Frozen(_Record):
    """A record whose every attribute is set once, at birth, and that hashes.

    Constructors set their slots through ``object.__setattr__`` (or the
    slot descriptors); assignment and deletion afterwards raise
    ``AttributeError``. The hash is that of the field tuple, so a record
    holding a dict refuses to hash.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values(self))


@functools.total_ordering
class _Ordered(_Frozen):
    """A frozen record ordered by its field tuple, against its own class only."""

    __slots__ = ()

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) < other._values(other)


def _exact(value) -> Fraction:
    """An ``int`` (not ``bool``) or a ``Fraction`` as a plain ``Fraction``; a float raises ``TypeError``."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"an exact value must be an int or a Fraction, got {type(value).__name__}")
    return Fraction(value)


class EvalResult(_Frozen):
    """An exact bracket value together with the rule that produced it.

    ``status`` is ``"ok"`` for a genuine evaluation (which may still be 0,
    e.g. a four-point bracket whose minimum twist distance vanishes),
    ``"dimension-mismatch-zero"`` when the grading rules out a nonzero
    pairing, and ``"vanishing-axiom-zero"`` when a twist equals ``r - 1``.
    A non-``ok`` status forces value 0. ``trace`` lists the rules applied,
    outermost first. ``value`` is kept as a ``Fraction``; one that is not an
    ``int`` (not ``bool``) or a ``Fraction`` raises ``TypeError``.
    """

    __slots__ = _fields = ("value", "status", "trace")

    def __init__(self, value: Fraction, status: str = STATUS_OK, trace: Tuple[str, ...] = ()):
        if type(value) is not Fraction:
            value = _exact(value)
        if status not in (STATUS_OK, STATUS_DIMENSION_ZERO, STATUS_VANISHING_ZERO):
            raise ValueError(f"unknown status {status!r}")
        if status != STATUS_OK and value != 0:
            raise ValueError(f"status {status} requires value 0, got {value}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "trace", trace)


# The answer of every evaluator for a bracket whose status is not "ok";
# EvalResult is frozen, so one instance per status is shared by every call.
_ZERO_RESULTS = {
    STATUS_DIMENSION_ZERO: EvalResult(Fraction(0), STATUS_DIMENSION_ZERO, ("selection",)),
    STATUS_VANISHING_ZERO: EvalResult(Fraction(0), STATUS_VANISHING_ZERO, ("vanishing-axiom",)),
}


def genus_of(r: int, insertions: Sequence[Tuple[int, int]]) -> Optional[int]:
    """Genus pinned down by a list of ``(psi_power, twist)`` insertions.

    The grading of the integrand fixes the genus through the linear equation
    ``(r+1)(2g-2+n) = sum(r*d_i + a_i + 1)``. Returns the unique integer
    solution ``g >= 0``, or ``None`` when no such integer exists.

    >>> genus_of(2, [(1, 0)])
    1
    >>> genus_of(5, [(0, 1), (0, 1), (0, 1)])
    0
    >>> genus_of(3, [(0, 0), (0, 0), (0, 0)]) is None
    True
    """
    _check_r(r)
    n = len(insertions)
    total = 0
    for d, a in insertions:
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise GradingError(f"psi power {d!r} must be a non-negative integer")
        _check_twists(r, (a,))
        total += r * d + a + 1
    if total % (r + 1) != 0:
        return None
    t = total // (r + 1)  # equals 2g - 2 + n
    if (t + 2 - n) % 2 != 0:
        return None
    g = (t + 2 - n) // 2
    return g if g >= 0 else None


def genus0_selection(r: int, a: Sequence[int]) -> bool:
    """True iff the twists satisfy the genus-0 grading ``sum a = (n-2)r - 2``."""
    return _genus0_status(r, _check_twists(_check_r(r), a)) != STATUS_DIMENSION_ZERO


def dr1_selection(r: int, a: Sequence[int]) -> bool:
    """True iff the twists satisfy the genus-1 grading ``sum a = (n-1)r``."""
    return _dr1_status(r, _check_twists(_check_r(r), a)) != STATUS_DIMENSION_ZERO


def _genus0_status(r: int, a: Sequence[int]) -> str:
    """:func:`_dr1_status` under the genus-0 grading ``sum a = (n-2)r - 2``."""
    if sum(a) != (len(a) - 2) * r - 2:
        return STATUS_DIMENSION_ZERO
    return STATUS_VANISHING_ZERO if r - 1 in a else STATUS_OK


def _genus0_closed(r: int, a: Sequence[int]) -> Optional[Tuple[int, str]]:
    """``(r^(n-3) * <a>, rule)`` by a closed form, or ``None`` when no closed form applies.

    ``a`` is ascending with status ``ok``, so its twists lie in ``[0, r - 2]``:
    1 at three points, the least twist or reflection ``min(a_0, r - 1 - a_3)``
    at four, and 0 for a twist 0 past four. The one place these are written.
    """
    size = len(a)
    if size == 3:
        return 1, "three-point"
    if size == 4:
        return min(a[0], r - 1 - a[3]), "four-point"
    if a[0] == 0:
        return 0, "zero-entry"
    return None


def _dr1_status(r: int, a: Sequence[int]) -> str:
    """The status every genus-1 evaluator reports for a twist row checked against [0, r-1].

    ``"dimension-mismatch-zero"`` unless ``sum a = (n-1)r``, else
    ``"vanishing-axiom-zero"`` when a twist equals ``r - 1``, else ``"ok"``.

    >>> _dr1_status(4, (2, 2)), _dr1_status(4, (3, 1)), _dr1_status(4, (2, 1))
    ('ok', 'vanishing-axiom-zero', 'dimension-mismatch-zero')
    """
    if sum(a) != (len(a) - 1) * r:
        return STATUS_DIMENSION_ZERO
    return STATUS_VANISHING_ZERO if r - 1 in a else STATUS_OK


def _product(r: int, a: Sequence[int], num: int, den: int) -> Fraction:
    """``num * (n-1)! * prod(r - 1 - a_i) / (den * r^(n-1))`` over the n twists ``a``.

    The one product formula of the package. ``rspin.genus0.loop_sum`` takes
    it with ``num = den = 1``, B (``rspin.dr1``) with ``den = 24``, and the
    genus-1 closed form with ``num = sum(k_i^2) - 2`` and ``den = 48``. A
    twist ``r - 1`` makes it 0. No checks: callers pass checked rows.
    """
    prod = num * factorial(len(a) - 1)
    for ai in a:
        prod *= r - 1 - ai
    return Fraction(prod, den * r ** (len(a) - 1))


class Genus0Bracket(_Ordered):
    """Canonical key of a genus-0 correlator: ``r`` and ascending twists.

    ``status`` is the grading status of the twists (:func:`_genus0_status`),
    fixed at birth, so the evaluators answer a zero bracket with one
    attribute read. Equality, hashing, ordering, ``repr`` and pickling use
    ``(r, a)`` only; the constructor derives ``status`` again on unpickling.
    """

    __slots__ = ("r", "a", "status")
    _fields = ("r", "a")

    def __init__(self, r: int, a: Sequence[int]):
        _check_r(r)
        twists = _check_twists(r, a)
        if len(twists) < 3:
            raise StructureError(f"a genus-0 bracket needs >= 3 insertions, got {len(twists)}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "a", tuple(sorted(twists)))
        object.__setattr__(self, "status", _genus0_status(r, twists))

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def key(self) -> str:
        return genus0_key(self.r, self.a)


def genus0_key(r: int, a: Sequence[int]) -> str:
    """Canonical key string of the genus-0 bracket with ascending twists ``a``.

    No validation: callers that already hold checked, sorted twists (the
    associativity engine) build cache keys without constructing a bracket.
    """
    return f"g0:r={r}:a={','.join(map(str, a))}"


def _sorted_dr1_entries(entries: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Order pairs: positive k descending, zeros, negative |k| ascending; twist ties ascending.

    That is the order of the keys ``(-k, a)``, so the negated pairs are
    sorted as plain tuples and negated back, with no key function. Equal
    keys mean equal pairs, so the sort's stability cannot show.
    """
    return tuple([(-k, a) for k, a in sorted([(-k, a) for k, a in entries])])


def _flip(pairs: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """The pairs with every order negated, sorted as in :func:`_sorted_dr1_entries` but not re-oriented.

    The key of a flipped pair ``(-k, a)`` is the pair ``(k, a)`` itself, so
    this is the pairs in plain tuple order, each order negated.
    """
    return tuple([(-k, a) for k, a in sorted(pairs)])


def _orient(pairs: Sequence[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """Sort the pairs and fix the overall sign of their orders canonically.

    The orientation whose positive magnitude profile is lexicographically
    larger wins; when both profiles agree, the smaller sorted row does.
    """
    cand = _sorted_dr1_entries(pairs)
    flip = _flip(pairs)
    cand_profile = tuple(k for k, _ in cand if k > 0)
    flip_profile = tuple(k for k, _ in flip if k > 0)
    if flip_profile != cand_profile:
        return flip if flip_profile > cand_profile else cand
    return min(cand, flip)


def _dr1_key(r: int, entries: Sequence[Tuple[int, int]]) -> str:
    """Key string of the genus-1 bracket whose canonical entry row is ``entries``."""
    return (f"dr1:r={r}:k={','.join([str(k) for k, _ in entries])}"
            f":a={','.join([str(a) for _, a in entries])}")


class DR1Bracket(_Ordered):
    """Canonical key of a genus-1 double-ramification bracket.

    ``entries`` holds the ``(k_i, a_i)`` pairs. Construction canonicalizes:
    the pairs are sorted (positive orders descending, then the zero-order
    entries, then negative orders by ascending magnitude, twist breaking
    ties), and the overall sign of the ``k_i`` row is flipped, if necessary,
    so the lexicographically larger magnitude profile sits on the positive
    side. Two inputs describing the same bracket therefore always compare
    and hash equal.

    ``status`` is the grading status of the twist row (:func:`_dr1_status`),
    fixed at birth, so the evaluators answer a zero bracket with one
    attribute read. The twists never change once checked, so the status is
    derived where they already are: this constructor takes it from the pairs
    it has just validated; ``rspin.dr1``'s window enumerators check each
    twist multiset once and hand its status to every row over it; and rows
    rebuilt from a bracket's own pairs (relation terms, rewriting children)
    keep the same multiset and so take the status they are given. Equality,
    hashing, ordering and ``repr`` use ``(r, entries)`` only, not ``status``.
    """

    __slots__ = ("r", "entries", "status")
    _fields = ("r", "entries")

    def __init__(self, r: int, entries: Sequence[Tuple[int, int]]):
        _check_r(r)
        pairs = []
        for item in entries:
            k, a = item
            if not isinstance(k, int) or isinstance(k, bool):
                raise StructureError(f"order {k!r} is not an integer")
            if type(a) is not int or not 0 <= a < r:
                _check_twists(r, (a,))  # raises unless a is an in-range int subclass
            pairs.append((k, a))
        if sum(k for k, _ in pairs) != 0:
            raise StructureError(f"orders must balance to 0, got sum {sum(k for k, _ in pairs)}")
        if all(k == 0 for k, _ in pairs):
            raise StructureError("at least one order must be nonzero")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "entries", _orient(pairs))
        object.__setattr__(self, "status", _dr1_status(r, [a for _, a in pairs]))

    @classmethod
    def _from_canonical(cls, r: int, entries: Tuple[Tuple[int, int], ...], status: str) -> "DR1Bracket":
        """Wrap an entry row that is already checked, sorted and oriented.

        No validation: only generators that emit canonical rows by
        construction (the window enumerators in ``dr1``) call this, with the
        status of the row's twist multiset.
        """
        self = object.__new__(cls)
        _set_dr1_r(self, r)
        _set_dr1_entries(self, entries)
        _set_dr1_status(self, status)
        return self

    @classmethod
    def _canonical(cls, r: int, pairs: Sequence[Tuple[int, int]], status: str) -> "DR1Bracket":
        """Sort and orient checked pairs whose twist multiset has ``status``."""
        return cls._from_canonical(r, _orient(pairs), status)

    def __reduce__(self):
        # status is not a field: pickling and copying hand it on here
        return (type(self)._from_canonical, (self.r, self.entries, self.status))

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def k_row(self) -> Tuple[int, ...]:
        return tuple(k for k, _ in self.entries)

    @property
    def a_row(self) -> Tuple[int, ...]:
        return tuple(a for _, a in self.entries)

    @property
    def key(self) -> str:
        return _dr1_key(self.r, self.entries)


# _from_canonical sets a bracket's slots through their descriptors: past
# _Frozen.__setattr__, and cheaper than object.__setattr__.
_set_dr1_r, _set_dr1_entries, _set_dr1_status = (DR1Bracket.r.__set__, DR1Bracket.entries.__set__,
                                                 DR1Bracket.status.__set__)


def ascending_multisets(lo: int, hi: int, count: int, total: int):
    """Yield every ascending ``count``-tuple over [lo, hi] with the given sum.

    The window enumerators, the genus-0 store fill and the associativity
    generator all iterate over twist multisets under a sum constraint;
    emitting them in ascending-tuple (lexicographic) order makes every
    enumeration deterministic. One list is stepped in place, with no
    recursion: each place from ``i`` on takes the least twist that leaves
    the places after it a sum they can still reach, at least its left
    neighbour and at most ``hi`` each, and the next tuple raises the last
    place that can take one more and fills the places after it so again.

    >>> list(ascending_multisets(1, 3, 3, 6))
    [(1, 2, 3), (2, 2, 2)]
    """
    if count == 0:
        if total == 0:
            yield ()
        return
    if lo > hi or not lo * count <= total <= hi * count:
        return
    a = [0] * count
    start, low, left = 0, lo, total
    while True:
        for i in range(start, count):
            # the places after i take at most hi each, so place i takes at least left - hi * (count - 1 - i)
            low = a[i] = max(low, left - hi * (count - 1 - i))
            left -= low
        yield tuple(a)
        # left = the sum of a[i + 1:]; place i can take one more when the places after it can each still hold it
        left = a[-1]
        for i in range(count - 2, -1, -1):
            low = a[i] + 1
            if low * (count - 1 - i) < left:
                a[i], left, start = low, left - 1, i + 1
                break
            left += a[i]
        else:
            return


def format_rational(value: Fraction) -> str:
    """Serialize an ``int`` or a ``Fraction`` (else ``TypeError``) as ``"<num>/<den>"``."""
    if type(value) is not Fraction:
        value = _exact(value)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse the ``"<num>/<den>"`` serialization back into an exact value.

    Only the spelling :func:`format_rational` writes is accepted: a reduced
    fraction in ASCII digits with a positive denominator, no leading zeros
    and no ``-0``. Anything else raises ``CacheError`` naming the text.
    """
    m = _VALUE_RE.match(text)
    if not m:
        raise CacheError(
            f"malformed rational {text!r} (expected '<num>/<den>' in ASCII digits, "
            "den > 0, no leading zeros)"
        )
    num, den = int(m.group(1)), int(m.group(2))
    value = Fraction(num, den)
    if value.denominator != den:
        raise CacheError(
            f"unreduced rational {text!r} (canonical form is {format_rational(value)!r})"
        )
    return value


def _parse_int_list(text: str, what: str) -> Tuple[int, ...]:
    if text == "":
        raise StructureError(f"empty {what} list")
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise StructureError(f"malformed {what} list {text!r}") from exc


def parse_key(key: str):
    """Parse a canonical key string back into its bracket object.

    Accepts the two formats emitted by :attr:`Genus0Bracket.key` and
    :attr:`DR1Bracket.key`. The returned bracket is re-canonicalized, so
    ``parse_key(k).key == k`` holds exactly when ``k`` was canonical.
    """
    parts = key.split(":")
    try:
        if parts[0] == "g0" and len(parts) == 3:
            r = int(_expect_field(parts[1], "r"))
            a = _parse_int_list(_expect_field(parts[2], "a"), "twist")
            return Genus0Bracket(r, a)
        if parts[0] == "dr1" and len(parts) == 4:
            r = int(_expect_field(parts[1], "r"))
            k = _parse_int_list(_expect_field(parts[2], "k"), "order")
            a = _parse_int_list(_expect_field(parts[3], "a"), "twist")
            if len(k) != len(a):
                raise StructureError(f"order/twist length mismatch in {key!r}")
            return DR1Bracket(r, tuple(zip(k, a)))
    except (GradingError, StructureError):
        raise
    except ValueError as exc:
        raise StructureError(f"malformed key {key!r}") from exc
    raise StructureError(f"unrecognized key {key!r}")


# One field of a canonical key: ASCII digits, no leading zero, no "+", no "-0".
_R_FIELD = re.compile(r"r=(?:0|[1-9][0-9]*)")
_K_FIELD = re.compile(r"k=(?:0|-?[1-9][0-9]*)(?:,(?:0|-?[1-9][0-9]*))*")
_A_FIELD = re.compile(r"a=(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _field_ints(pattern: "re.Pattern[str]", text: str) -> Optional[Tuple[int, ...]]:
    """The integers of a field spelled as a canonical key spells them, else ``None``."""
    if not pattern.fullmatch(text):
        return None
    try:
        return tuple(map(int, text[2:].split(",")))
    except ValueError:  # more digits than int() converts
        return None


def _judge_r(text: str) -> Optional[int]:
    """``r`` of an ``r=`` field, or ``None`` unless it reads an integer >= 2."""
    r = _field_ints(_R_FIELD, text)
    return r[0] if r is not None and r[0] >= 2 else None


def _judge_k(text: str):
    """What a canonical ``dr1`` key needs of its ``k=`` field alone, or ``None``.

    The orders must balance, not all be zero, never increase along the row,
    and have positive profile ``P`` at least the negative profile ``Q``.
    Returns ``(n, ties, runs)``: the row length, the set of positions ``i``
    with ``k[i-1] == k[i]``, and, only when ``P == Q``, the bounds of each
    run of equal orders (else ``None``).
    """
    k = _field_ints(_K_FIELD, text)
    if k is None or sum(k) != 0 or not any(k) or any(x < y for x, y in zip(k, k[1:])):
        return None
    pos = [x for x in k if x > 0]
    neg = [-x for x in reversed(k) if x < 0]
    if neg > pos:
        return None
    ties = frozenset(i for i in range(1, len(k)) if k[i - 1] == k[i])
    runs = None
    if neg == pos:
        starts = [0] + [i for i in range(1, len(k)) if k[i - 1] != k[i]]
        runs = tuple(zip(starts, starts[1:] + [len(k)]))
    return len(k), ties, runs


def _judge_a(text: str):
    """``(twists, descents, max twist)`` of an ``a=`` field, or ``None``.

    ``descents`` is the set of positions ``i`` with ``a[i-1] > a[i]``, empty
    exactly when the twists ascend.
    """
    a = _field_ints(_A_FIELD, text)
    if a is None:
        return None
    if a == tuple(sorted(a)):  # every genus-0 key: skip the scan
        return a, frozenset(), a[-1]
    return a, frozenset(i for i in range(1, len(a)) if a[i - 1] > a[i]), max(a)


class _Verdicts(dict):
    """Field text -> its judge's verdict, each judged on first lookup."""

    __slots__ = ("judge",)

    def __init__(self, judge):
        super().__init__()
        self.judge = judge

    def __missing__(self, text):
        verdict = self[text] = self.judge(text)
        return verdict


class KeyCheck:
    """``KeyCheck()(key)`` is True iff ``parse_key(key).key == key``; no bracket is built.

    Each field is screened by a regex for the spelling a canonical key uses
    (ASCII digits, no leading zero, no ``+``, no ``-0``, no whitespace),
    then judged on its own, and its verdict is kept. A cache repeats its
    fields (many keys share one ``r=``, ``k=`` or ``a=`` field), so a key
    whose fields were all seen before costs a dict lookup per field plus
    the checks that tie its fields together: equal row lengths, twists
    below ``r``, twists ascending inside each run of equal orders, and,
    when the two sign profiles tie, runs at most their reverse (the sign
    flip hands each run the twists of its mirror run). The answer does not
    depend on the keys checked before. Each :class:`rspin.store.CacheStore`
    keeps one checker for its whole life.

    >>> check = KeyCheck()
    >>> check("dr1:r=4:k=2,-2:a=2,2"), check("dr1:r=4:k=-2,2:a=2,2")
    (True, False)
    """

    __slots__ = ("_r", "_k", "_a")

    def __init__(self):
        self._r = _Verdicts(_judge_r)
        self._k = _Verdicts(_judge_k)
        self._a = _Verdicts(_judge_a)

    def __call__(self, key: str) -> bool:
        parts = key.split(":")
        if len(parts) == 3 and parts[0] == "g0":
            r = self._r[parts[1]]
            a = self._a[parts[2]]
            if r is None or a is None:
                return False
            twists, descents, top = a
            return not descents and len(twists) >= 3 and top < r
        if len(parts) != 4 or parts[0] != "dr1":
            return False
        r = self._r[parts[1]]
        k = self._k[parts[2]]
        a = self._a[parts[3]]
        if r is None or k is None or a is None:
            return False
        n, ties, runs = k
        twists, descents, top = a
        if len(twists) != n or top >= r or not ties.isdisjoint(descents):
            return False
        if runs is None:
            return True
        row = [twists[i:j] for i, j in runs]
        return row <= row[::-1]


def _expect_field(part: str, name: str) -> str:
    prefix = name + "="
    if not part.startswith(prefix):
        raise StructureError(f"expected '{prefix}...', got {part!r}")
    return part[len(prefix):]
