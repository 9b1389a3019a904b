"""Exact sparse elimination over integer rows, to reduced row echelon form.

The genus-0 solver asks one linear-algebra question: given equations
``sum coeff_j * U_j = constant`` with integer coefficients over a fixed,
ordered list of unknowns, which unknowns are forced to a unique rational
value? Its rows are short (an associativity row touches a handful of the
unknowns), so each row is kept sparse, keyed by column index, and
elimination is incremental: every incoming row is reduced against the
pivot rows kept so far, an inconsistent row (``0 = c`` with ``c != 0``)
raises at once, and a row that survives becomes a pivot row on its
leftmost column, which is then cleared from the earlier pivot rows. The
pivot rows always form the reduced row echelon form of the rows seen so
far, each row scaled by a nonzero factor, and that form is unique, so the
result does not depend on the row order and matches dense Gauss-Jordan
with the columns in the caller's order (the caller passes canonical key
order).

Elimination is fraction-free. Entries are ``int``, and every kept row is a
primitive integer row: integer entries with greatest common divisor 1 and
a positive leading coefficient. Clearing column ``j`` of a row with entry
``b`` against a pivot row with lead ``a`` replaces the row by
``a * row - b * pivot`` (both factors first divided by ``gcd(a, b)``). A
new pivot row, and each earlier pivot row it clears, is then made
primitive again. Each pivot row is therefore the reduced row of the
echelon form times its lead, and the only ``Fraction`` built is
``constant / lead`` for each determined unknown at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from .core import InconsistentSystemError

__all__ = ["solve_exact"]


def solve_exact(
    unknowns: Sequence[Hashable],
    equations: Sequence[Tuple[Mapping[Hashable, int], int]],
) -> Tuple[Dict[Hashable, Fraction], List[Hashable]]:
    """Solve ``coeffs . U = constant`` rows for the determined unknowns.

    Parameters
    ----------
    unknowns:
        Ordered unknown identifiers; this order fixes the pivot order.
    equations:
        Rows ``(coeffs, constant)`` where ``coeffs`` maps unknowns to
        ``int`` coefficients (missing entries are 0) and ``constant`` is an
        ``int``.

    Returns
    -------
    (values, free):
        ``values`` maps every determined unknown to its unique value, always
        a ``Fraction``;
        ``free`` lists the unknowns the system does not pin down, in input
        order. An unknown is determined exactly when it is a pivot column
        whose reduced row involves no free column.

    Raises
    ------
    ValueError
        If a row names an unknown outside ``unknowns``.
    rspin.core.InconsistentSystemError
        If the rows are mutually inconsistent (some combination reduces to
        ``0 = c`` with ``c != 0``).
    TypeError
        If a nonzero coefficient is not an ``int`` (``math.gcd`` refuses it).
    """
    cols = {u: j for j, u in enumerate(unknowns)}
    width = len(unknowns)
    # Pivot column -> its primitive row; the constant sits in column ``width``.
    pivots: Dict[int, Dict[int, int]] = {}
    for coeffs, const in equations:
        row: Dict[int, int] = {}
        for u, c in coeffs.items():
            if u not in cols:
                raise ValueError(f"equation references undeclared unknown {u!r}")
            if c:
                row[cols[u]] = c
        if const:
            row[width] = const
        for j in [j for j in row if j in pivots]:
            _clear(row, j, pivots[j])
        lead = min(row, default=width)
        if lead == width:
            if row:
                raise InconsistentSystemError("inconsistent linear system")
            continue
        _make_primitive(row)
        for prow in pivots.values():
            if lead in prow:
                _clear(prow, lead, row)
                _make_primitive(prow)
        pivots[lead] = row

    free_cols = set(range(width)) - pivots.keys()
    values: Dict[Hashable, Fraction] = {}
    for j in sorted(pivots):
        row = pivots[j]
        if free_cols.isdisjoint(row):
            values[unknowns[j]] = Fraction(row.get(width, 0), row[j])
    free = [unknowns[j] for j in sorted(free_cols)]
    return values, free


def _clear(row: Dict[int, int], j: int, pivot: Dict[int, int]) -> None:
    """Clear column ``j`` of ``row`` in place: ``row <- a*row - b*pivot``.

    ``a`` is the pivot row's entry at ``j`` (positive) and ``b`` the row's,
    both first divided by their gcd. The row becomes a positive multiple of
    itself minus a multiple of ``pivot``.
    """
    b = row.pop(j)
    a = pivot[j]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, c in pivot.items():
        if k != j:
            value = row.get(k, 0) - b * c
            if value:
                row[k] = value
            else:
                row.pop(k, None)


def _make_primitive(row: Dict[int, int]) -> None:
    """Divide ``row`` in place by the gcd of its entries, signed so its lead is positive."""
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g
