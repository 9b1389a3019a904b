"""Exact sparse elimination over rationals, to reduced row echelon form.

The two bracket solvers reduce to the same linear-algebra question: given
equations ``sum coeff_j * U_j = constant`` over a fixed, ordered list of
unknowns, which unknowns are forced to a unique value? Their rows are short
(an associativity row touches a handful of the unknowns), so each row is
kept sparse, keyed by column index, and elimination is incremental: every
incoming row is reduced against the pivot rows kept so far, an inconsistent
row (``0 = c`` with ``c != 0``) raises at once, and a row that survives
becomes a pivot row on its leftmost column, which is then cleared from the
earlier pivot rows. The pivot rows always form the reduced row echelon form
of the rows seen so far, and that form is unique, so the result does not
depend on the row order and matches dense Gauss-Jordan with the columns in
the caller's order (the callers pass canonical key order). Entries
may be ``int`` or ``Fraction``; integer rows stay integer until a pivot row
with a leading coefficient other than 1 is normalised.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple, Union

Number = Union[int, Fraction]

__all__ = ["solve_exact"]


def solve_exact(
    unknowns: Sequence[Hashable],
    equations: Sequence[Tuple[Mapping[Hashable, Number], Number]],
) -> Tuple[Dict[Hashable, Fraction], List[Hashable]]:
    """Solve ``coeffs . U = constant`` rows for the determined unknowns.

    Parameters
    ----------
    unknowns:
        Ordered unknown identifiers; this order fixes the pivot order.
    equations:
        Rows ``(coeffs, constant)`` where ``coeffs`` maps unknowns to exact
        ``int`` or ``Fraction`` coefficients (missing entries are 0).

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
        If a row names an unknown outside ``unknowns``, or if the rows are
        mutually inconsistent (some combination reduces to ``0 = c`` with
        ``c != 0``).
    """
    cols = {u: j for j, u in enumerate(unknowns)}
    width = len(unknowns)
    # Pivot column -> its row; the constant sits in column ``width``.
    pivots: Dict[int, Dict[int, Number]] = {}
    for coeffs, const in equations:
        row: Dict[int, Number] = {}
        for u, c in coeffs.items():
            if u not in cols:
                raise ValueError(f"equation references undeclared unknown {u!r}")
            if c:
                row[cols[u]] = c
        if const:
            row[width] = const
        for j in [j for j in row if j in pivots]:
            factor = row.pop(j)
            for k, c in pivots[j].items():
                if k != j:
                    value = row.get(k, 0) - factor * c
                    if value:
                        row[k] = value
                    else:
                        row.pop(k, None)
        lead = min(row, default=width)
        if lead == width:
            if row:
                raise ValueError("inconsistent linear system")
            continue
        scale = row[lead]
        if scale != 1:
            row = {k: Fraction(c, scale) for k, c in row.items()}
        for prow in pivots.values():
            factor = prow.pop(lead, None)
            if factor is None:
                continue
            for k, c in row.items():
                if k != lead:
                    value = prow.get(k, 0) - factor * c
                    if value:
                        prow[k] = value
                    else:
                        prow.pop(k, None)
        pivots[lead] = row

    free_cols = set(range(width)) - pivots.keys()
    values: Dict[Hashable, Fraction] = {}
    for j in sorted(pivots):
        row = pivots[j]
        if free_cols.isdisjoint(row):
            values[unknowns[j]] = Fraction(row.get(width, 0))
    free = [unknowns[j] for j in sorted(free_cols)]
    return values, free
