"""Exact solving of unit-triangular integer rows, by substitution.

The genus-0 systems are unit-triangular (the lemma of :mod:`rspin.genus0`):
each unknown is the last nonzero column, with coefficient ``+-1``, of some
row. Each unknown takes the first such row, in input order, as its lead
row, and the lead rows give the values in column order by integer
substitution. They pin exactly one point, so the rows are consistent
exactly when that point satisfies every row, and one check of every row
settles it: the values and the verdict are those of echelon reduction.
``free``, always empty, stays in the result for callers that unpack it.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from .core import InconsistentSystemError

__all__ = ["solve_exact"]


def solve_exact(
    unknowns: Sequence[Hashable],
    equations: Sequence[Tuple[Mapping[Hashable, int], int]],
) -> Tuple[Dict[Hashable, int], List[Hashable]]:
    """Solve ``(coeffs, constant)`` rows, ``sum coeffs[u] * u = constant``, in ``int``.

    ``coeffs`` maps some of the ordered ``unknowns`` to coefficients
    (missing ones are 0). Returns ``(values, [])``: every unknown's ``int``
    value, in input order. A coefficient or a constant that is not an
    ``int`` raises ``TypeError``; a row naming an undeclared unknown, or an
    unknown that leads no row, ``ValueError``; a row that fails at the
    values the lead rows give, :class:`rspin.core.InconsistentSystemError`.
    """
    cols = {u: j for j, u in enumerate(unknowns)}
    leads: Dict[int, Tuple[Mapping[Hashable, int], int, int]] = {}
    for coeffs, const in equations:
        last, lead = -1, 0
        for u, c in coeffs.items():
            j = cols.get(u)
            if j is None:
                raise ValueError(f"equation references undeclared unknown {u!r}")
            if type(c) is not int:
                raise TypeError(f"coefficient of {u!r} must be an int, got {type(c).__name__}")
            if c and j > last:
                last, lead = j, c
        if type(const) is not int:
            raise TypeError(f"constant must be an int, got {type(const).__name__}")
        if lead in (1, -1) and last not in leads:
            leads[last] = (coeffs, const, lead)

    # Unknowns not yet solved read 0, so a lead row's sum leaves out its own column.
    values = dict.fromkeys(unknowns, 0)
    for j, u in enumerate(unknowns):
        if j not in leads:
            raise ValueError(f"unknown {u!r} leads no row with coefficient 1 or -1")
        coeffs, const, sign = leads[j]
        values[u] = sign * (const - sum([c * values[k] for k, c in coeffs.items()]))
    for coeffs, const in equations:
        if sum([c * values[k] for k, c in coeffs.items()]) != const:
            raise InconsistentSystemError("inconsistent linear system")
    return values, []
