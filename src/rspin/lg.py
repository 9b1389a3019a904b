"""Genus-0 brackets from the Landau-Ginzburg model of the A_{r-1} singularity.

A second route to genus-0 values, independent of the associativity (WDVV)
systems of :mod:`rspin.genus0`: it builds no equation, solves nothing and
reads no store. The genus-0 r-spin numbers are the correlators of the
Frobenius manifold of the A_{r-1} singularity (Dubrovin, hep-th/9407018;
Dijkgraaf-Verlinde-Verlinde, Nucl. Phys. B352 (1991) 59), and this module
evaluates them in its primary-field form:

* ``lambda(p) = p^r + sum_{i=0}^{r-2} u_i p^i``, written ``p^r (1 + w)``
  with ``w = sum_i u_i p^(i-r)``; every power of ``p`` in ``w`` is -2 or
  lower.
* The flat coordinate of twist ``a`` in ``[0, r - 2]`` is
  ``t_a = -(r/(r-1-a)) [p^-1] p^(r-1-a) (1 + w)^((r-1-a)/r)``, which is
  ``-u_a`` plus terms of degree two and more in ``u``.
* A bracket ``<a_1, a_2, a_3, x_1..x_k>`` is read at the point
  ``t = sum_j s_j e_(x_j)``, where the ``s_j`` are nilpotents with
  ``s_j^2 = 0``: solve ``u_a = (t_a + u_a) - t_a`` for ``u`` by iterating
  from ``u = 0``; round ``j`` makes the terms of degree ``j`` exact, so
  ``k`` rounds suffice.
* The primary fields are ``phi_a = dlambda/dt_a =
  -(1/(a+1)) d/dp [lambda^((a+1)/r)]_+``, where ``[.]_+`` keeps the powers
  ``p^0`` and higher and ``lambda^c = p^(rc) (1 + w)^c``, and
  ``1/lambda' = p^(1-r)/r * sum_j (-w')^j`` with
  ``w' = sum_i (i u_i / r) p^(i-r)``.
* The bracket is ``-r`` times the coefficient of ``s_1..s_k`` in the
  ``p^-1`` coefficient of ``phi_(a_1) phi_(a_2) phi_(a_3) / lambda'``.

A window sum ``sum_{a+b=m} <a, b, x_1..x_p>`` is linear in the pair's
product, so one evaluation serves the whole window: the sum of
``phi_a phi_b`` over the pairs takes the place of ``phi_(a_1) phi_(a_2)``,
``phi_(x_1)`` of ``phi_(a_3)``, and nilpotents go on ``x_2..x_p``. Pairs
holding a twist ``r - 1`` vanish (it has no flat coordinate) and are left
out, and a twist ``r - 1`` among the fixed ones, or a failed grading, gives 0
before any series is built.

A nilpotent element of ``Q[s_1..s_k]/(s_j^2)`` is a dict from the bitmask of
its monomial to a ``Fraction`` (or ``int``) coefficient, and a Laurent series
in ``p`` a dict from power to element. Every series is cut below the lowest
power that is read later. All arithmetic is exact and nothing is kept
between calls.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .core import (
    STATUS_OK,
    EvalResult,
    Genus0Bracket,
    StructureError,
    _ZERO_RESULTS,
    _check_window,
)

__all__ = ["bracket", "window_sum"]

Element = Dict[int, Fraction]
Series = Dict[int, Element]


def _add_into(acc: Element, x: Element, scale=1) -> None:
    """``acc += scale * x``, in place."""
    if scale == 1:
        for m, c in x.items():
            acc[m] = acc.get(m, 0) + c
    else:
        for m, c in x.items():
            acc[m] = acc.get(m, 0) + scale * c


def _series_mul(x: Series, y: Series, lo: int) -> Series:
    """The product ``x * y`` without its powers below ``p^lo``; ``s_j^2 = 0`` drops overlapping masks."""
    out: Series = {}
    for px, ex in x.items():
        for py, ey in y.items():
            if px + py >= lo:
                acc = out.setdefault(px + py, {})
                for mx, cx in ex.items():
                    for my, cy in ey.items():
                        if not mx & my:
                            m = mx | my
                            acc[m] = acc.get(m, 0) + cx * cy
    return out


def _powers(w: Series, k: int, lo: int) -> List[Series]:
    """``[w^0, w^1, .., w^k]``, each without its powers below ``p^lo``."""
    out: List[Series] = [{0: {0: 1}}]
    for _ in range(k):
        out.append(_series_mul(out[-1], w, lo))
    return out


def _binomials(c: Fraction, k: int) -> List[Fraction]:
    """``[binom(c, 0), .., binom(c, k)]`` for a rational ``c``."""
    out = [Fraction(1)]
    for j in range(1, k + 1):
        out.append(out[-1] * (c - j + 1) / j)
    return out


def _flat_weights(r: int, k: int) -> List[List[Fraction]]:
    """``-(1/c) binom(c, j)`` for ``j = 0..k``, per twist ``a``, with ``c = (r-1-a)/r``.

    ``t_a`` is the sum of these times ``[p^(a-r)] w^j``.
    """
    return [[-b / c for b in _binomials(c, k)] for c in (Fraction(r - 1 - a, r) for a in range(r - 1))]


def _solve_u(r: int, rest: Sequence[int]) -> Dict[int, Element]:
    """The coefficients ``u_i`` of lambda at the point ``sum_j s_j e_(rest[j])``, as ``{i: u_i}``.

    Each round sets ``u_a = (t_a + u_a) - t_a``, where ``t_a + u_a`` is the
    ``j >= 2`` part of the sum :func:`_flat_weights` describes; ``w^j`` is
    read at powers ``-r`` and higher only.
    """
    k = len(rest)
    t: Dict[int, Element] = {}
    for j, x in enumerate(rest):
        t.setdefault(x, {})[1 << j] = 1
    weights = _flat_weights(r, k)
    u: Dict[int, Element] = {}
    for _ in range(k):
        wp = _powers({i - r: e for i, e in u.items()}, k, -r)
        new: Dict[int, Element] = {}
        for a, weight in enumerate(weights):
            value: Element = {}
            for j in range(2, k + 1):
                e = wp[j].get(a - r)
                if e:
                    _add_into(value, e, weight[j])
            for m, c in t.get(a, {}).items():
                value[m] = value.get(m, 0) - c
            if value:
                new[a] = value
        u = new
    return u


def _phi(r: int, a: int, wp: List[Series]) -> Series:
    """``phi_a = -(1/(a+1)) d/dp [p^(a+1) (1 + w)^((a+1)/r)]_+`` from the powers of w.

    The term ``p^(a+1+q)`` of ``w^j`` at power ``q >= -a`` gives
    ``-((a+1+q)/(a+1)) binom((a+1)/r, j)`` times itself at ``p^(a+q)``; at
    ``q = -(a+1)`` it is a constant, which the derivative kills.
    """
    binomials = _binomials(Fraction(a + 1, r), len(wp) - 1)
    phi: Series = {}
    for j, wj in enumerate(wp):
        for q, e in wj.items():
            if q >= -a:
                _add_into(phi.setdefault(a + q, {}), e, -binomials[j] * Fraction(a + 1 + q, a + 1))
    return phi


def _evaluate(r: int, pairs: Sequence[Tuple[int, int, int]], head: int, rest: Sequence[int]) -> Fraction:
    """``sum count * <a, b, head, rest..>`` over ``pairs`` of ``(a, b, count)``, twists in ``[0, r - 2]``.

    Each bracket of the sum is graded. Only powers ``p^(r-2)`` and higher of
    the product of the primary fields meet ``1/lambda'``'s ``p^(1-r)`` times
    powers ``p^0`` and lower at ``p^-1``, so the product is cut there, and
    only the coefficient of the full mask ``s_1..s_k`` is read.
    """
    k = len(rest)
    u = _solve_u(r, rest)
    wp = _powers({i - r: e for i, e in u.items()}, k, -r)
    phi = {a: _phi(r, a, wp) for a in {head}.union(*((a, b) for a, b, _ in pairs))}
    summed: Series = {}
    for a, b, count in pairs:
        for power, e in _series_mul(phi[a], phi[b], r - 2 - head).items():
            _add_into(summed.setdefault(power, {}), e, count)
    product = _series_mul(summed, phi[head], r - 2)
    # sum_j (-w')^j at the powers that product's top term can reach
    low = r - 2 - max(product)
    neg_dw = {i - r: {m: Fraction(-i, r) * c for m, c in e.items()} for i, e in u.items() if i}
    inverse: Series = {}
    for series in _powers(neg_dw, k, low):
        for power, e in series.items():
            _add_into(inverse.setdefault(power, {}), e)
    full = (1 << k) - 1
    total = Fraction(0)
    for power, e in product.items():
        other = inverse.get(r - 2 - power)
        if other:
            for m, c in e.items():
                d = other.get(full ^ m)
                if d:
                    total += c * d
    return -total


def bracket(r: int, a: Sequence[int]) -> EvalResult:
    """Evaluate the genus-0 bracket ``<a_1..a_n>`` by the Landau-Ginzburg route.

    Raises as :class:`rspin.core.Genus0Bracket` does on a bad ``r`` or twist
    or fewer than three insertions. A bracket whose status is not ``ok``
    (a failed grading or a twist ``r - 1``) gives the shared zero result
    that :func:`rspin.genus0.solve_bracket` gives; any other bracket is
    ``ok`` with the trace ``("lg",)``.
    """
    br = Genus0Bracket(r, a)
    if br.status != STATUS_OK:
        return _ZERO_RESULTS[br.status]
    # Nilpotents on the smallest twists keep the series shortest.
    *rest, a3, a2, a1 = br.a
    return EvalResult(_evaluate(r, ((a1, a2, 1),), a3, rest), STATUS_OK, ("lg",))


def window_sum(r: int, m: int, x: Sequence[int]) -> Fraction:
    """The window sum ``sum_{a+b=m} <a, b, x_1..x_p>`` over ``0 <= a, b <= r - 1``, in one pass.

    The same quantity as :func:`rspin.genus0.bracket_window_sum`, with the
    same argument checks and errors: a window with pairs to sum and no fixed
    twist raises :class:`rspin.core.StructureError`, as its brackets would.
    """
    xs = _check_window(r, m, x)
    if m > 2 * r - 2:
        return Fraction(0)
    if not xs:
        raise StructureError("a genus-0 bracket needs >= 3 insertions, got 2")
    # past m = 2r - 4 every pair holds a twist r - 1
    if r - 1 in xs or m + sum(xs) != len(xs) * r - 2 or m > 2 * r - 4:
        return Fraction(0)
    # phi_a phi_b = phi_b phi_a: each unordered pair once, counted twice if a < b
    pairs = [(a, m - a, 1 if 2 * a == m else 2) for a in range(max(0, m - (r - 2)), m // 2 + 1)]
    return _evaluate(r, pairs, xs[0], xs[1:])
