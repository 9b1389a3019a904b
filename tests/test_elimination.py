"""Exact linear solving of integer rows in rspin.elimination."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rspin.elimination import solve_exact


def test_fully_determined_system():
    # x leads the first row and y the second; the third row only checks
    values, free = solve_exact(
        ["x", "y"],
        [({"x": 1}, 2), ({"x": 2, "y": -1}, 3), ({"x": 2, "y": 1}, 5)],
    )
    assert free == []
    assert values == {"x": 2, "y": 1}
    assert all(type(v) is int for v in values.values())


@pytest.mark.parametrize(
    "unknowns,equations,name",
    [
        (["x"], [], "x"),
        # y is the last column of no row, z leads the second
        (["x", "y", "z"], [({"x": 1}, 3), ({"y": 1, "z": 1}, 1)], "y"),
        # x is the last column of a row only with coefficient 2
        (["x"], [({"x": 2}, 4)], "x"),
    ],
    ids=["empty", "partial", "non-unit"],
)
def test_an_unknown_that_leads_no_unit_row_raises(unknowns, equations, name):
    with pytest.raises(ValueError, match=f"^unknown '{name}' leads no row with coefficient 1 or -1$"):
        solve_exact(unknowns, equations)


def test_redundant_rows_are_harmless():
    values, free = solve_exact(
        ["x"],
        [({"x": 2}, 4), ({"x": 3}, 6), ({"x": 1}, 2)],
    )
    assert values == {"x": 2}
    assert free == []


def test_inconsistent_system_raises():
    with pytest.raises(ValueError, match="inconsistent"):
        solve_exact(["x"], [({"x": 1}, 1), ({"x": 1}, 2)])


def test_undeclared_unknown_raises():
    with pytest.raises(ValueError):
        solve_exact(["x"], [({"y": 1}, 1)])


def test_fraction_entry_raises():
    # rows are integer rows; a Fraction coefficient is refused, not cleared
    with pytest.raises(TypeError):
        solve_exact(["x"], [({"x": Fraction(1, 2)}, 1)])
    with pytest.raises(TypeError):
        solve_exact(["x", "y"], [({"x": 1}, 1), ({"x": Fraction(2), "y": 1}, 3)])


def test_a_non_int_entry_raises_naming_its_type():
    with pytest.raises(TypeError, match="^coefficient of 'x' must be an int, got float$"):
        solve_exact(["x"], [({"x": 1.0}, 1)])
    with pytest.raises(TypeError, match="^coefficient of 'x' must be an int, got bool$"):
        solve_exact(["x"], [({"x": True}, 1)])
    with pytest.raises(TypeError, match="^coefficient of 'x' must be an int, got Fraction$"):
        solve_exact(["x"], [({"x": Fraction(0)}, 0), ({"x": 1}, 1)])
    with pytest.raises(TypeError, match="^constant must be an int, got Fraction$"):
        solve_exact(["x"], [({"x": 1}, Fraction(1, 2))])


@given(
    st.lists(
        st.tuples(st.integers(-7, 7), st.integers(-7, 7)),
        min_size=2,
        max_size=6,
    ),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
    st.integers(-7, 7),
    st.integers(0, 6),
    st.integers(0, 7),
)
def test_planted_solution_recovered(rows, x0, y0, sx, sy, c, at_x, at_y):
    equations = [
        ({"x": cx, "y": cy}, cx * x0 + cy * y0) for cx, cy in rows
    ]
    # one lead row per column: +-1 on it, other entries on earlier columns
    equations.insert(at_x, ({"x": sx}, sx * x0))
    equations.insert(at_y, ({"x": c, "y": sy}, c * x0 + sy * y0))
    values, free = solve_exact(["x", "y"], equations)
    assert values == {"x": x0, "y": y0}
    assert free == []


def _dense_reference(unknowns, equations):
    """Dense Gauss-Jordan over every row, columns in the given order.

    The reference ``solve_exact`` must agree with: same determined values,
    same free list, and ``ValueError`` exactly when the rows are
    inconsistent.
    """
    cols = {u: j for j, u in enumerate(unknowns)}
    width = len(unknowns)
    rows = []
    for coeffs, const in equations:
        row = [Fraction(0)] * (width + 1)
        for u, c in coeffs.items():
            row[cols[u]] += Fraction(c)
        row[width] = Fraction(const)
        rows.append(row)
    pivot_row_of_col = {}
    rank = 0
    for j in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][j]
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][j] != 0:
                factor = rows[i][j]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivot_row_of_col[j] = rank
        rank += 1
    if any(rows[i][width] != 0 for i in range(rank, len(rows))):
        raise ValueError("inconsistent linear system")
    free_cols = [j for j in range(width) if j not in pivot_row_of_col]
    values = {
        unknowns[j]: rows[i][width]
        for j, i in sorted(pivot_row_of_col.items())
        if all(rows[i][f] == 0 for f in free_cols)
    }
    return values, [unknowns[j] for j in free_cols]


# Plain ints, as the genus-0 engine passes them: leads of any sign and size.
_INT_COEFF = st.integers(min_value=-6, max_value=6)
# Integers far beyond a machine word, which cross-multiplication grows further.
_BIG_COEFF = st.integers(min_value=-(10**40), max_value=10**40)


@st.composite
def sparse_systems(draw, coeff=_INT_COEFF):
    """Short rows over a shuffled column order, consistent with a planted
    point: one lead row per column, +-1 at that column and other entries
    only on earlier columns, so the system is unit-triangular; then fresh
    rows, duplicate rows and combinations of earlier rows (dependent), all
    in a shuffled row order; then maybe one combination with a shifted
    constant, which makes the system inconsistent. Zero coefficients are
    kept as explicit entries. The point, coefficients and multipliers are
    all drawn from ``coeff``, so every row is an integer row.
    """
    unknowns = draw(st.permutations([f"u{j}" for j in range(draw(st.integers(1, 6)))]))
    point = {u: draw(coeff) for u in unknowns}

    def planted(cols, lead=None):
        coeffs = {u: draw(coeff) for u in cols}
        if lead is not None:
            coeffs[lead] = draw(st.sampled_from((1, -1)))
        return coeffs, sum(c * point[u] for u, c in coeffs.items())

    def combination(rows):
        (ca, ka), (cb, kb) = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(coeff), draw(coeff)
        coeffs = {u: s * ca.get(u, 0) + t * cb.get(u, 0) for u in {**ca, **cb}}
        return coeffs, s * ka + t * kb

    rows = [
        planted(draw(st.lists(st.sampled_from(unknowns[:j]), max_size=3, unique=True)) if j else [], u)
        for j, u in enumerate(unknowns)
    ]
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(("fresh", "fresh", "duplicate", "dependent")))
        if kind == "fresh":
            rows.append(planted(draw(st.lists(st.sampled_from(unknowns), max_size=4, unique=True))))
        elif kind == "duplicate":
            rows.append(draw(st.sampled_from(rows)))
        else:
            rows.append(combination(rows))
    rows = draw(st.permutations(rows))
    if draw(st.booleans()):
        coeffs, const = combination(rows)
        rows.insert(draw(st.integers(0, len(rows))), (coeffs, const + draw(coeff.filter(bool))))
    return list(unknowns), rows


@settings(max_examples=800, deadline=None)
@given(
    st.one_of(
        sparse_systems(),
        sparse_systems(_BIG_COEFF),
    )
)
def test_matches_dense_reference(system):
    unknowns, equations = system
    try:
        want = _dense_reference(unknowns, equations)
    except ValueError:
        with pytest.raises(ValueError, match="inconsistent"):
            solve_exact(unknowns, equations)
        return
    values, free = solve_exact(unknowns, equations)
    assert list(values.items()) == list(want[0].items())
    assert all(type(v) is int for v in values.values())
    assert want[1] == free == []
