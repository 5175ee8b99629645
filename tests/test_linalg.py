from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fraction_nullspace, fraction_rref, solve

from semiconv._rat import ONE, RAT, ZERO
from semiconv.linalg import integer_kernel_vector, nullspace, rref


def R(*vals):
    return [RAT(v) for v in vals]


def mat_vec(rows, x):
    return [sum((a * b for a, b in zip(r, x)), ZERO) for r in rows]


def test_rref_identity_like():
    m, pivots = rref([R(2, 0), R(0, 5)])
    assert m == [R(1, 0), R(0, 1)]
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    m, pivots = rref([R(1, 2, 3), R(2, 4, 6), R(1, 1, 1)])
    assert pivots == [0, 1]
    assert m[2] == R(0, 0, 0)
    # exact fractions survive elimination
    m2, _ = rref([[RAT(1, 3), RAT(1)], [RAT(1), RAT(2)]])
    assert m2 == [R(1, 0), R(0, 1)]


def test_nullspace_annihilates():
    rows = [R(1, 2, 3), R(4, 5, 6)]
    basis = nullspace(rows)
    assert len(basis) == 1
    assert mat_vec(rows, basis[0]) == R(0, 0)
    assert basis[0][2] == ONE  # free column pinned to one


def test_nullspace_full_rank_empty():
    assert nullspace([R(1, 0), R(0, 1)]) == []


def test_solve_unique():
    rows = [R(2, 1), R(1, 3)]
    x = solve(rows, R(5, 10))
    assert mat_vec(rows, x) == R(5, 10)
    assert x == [RAT(1), RAT(3)]


def test_solve_underdetermined_and_inconsistent():
    x = solve([R(1, 1, 0)], R(7))
    assert x is not None and mat_vec([R(1, 1, 0)], x) == R(7)
    assert solve([R(1, 1), R(1, 1)], R(1, 2)) is None


@st.composite
def rational_matrices(draw):
    """A 1x1 to 7x7 matrix, wide or tall, of ints and Fractions with
    denominators up to 12; some rows zero, some repeating an earlier row."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.builds(RAT, st.integers(-9, 9), st.integers(1, 12)),
    )
    rows = []
    for i in range(nrows):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "repeat")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(rows[draw(st.integers(0, i - 1))]))
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


@settings(max_examples=300, derandomize=True, deadline=None)
@given(rational_matrices())
def test_rref_and_nullspace_match_the_fraction_oracle(rows):
    # RREF is unique, so the int elimination's read-out is the oracle's
    # matrix and pivot list, and it hands out Fractions only
    red, pivots = rref(rows)
    assert (red, pivots) == fraction_rref(rows)
    assert all(type(x) is RAT for row in red for x in row)
    assert nullspace(rows) == fraction_nullspace(rows)


def primitive(v):
    """The integer multiple of a rational vector with coprime entries, of
    the same sign."""
    scale = lcm(*(RAT(x).denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    return [x // g for x in ints]


@st.composite
def walk_matrices(draw):
    """den*(P - I) for a k-state walk whose transition matrix P has column
    x the law of one step from x, numerators over den."""
    k = draw(st.integers(1, 6))
    den = draw(st.integers(1, 12))
    matrix = [[0] * k for _ in range(k)]
    for x in range(k):
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=k - 1, max_size=k - 1)))
        for y, (lo, hi) in enumerate(zip([0, *cuts], [*cuts, den])):
            matrix[y][x] += hi - lo
        matrix[x][x] -= den
    return matrix


@settings(max_examples=300, derandomize=True, deadline=None)
@given(walk_matrices())
def test_integer_kernel_vector_matches_the_fraction_nullspace(matrix):
    basis = fraction_nullspace([[RAT(a) for a in row] for row in matrix])
    v = integer_kernel_vector(matrix)
    if len(basis) != 1:
        assert v is None
        return
    # same line, same sign: the Fraction basis pins its free column to one
    assert v == primitive(basis[0])
    assert not any(mat_vec(matrix, v))
    # a walk's kernel is spanned by its fixed law
    assert min(v) >= 0 and sum(v) > 0


def test_integer_kernel_vector_rejects_a_kernel_that_is_not_a_line():
    # two closed classes {0, 1} and {2}: every mix of their laws is fixed
    assert integer_kernel_vector([[-1, 1, 0], [1, -1, 0], [0, 0, 0]]) is None
    assert nullspace([R(-1, 1, 0), R(1, -1, 0), R(0, 0, 0)]) == [R(1, 1, 0), R(0, 0, 1)]
    # full rank: only zero is fixed
    assert integer_kernel_vector([[2, 1], [1, 1]]) is None
    assert integer_kernel_vector([]) is None


def test_integer_kernel_vector_of_a_singular_integer_matrix():
    # the kernel is spanned by (1, -2, 1); its free column is the last
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert integer_kernel_vector(rows) == [1, -2, 1]
    assert primitive(nullspace([R(*r) for r in rows])[0]) == [1, -2, 1]
