from semiconv._rat import ONE, RAT, ZERO
from semiconv.linalg import nullspace, rref, solve


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
