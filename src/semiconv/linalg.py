"""Exact Gaussian elimination: RREF and nullspace over the rationals, and
the kernel vector of an integer matrix.

Plain list-of-list matrices.  One fraction-free Gauss-Jordan on Python
ints, _eliminate, does every elimination, so no entry is ever a fraction.
Row updates skip zero entries, which is most of the work on the sparse
elimination fronts these matrices produce.  rref scales each row to ints
and makes a Fraction only at read-out, when it divides a pivot row by its
pivot; nullspace reads rref, and verify reads nullspaces with it.
integer_kernel_vector, for the fixed-law solves of dynamics, reads the one
free column on ints and leaves the one division of a fixed law to its
caller.  The Fraction Gauss-Jordan lives with the tests, as the oracle of
all three.
"""

from math import gcd, lcm

from ._rat import ONE, RAT, ZERO


def _eliminate(m):
    """Fraction-free Gauss-Jordan on the int rows of m, in place.  Returns
    the pivot columns; pivot row i holds the pivot of column pivots[i].

    A pivot p in row r clears column c from each other row i with
    f = m[i][c] != 0 as m[i] = (p/g)*m[i] - (f/g)*m[r], g = gcd(p, f), and
    the row is then divided by the gcd of its entries.  Each pivot row is
    thus a nonzero multiple of its row in the reduced row echelon form, and
    the rows below the last pivot row are zero.
    """
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        mr = m[r]
        p = mr[c]
        for i in range(nrows):
            f = m[i][c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y if y else a * x for x, y in zip(m[i], mr)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(rows):
    """Reduced row echelon form of a matrix of ints and Fractions.  Returns
    (matrix, pivot_columns), the matrix in Fractions."""
    if not rows:
        return [], []
    m = []
    for row in rows:
        scale = lcm(*(x.denominator for x in row))
        m.append([x.numerator * (scale // x.denominator) for x in row])
    pivots = _eliminate(m)
    red = [[RAT(x, row[c]) if x else ZERO for x in row] for row, c in zip(m, pivots)]
    return red + [[ZERO] * len(row) for row in m[len(pivots):]], pivots


def nullspace(rows):
    """Basis of {x : rows @ x = 0}, one vector per free column."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def integer_kernel_vector(rows):
    """The primitive integer vector spanning {x : rows @ x = 0} for a
    matrix of ints with a one-dimensional kernel, or None when the kernel
    is not one-dimensional.

    After the elimination each pivot row r reads a_r*x[c_r] + b_r*x[f] = 0
    in the one free column f, so x[f] = lcm(|a_r|) > 0 and
    x[c_r] = -b_r*x[f]/a_r, all ints, then divided by their gcd.  The sign
    x[f] > 0 makes a kernel that a non-negative vector spans come back
    non-negative, as the kernel of den*(P - I) does for the transition
    matrix P of a walk with one fixed law.
    """
    m = [list(r) for r in rows]
    if not m:
        return None
    pivots = _eliminate(m)
    ncols = len(m[0])
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    x = [0] * ncols
    x[free] = lcm(*(m[i][c] for i, c in enumerate(pivots)))
    for i, c in enumerate(pivots):
        x[c] = -m[i][free] * x[free] // m[i][c]
    g = gcd(*x)
    return [v // g for v in x]
