"""Shared test plumbing: acceptance-criteria reporting, the Fraction
Gauss-Jordan that is the oracle of every elimination in semiconv.linalg,
the measure oracles tv_distance and is_idempotent_measure, the
minimal-ideal read-outs minimal_ideals, minimal_left_ideals and
minimal_right_ideals, and coset_algebra, the general coset computation of
the limit analysis run on every walk, H = G included.

Acceptance tests call record_criterion(); the collected lines are printed
in a dedicated section at the end of the pytest run so every criterion's
pass/fail status is visible in normal (captured) runs.

fraction_rref, fraction_nullspace and solve share no code with the package:
they divide each pivot row by its pivot in Fraction, where linalg eliminates
on ints and makes a Fraction only at read-out.
"""

from semiconv import dynamics
from semiconv._rat import ONE, ZERO
from semiconv.core import _power_cycle, kernel, product_sets
from semiconv.measure import convolve, coordinate_product, support, uniform_on
from semiconv.rees import minimal_one_sided_ideals, rees_decompose

_ACCEPTANCE_LINES = []


def fraction_rref(rows):
    """Reduced row echelon form.  Returns (matrix, pivot_columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        mr = m[r]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], mr)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def fraction_nullspace(rows):
    """Basis of {x : rows @ x = 0}, one vector per free column, pinned to
    one there."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = fraction_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [ZERO] * ncols
        v[free] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][free]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent.

    Free variables are set to zero.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = fraction_rref(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return x


def tv_distance(mu, nu):
    """Half the l1 distance between the dense probability vectors, summed
    in Fraction, apart from dynamics.variation_norm's numerators."""
    return sum(abs(p - q) for p, q in zip(mu.probs, nu.probs, strict=True)) / 2


def is_idempotent_measure(mu):
    """Whether mu * mu = mu, by one convolution: the brute-force oracle of
    the factorization theorem that measure.factorize_idempotent decides by."""
    return convolve(mu, mu) == mu


def minimal_ideals(x):
    """(K, minimal left ideals, minimal right ideals) of the subsemigroup x,
    read as `semiconv analyze` reads them: off the verified Rees split of
    its kernel K."""
    k = kernel(x)
    return (k, *minimal_one_sided_ideals(rees_decompose(k)))


def minimal_left_ideals(x):
    return minimal_ideals(x)[1]


def minimal_right_ideals(x):
    return minimal_ideals(x)[2]


def coset_algebra(mu):
    """(gamma, p, H, cluster) of the limit of mu by the general coset
    algebra, with no case for H = G: H from the G-coordinates of the
    support set on K that holds e, gamma the least of G(s*x)*H over the
    steps s and x in L, p the least k >= 1 with gamma^k in H, and the
    cluster the coordinate products lambda * omega_(gamma^k H) * rho."""
    sg = mu.parent
    rows = sg.rows
    steps = support(mu)
    _, cycle, reached = _power_cycle(steps)
    dec = rees_decompose(kernel(reached))
    _, lam, rho = dynamics._limit_factors(mu, dec)
    e, coordinates = dec.base, dec.coordinates
    held = next(c for c in cycle if e in c) & dec.carrier
    h_set = sg.subset(coordinates[z][1] for z in held)
    left_steps = sg.subset(coordinates[rows[s][x]][1] for s in steps for x in dec.left)
    gamma = product_sets(left_steps, h_set).least()
    gamma_pows = [e, gamma]
    while gamma_pows[-1] not in h_set:
        gamma_pows.append(rows[gamma_pows[-1]][gamma])
    p = len(gamma_pows) - 1
    cluster = tuple(
        coordinate_product(lam, uniform_on(sg.subset(rows[g][h] for h in h_set)), rho)
        for g in gamma_pows[:p]
    )
    return gamma, p, h_set, cluster


def record_criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number:2d}: {description}"
    if detail:
        line += f" [{detail}]"
    _ACCEPTANCE_LINES.append((number, line))
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
