"""Shared test plumbing: acceptance-criteria reporting, the Fraction
Gauss-Jordan that is the oracle of every elimination in semiconv.linalg,
the measure oracles tv_distance and is_idempotent_measure, the
minimal-ideal read-outs minimal_ideals, minimal_left_ideals and
minimal_right_ideals, coset_algebra, the general coset computation of
the limit analysis run on every walk, H = G included, the set-product and
idempotent oracles products_by_pairs and idempotents_by_scan,
cesaro_deviations_by_average, the Cesaro deviations by two convolutions a
step, and cesaro_average and cesaro_deviation, the shifted deviation
|avg_n - mu^j * avg_n| from the average and mu^j themselves, and
seeded_dists_by_loop and factor_dists_by_loop, verify's seeded walks
drawn one at a time by random_dist, as verify drew them before it kept
each instance's walks and read their weights in one batch.

Acceptance tests call record_criterion(); the collected lines are printed
in a dedicated section at the end of the pytest run so every criterion's
pass/fail status is visible in normal (captured) runs.

fraction_rref, fraction_nullspace and solve share no code with the package:
they divide each pivot row by its pivot in Fraction, where linalg eliminates
on ints and makes a Fraction only at read-out.
"""

from semiconv import MalformedInput, dynamics, verify
from semiconv._rat import ONE, RAT, ZERO
from semiconv.core import _power_cycle, kernel, product_sets
from semiconv.generators import random_dist
from semiconv.measure import Dist, convolve, coordinate_product, support, uniform_on
from semiconv.rees import minimal_one_sided_ideals, psi_inv, rees_decompose

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


def products_by_pairs(first, second):
    """{a*b : a in first, b in second} by the loop over the pairs, as a
    set of indices: the oracle of every path of product_sets."""
    rows = first.parent.rows
    return {rows[a][b] for a in first for b in second}


def idempotents_by_scan(x):
    """The elements a of x with a*a = a, by one pass over x: the scan
    core.idempotents ran before it read the table's mask E(S)."""
    rows = x.parent.rows
    return {a for a in x if rows[a][a] == a}


def cesaro_deviations_by_average(mu, n_max):
    """|avg_n - mu * avg_n| for n = 1..n_max in unhalved total variation,
    each from the average and its convolution with mu: the two
    convolutions a step cesaro_diagnostic made before it read the
    deviation off mu^(n+1)."""
    out = []
    for n, (acc, den, _) in enumerate(dynamics._running_sums(mu, n_max), 1):
        avg = Dist._from_numerators(mu.parent, den * n, acc)
        out.append(RAT(*dynamics._variation_numerator(avg, convolve(mu, avg))))
    return tuple(out)


def cesaro_average(mu, n):
    """(1/n) * (mu + mu^2 + ... + mu^n), exact."""
    if n < 1:
        raise MalformedInput(f"average length must be >= 1, got {n}")
    for acc, den, _ in dynamics._running_sums(mu, n):
        pass
    return Dist._from_numerators(mu.parent, den * n, acc)


def cesaro_deviation(mu, n, j):
    """Exact |avg_n - mu^j * avg_n| in unhalved total variation, from the
    average and mu^j by convolution: the oracle for shift_deviation, which
    reads the same number off a series of powers."""
    avg = cesaro_average(mu, n)
    return dynamics.variation_norm(avg, convolve(dynamics.power(mu, j), avg))


def _support_by_loop(sg, rng):
    """A support of 1 to 4 distinct elements: its size, then elements
    until it has that many, built by Semigroup.subset."""
    n = sg.order
    size = 1 + rng.below(min(4, n))
    picked = set()
    while len(picked) < size:
        picked.add(rng.below(n))
    return sg.subset(picked)


def seeded_dists_by_loop(inst, seed, salt, count):
    """The count seeded walks of verify._seeded_dists, one at a time: a
    support from the salt's stream, then random_dist on its next word."""
    rng = verify._instance_rng(inst, seed, salt)
    out = []
    for _ in range(count):
        supp = _support_by_loop(inst.semigroup, rng)
        out.append(random_dist(supp, rng.next_word(), 64))
    return out


def factor_dists_by_loop(inst, seed):
    """verify._factor_dists one walk at a time: the salt-6 stream gives
    two supports, mapped to their L and R coordinates, then a random_dist
    on each, twice."""
    sg, dec = inst.semigroup, inst.rees
    rng = verify._instance_rng(inst, seed, 6)
    out = []
    for _ in range(2):
        supp_l = sg.subset(psi_inv(dec, z)[0] for z in _support_by_loop(sg, rng))
        supp_r = sg.subset(psi_inv(dec, z)[2] for z in _support_by_loop(sg, rng))
        out.append(random_dist(supp_l, rng.next_word(), 32))
        out.append(random_dist(supp_r, rng.next_word(), 32))
    return out


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
