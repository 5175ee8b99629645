"""Convolution powers, exact Cesaro limits, and the cluster-group analysis.

The anchor result: for any exact-rational mu on a finite semigroup, the
Cesaro averages of the convolution powers converge to an idempotent,
mu-invariant nu whose support is the kernel of the subsemigroup generated
by supp(mu).  By the factorization nu = lambda * omega_G * rho, nu is also
the only probability vector with mu*nu = nu = nu*mu, so cesaro_limit finds
it with one exact linear solve of that two-sided invariance, normalized to
total mass 1.  The power sequence mu^n itself clusters to a finite cyclic
group of measures {eta, mu*eta, ..., mu^(p-1)*eta} whose structure mirrors
a quotient G/H read off the product decomposition of supp(nu).  The
period p is read off the support cycle of mu^n: it is the period of the
cycle's sets on the kernel, where they are the supports of the p cluster
points.  analyze_limit computes the whole picture and proof-checks every
clause on the concrete instance.

Everything here is exact; the only floating point is the optional shadow
iteration, which is diagnostic.
"""

from dataclasses import dataclass

import numpy as np

from ._rat import ONE, RAT, ZERO
from .core import (
    ElementSet,
    GroupStructure,
    generated_subsemigroup,
    group_structure,
    kernel,
    product_sets,
)
from .errors import (
    MalformedInput,
    MismatchedParent,
    NotAGroup,
    NotSimple,
    OrderCapExceeded,
    SemiconvError,
    SingularDecomposition,
    TheoremViolation,
    VerificationFailed,
)
from .linalg import solve
from .measure import Dist, convolve, haar_uniform, marginals, support, translate
from .rees import ReesDecomposition, rees_decompose

DEFAULT_EXACT_CAP = 300


def _check_cap(sg, order_cap):
    cap = DEFAULT_EXACT_CAP if order_cap is None else order_cap
    if sg.order > cap:
        raise OrderCapExceeded(sg.order, cap)


def power(mu, n):
    """Exact n-fold convolution of mu with itself, by repeated squaring."""
    if n < 1:
        raise MalformedInput(f"power exponent must be >= 1, got {n}")
    result = None
    base = mu
    while n:
        if n & 1:
            result = base if result is None else convolve(result, base)
        n >>= 1
        if n:
            base = convolve(base, base)
    return result


def cesaro_average(mu, n):
    """(1/n) * (mu + mu^2 + ... + mu^n), exact."""
    if n < 1:
        raise MalformedInput(f"average length must be >= 1, got {n}")
    acc = list(mu.probs)
    cur = mu
    for _ in range(n - 1):
        cur = convolve(cur, mu)
        for i, p in cur.items():
            acc[i] += p
    inv = RAT(1, n)
    return Dist(mu.parent, [a * inv for a in acc])


def tv_distance(mu, nu):
    """Half the l1 distance between the probability vectors."""
    if mu.parent is not nu.parent:
        raise MismatchedParent("distributions on different semigroups")
    return variation_norm(mu, nu) / 2


def variation_norm(mu, nu):
    """Unhalved l1 distance; the norm in which the 2j/n bound is tight."""
    if mu.parent is not nu.parent:
        raise MismatchedParent("distributions on different semigroups")
    total = ZERO
    for p, q in zip(mu.probs, nu.probs):
        total += abs(p - q)
    return total


def cesaro_limit(mu, order_cap=None):
    """Exact limit nu of the Cesaro averages of mu, mu^2, mu^3, ...

    nu is the only probability vector with mu*nu = nu = nu*mu.  nu has
    that property; and if v has it, every mu^n * v is v, so the averages
    give nu*v = v, and likewise v*nu = v.  Write nu = lambda * omega_G * rho
    with lambda on L, Haar measure omega_G on G and rho on R, the factors of
    the kernel K at its base idempotent e.  Then v = nu*v*nu = lambda *
    omega_G * m * omega_G * rho with m = rho*v*lambda, a measure on
    eKe = G of the same total mass 1, and omega_G * m * omega_G = omega_G,
    so v = nu.  Nothing there needs v >= 0, so over the states of the
    subsemigroup supp(mu) generates, the rows (nu*mu)(z) = nu(z),
    (mu*nu)(z) = nu(z) and sum(nu) = 1 have exactly one solution.  The
    result is verified idempotent and mu-invariant before returning.
    """
    _check_cap(mu.parent, order_cap)
    sg = mu.parent
    rows = sg.rows
    # The states hit by some power: the subsemigroup supp(mu) generates.
    states = generated_subsemigroup(support(mu)).elements()
    pos = {z: i for i, z in enumerate(states)}
    k = len(states)
    items = mu.items()
    right = [[ZERO] * k for _ in range(k)]  # (nu*mu)(z) - nu(z)
    left = [[ZERO] * k for _ in range(k)]  # (mu*nu)(z) - nu(z)
    for i, z in enumerate(states):
        right[i][i] -= ONE
        left[i][i] -= ONE
        for s, p in items:
            right[pos[rows[z][s]]][i] += p
            left[pos[rows[s][z]]][i] += p
    x = solve(right + left + [[ONE] * k], [ZERO] * (2 * k) + [ONE])
    if x is None:
        raise SingularDecomposition("no probability vector is fixed by mu on both sides")
    probs = [ZERO] * sg.order
    for z, v in zip(states, x):
        probs[z] = v
    nu = Dist(sg, probs)
    if convolve(nu, nu) != nu:
        raise VerificationFailed("limit idempotent", "nu * nu != nu")
    if convolve(mu, nu) != nu or convolve(nu, mu) != nu:
        raise VerificationFailed("limit invariance", "mu * nu != nu or nu * mu != nu")
    return nu


def _support_cycle(mu):
    """q and the masks of supp(mu^q), ..., supp(mu^(q+p_s-1)), with (q, p_s)
    least such that supp(mu^(q+p_s)) = supp(mu^q).

    Exact cycle detection with a first-occurrence map over the bitmask
    sequence A_(n+1) = A_n * A_1; the first repeat of a deterministic
    sequence lands exactly at the preperiod.
    """
    base = support(mu)
    seen = {}
    masks = []
    cur = base
    while cur.mask not in seen:
        seen[cur.mask] = len(masks)
        masks.append(cur.mask)
        cur = product_sets(cur, base)
    start = seen[cur.mask]
    return start + 1, masks[start:]


def support_period(mu):
    """Least (q, p) with supp(mu^(q+p)) = supp(mu^q)."""
    q, cycle = _support_cycle(mu)
    return q, len(cycle)


@dataclass(frozen=True, eq=False)
class PowerCluster:
    """Cycle structure of the powers of a single element."""

    q: int
    p: int
    cluster: ElementSet
    idempotent: int


def element_power_cluster(sg, a):
    """Least q, p with a^(q+p) = a^q, the power cycle C, and its identity.

    Verifies that C is a cyclic group with identity e = a^(rp) for the
    unique r with q <= rp <= q+p-1, and that C = {e, ae, ..., a^(p-1)e}.
    """
    seen = {}
    powers = [None]
    cur = a
    step = 1
    while cur not in seen:
        seen[cur] = step
        powers.append(cur)
        cur = sg.mul(cur, a)
        step += 1
    q = seen[cur]
    p = step - q
    cluster = sg.subset(powers[q : q + p])
    r = -(-q // p)  # ceil(q / p): unique r with q <= rp <= q + p - 1
    if not q <= r * p <= q + p - 1:
        raise VerificationFailed("power cycle", f"no valid r for q={q}, p={p}")
    e = powers[r * p]
    if sg.mul(e, e) != e:
        raise VerificationFailed("power cycle", "a^(rp) is not idempotent")
    grp = group_structure(cluster)
    if grp.identity != e:
        raise VerificationFailed("power cycle", "group identity differs from a^(rp)")
    b = sg.mul(a, e)
    orbit = [e]
    x = b
    while x != e:
        orbit.append(x)
        x = sg.mul(x, b)
    if sg.subset(orbit) != cluster or len(orbit) != p:
        raise VerificationFailed("power cycle", "cycle is not generated by a*e")
    return PowerCluster(q=q, p=p, cluster=cluster, idempotent=e)


@dataclass(frozen=True, eq=False)
class LimitReport:
    """Everything the limit theorem asserts about one walk, checked."""

    nu: Dist
    q: int
    p: int
    eta: Dist
    cluster: tuple
    rees: ReesDecomposition
    H: GroupStructure
    gamma: int
    checks: dict


def analyze_limit(mu, order_cap=None):
    """Full limit analysis of the convolution powers of mu.

    Computes the Cesaro limit nu, the cluster identity eta, the cluster
    cycle [eta, mu*eta, ..., mu^(p-1)*eta], the product decomposition of
    supp(nu) with subgroup H and coset generator gamma, and verifies every
    structural clause exactly.  A failed clause raises TheoremViolation;
    the returned report's check map is therefore all-True.
    """
    sg = mu.parent
    checks = {}

    def record(name, ok, detail=""):
        checks[name] = bool(ok)
        if not ok:
            raise TheoremViolation(name, detail)

    # cesaro_limit raises unless nu * nu = nu and mu * nu = nu = nu * mu.
    nu = cesaro_limit(mu, order_cap=order_cap)
    record("nu_idempotent", True)
    record("nu_invariant", True)

    generated = generated_subsemigroup(support(mu))
    walk_kernel = kernel(generated)
    record(
        "support_nu_is_kernel",
        support(nu) == walk_kernel,
        f"supp(nu)={support(nu).labels()}, kernel={walk_kernel.labels()}",
    )

    try:
        dec = rees_decompose(walk_kernel)
    except NotSimple as exc:
        raise TheoremViolation("kernel completely simple", str(exc)) from exc
    e = dec.base
    g_carrier = dec.group.carrier
    record(
        "support_nu_product",
        support(nu) == product_sets(product_sets(dec.left, g_carrier), dec.right),
    )

    # The cluster period, read off the support cycle on the kernel K.  Every
    # element of K is recurrent for the walk z -> z*s, because each minimal
    # right ideal is a closed communicating class.  So on the cycle
    # supp(mu^n) & K = supp(mu^(n mod p) * eta), the set L gamma^k H R of
    # the factorization theorem, and those p sets are distinct: p is the
    # least period of the cycle's masks on K, and it divides p_s.
    q, cycle = _support_cycle(mu)
    on_kernel = [mask & walk_kernel.mask for mask in cycle]
    period = next(
        t for t in range(1, len(on_kernel) + 1) if on_kernel[t:] + on_kernel[:t] == on_kernel
    )
    # Either eta = nu, or cesaro_limit has verified eta * eta = eta.
    eta = nu if period == 1 else cesaro_limit(power(mu, period), order_cap=order_cap)
    record("eta_idempotent", True)

    single_e = sg.singleton(e)
    h_set = product_sets(single_e, product_sets(support(eta), single_e))
    record("subgroup_in_group", h_set.issubset(g_carrier))
    try:
        subgroup = group_structure(h_set)
    except (NotAGroup, SemiconvError) as exc:
        raise TheoremViolation("subgroup_structure", str(exc)) from exc
    record(
        "eta_support_product",
        support(eta) == product_sets(product_sets(dec.left, h_set), dec.right),
    )

    normal = all(
        product_sets(
            sg.singleton(g), product_sets(h_set, sg.singleton(dec.group.inv(g)))
        )
        == h_set
        for g in g_carrier
    )
    record("subgroup_normal", normal)

    mu_eta = convolve(mu, eta)
    gamma_set = product_sets(single_e, product_sets(support(mu_eta), single_e))
    gamma = gamma_set.least()
    gamma_coset = product_sets(sg.singleton(gamma), h_set)
    record("gamma_coset", gamma_set == gamma_coset)
    record(
        "gamma_representative_independent",
        all(product_sets(sg.singleton(z), h_set) == gamma_coset for z in gamma_set),
    )

    # Cluster cycle: iterate mu^k * eta until it returns to eta.
    cluster = [eta]
    cur = mu_eta
    while cur != eta:
        cluster.append(cur)
        cur = convolve(mu, cur)
        if len(cluster) > sg.order:
            raise TheoremViolation("cluster_cycle", "mu^k * eta never returned to eta")
    p = len(cluster)
    record(
        "period_matches_quotient",
        p * subgroup.order == dec.group.order,
        f"p={p}, |G|={dec.group.order}, |H|={subgroup.order}",
    )
    mu_p = power(mu, p)
    record(
        "eta_power_invariant",
        convolve(mu_p, eta) == eta and convolve(eta, mu_p) == eta,
    )

    gamma_pows = [e]
    for _ in range(2 * p):
        gamma_pows.append(sg.mul(gamma_pows[-1], gamma))
    cosets = [product_sets(sg.singleton(gamma_pows[k]), h_set) for k in range(p)]
    union = sg.empty()
    for cos in cosets:
        union = union | cos
    record(
        "coset_powers_exhaust",
        len({cos.mask for cos in cosets}) == p and union == g_carrier,
    )
    record("gamma_power_in_subgroup", gamma_pows[p] in h_set)

    record("cluster_distinct", len(set(cluster)) == p)
    closed = all(
        convolve(cluster[i], cluster[j]) == cluster[(i + j) % p]
        for i in range(p)
        for j in range(p)
    )
    record("cluster_closed_cyclic", closed)
    record(
        "cluster_supports_cosets",
        all(
            support(cluster[k])
            == product_sets(product_sets(dec.left, cosets[k]), dec.right)
            for k in range(p)
        ),
    )

    eta_left, _eta_mid, eta_right = marginals(eta, dec)
    haar_h = haar_uniform(subgroup)
    factor_ok = True
    lam = eta
    for k in range(2 * p + 1):
        coset_uniform = translate(haar_h, gamma_pows[k], "left")
        if convolve(convolve(eta_left, coset_uniform), eta_right) != lam:
            factor_ok = False
            break
        lam = convolve(mu, lam)
    record("cluster_factorization", factor_ok)
    record(
        "nu_factorization",
        convolve(convolve(eta_left, haar_uniform(dec.group)), eta_right) == nu,
    )
    record("eta_factorization", convolve(convolve(eta_left, haar_h), eta_right) == eta)

    dec_eta = rees_decompose(support(eta), at=e)
    record(
        "marginal_readings_agree",
        marginals(eta, dec_eta) == (eta_left, _eta_mid, eta_right),
    )

    return LimitReport(
        nu=nu,
        q=q,
        p=p,
        eta=eta,
        cluster=tuple(cluster),
        rees=dec,
        H=subgroup,
        gamma=gamma,
        checks=checks,
    )


@dataclass(frozen=True)
class CesaroDiagnostic:
    """Exact deviation series for the bound |mu_n - mu * mu_n| <= 2/n."""

    deviations: tuple
    limit_gaps: tuple


def cesaro_diagnostic(mu, n_max, nu):
    """Verify the 2/n bound for n <= n_max and report the decay to nu, the
    Cesaro limit of mu as returned by cesaro_limit.

    Norms are unhalved total variation, the norm in which the bound is
    stated and attained.
    """
    if n_max < 1:
        raise MalformedInput(f"n_max must be >= 1, got {n_max}")
    deviations = []
    gaps = []
    acc = list(mu.probs)
    cur = mu
    for n in range(1, n_max + 1):
        if n > 1:
            cur = convolve(cur, mu)
            for i, p in cur.items():
                acc[i] += p
        inv = RAT(1, n)
        avg = Dist(mu.parent, [a * inv for a in acc])
        dev = variation_norm(avg, convolve(mu, avg))
        if dev > RAT(2, n):
            raise VerificationFailed("cesaro bound", f"deviation {dev} > 2/{n}")
        deviations.append(dev)
        gaps.append(variation_norm(avg, nu))
    return CesaroDiagnostic(deviations=tuple(deviations), limit_gaps=tuple(gaps))


def cesaro_deviation(mu, n, j):
    """Exact |mu_n - mu^j * mu_n| in unhalved total variation."""
    avg = cesaro_average(mu, n)
    return variation_norm(avg, convolve(power(mu, j), avg))


@dataclass(frozen=True)
class ShadowReport:
    """Float-64 sanity iteration |mu^(np) - eta|; diagnostic only."""

    gaps: tuple
    non_increasing: bool
    iterations_to_tolerance: int
    converged: bool


def float_shadow(mu, eta, step, tolerance=1e-9, max_iterations=4096):
    """Iterate the float transition matrix p steps at a time toward eta.

    Checks that the l1 gap never increases (up to float jitter) and finds
    the first iterate below tolerance.  Exact checks remain authoritative.
    """
    rows = mu.parent.rows
    n = mu.parent.order
    m = np.zeros((n, n))
    for s, p in mu.items():
        for z in range(n):
            m[z, rows[z][s]] += float(p)
    m_step = np.linalg.matrix_power(m, step)
    target = np.array([float(p) for p in eta.probs])
    # Start at mu^step: the gap to eta is non-increasing under M^step.
    v = np.array([float(p) for p in mu.probs]) @ np.linalg.matrix_power(m, step - 1)
    gaps = []
    non_increasing = True
    hit = -1
    for it in range(max_iterations):
        gap = float(np.abs(v - target).sum())
        if gaps and gap > gaps[-1] + 1e-12:
            non_increasing = False
        gaps.append(gap)
        if gap < tolerance and hit < 0:
            hit = it
            break
        v = v @ m_step
    return ShadowReport(
        gaps=tuple(gaps),
        non_increasing=non_increasing,
        iterations_to_tolerance=hit,
        converged=hit >= 0,
    )
