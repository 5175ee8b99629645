"""Convolution powers, exact Cesaro limits, and the cluster-group analysis.

The anchor result: for any exact-rational mu on a finite semigroup, the
Cesaro averages of the convolution powers converge to an idempotent,
mu-invariant nu whose support is the kernel K = L*G*R of the subsemigroup
generated by supp(mu), and nu = lambda * omega_G * rho with Haar measure
omega_G on G.  The power sequence mu^n itself clusters to a finite cyclic
group of measures {eta, mu*eta, ..., mu^(p-1)*eta} with eta = lambda *
omega_H * rho for a normal subgroup H of G, with the same lambda and rho.
lambda is the stationary law of the walk x -> L(s*x) on L and rho that of
y -> R(y*s) on R, s drawn from mu.  Column x of N = den(mu)*P, P the
walk's transition matrix, holds the numerators of the law of one step
from x.  For s in K and x in L, s*x = L(s)*(G(s)*R(s)*x), and the split
verified R*L in G, so L(s*x) = L(s); mirrored, R(y*s) = R(s).  So the
steps in K add one shared column to every column of N, read off supp(mu)
once, and only the steps off K tell the states apart.
Lumping lemma (strong lumpability; Kemeny and Snell, Finite Markov
Chains, ch. VI).  Group the states into classes c of equal columns M_c,
and put Nl[c'][c] = sum of M_c(x) over x in c'.  (1) If lambda = P*lambda
and u_c is lambda's mass on c, then lambda = sum_c u_c*M_c / den, as
column x of P is M_c / den for x in c; taking the mass on c' gives
den*u_c' = sum_c Nl[c'][c]*u_c, so Nl*u = den*u.  (2) If Nl*u = den*u,
put lambda = sum_c u_c*M_c / den.  Its mass on c' is sum_c Nl[c'][c]*u_c
/ den = u_c', so P*lambda = sum_c u_c*M_c / den = lambda.  By (2) the
map u -> lambda has a left inverse, the class masses, on the fixed
vectors of Nl, so it is injective there, and by (1) every fixed lambda is
its image.  So the fixed vectors of Nl and of P correspond one to one:
the lumped law is unique exactly when lambda is, and, as each column
sums to den, lambda(x) = sum_c u_c*M_c(x) / (den * sum(u)).  Each law is
therefore one exact solve on integers over the classes: a fraction-free
elimination gives the kernel vector u of Nl - den*I, and the one
division is by den * sum(u).  When supp(mu) lies in K there is one class,
whose column is the shared one, and no solve at all: lambda is that
column over den, mu's L-coordinate marginal, and rho the R-coordinate
one.  Each law is unique: some word w in supp(mu) lands in K, and from
there L(w*x) = L(w) whatever x is (and R(y*w) = R(w)), so every start
forgets itself.  mu^p fixes the same lambda and rho: its walks fix
them, and forget their start too, as w padded to a length divisible by
p still lands in K.  One walk of the supports supp(mu^n) = supp(mu)^n,
set algebra on supp(mu) that the core module runs, gives the rest: the
subsemigroup T that supp(mu) generates is the union of the supports it
visits, and on K its cycle runs through the p sets L*gamma^k H*R that
support the cluster points.  They partition K,
and H = e*supp(eta)*e is read off the one that holds e, L*H*R.
analyze_limit computes the whole picture and proof-checks every clause on
the concrete instance, each once, from the structure it already holds.
The cluster points are the coset terms c_k = lambda * omega_(gamma^k H)
* rho for k < p, each built once, where p is the least k >= 1 with
gamma^k in H.  They are the points mu^k * eta by the coset map, the
corollary of the coordinate-walk lemma of the measure module: a step of
mu moves the middle factor of a coordinate product by the G-coordinates
G(s*x), s in supp(mu), x in L, read off the split.  Their products with
H are the G-coordinates of supp(mu * eta), so the check that they form
the one coset gamma*H (gamma_coset) is what the lemma needs: with H
normal and lambda fixed by its walk, mu * c_k = c_(k+1), and c_p = eta.
Mirrored, every G(y*s), y in R, in gamma*H gives c_k * mu = c_(k+1), so
eta * mu^p = eta with no power of mu; and p must be the least period of
the support cycle on K, an independent witness.  When H = G there is one
coset, gamma*H = G, which holds every G-coordinate, so the coset clauses
need no comparison, p = 1 and the cluster is nu alone; only the support
cycle on K is checked.  The cycle is closed under convolution once eta *
c_j = c_j for each j > 0: by associativity c_i * c_j = mu^i * (eta *
c_j) = mu^(i+j) * eta = c_((i+j) mod p).  And
eta * c_j = c_j follows, with no convolution, from supp(rho)*supp(lambda)
in H (eta_idempotent), so the fold absorbs rho * lambda into omega_H, and
gamma^j H gamma^-j = H (subgroup_normal), so omega_H * omega_(gamma^j H)
= omega_(gamma^j H).  The only convolutions left are the two of the
invariance check mu * nu = nu = nu * mu.  nu and eta are idempotent by the
fold lemma of the measure module, as R*L lies in G and, for eta,
supp(rho)*supp(lambda) in H; no measure is squared.  nu, eta and the
coset terms lambda * omega_(gamma^k H) * rho are built in the split's
coordinates, lambda(x)*m(g)*rho(y) at x*g*y (the coordinate-product
lemma of the measure module), with no convolution; as psi is a
bijection, each reads back as the triple it was built from, and its
support is L*C*R for the subset C of G its middle factor lives on.  H
and the coset of gamma are read from the G-coordinates the split already
verified; H is a closed subset of the verified group G, so a subgroup
with G's identity and inverses.  Normality conjugates H by gamma alone.
A clause that _limit_factors, the split, the fold, the construction or
the coset map already proves is listed in LIMIT_CLAUSES and has no
run-time statement; a comment at the step that proves it names it.
supp(nu) = L*G*R (support_nu_product) follows from support_nu_is_kernel,
as the split's carrier is the walk kernel itself.
The powers of a single element, and of a*e for element_power_cluster's
check that a*e generates the cycle C, are read off that same walk of
core._power_cycle, run on a singleton.  That check makes C = {b, ...,
b^p} with b = a*e and b^(p+1) = b, a cyclic group, so C is not tested for
one, and e = a^(rp), an idempotent in C, is its identity, a group's only
idempotent.
The Cesaro averages and variation norms work on the integer numerators of
their distributions over one common denominator; a Fraction is made only
for each norm returned.

Everything here is exact; the only floating point is the optional shadow
iteration, which is diagnostic.
"""

from dataclasses import dataclass, field
from math import lcm

import numpy as np

from ._rat import RAT
from .core import (
    ElementSet,
    GroupStructure,
    _check_parent,
    _power_cycle,
    kernel,
    product_sets,
)
from .errors import (
    MalformedInput,
    NotSimple,
    SingularDecomposition,
    TheoremViolation,
    VerificationFailed,
)
from .linalg import integer_kernel_vector
from .measure import Dist, convolve, coordinate_product, haar_uniform, support, uniform_on
from .rees import ReesDecomposition, rees_decompose

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


def _running_sums(mu, n):
    """Yield, for k = 1..n, the numerators of mu + mu^2 + ... + mu^k, one
    dict updated in place, the denominator they are over, and mu^k."""
    acc, den = dict(mu._nums), mu.den
    cur = mu
    yield acc, den, cur
    for _ in range(n - 1):
        cur = convolve(cur, mu)
        den = _accumulate(acc, den, cur)
        yield acc, den, cur


def _accumulate(acc, den, dist):
    """Add dist to acc, numerators over den, in place, and return the
    denominator lcm(den, dist.den) that acc is then over."""
    common = lcm(den, dist.den)
    if common != den:
        scale = common // den
        for z in acc:
            acc[z] *= scale
    scale = common // dist.den
    for z, n in dist._nums:
        if z in acc:
            acc[z] += n * scale
        else:
            acc[z] = n * scale
    return common


def variation_norm(mu, nu):
    """Unhalved l1 distance; the norm in which the 2j/n bound is tight."""
    _check_parent(mu, nu)
    return RAT(*_variation_numerator(mu, nu))


def _variation_numerator(mu, nu):
    """The unhalved l1 distance as (numerator, denominator), over the lcm
    of the two denominators."""
    return _l1_numerator(mu._nums, mu.den, nu._nums, nu.den)


def _l1_numerator(first, first_den, second, second_den):
    """The unhalved l1 distance between two measures given as (element,
    numerator) pairs over their denominators, as (numerator, denominator)
    over the lcm of the two."""
    den = lcm(first_den, second_den)
    a, b = den // first_den, den // second_den
    diff = {z: n * a for z, n in first}
    for z, n in second:
        diff[z] = diff.get(z, 0) - n * b
    return sum(map(abs, diff.values())), den


def _fixed_law(mu, dec, side):
    """The only probability that the coordinate walk of mu leaves fixed:
    lambda on L for side 0, the walk x -> L(s*x), or rho on R for side 2,
    the walk y -> R(y*s), with s drawn from mu and each step's coordinate
    read from the split.

    Column x of N = den(mu)*P, P the walk's transition matrix, holds the
    numerators of the law of one step from x.  A step s in K adds the same
    numerators to every column, at L(s) (R(s)), so those are collected
    once; when every step lies in K that shared column is the law, with no
    pass over the states and no solve.  Otherwise the states are grouped by
    their column, and the lumped system (the lumping lemma of the module
    docstring) is one integer elimination over the classes and one
    division.
    """
    rows, coordinates, carrier = mu.parent.rows, dec.coordinates, dec.carrier
    shared, moves = {}, []
    for s, n in mu._nums:
        if s in carrier:
            z = coordinates[s][side]
            shared[z] = shared.get(z, 0) + n
        else:
            moves.append((s, n))
    if not moves:
        return Dist._from_numerators(mu.parent, mu.den, shared)
    states = (dec.left if side == 0 else dec.right).elements()
    classes = {}  # each distinct column of N, as (z, numerator) pairs -> its states
    for x in states:
        column = dict(shared)
        for s, n in moves:
            z = coordinates[rows[s][x] if side == 0 else rows[x][s]][side]
            column[z] = column.get(z, 0) + n
        classes.setdefault(frozenset(column.items()), []).append(x)
    columns = [dict(column) for column in classes]
    # den * (lumped P - I): entry (c', c) sums column c over the states of c'.
    lumped = [[sum(column.get(x, 0) for x in xs) for column in columns] for xs in classes.values()]
    for c, row in enumerate(lumped):
        row[c] -= mu.den
    weights = integer_kernel_vector(lumped)
    total = mu.den * sum(weights) if weights else 0
    if not total:
        raise SingularDecomposition("no probability is fixed by the coordinate walk")
    law = {x: sum(u * column.get(x, 0) for u, column in zip(weights, columns)) for x in states}
    # The weights have a positive entry, so a negative total means mixed
    # signs: no probability, which _from_numerators reports.
    return Dist._from_numerators(mu.parent, total, {x: v for x, v in law.items() if v})


def _limit_factors(mu, dec):
    """nu, lambda and rho for the decomposition dec of the walk kernel,
    each law from _fixed_law."""
    lam, rho = _fixed_law(mu, dec, 0), _fixed_law(mu, dec, 2)
    nu = coordinate_product(lam, haar_uniform(dec.group), rho)
    # nu is idempotent by the fold lemma (see the measure module): lambda
    # lives on L, rho on R, and the split verified R*L in G.  The invariance
    # is checked, as it is what verifies the two laws.
    if convolve(mu, nu) != nu or convolve(nu, mu) != nu:
        raise VerificationFailed("limit invariance", "mu * nu != nu or nu * mu != nu")
    return nu, lam, rho


def cesaro_limit(mu):
    """Exact limit nu of the Cesaro averages of mu, mu^2, mu^3, ...

    Decomposes the kernel K = L*G*R of the subsemigroup supp(mu) generates
    at its least idempotent e and returns nu = lambda * omega_G * rho.
    lambda is the left marginal of nu: since L(s*z) = L(s*L(z)) on K,
    mu*nu = nu makes it a fixed law of the walk x -> L(s*x) on L, and it is
    the only one, because a word w in supp(mu) that lands in K sends every
    x to L(w*x) = L(w).  Likewise rho is the only law on R fixed by
    y -> R(y*s).  Each is one exact solve over the classes of states whose
    columns of the walk's transition matrix agree (the lumping lemma of
    the module docstring), and no solve when supp(mu) lies in K, where
    one step forgets its start and the law is mu's coordinate marginal.
    The elimination is dense, so its cost grows as the cube of the number
    of classes: the uniform walk on full_transformation(2) x
    rectangular_band(256,1), half of whose mass lies off its kernel (|L| =
    512, |G| = |R| = 1), lumps to one class per side, and a walk whose
    steps off K tell every state apart solves over all of L.
    The kernel is found and split as in analyze_limit, by _walk_split.  The
    result is idempotent by the fold lemma of the measure module, since the
    split verified R*L in G, and is verified mu-invariant before returning.
    """
    return _limit_factors(mu, _walk_split(support(mu))[2])[0]


def _walk_split(steps):
    """(q, cycle, dec): the support walk of steps (core._power_cycle) and
    the verified Rees split dec of the kernel of the subsemigroup T they
    generate.  T, the union of the supports the walk visits, is closed, as
    A_i*A_j = A_(i+j), so kernel needs no further test.  A kernel that does
    not split breaks the theorem, so NotSimple is a TheoremViolation."""
    q, cycle, reached = _power_cycle(steps)
    try:
        dec = rees_decompose(kernel(reached))
    except NotSimple as exc:
        raise TheoremViolation("kernel completely simple", str(exc)) from exc
    return q, cycle, dec


def support_period(mu):
    """Least (q, p) with supp(mu^(q+p)) = supp(mu^q)."""
    q, cycle, _ = _power_cycle(support(mu))
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
    Both cycles, of the powers of a and of a*e, are read off
    core._power_cycle run on a singleton, the walk the support cycle uses.
    The cycle of b = a*e proves the group: q_b = 1 and p steps give
    b^(p+1) = b with b, ..., b^p distinct, and its orbit equal to C makes
    C = {b, ..., b^p}.  So b^p*b^k = b^k for k >= 1, and b^k*b^(p-k) =
    b^p: C is a cyclic group with identity b^p.  e, idempotent in C, is
    then that identity, a group's only idempotent.
    """
    q, cycle, _ = _power_cycle(sg.singleton(a))
    p = len(cycle)
    cluster = sg.subset(c.least() for c in cycle)
    # cycle[k] = {a^(q+k)}, and rp is the one multiple of p in q..q+p-1
    e = cycle[-q % p].least()
    if sg.mul(e, e) != e:
        raise VerificationFailed("power cycle", "a^(rp) is not idempotent")
    # a*e generates C exactly when its powers return to a*e after p steps
    # and visit all of C on the way; that makes C a group with identity e.
    q_b, cycle_b, orbit = _power_cycle(sg.singleton(sg.mul(a, e)))
    if q_b != 1 or len(cycle_b) != p or orbit != cluster:
        raise VerificationFailed("power cycle", "cycle is not generated by a*e")
    return PowerCluster(q=q, p=p, cluster=cluster, idempotent=e)


# The clauses of the limit theorem, in report order.  analyze_limit computes
# six of them and raises TheoremViolation naming the one that fails; each of
# the other fifteen follows from a step it has already verified, and the
# comment at that step names it.
LIMIT_CLAUSES = (
    "nu_idempotent", "nu_invariant", "support_nu_is_kernel", "support_nu_product",
    "eta_idempotent", "subgroup_in_group", "eta_support_product", "subgroup_normal",
    "gamma_coset", "gamma_representative_independent", "period_matches_quotient",
    "eta_power_invariant", "coset_powers_exhaust", "gamma_power_in_subgroup",
    "cluster_distinct", "cluster_closed_cyclic", "cluster_supports_cosets",
    "cluster_factorization", "nu_factorization", "eta_factorization",
    "marginal_readings_agree",
)


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

    @property
    def checks(self):
        """Each of LIMIT_CLAUSES mapped to True, in a new dict: a report
        exists only when every clause holds."""
        return dict.fromkeys(LIMIT_CLAUSES, True)


def _check_period(on_kernel, p, order_h, order_g):
    """Raise period_matches_quotient unless p is the least period of the
    support cycle's sets on K, on_kernel, and p*|H| = |G|: rotating the
    sets by p leaves them unchanged, and their first p are distinct."""
    if (
        on_kernel[p:] + on_kernel[:p] != on_kernel
        or len(set(on_kernel[:p])) != p
        or p * order_h != order_g
    ):
        raise TheoremViolation(
            "period_matches_quotient",
            f"p={p}, {len(on_kernel)} sets on K, |G|={order_g}, |H|={order_h}",
        )


def _first_difference(first, second):
    """The label of the least element in exactly one of two sets."""
    return first.parent.label(((first - second) | (second - first)).least())


def analyze_limit(mu):
    """Full limit analysis of the convolution powers of mu.

    Computes the Cesaro limit nu, the cluster identity eta, the cluster
    cycle [eta, mu*eta, ..., mu^(p-1)*eta], the product decomposition of
    supp(nu) with subgroup H and coset generator gamma, and verifies every
    structural clause exactly.  A computed clause that fails raises
    TheoremViolation naming it, so a returned report's checks map each of
    LIMIT_CLAUSES to True.  Like cesaro_limit it takes every table the
    package accepts; past the two fixed laws (one lumped solve each, none
    when supp(mu) lies in K) and the invariance check's two convolutions,
    its cost is set algebra over the walk's supports and, only when H is a
    proper subgroup of G, the split's G-coordinates of supp(mu)*L and
    R*supp(mu) and coordinate products on K for eta and the coset terms.
    When H = G the report is read off the split: eta = nu, p = 1, gamma is
    the least element of G, and the cluster is [nu].

    Each clause is proven once.  A clause an earlier step already proves has
    no run-time statement; the comment at that step names it: _limit_factors
    (mu * nu = nu = nu * mu, and nu * nu = nu by the fold R*L in G), the
    verified split (L*G*R = K, every G-coordinate in G, and R*L in G, which
    is eta_idempotent when H = G), the fold supp(rho)*supp(lambda) in H (eta
    * eta = eta, and a second split of supp(eta) would read eta as the first
    does), the subgroup H (gamma*h*H = gamma*H) or the least p with gamma^p
    in H (gamma_power_in_subgroup, and with period_matches_quotient the p
    cosets gamma^k H are distinct and fill G).  H is tested only for
    closure, as it lies in the verified group G.  Normality conjugates H by
    gamma alone, as H and gamma generate G (coset_powers_exhaust).  nu, eta
    and the coset terms c_k = lambda * omega_(gamma^k H) * rho for k =
    1..p-1 are coordinate products, so psi_inv o psi = id on the verified
    coordinates gives nu_factorization, eta_factorization and
    marginal_readings_agree, and supp(lambda) = L, supp(rho) = R
    (support_nu_is_kernel and the bijection) give eta_support_product and
    cluster_supports_cosets.  The coset map (the coordinate-walk lemma of
    the measure module) makes c_k = mu^k * eta once the left steps G(s*x)
    lie in gamma*H (gamma_coset), and eta * mu^p = eta once the right steps
    G(y*s) do too (eta_power_invariant); cluster_factorization,
    cluster_distinct and, with eta_idempotent and subgroup_normal by the
    fold, cluster_closed_cyclic follow.  So a G-coordinate that sends a step
    off the coset stops the report at gamma_coset or eta_power_invariant,
    naming it.  When H = G these clauses hold with nothing to compare:
    gamma*H = G holds every G-coordinate, so every step lies in the one
    coset, gamma*G*gamma^-1 = G, and R*L in G is eta_idempotent.  Only
    period_matches_quotient is checked there, as every set of the support
    cycle on K must be K.
    """
    sg = mu.parent
    steps = support(mu)
    # The walk's T is closed, so its kernel T*z*T is an ideal of T by
    # associativity alone, and the split verifies it completely simple.
    q, cycle, dec = _walk_split(steps)
    walk_kernel = dec.carrier
    # _limit_factors raises unless mu * nu = nu = nu * mu (nu_invariant),
    # and nu * nu = nu by the fold R*L in G (nu_idempotent).
    nu, lam, rho = _limit_factors(mu, dec)
    # nu = lambda * omega_G * rho puts its mass at points x*g*y with x in L
    # (lambda's support, from the split's coordinates), g in G and y in R,
    # and the split verified L*G*R = K.  So supp(nu) lies in K, and equals
    # it exactly when the two have one size.
    if len(nu._nums) != len(walk_kernel):
        raise TheoremViolation(
            "support_nu_is_kernel", f"supp(nu)={support(nu).labels()}, kernel={walk_kernel.labels()}"
        )
    # support_nu_product: dec.carrier is walk_kernel, and the split verified
    # L*G*R = dec.carrier.
    e = dec.base
    g_carrier = dec.group.carrier
    # The split stored e*z*e, which lies in e*(K*e) = G, as the G-coordinate
    # of z.
    coordinates = dec.coordinates

    # H, read off the support cycle on the kernel K.  Every element of K is
    # recurrent for the walk z -> z*s, because each minimal right ideal is a
    # closed communicating class.  So on the cycle supp(mu^n) & K =
    # supp(mu^(n mod p) * eta), the set L gamma^k H R of the factorization
    # theorem, and those p sets partition K.  Exactly one holds e = e*e*e:
    # L*H*R = supp(eta), whose G-coordinates are H, so eta = lambda *
    # omega_H * rho.
    on_kernel = [c & walk_kernel for c in cycle]
    held = next(c for c in on_kernel if e in c)
    if held == walk_kernel:
        # psi is a bijection, so the G-coordinates of K are all of G, and
        # H = G.  So eta = nu, gamma*H = G for every gamma in G, and p = 1,
        # the least k with gamma^k in H.  gamma is G's least element, the
        # least of G(s*x)*H = G.  Every clause about the cosets holds with
        # nothing to compare: every G-coordinate lies in G = gamma*H, so the
        # left steps make the one coset (gamma_coset) and the right steps lie
        # in it (eta_power_invariant); gamma*G*gamma^-1 = G (subgroup_normal);
        # R*L in G, which the split verified, is eta_idempotent; and the one
        # cluster point eta = nu is the whole cycle, closed as eta*eta = eta.
        # Only the support cycle on K is left to check: at p = 1 all its
        # sets must be equal, K = L*G*R.
        _check_period(on_kernel, 1, dec.group.order, dec.group.order)
        return LimitReport(
            nu=nu, q=q, p=1, eta=nu, cluster=(nu,), rees=dec, H=dec.group, gamma=g_carrier.least()
        )
    # H lies in the group G the split verified, so H is a subgroup once it
    # is non-empty and closed: each h in H has h^n = e for some n >= 1, which
    # puts e and h^-1 = h^(n-1) in H.  Its identity is e and its inverses
    # are those of G.
    rows = sg.rows
    h_set = sg.subset(coordinates[z][1] for z in held)
    if not (h_set and product_sets(h_set, h_set).issubset(h_set)):
        raise TheoremViolation("subgroup_structure", f"H={h_set.labels()} is not closed")
    subgroup = GroupStructure(h_set, e, {h: dec.group.inv(h) for h in h_set})
    eta = coordinate_product(lam, haar_uniform(subgroup), rho)
    # eta = lambda * omega_H * rho is idempotent by the fold lemma (see the
    # measure module) exactly when supp(rho)*supp(lambda) lies in H, and
    # supp(rho) = R, supp(lambda) = L (support_nu_is_kernel; see
    # eta_support_product below).
    outside = product_sets(dec.right, dec.left) - h_set
    if outside:
        raise TheoremViolation("eta_idempotent", f"R*L holds {sg.label(outside.least())} outside H")
    # subgroup_in_group: every G-coordinate lies in e*(K*e) = G.
    # eta_support_product: supp(nu) = psi(supp(lambda) x G x supp(rho)) is
    # K = psi(L x G x R) (support_nu_is_kernel), and psi is a bijection, so
    # supp(lambda) = L and supp(rho) = R; a coordinate product over a subset
    # C of G is then supported on psi(L x C x R) = L*C*R, here L*H*R.

    # One step of mu moves a coordinate product's middle factor by the
    # G-coordinates G(s*x), x in L, on the left and G(y*s), y in R, on the
    # right (the coordinate-walk lemma of the measure module), read here
    # from the split with no convolution.  As supp(lambda) = L, supp(mu *
    # eta) has the G-coordinates left_steps * H.
    left_steps = sg.subset(coordinates[rows[s][x]][1] for s in steps for x in dec.left)
    right_steps = sg.subset(coordinates[rows[y][s]][1] for y in dec.right for s in steps)
    gamma_set = product_sets(left_steps, h_set)
    gamma = gamma_set.least()
    gamma_coset = sg.subset(rows[gamma][h] for h in h_set)
    # H and gamma generate G (coset_powers_exhaust below, which a returned
    # report also passed), so gamma*H*gamma^-1 = H makes H normal in G.
    gamma_inv = dec.group.inv(gamma)
    conjugate = sg.subset(rows[z][gamma_inv] for z in gamma_coset)
    if conjugate != h_set:
        raise TheoremViolation(
            "subgroup_normal", f"gamma*H*gamma^-1 and H differ at {_first_difference(conjugate, h_set)}"
        )
    if gamma_set != gamma_coset:
        raise TheoremViolation(
            "gamma_coset", f"G(s*x)*H and gamma*H differ at {_first_difference(gamma_set, gamma_coset)}"
        )
    # gamma_representative_independent: any z = gamma*h in gamma*H has z*H
    # = gamma*(h*H) = gamma*H.

    # p is the order of gamma*H in G/H, the least k >= 1 with gamma^k in H.
    # The support cycle on K witnesses it independently: rotating the cycle
    # by p leaves it unchanged and its first p sets are distinct, so p is
    # its least period, and p*|H| = |G|.
    gamma_pows = [e, gamma]
    while gamma_pows[-1] not in h_set:
        gamma_pows.append(rows[gamma_pows[-1]][gamma])
    p = len(gamma_pows) - 1
    _check_period(on_kernel, p, subgroup.order, dec.group.order)
    # Put c_k = lambda * omega_(gamma^k H) * rho.  Every G(s*x) lies in
    # gamma*H (gamma_coset), so by normality G(s*x)*gamma^k H = gamma^(k+1) H,
    # and lambda is fixed by its walk (nu_invariant, read through the lemma
    # with m = omega_G): mu * c_k = c_(k+1).  Mirrored, every G(y*s) in
    # gamma*H = H*gamma and rho fixed give c_k * mu = c_(k+1).  With
    # gamma^p in H, c_p = eta, so mu^p * eta = eta = eta * mu^p.
    stray = right_steps - gamma_coset
    if stray:
        raise TheoremViolation(
            "eta_power_invariant", f"G(y*s) = {sg.label(stray.least())} lies outside gamma*H"
        )
    # coset_powers_exhaust: the least p makes the cosets gamma^k H, k < p,
    # distinct, hence disjoint, and p*|H| = |G| (period_matches_quotient)
    # makes them fill G.  gamma_power_in_subgroup: p is defined by it.

    # c_k for k < p, built in the split's coordinates; c_0 is eta.
    cluster = [eta] + [
        coordinate_product(lam, uniform_on(sg.subset(rows[g][h] for h in h_set)), rho)
        for g in gamma_pows[1:p]
    ]
    # cluster_distinct: c_k lives on L*gamma^k H*R, as for
    # eta_support_product, and those sets are distinct
    # (coset_powers_exhaust), so the c_k are too.
    # cluster_closed_cyclic: by the fold (see the measure module), with
    # rho * lambda a probability on H (eta_idempotent), eta * c_j = lambda *
    # omega_H * omega_(gamma^j H) * rho, which is c_j because gamma^j H
    # gamma^-j = H (subgroup_normal).  So c_i * c_j = mu^i * (eta * c_j) =
    # c_((i+j) mod p).
    # cluster_supports_cosets and cluster_factorization: c_k = mu^k * eta
    # (eta_power_invariant above), over gamma^k H by construction, so
    # supported on L*gamma^k H*R.
    # nu_factorization and eta_factorization: nu and eta are the coordinate
    # products over G and H, and psi_inv o psi is the identity on the
    # verified coordinates, so they read back as (lambda, omega_G, rho) and
    # (lambda, omega_H, rho).
    # marginal_readings_agree: a second split of supp(eta) at e would read
    # the same triple.  The fold R*L in H (eta_idempotent; supp(eta) = L*H*R
    # by eta_support_product) makes supp(eta) completely simple with base e
    # and group e*supp(eta)*e = H.  Its psi_inv has the closed form
    # (z*e*g^-1, g, g^-1*e*z) with g = e*z*e, and g^-1 in H is g^-1 in G, so
    # both splits give every point of supp(eta) the same coordinates, those
    # eta was built from.
    return LimitReport(
        nu=nu,
        q=q,
        p=p,
        eta=eta,
        cluster=tuple(cluster),
        rees=dec,
        H=subgroup,
        gamma=gamma,
    )


@dataclass(frozen=True)
class CesaroDiagnostic:
    """Exact deviation series for the bound |mu_n - mu * mu_n| <= 2/n, and
    the powers mu, mu^2, ..., mu^(n_max+1) it was read off, which equality
    and repr leave out."""

    deviations: tuple
    limit_gaps: tuple
    powers: tuple = field(compare=False, repr=False)


def cesaro_diagnostic(mu, n_max, nu):
    """Verify the 2/n bound for n <= n_max and report the decay to nu, the
    Cesaro limit of mu as returned by cesaro_limit.

    Norms are unhalved total variation, the norm in which the bound is
    stated and attained.  The deviation needs no convolution with the
    average.  Convolution is bilinear and associative, so with avg_n =
    (mu + mu^2 + ... + mu^n)/n,

        mu * avg_n = (mu^2 + ... + mu^(n+1))/n,

    and the difference telescopes: avg_n - mu * avg_n = (mu - mu^(n+1))/n.
    So |avg_n - mu * avg_n| = |mu - mu^(n+1)|/n, which is at most 2/n as
    mu and mu^(n+1) are probabilities.  Each step n makes one convolution,
    the running power mu^(n+1), which the next average also adds; the
    result keeps those powers, mu to mu^(n_max+1), for shift_deviation.
    Each gap |avg_n - nu| is read off the running sum, whose numerators
    are avg_n's over den*n, with no Dist for avg_n.
    """
    if n_max < 1:
        raise MalformedInput(f"n_max must be >= 1, got {n_max}")
    _check_parent(mu, nu)
    deviations = []
    gaps = []
    powers = [mu]
    sums = _running_sums(mu, n_max + 1)
    acc, den, _ = next(sums)
    for n in range(1, n_max + 1):
        gaps.append(RAT(*_l1_numerator(acc.items(), den * n, nu._nums, nu.den)))
        # The next sum's power is mu^(n+1); acc moves on past avg_n.
        acc, den, later = next(sums)
        powers.append(later)
        dev, dev_den = _variation_numerator(mu, later)
        if dev > 2 * dev_den:
            raise VerificationFailed("cesaro bound", f"deviation {RAT(dev, dev_den * n)} > 2/{n}")
        deviations.append(RAT(dev, dev_den * n))
    return CesaroDiagnostic(deviations=tuple(deviations), limit_gaps=tuple(gaps), powers=tuple(powers))


def shift_deviation(powers, n, j):
    """Exact |avg_n - mu^j * avg_n| in unhalved total variation, read off
    powers = (mu, mu^2, ..., mu^m) with m >= n + j and no convolution.

    By bilinearity and associativity, as for cesaro_diagnostic,
    mu^j * avg_n = (mu^(j+1) + ... + mu^(j+n))/n, so

        n*(avg_n - mu^j * avg_n) = (mu + ... + mu^n) - (mu^(j+1) + ... + mu^(n+j)).

    The two sums share the terms mu^k with j < k <= n (none when j >= n),
    and what is left is (mu + ... + mu^j) - (mu^(n+1) + ... + mu^(n+j)): for
    j <= n, take mu^(j+1) + ... + mu^n out of both; for j > n, add
    mu^(n+1) + ... + mu^j to both.  So the deviation is the norm of j
    powers minus j others, over n, at most 2j/n.
    """
    if n < 1 or j < 1 or len(powers) < n + j:
        raise MalformedInput(
            f"shift n={n}, j={j} needs n, j >= 1 and mu to mu^{n + j}, got {len(powers)} powers"
        )
    terms = [(1, d) for d in powers[:j]] + [(-1, d) for d in powers[n : n + j]]
    den = lcm(*(d.den for _, d in terms))
    diff = {}
    for sign, d in terms:
        scale = sign * (den // d.den)
        for z, v in d._nums:
            diff[z] = diff.get(z, 0) + v * scale
    return RAT(sum(map(abs, diff.values())), den * n)


@dataclass(frozen=True)
class ShadowReport:
    """Float-64 sanity iteration |mu^(np) - eta|; diagnostic only."""

    gaps: tuple
    non_increasing: bool
    iterations_to_tolerance: int
    converged: bool


_SHADOW_TOLERANCE = 1e-9
_SHADOW_MAX_ITERATIONS = 4096


def float_shadow(mu, eta, step):
    """Iterate the float transition matrix p steps at a time toward eta.

    Checks that the l1 gap never increases (up to float jitter) and finds
    the first iterate below _SHADOW_TOLERANCE, within
    _SHADOW_MAX_ITERATIONS steps.  Exact checks remain authoritative.
    The matrix takes one row scatter per support point s, adding mu(s) at
    (z, z*s) for every z, and the start and target vectors are laid on
    the supports of mu and eta.
    """
    _check_parent(mu, eta)
    if step < 1:
        raise MalformedInput(f"shadow step must be >= 1, got {step}")
    table = mu.parent.table_array()
    n = mu.parent.order
    every = np.arange(n)
    m = np.zeros((n, n))
    for s, p in mu.items():
        m[every, table[:, s]] += float(p)
    m_step = np.linalg.matrix_power(m, step)
    target = _float_vector(eta)
    # Start at mu^step: the gap to eta is non-increasing under M^step.
    v = _float_vector(mu) @ np.linalg.matrix_power(m, step - 1)
    gaps = []
    non_increasing = True
    hit = -1
    for it in range(_SHADOW_MAX_ITERATIONS):
        gap = float(np.abs(v - target).sum())
        if gaps and gap > gaps[-1] + 1e-12:
            non_increasing = False
        gaps.append(gap)
        if gap < _SHADOW_TOLERANCE and hit < 0:
            hit = it
            break
        v = v @ m_step
    return ShadowReport(
        gaps=tuple(gaps),
        non_increasing=non_increasing,
        iterations_to_tolerance=hit,
        converged=hit >= 0,
    )


def _float_vector(mu):
    """mu's probabilities as a dense float64 vector, 0 off its support."""
    v = np.zeros(mu.parent.order)
    for z, p in mu.items():
        v[z] = float(p)
    return v
