"""Exact probability distributions on a finite semigroup and their convolution.

A Dist holds one positive integer denominator den and its support as
(index, numerator) pairs of ints in index order, reduced so that the
numerators and den have no common factor.  That form is canonical, so
equality and hashing compare ints in O(|supp|), and convolve, translate and
marginals work on ints: a convolution multiplies numerators over the
product of the two denominators and reduces once at the end.  items(),
probs, prob() and repr hand out fractions.Fraction values; only probs is
cached, built on first use.  Every Dist is a probability, checked where it
is made:

* Dist.from_mapping checks rational weights over the entries it is
  given only, none negative and exact sum 1, so reading a distribution
  costs its support, not the order; it puts the non-zero weights over
  the lcm of their denominators and hands the numerators to
  _from_numerators.
* Dist(parent, probs) takes a dense vector, one entry per element, and
  checks it through from_mapping; it keeps the vector as its probs.
* Dist._from_numerators(parent, den, numerators) is the constructor for
  results that are probabilities by construction (convolve,
  coordinate_product, translate, marginals, haar_uniform, uniform_on,
  dirac, generators.random_dist, and the fixed laws and Cesaro averages
  in dynamics); it checks only the given support: the map is non-empty,
  every numerator is > 0 and they sum to exactly den.

Key facts implemented and verified here: an idempotent distribution
(mu*mu = mu) is supported on a completely simple subsemigroup and factors
as (left marginal) * (uniform on the group factor) * (right marginal);
conversely such a product is idempotent whenever the right-times-left
support folds into the group.  So factorize_idempotent decides
idempotence by that factorization theorem and squares nothing: mu is
idempotent exactly when its support splits (it is closed and simple),
its group marginal is omega_G, and the coordinate product of its three
marginals is mu again, which the fold lemma below makes idempotent, as
the split verified R*L in G.  When any of these fails, mu is not
idempotent, and factorize_idempotent raises PreconditionViolated;
the tests' one-convolution check mu * mu = mu is the brute-force oracle
of that decision.  The converse is the fold lemma: for a
group H in S with Haar measure omega_H (uniform on H) and probabilities
lambda, rho with supp(rho)*supp(lambda) inside H, lambda * omega_H * rho
is idempotent.  Right translation by h in H permutes H, so omega_H *
delta_h = omega_H, hence omega_H * m * omega_H = omega_H for every
probability m on H; with m = rho * lambda,
  (lambda * omega_H * rho)^2 = lambda * omega_H * (rho * lambda) * omega_H * rho
                             = lambda * omega_H * rho.
compose_idempotent checks the fold and squares nothing; dynamics proves
its limit nu and cluster identity eta idempotent the same way.

Beside the fold lemma sits the coordinate-product lemma.  When a split
S = L*G*R makes psi(x, g, y) = x*g*y a bijection L x G x R -> S, and
lambda, m, rho live on L, G and R, then
  (lambda * m * rho)(psi(x, g, y)) = lambda(x) * m(g) * rho(y),
because psi(x, g, y) has no other factorization x'*g'*y' with its three
factors in those supports.  coordinate_product builds the measure that
way, one product per triple and no sum, so it is exact whenever no two
triples meet, whatever the ambient table; where two do meet, one
overwrites the other, the numerators fall short of the denominator, and
_from_numerators raises, so a collision is never a silent wrong answer.

Beside those sits the coordinate-walk lemma, for the split K = L*G*R of
the kernel of a semigroup T at the idempotent e, with coordinates
(L(z), G(z), R(z)) and s in T.  Take x in L, so x = x*e.  K is an ideal,
so s*x = (s*x)*e lies in K*e, and a point z = z*e of K has R(z) =
G(z)^-1*e*z = G(z)^-1*(e*z*e) = e, by the closed form of psi_inv in the
rees module; so s*x = L(s*x)*G(s*x), and
  s*(x*g*y) = L(s*x)*(G(s*x)*g)*y
with G(s*x)*g in G, which are the coordinates of the left side.  Mirrored,
for y in R, y*s lies in e*K, so L(y*s) = e and
  (x*g*y)*s = x*(g*G(y*s))*R(y*s).
For mu on T and lambda, m, rho on L, G, R, the coordinate-product lemma
then gives
  mu * (lambda * m * rho) = sum over s, x of mu(s)*lambda(x) *
                            delta_L(s*x) * (delta_G(s*x) * m) * rho,
so a step of mu moves the left factor by the walk x -> L(s*x) and the
middle one by the G-coordinates G(s*x), with no convolution on T.  The
coset map follows: let H be normal in G, gamma in G, and suppose every
G(s*x), s in supp(mu), x in supp(lambda), lies in gamma*H.  Then
G(s*x)*gamma^k*H = gamma^(k+1)*H, the uniform law on a coset moves to the
uniform law on the next, and when lambda is fixed by its walk,
  mu * (lambda * omega_(gamma^k H) * rho) = lambda * omega_(gamma^(k+1) H) * rho.
The mirror, with every G(y*s) in gamma*H = H*gamma and rho fixed by
y -> R(y*s), moves the coset the same way from the right.  dynamics
builds the cluster cycle of mu^n this way.
"""

from dataclasses import dataclass
from functools import cache
from math import gcd, lcm

from ._rat import ONE, RAT, ZERO, as_rat
from .core import GroupStructure, _ascending_subset, _Frozen, _as_set, _check_parent, product_sets
from .errors import (
    EmptySet,
    HypothesisViolated,
    InvalidDistribution,
    MalformedInput,
    NotASubsemigroup,
    NotSimple,
    PreconditionViolated,
    SupportOutsideDecomposition,
    TheoremViolation,
)
from .rees import ReesDecomposition, psi_inv, rees_decompose


class Dist(_Frozen):
    """Probability distribution over the elements of a semigroup; immutable
    through core._Frozen, and rebuilt through _from_numerators by copy and
    pickle."""

    __slots__ = ("parent", "den", "_nums", "_probs")

    def __init__(self, parent, probs):
        probs = tuple(as_rat(p) for p in probs)
        if len(probs) != parent.order:
            raise InvalidDistribution(f"{len(probs)} probabilities for {parent.order} elements")
        dist = Dist.from_mapping(parent, dict(enumerate(probs)))
        _set_parent(self, parent)
        _set_den(self, dist.den)
        _set_nums(self, dist._nums)
        _set_probs(self, probs)

    @classmethod
    def _from_numerators(cls, parent, den, numerators):
        """The Dist with probabilities {index: numerator / den}; checks only
        that the map is non-empty, den and every numerator are > 0 and the
        numerators sum to exactly den, then divides out their common factor."""
        if not numerators:
            raise InvalidDistribution("empty support")
        if not den > 0:
            raise InvalidDistribution(f"denominator {den} is not positive")
        values = numerators.values()
        if min(values) <= 0:
            i = min(i for i, n in numerators.items() if n <= 0)
            raise InvalidDistribution(f"non-positive probability at {parent.label(i)}")
        total = sum(values)
        if total != den:
            raise InvalidDistribution(f"probabilities sum to {RAT(total, den)}, not 1")
        g = gcd(den, *values)
        if g == 1:
            nums = tuple(sorted(numerators.items()))
        else:
            den //= g
            nums = tuple([(i, n // g) for i, n in sorted(numerators.items())])
        # The slots are written through their own descriptors, past
        # _Frozen's guard.
        dist = object.__new__(cls)
        _set_parent(dist, parent)
        _set_den(dist, den)
        _set_nums(dist, nums)
        _set_probs(dist, None)
        return dist

    def __reduce__(self):
        return Dist._from_numerators, (self.parent, self.den, dict(self._nums))

    @property
    def probs(self):
        """Dense tuple of probabilities, one per element, in index order."""
        if self._probs is None:
            probs = [ZERO] * self.parent.order
            for i, p in self.items():
                probs[i] = p
            _set_probs(self, tuple(probs))
        return self._probs

    def prob(self, a):
        _check_index(self.parent, a)
        return self.probs[a]

    def items(self):
        """(element, probability) pairs over the support, in index order."""
        den = self.den
        return [(i, RAT(n, den)) for i, n in self._nums]

    def support(self):
        # The numerators are in index order, and their indices in range.
        return _ascending_subset(self.parent, (i for i, _ in self._nums))

    def __eq__(self, other):
        if not isinstance(other, Dist):
            return NotImplemented
        return self.parent is other.parent and self.den == other.den and self._nums == other._nums

    def __hash__(self):
        return hash((id(self.parent), self.den, self._nums))

    def __repr__(self):
        inside = ", ".join(f"{self.parent.label(i)}: {p}" for i, p in self.items())
        return f"Dist({{{inside}}})"

    @classmethod
    def from_mapping(cls, sg, mapping):
        """The Dist with the given {label or index: probability}; a label and
        an index naming one element add up, and zero entries are dropped.
        Checked at the mapping's size: no weight negative, exact sum 1."""
        weights = {}
        for key, value in mapping.items():
            i = sg.index(key) if isinstance(key, str) else key
            _check_index(sg, i)
            weights[i] = weights.get(i, ZERO) + as_rat(value)
        negative = [i for i, p in weights.items() if p < 0]
        if negative:
            raise InvalidDistribution(f"negative probability at {sg.label(min(negative))}")
        total = sum(weights.values(), ZERO)
        if total != ONE:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")
        weights = {i: p for i, p in weights.items() if p}
        den = lcm(*(p.denominator for p in weights.values()))
        return cls._from_numerators(
            sg, den, {i: p.numerator * (den // p.denominator) for i, p in weights.items()}
        )


_set_parent = Dist.parent.__set__
_set_den = Dist.den.__set__
_set_nums = Dist._nums.__set__
_set_probs = Dist._probs.__set__


def _check_index(sg, a):
    if not 0 <= a < sg.order:
        raise MalformedInput(f"element index out of range: {a}")


def _merge(pairs):
    """{z: total numerator} over (z, numerator) pairs, equal z merged."""
    out = {}
    for z, n in pairs:
        if z in out:
            out[z] += n
        else:
            out[z] = n
    return out


def dirac(sg, a):
    _check_index(sg, a)
    return Dist._from_numerators(sg, 1, {a: 1})


def support(mu):
    return mu.support()


def convolve(mu, nu):
    """(mu*nu)(z) = sum of mu(x)nu(y) over factorizations z = x*y."""
    _check_parent(mu, nu)
    rows = mu.parent.rows
    out = {}
    right = nu._nums
    for x, a in mu._nums:
        row = rows[x]
        for y, b in right:
            z = row[y]
            if z in out:
                out[z] += a * b
            else:
                out[z] = a * b
    return Dist._from_numerators(mu.parent, mu.den * nu.den, out)


def coordinate_product(lam, m, rho):
    """lambda * m * rho built triple by triple: lambda(x)*m(g)*rho(y) at
    x*g*y, over den(lambda)*den(m)*den(rho).  Exact for supports on the L,
    G and R of a verified split (the coordinate-product lemma in the module
    docstring); triples that meet lose mass, and the sum check raises
    InvalidDistribution."""
    _check_parent(lam, m)
    _check_parent(lam, rho)
    sg = lam.parent
    rows = sg.rows
    out = {}
    right = rho._nums
    for x, a in lam._nums:
        row_x = rows[x]
        for g, b in m._nums:
            row = rows[row_x[g]]
            ab = a * b
            for y, c in right:
                out[row[y]] = ab * c
    return Dist._from_numerators(sg, lam.den * m.den * rho.den, out)


def translate(mu, a, side):
    """Dirac convolution on the chosen side: 'left' is delta_a * mu, the
    support relabelled by z -> a*z; 'right' is mu * delta_a, by z -> z*a."""
    sg = mu.parent
    _check_index(sg, a)
    rows = sg.rows
    if side == "left":
        row = rows[a]
        images = [(row[z], n) for z, n in mu._nums]
    elif side == "right":
        images = [(rows[z][a], n) for z, n in mu._nums]
    else:
        raise MalformedInput(f"side must be 'left' or 'right', got {side!r}")
    return Dist._from_numerators(sg, mu.den, _merge(images))


def haar_uniform(group):
    """Uniform distribution on a verified group carrier."""
    if not isinstance(group, GroupStructure):
        raise MalformedInput("haar_uniform expects a GroupStructure")
    return Dist._from_numerators(group.parent, group.order, dict.fromkeys(group.carrier, 1))


def uniform_on(subset):
    subset = _as_set(subset)
    if not subset:
        raise EmptySet("uniform distribution on the empty set")
    return Dist._from_numerators(subset.parent, len(subset), dict.fromkeys(subset, 1))


def marginals(mu, dec):
    """Pushforwards of mu onto the three product coordinates of dec.

    Every support point must lie inside the decomposed carrier.  The three
    returned distributions live on the same ambient semigroup, concentrated
    on the left factor, the group, and the right factor respectively.
    """
    _check_parent(mu, dec)
    sg = mu.parent
    coords = []
    for z, n in mu._nums:
        if z not in dec.carrier:
            raise SupportOutsideDecomposition(sg.label(z))
        coords.append((psi_inv(dec, z), n))
    return tuple(
        Dist._from_numerators(sg, mu.den, _merge((xgy[k], n) for xgy, n in coords))
        for k in range(3)
    )


@dataclass(frozen=True, eq=False)
class IdempotentFactorization:
    """mu = left * haar * right over the decomposition of mu's support."""

    decomposition: ReesDecomposition
    left: Dist
    haar: Dist
    right: Dist

    def recompose(self):
        return coordinate_product(self.left, self.haar, self.right)


def factorize_idempotent(mu):
    """Split an idempotent distribution into its product form.

    Idempotence is decided by the factorization theorem (see the module
    docstring), and mu is not squared: the support must split as a
    completely simple subsemigroup, the group marginal must be uniform,
    and the three-factor product, built in the split's coordinates, must
    reproduce mu exactly.  Any failure means mu * mu != mu and raises
    PreconditionViolated, not TheoremViolation.
    """
    try:
        dec = rees_decompose(mu.support())
    except (NotASubsemigroup, NotSimple) as exc:
        raise PreconditionViolated("mu * mu = mu") from exc
    left, mid, right = marginals(mu, dec)
    if mid != haar_uniform(dec.group) or coordinate_product(left, mid, right) != mu:
        raise PreconditionViolated("mu * mu = mu")
    return IdempotentFactorization(decomposition=dec, left=left, haar=mid, right=right)


def compose_idempotent(mu_left, mu_right, group):
    """Build the idempotent mu_left * (uniform on group) * mu_right.

    Requires supp(mu_right) * supp(mu_left), the support of mu_right *
    mu_left, to fold into the group; the least escaping element is reported
    as the precondition witness.  The fold makes the product idempotent (the
    fold lemma in the module docstring), so the result is not squared.
    """
    escaping = product_sets(support(mu_right), support(mu_left)) - group.carrier
    if escaping:
        raise PreconditionViolated(
            "support of mu_right * mu_left inside the group",
            escaping.parent.label(escaping.least()),
        )
    return convolve(convolve(mu_left, haar_uniform(group)), mu_right)


@dataclass(frozen=True)
class TranslationInvariance:
    """Dirac-translation invariance of a distribution, by side and scope.

    'support' scope quantifies translators over the support of mu,
    'carrier' scope over the whole semigroup.
    """

    left_on_support: bool
    right_on_support: bool
    left_on_carrier: bool
    right_on_carrier: bool

    @property
    def biinvariant_on_support(self):
        return self.left_on_support and self.right_on_support

    @property
    def biinvariant_on_carrier(self):
        return self.left_on_carrier and self.right_on_carrier


def classify_translation_invariance(mu):
    supp = mu.support().elements()
    carrier = range(mu.parent.order)

    def invariant(side, translators):
        return all(translate(mu, a, side) == mu for a in translators)

    return TranslationInvariance(
        left_on_support=invariant("left", supp),
        right_on_support=invariant("right", supp),
        left_on_carrier=invariant("left", carrier),
        right_on_carrier=invariant("right", carrier),
    )


def check_convolution_invariance(mu, nu):
    """For nu = mu*nu = nu*mu, verify the translation identities of nu
    over all x in supp(mu) and a in supp(nu); return the number of pairs
    (x, a) checked.

    The hypothesis is checked here, by its two convolutions, before the
    identities.  verify's convolution_invariance check runs the identities
    alone, _translation_identities, on the nu of cesaro_limit, which
    verified the same hypothesis before returning it."""
    if convolve(mu, nu) != nu:
        raise HypothesisViolated("nu = mu * nu")
    if convolve(nu, mu) != nu:
        raise HypothesisViolated("nu = nu * mu")
    return _translation_identities(mu, nu)


def _translation_identities(mu, nu):
    """The translation identities of check_convolution_invariance, for a nu
    already known to satisfy nu = mu*nu = nu*mu; the number of pairs
    checked."""
    sg = mu.parent
    # nu * delta_b and delta_b * nu, each built once per element b
    right = cache(lambda b: translate(nu, b, "right"))
    left = cache(lambda b: translate(nu, b, "left"))
    pairs = 0
    for x in support(mu):
        for a in support(nu):
            if right(sg.mul(x, a)) != right(a):
                raise TheoremViolation(
                    "right translation identity",
                    f"x={sg.label(x)}, a={sg.label(a)}",
                )
            if left(sg.mul(a, x)) != left(a):
                raise TheoremViolation(
                    "left translation identity",
                    f"x={sg.label(x)}, a={sg.label(a)}",
                )
            pairs += 1
    return pairs
