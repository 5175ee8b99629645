"""Exact probability distributions on a finite semigroup and their convolution.

A Dist holds one positive integer denominator den and its support as
(index, numerator) pairs of ints in index order, reduced so that the
numerators and den have no common factor.  That form is canonical, so
equality and hashing compare ints in O(|supp|), and convolve, translate and
marginals work on ints: a convolution multiplies numerators over the
product of the two denominators and reduces once at the end.  items(),
probs, prob() and repr hand out fractions.Fraction values, built on first
use and cached.  Every Dist is a probability, checked where it is made:

* Dist(parent, probs) and Dist.from_mapping check a dense vector in full:
  one entry per element, none negative, exact sum 1.
* Dist._from_numerators(parent, den, numerators) is the constructor for
  results that are probabilities by construction (convolve, translate,
  marginals, haar_uniform, uniform_on, dirac, generators.random_dist); it
  checks only the given support: the map is non-empty, every numerator is
  > 0 and they sum to exactly den.
* Dist._from_support(parent, weights) takes rational weights (the rebuilds
  in dynamics), puts them over the lcm of their denominators and hands the
  numerators to _from_numerators.

Key facts implemented and verified here: an idempotent distribution
(mu*mu = mu) is supported on a completely simple subsemigroup and factors
as (left marginal) * (uniform on the group factor) * (right marginal);
conversely such a product is idempotent whenever the right-times-left
support folds into the group.
"""

from dataclasses import dataclass
from math import gcd, lcm

from ._rat import ONE, RAT, ZERO, as_rat
from .core import ElementSet, GroupStructure
from .errors import (
    EmptySet,
    HypothesisViolated,
    InvalidDistribution,
    MalformedInput,
    NotSimple,
    PreconditionViolated,
    SupportOutsideDecomposition,
    TheoremViolation,
)
from .rees import ReesDecomposition, psi_inv, rees_decompose


class Dist:
    """Probability distribution over the elements of a semigroup."""

    __slots__ = ("parent", "den", "_nums", "_items", "_probs")

    def __init__(self, parent, probs):
        probs = tuple(as_rat(p) for p in probs)
        if len(probs) != parent.order:
            raise InvalidDistribution(f"{len(probs)} probabilities for {parent.order} elements")
        total = ZERO
        for i, p in enumerate(probs):
            if p < 0:
                raise InvalidDistribution(f"negative probability at {parent.label(i)}")
            total += p
        if total != ONE:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")
        # over the lcm of the denominators the numerators share no factor
        den = lcm(*(p.denominator for p in probs))
        nums = tuple((i, p.numerator * (den // p.denominator)) for i, p in enumerate(probs) if p)
        self._set(parent, den, nums, probs)

    @classmethod
    def _from_numerators(cls, parent, den, numerators):
        """The Dist with probabilities {index: numerator / den}; checks only
        that the map is non-empty, den and every numerator are > 0 and the
        numerators sum to exactly den, then divides out their common factor."""
        if not numerators:
            raise InvalidDistribution("empty support")
        if not den > 0:
            raise InvalidDistribution(f"denominator {den} is not positive")
        if min(numerators.values()) <= 0:
            i = min(i for i, n in numerators.items() if n <= 0)
            raise InvalidDistribution(f"non-positive probability at {parent.label(i)}")
        total = sum(numerators.values())
        if total != den:
            raise InvalidDistribution(f"probabilities sum to {RAT(total, den)}, not 1")
        g = gcd(den, *numerators.values())
        if g == 1:
            nums = tuple(sorted(numerators.items()))
        else:
            den //= g
            nums = tuple((i, n // g) for i, n in sorted(numerators.items()))
        dist = object.__new__(cls)
        dist._set(parent, den, nums, None)
        return dist

    @classmethod
    def _from_support(cls, parent, weights):
        """The Dist with rational weights {index: probability}, checked as
        _from_numerators checks."""
        den = lcm(*(p.denominator for p in weights.values()))
        return cls._from_numerators(
            parent, den, {i: p.numerator * (den // p.denominator) for i, p in weights.items()}
        )

    def _set(self, parent, den, nums, probs):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_items", None)
        object.__setattr__(self, "_probs", probs)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dist is immutable; cannot set {name!r}")

    @property
    def probs(self):
        """Dense tuple of probabilities, one per element, in index order."""
        if self._probs is None:
            probs = [ZERO] * self.parent.order
            for i, p in self.items():
                probs[i] = p
            object.__setattr__(self, "_probs", tuple(probs))
        return self._probs

    def prob(self, a):
        _check_index(self.parent, a)
        return self.probs[a]

    def items(self):
        """(element, probability) pairs over the support, in index order."""
        if self._items is None:
            den = self.den
            object.__setattr__(self, "_items", tuple((i, RAT(n, den)) for i, n in self._nums))
        return list(self._items)

    def support(self):
        mask = 0
        for i, _ in self._nums:
            mask |= 1 << i
        return ElementSet(self.parent, mask)

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
        probs = [ZERO] * sg.order
        for key, value in mapping.items():
            i = sg.index(key) if isinstance(key, str) else key
            _check_index(sg, i)
            probs[i] += as_rat(value)
        return cls(sg, probs)


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
    if mu.parent is not nu.parent:
        raise MalformedInput("distributions live on different semigroups")
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


def convolve_many(first, *rest):
    acc = first
    for nxt in rest:
        acc = convolve(acc, nxt)
    return acc


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
    if not subset:
        raise EmptySet("uniform distribution on the empty set")
    return Dist._from_numerators(subset.parent, len(subset), dict.fromkeys(subset, 1))


def marginals(mu, dec):
    """Pushforwards of mu onto the three product coordinates of dec.

    Every support point must lie inside the decomposed carrier.  The three
    returned distributions live on the same ambient semigroup, concentrated
    on the left factor, the group, and the right factor respectively.
    """
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


def is_idempotent_measure(mu):
    return convolve(mu, mu) == mu


@dataclass(frozen=True, eq=False)
class IdempotentFactorization:
    """mu = left * haar * right over the decomposition of mu's support."""

    decomposition: ReesDecomposition
    left: Dist
    haar: Dist
    right: Dist

    def recompose(self):
        return convolve(convolve(self.left, self.haar), self.right)


def factorize_idempotent(mu):
    """Split an idempotent distribution into its product form and verify it.

    The support must form a completely simple subsemigroup, the group
    marginal must be uniform, and the three-factor convolution must
    reproduce mu exactly; violations raise TheoremViolation.
    """
    if not is_idempotent_measure(mu):
        raise PreconditionViolated("mu * mu = mu")
    supp = mu.support()
    try:
        dec = rees_decompose(supp)
    except NotSimple as exc:
        raise TheoremViolation(
            "support completely simple", f"support is not simple: {exc}"
        ) from exc
    left, mid, right = marginals(mu, dec)
    if mid != haar_uniform(dec.group):
        raise TheoremViolation("group marginal uniform")
    rebuilt = convolve_many(left, mid, right)
    if rebuilt != mu:
        raise TheoremViolation("product form", "left * haar * right != mu")
    return IdempotentFactorization(decomposition=dec, left=left, haar=mid, right=right)


def compose_idempotent(mu_left, mu_right, group):
    """Build mu_left * (uniform on group) * mu_right and verify idempotence.

    Requires the support of mu_right * mu_left to fold into the group;
    the first escaping element is reported as the precondition witness.
    """
    fold = convolve(mu_right, mu_left)
    for z, _ in fold.items():
        if z not in group.carrier:
            raise PreconditionViolated(
                "support of mu_right * mu_left inside the group",
                fold.parent.label(z),
            )
    built = convolve_many(mu_left, haar_uniform(group), mu_right)
    if not is_idempotent_measure(built):
        raise TheoremViolation("composition idempotent")
    return built


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


@dataclass(frozen=True)
class ConvolutionInvariance:
    """Count of verified identities nu*d_(xa) = nu*d_a and d_(ax)*nu = d_a*nu."""

    pairs_checked: int


def check_convolution_invariance(mu, nu):
    """For nu = mu*nu = nu*mu, verify the translation identities of nu
    over all x in supp(mu) and a in supp(nu)."""
    if convolve(mu, nu) != nu:
        raise HypothesisViolated("nu = mu * nu")
    if convolve(nu, mu) != nu:
        raise HypothesisViolated("nu = nu * mu")
    sg = mu.parent
    pairs = 0
    for x in support(mu):
        for a in support(nu):
            xa = sg.mul(x, a)
            ax = sg.mul(a, x)
            if translate(nu, xa, "right") != translate(nu, a, "right"):
                raise TheoremViolation(
                    "right translation identity",
                    f"x={sg.label(x)}, a={sg.label(a)}",
                )
            if translate(nu, ax, "left") != translate(nu, a, "left"):
                raise TheoremViolation(
                    "left translation identity",
                    f"x={sg.label(x)}, a={sg.label(a)}",
                )
            pairs += 1
    return ConvolutionInvariance(pairs_checked=pairs)
