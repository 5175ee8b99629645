"""Exact probability distributions on a finite semigroup and their convolution.

Probabilities are exact rationals.  A Dist holds its support sparsely, as
(index, probability) pairs in index order, so items(), support(), equality
and hashing cost O(|supp|); the dense tuple probs is built on first use.
Every Dist is a probability, checked where it is made:

* Dist(parent, probs) and Dist.from_mapping check a dense vector in full:
  one entry per element, none negative, exact sum 1.
* Dist._from_support(parent, weights) is the constructor for results that
  are probabilities by construction (convolve, translate, marginals,
  haar_uniform, uniform_on, dirac, and the rebuilds in dynamics); it checks
  only the given support: every weight > 0 and the weights sum to exactly 1.

Key facts implemented and verified here: an idempotent distribution
(mu*mu = mu) is supported on a completely simple subsemigroup and factors
as (left marginal) * (uniform on the group factor) * (right marginal);
conversely such a product is idempotent whenever the right-times-left
support folds into the group.
"""

from dataclasses import dataclass

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

    __slots__ = ("parent", "_items", "_probs")

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
        self._set(parent, tuple((i, p) for i, p in enumerate(probs) if p), probs)

    @classmethod
    def _from_support(cls, parent, weights):
        """The Dist with weights {index: probability}; checks only that every
        weight is > 0 and that they sum to exactly 1."""
        items = tuple(sorted(weights.items()))
        total = ZERO
        for i, p in items:
            if not p > 0:
                raise InvalidDistribution(f"non-positive probability at {parent.label(i)}")
            total += p
        if total != ONE:
            raise InvalidDistribution(f"probabilities sum to {total}, not 1")
        dist = object.__new__(cls)
        dist._set(parent, items, None)
        return dist

    def _set(self, parent, items, probs):
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "_items", items)
        object.__setattr__(self, "_probs", probs)

    def __setattr__(self, name, value):
        raise AttributeError(f"Dist is immutable; cannot set {name!r}")

    @property
    def probs(self):
        """Dense tuple of probabilities, one per element, in index order."""
        if self._probs is None:
            probs = [ZERO] * self.parent.order
            for i, p in self._items:
                probs[i] = p
            object.__setattr__(self, "_probs", tuple(probs))
        return self._probs

    def prob(self, a):
        return self.probs[a]

    def items(self):
        """(element, probability) pairs over the support, in index order."""
        return list(self._items)

    def support(self):
        mask = 0
        for i, _ in self._items:
            mask |= 1 << i
        return ElementSet(self.parent, mask)

    def __eq__(self, other):
        if not isinstance(other, Dist):
            return NotImplemented
        return self.parent is other.parent and self._items == other._items

    def __hash__(self):
        return hash((id(self.parent), self._items))

    def __repr__(self):
        inside = ", ".join(f"{self.parent.label(i)}: {p}" for i, p in self._items)
        return f"Dist({{{inside}}})"

    @classmethod
    def from_mapping(cls, sg, mapping):
        probs = [ZERO] * sg.order
        for key, value in mapping.items():
            i = sg.index(key) if isinstance(key, str) else key
            if not 0 <= i < sg.order:
                raise MalformedInput(f"element index out of range: {key}")
            probs[i] += as_rat(value)
        return cls(sg, probs)


def _check_index(sg, a):
    if not 0 <= a < sg.order:
        raise MalformedInput(f"element index out of range: {a}")


def _merge(pairs):
    """{z: total weight} over (z, weight) pairs, equal z merged."""
    out = {}
    for z, p in pairs:
        if z in out:
            out[z] += p
        else:
            out[z] = p
    return out


def dirac(sg, a):
    _check_index(sg, a)
    return Dist._from_support(sg, {a: ONE})


def support(mu):
    return mu.support()


def convolve(mu, nu):
    """(mu*nu)(z) = sum of mu(x)nu(y) over factorizations z = x*y."""
    if mu.parent is not nu.parent:
        raise MalformedInput("distributions live on different semigroups")
    rows = mu.parent.rows
    return Dist._from_support(
        mu.parent, _merge((rows[x][y], p * q) for x, p in mu._items for y, q in nu._items)
    )


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
        images = [(row[z], p) for z, p in mu._items]
    elif side == "right":
        images = [(rows[z][a], p) for z, p in mu._items]
    else:
        raise MalformedInput(f"side must be 'left' or 'right', got {side!r}")
    return Dist._from_support(sg, _merge(images))


def haar_uniform(group):
    """Uniform distribution on a verified group carrier."""
    if not isinstance(group, GroupStructure):
        raise MalformedInput("haar_uniform expects a GroupStructure")
    weight = RAT(1, group.order)
    return Dist._from_support(group.parent, {a: weight for a in group.carrier})


def uniform_on(subset):
    if not subset:
        raise EmptySet("uniform distribution on the empty set")
    weight = RAT(1, len(subset))
    return Dist._from_support(subset.parent, {a: weight for a in subset})


def marginals(mu, dec):
    """Pushforwards of mu onto the three product coordinates of dec.

    Every support point must lie inside the decomposed carrier.  The three
    returned distributions live on the same ambient semigroup, concentrated
    on the left factor, the group, and the right factor respectively.
    """
    sg = mu.parent
    coords = []
    for z, p in mu._items:
        if z not in dec.carrier:
            raise SupportOutsideDecomposition(sg.label(z))
        coords.append((psi_inv(dec, z), p))
    return tuple(
        Dist._from_support(sg, _merge((xgy[k], p) for xgy, p in coords)) for k in range(3)
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
