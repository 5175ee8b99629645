"""Batch verification suite over a corpus of generated semigroups.

Each check is a law, (instance, seed) -> witness or None, holding only the
mathematics of one structural or probabilistic statement in exact
arithmetic.  One driver, _run_law, owns the rest: the loop over instances,
the instance count, the "<instance>: " prefix, exceptions as witnesses,
the uncounted skip of instances a law's `only` rule rejects, and the
"no <kind> instance in corpus" witness when no instance meets its `needs`.
Laws are registered with _law in the report's fixed check order.

A CorpusInstance is also a structure record: its carrier, its kernel,
the kernel's Rees decomposition, the minimal left and right ideals read
off that decomposition, the one-sided simplicity flags and the group
structure or None, each built on first use and kept for the suite run.
It keeps the oracle results that more than one law reads too: the
principal-ideal enumeration of the minimal ideals and the subset sweep
of the ideals (orders up to 5), each once per side.  A part whose build
raises is not kept, so each use raises again.  Laws about a public
predicate (is_left_simple, is_right_simple, is_simple) still call it,
and wherever feasible an independent route (subset sweeps,
principal-ideal enumeration, exact linear solves) confirms the optimized
one.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from functools import cached_property
from time import perf_counter

from ._rat import RAT, ZERO
from .core import (
    Semigroup,
    group_structure,
    idempotents,
    is_ideal,
    is_left_ideal,
    is_left_simple,
    is_right_ideal,
    is_right_simple,
    is_simple,
    kernel,
    principal_left_ideal,
    principal_right_ideal,
    product_sets,
)
from .dynamics import (
    analyze_limit,
    cesaro_diagnostic,
    cesaro_limit,
    element_power_cluster,
    float_shadow,
    power,
    shift_deviation,
)
from .errors import SemiconvError
from .generators import CorpusSpec, XorShift64Star, build, random_dist
from .linalg import nullspace
from .measure import (
    _translation_identities,
    classify_translation_invariance,
    compose_idempotent,
    convolve,
    factorize_idempotent,
    haar_uniform,
    marginals,
    support,
)
from .rees import (
    idempotent_criterion,
    minimal_one_sided_ideals,
    psi,
    psi_inv,
    rebase,
    rees_decompose,
)


@dataclass(frozen=True)
class CorpusInstance:
    """A named corpus table and its structure record, built on first use."""

    name: str
    semigroup: Semigroup
    _oracles: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def carrier(self):
        return self.semigroup.carrier()

    @cached_property
    def kernel(self):
        return kernel(self.carrier)

    @cached_property
    def rees(self):
        return rees_decompose(self.kernel)

    @cached_property
    def ideals(self):
        """(kernel, minimal left ideals, minimal right ideals)."""
        return (self.kernel, *minimal_one_sided_ideals(self.rees))

    @property
    def left_simple(self):
        return self.ideals[1] == [self.carrier]

    @property
    def right_simple(self):
        return self.ideals[2] == [self.carrier]

    @cached_property
    def group(self):
        try:
            return group_structure(self.carrier)
        except SemiconvError:
            return None

    def principal_minimal(self, side):
        """principal_minimal_ideals of the carrier on the side, kept."""
        return self._kept(principal_minimal_ideals, self.carrier, side)

    def subset_ideals(self, side):
        """_all_subset_ideals of the table on the side, kept."""
        return self._kept(_all_subset_ideals, self.semigroup, side)

    def _kept(self, oracle, source, side):
        key = (oracle, side)
        if key not in self._oracles:
            self._oracles[key] = oracle(source, side)
        return self._oracles[key]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    instances: int
    witness: str
    elapsed: float


@dataclass(frozen=True)
class SuiteResult:
    corpus: str
    seed: int
    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_json(self):
        # Wall-clock times are excluded so the serialized report is
        # byte-for-byte reproducible for a given corpus and seed.
        return {
            "corpus": self.corpus,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "instances": c.instances,
                    "witness": c.witness,
                }
                for c in self.checks
            ],
        }


def _specs_default():
    return [
        CorpusSpec("cyclic", (1,)),
        CorpusSpec("cyclic", (2,)),
        CorpusSpec("cyclic", (3,)),
        CorpusSpec("cyclic", (4,)),
        CorpusSpec("cyclic", (6,)),
        CorpusSpec("cyclic", (8,)),
        CorpusSpec("left_zero", (1,)),
        CorpusSpec("left_zero", (2,)),
        CorpusSpec("left_zero", (3,)),
        CorpusSpec("right_zero", (2,)),
        CorpusSpec("right_zero", (3,)),
        CorpusSpec("rectangular_band", (2, 2)),
        CorpusSpec("rectangular_band", (2, 3)),
        CorpusSpec("rectangular_band", (3, 2)),
        CorpusSpec("full_transformation", (1,)),
        CorpusSpec("full_transformation", (2,)),
        CorpusSpec("full_transformation", (3,)),
        CorpusSpec("boolean_matrices", (1,)),
        CorpusSpec("boolean_matrices", (2,)),
        CorpusSpec("rees_matrix", (2, 2, 2), seed=11),
        CorpusSpec("rees_matrix", (3, 1, 2), seed=12),
        CorpusSpec("rees_matrix", (4, 2, 1), seed=13),
        CorpusSpec("rees_matrix", (3, 2, 2), seed=14),
        CorpusSpec(
            "direct_product",
            (),
            factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))),
        ),
        CorpusSpec(
            "direct_product",
            (),
            factors=(CorpusSpec("cyclic", (3,)), CorpusSpec("rectangular_band", (2, 2))),
        ),
        CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21),
        CorpusSpec("random_transformation_subsemigroup", (3, 3), seed=22),
        CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=23),
    ]


def _specs_extended():
    return _specs_default() + [
        CorpusSpec("cyclic", (12,)),
        CorpusSpec("cyclic", (30,)),
        CorpusSpec("rectangular_band", (4, 3)),
        CorpusSpec("full_transformation", (4,)),
        CorpusSpec("boolean_matrices", (3,)),
        CorpusSpec("rees_matrix", (6, 2, 2), seed=15),
        CorpusSpec("rees_matrix", (2, 3, 3), seed=16),
        CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=24),
        CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=25),
    ]


def build_corpus(name):
    """Materialize the named corpus as a list of CorpusInstance."""
    if name == "default":
        specs = _specs_default()
    elif name == "extended":
        specs = _specs_extended()
    else:
        raise ValueError(f"unknown corpus {name!r}")
    return [CorpusInstance(spec.describe(), build(spec)) for spec in specs]


def _instance_rng(inst, seed, salt):
    mix = zlib.crc32(inst.name.encode("utf-8")) ^ (salt * 0x9E3779B9) ^ seed
    return XorShift64Star(mix & 0xFFFFFFFFFFFFFFFF)


_MAX_SUPPORT = 4


def _random_support(sg, rng):
    n = sg.order
    size = 1 + rng.below(min(_MAX_SUPPORT, n))
    picked = set()
    while len(picked) < size:
        picked.add(rng.below(n))
    return sg.subset(picked)


def _seeded_dists(inst, seed, salt, count):
    """Deterministic batch of random distributions on an instance."""
    rng = _instance_rng(inst, seed, salt)
    out = []
    for _ in range(count):
        supp = _random_support(inst.semigroup, rng)
        out.append(random_dist(supp, rng.next_word(), 64))
    return out


def _all_subset_ideals(sg, side):
    """Brute subset sweep: every nonempty ideal of the given side.

    Exponential in the order; callers must gate on very small instances.
    """
    n = sg.order
    found = []
    for mask in range(1, 1 << n):
        a = sg.subset(i for i in range(n) if mask >> i & 1)
        if side == "left":
            ok = is_left_ideal(a)
        elif side == "right":
            ok = is_right_ideal(a)
        else:
            ok = is_ideal(a)
        if ok:
            found.append(a)
    return found


def _inclusion_minimal(sets):
    return [a for a in sets if not any(b != a and b.issubset(a) for b in sets)]


def principal_minimal_ideals(car, side):
    """Oracle for the minimal one-sided ideals: every principal ideal S*a + {a}
    (or a*S + {a}), compared pairwise, keeping the inclusion-minimal ones,
    sorted by least member.  Quadratic in the number of distinct ideals."""
    principal = principal_left_ideal if side == "left" else principal_right_ideal
    found = dict.fromkeys(principal(car, a) for a in car)
    return sorted(_inclusion_minimal(list(found)), key=lambda i: i.least())


def simple_by_sweep(a, side):
    """Oracle for the simplicity flags: whether every translate A*x (side
    "left"), x*A ("right") or A*x*A ("two-sided") of an element x of the
    subsemigroup A is A itself.  One product_sets sweep per element."""
    sg = a.parent
    for x in a:
        single = sg.singleton(x)
        if side == "left":
            moved = product_sets(a, single)
        elif side == "right":
            moved = product_sets(single, a)
        else:
            moved = product_sets(product_sets(a, single), a)
        if moved != a:
            return False
    return True


def cluster_closed_by_sweep(cluster):
    """Oracle for cluster_closed_cyclic: c_i * c_j = c_((i+j) mod p) for
    every pair of the p cluster points, p^2 convolutions."""
    p = len(cluster)
    return all(
        convolve(cluster[i], cluster[j]) == cluster[(i + j) % p]
        for i in range(p)
        for j in range(p)
    )


def _labels(es):
    return "{" + ",".join(sorted(es.labels())) + "}"


# ---------------------------------------------------------------------------
# Registration and the driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Law:
    name: str
    holds: object  # (instance, seed) -> witness or None
    only: object = None  # instance -> bool; instances it rejects are skipped, uncounted
    needs: tuple = None  # (kind, instance -> bool) that some counted instance must meet
    corrupted: bool = False  # also run first on the --inject-corruption table


_LAWS = {}


def _law(name, **rules):
    def register(holds):
        _LAWS[name] = _Law(name, holds, **rules)
        return holds

    return register


def _run_law(law, instances, seed):
    """One check: the law on each instance in turn, up to the first witness."""
    start = perf_counter()
    ran, witness, met = 0, "", law.needs is None
    for inst in instances:
        ran += 1  # before `only`, so an instance whose rule raises is counted
        try:
            if law.only is not None and not law.only(inst):
                ran -= 1
                continue
            witness = law.holds(inst, seed) or ""
            met = met or law.needs[1](inst)
        except SemiconvError as exc:
            witness = f"{type(exc).__name__}: {exc}"
        except Exception as exc:
            # A bug inside a law fails its check; the rest of the suite runs.
            witness = f"internal error: {type(exc).__name__}: {exc}"
        if witness:
            witness = f"{inst.name}: {witness}"
            break
    if not witness and not met:
        witness = f"no {law.needs[0]} instance in corpus"
    return CheckResult(law.name, not witness, ran, witness, perf_counter() - start)


def _simple(inst):
    # A finite simple semigroup is completely simple.
    return inst.kernel == inst.carrier


# ---------------------------------------------------------------------------
# Structural laws
# ---------------------------------------------------------------------------


@_law("minimal_ideal_criterion")
def _minimal_ideal_criterion(inst, seed):
    """Minimal one-sided ideals are exactly the sets with Sa = A for all a,
    cross-checked against the principal-ideal enumeration, and against a
    full subset sweep on tiny instances."""
    sg, car = inst.semigroup, inst.carrier
    _, lefts, rights = inst.ideals
    for side, mins in (("left", lefts), ("right", rights)):
        if mins != inst.principal_minimal(side):
            return f"minimal {side} ideals differ from the principal-ideal enumeration"
        for a in mins:
            for x in a:
                trans = (
                    product_sets(car, sg.singleton(x))
                    if side == "left"
                    else product_sets(sg.singleton(x), car)
                )
                if trans != a:
                    return f"{side} ideal {_labels(a)} fails translation criterion at {sg.label(x)}"
        if sg.order <= 5:
            brute = _inclusion_minimal(inst.subset_ideals(side))
            if set(brute) != set(mins):
                return f"subset sweep found different minimal {side} ideals than the kernel translates"
    return None


@_law("kernel_least_ideal", corrupted=True)
def _kernel_least_ideal(inst, seed):
    """The kernel is a simple ideal contained in every ideal."""
    sg, car = inst.semigroup, inst.carrier
    try:
        k = inst.kernel
    except SemiconvError as exc:
        return f"kernel computation failed: {exc}"
    union = sg.empty()
    for part in inst.principal_minimal("left"):
        union |= part
    if k != union:
        return f"kernel {_labels(k)} is not the union of the minimal principal left ideals"
    if not is_ideal(k):
        return f"kernel {_labels(k)} is not an ideal"
    if not simple_by_sweep(k, "two-sided"):
        return f"kernel {_labels(k)} is not simple"
    for a in car:
        principal = principal_left_ideal(car, a) | principal_right_ideal(car, a)
        principal |= product_sets(product_sets(car, sg.singleton(a)), car)
        if not k.issubset(principal):
            return f"kernel escapes the ideal generated by {sg.label(a)}"
    return None


@_law("one_sided_simplicity_criterion")
def _one_sided_simplicity(inst, seed):
    """Left (right) simplicity is equivalent to every translation Sa (aS)
    covering the carrier, confirmed by subset sweep on tiny instances."""
    sg, car = inst.semigroup, inst.carrier
    for side, fast in (("left", is_left_simple), ("right", is_right_simple)):
        claimed = fast(car)
        if claimed != simple_by_sweep(car, side):
            return f"{side} simplicity flag disagrees with translation sweep"
        if sg.order <= 5:
            brute = all(a == car for a in inst.subset_ideals(side))
            if claimed != brute:
                return f"{side} simplicity flag disagrees with subset sweep"
    return None


@_law("simplicity_criterion")
def _simplicity(inst, seed):
    """Simplicity is equivalent to SaS = S for every a."""
    sg, car = inst.semigroup, inst.carrier
    claimed = is_simple(car)
    if claimed != simple_by_sweep(car, "two-sided"):
        return "simplicity flag disagrees with SaS sweep"
    if sg.order <= 5:
        brute = all(a == car for a in inst.subset_ideals("two-sided"))
        if claimed != brute:
            return "simplicity flag disagrees with subset sweep"
    return None


def _bilaterally_simple(inst):
    return inst.left_simple and inst.right_simple


@_law("bilateral_simple_is_group", needs=("bilaterally simple", _bilaterally_simple))
def _bilateral_simple_group(inst, seed):
    """A semigroup is both left and right simple exactly when it is a group."""
    both = _bilaterally_simple(inst)
    if both and inst.group is None:
        try:
            group_structure(inst.carrier)
        except SemiconvError as exc:
            return f"bilaterally simple but not a group: {exc}"
    if inst.group is not None and not both:
        return "group found despite missing one-sided simplicity"
    return None


@_law("idempotent_right_identity")
def _idempotent_right_identity(inst, seed):
    """Each idempotent e acts as a right identity on Se."""
    sg, car = inst.semigroup, inst.carrier
    for e in idempotents(car):
        for x in product_sets(car, sg.singleton(e)):
            if sg.mul(x, e) != x:
                return f"{sg.label(e)} is not a right identity for {sg.label(x)}"
    return None


@_law("left_group_structure", needs=("left group", lambda inst: inst.left_simple))
def _left_group_structure(inst, seed):
    """A left simple semigroup (which has an idempotent, being finite)
    tiles as L x G with a singleton right factor.  It is its own kernel,
    so the record's decomposition is the carrier's."""
    if not inst.left_simple:
        return None
    sg, dec = inst.semigroup, inst.rees
    if len(dec.right) != 1:
        return "left simple carrier has non-singleton right factor"
    combos = {sg.mul(x, g) for x in dec.left for g in dec.group.carrier}
    if len(combos) != len(dec.left) * dec.group.order or combos != set(inst.carrier):
        return "L x G does not tile the left group"
    return None


@_law("kernel_product_decomposition")
def _rees_decomposition(inst, seed):
    """The kernel of every instance admits a verified product decomposition
    L x G x R with invertible coordinates."""
    dec = inst.rees
    for z in inst.kernel:
        x, g, y = psi_inv(dec, z)
        if psi(dec, x, g, y) != z:
            return f"coordinate round trip failed at {inst.semigroup.label(z)}"
    return None


@_law("decomposition_ideal_translates")
def _rees_ideal_translates(inst, seed):
    """Minimal left ideals of the kernel, which are those of the carrier,
    are the sets (LG)y, and minimal right ideals are the sets x(GR)."""
    sg, dec = inst.semigroup, inst.rees
    _, lefts, rights = inst.ideals
    lg = product_sets(dec.left, dec.group.carrier)
    gr = product_sets(dec.group.carrier, dec.right)
    expect_left = {product_sets(lg, sg.singleton(y)) for y in dec.right}
    expect_right = {product_sets(sg.singleton(x), gr) for x in dec.left}
    if set(lefts) != expect_left:
        return "minimal left ideals are not the (LG)y translates"
    if set(rights) != expect_right:
        return "minimal right ideals are not the x(GR) translates"
    return None


@_law("cell_idempotent_criterion")
def _rees_idempotent_criterion(inst, seed):
    """Within each cell xGy there is exactly one idempotent, the one whose
    group coordinate inverts yx."""
    sg, dec = inst.semigroup, inst.rees
    predicted = set()
    for x in dec.left:
        for y in dec.right:
            e = idempotent_criterion(dec, x, y)
            predicted.add(e)
            cell = {psi(dec, x, g, y) for g in dec.group.carrier}
            cell_idem = {z for z in cell if sg.mul(z, z) == z}
            if cell_idem != {e}:
                return (
                    f"cell ({sg.label(x)},{sg.label(y)}) has "
                    f"idempotents {sorted(sg.label(z) for z in cell_idem)}"
                )
    if predicted != set(idempotents(inst.kernel)):
        return "predicted idempotents disagree with direct scan"
    return None


@_law("decomposition_rebase")
def _rees_rebase(inst, seed):
    """Re-anchoring the kernel decomposition at any idempotent satisfies the
    translation identities relating the two coordinate systems."""
    for e2 in idempotents(inst.kernel):
        rebase(inst.rees, e2)


@_law("minimal_product_group")
def _minimal_product_group(inst, seed):
    """The product BA of a minimal right ideal B and a minimal left ideal A
    is a group."""
    _, lefts, rights = inst.ideals
    for b in rights:
        for a in lefts:
            try:
                group_structure(product_sets(b, a))
            except SemiconvError as exc:
                return f"{_labels(b)} * {_labels(a)} is not a group: {exc}"
    return None


@_law("element_power_clusters")
def _element_power_clusters(inst, seed):
    """Powers of every element settle into a coset cycle of a cyclic group."""
    for a in inst.carrier:
        element_power_cluster(inst.semigroup, a)


# ---------------------------------------------------------------------------
# Measure laws
# ---------------------------------------------------------------------------


@_law("support_convolution")
def _support_convolution(inst, seed):
    """The support of a convolution is the product of the supports."""
    mus = _seeded_dists(inst, seed, 1, 3)
    nus = _seeded_dists(inst, seed, 2, 3)
    for mu, nu in zip(mus, nus):
        if support(convolve(mu, nu)) != product_sets(support(mu), support(nu)):
            return "support law failed"
    return None


@_law("convolution_marginals", only=_simple, needs=("completely simple", _simple))
def _convolution_marginals(inst, seed):
    """On a completely simple carrier the left marginal of mu * nu matches
    mu's and the right marginal matches nu's."""
    dec = inst.rees
    mus = _seeded_dists(inst, seed, 3, 3)
    nus = _seeded_dists(inst, seed, 4, 3)
    for mu, nu in zip(mus, nus):
        conv_l, _, conv_r = marginals(convolve(mu, nu), dec)
        if conv_l != marginals(mu, dec)[0]:
            return "left marginal not inherited from left factor"
        if conv_r != marginals(nu, dec)[2]:
            return "right marginal not inherited from right factor"
    return None


def _solve_invariant_dists(sg):
    """Exact homogeneous solve for vectors fixed by every translation.

    Returns a basis of the solution space of p[x*w] = p[w] = p[w*x] for
    all x, w; independent of the convolution code entirely.
    """
    n = sg.order
    rows = []
    for x in range(n):
        for w in range(n):
            row_l = [0] * n
            row_l[sg.mul(x, w)] += 1
            row_l[w] -= 1
            rows.append(row_l)
            row_r = [0] * n
            row_r[sg.mul(w, x)] += 1
            row_r[w] -= 1
            rows.append(row_r)
    return nullspace(rows)


def _small_group(inst):
    return inst.group is not None and inst.semigroup.order <= 8


@_law("translation_biinvariance", needs=("small group", _small_group))
def _translation_biinvariance(inst, seed):
    """Bi-invariance pins down the uniform distribution on a group: the
    exact linear system has a one-dimensional solution space, and any seeded
    distribution found bi-invariant is uniform on a group support."""
    sg, grp = inst.semigroup, inst.group
    if _small_group(inst):
        basis = _solve_invariant_dists(sg)
        if len(basis) != 1:
            return f"invariance system has solution dimension {len(basis)}"
        vec = basis[0]
        total = sum(vec, ZERO)
        if total == ZERO:
            return "invariance solution does not normalize"
        uni = haar_uniform(grp)
        if any(vec[i] / total != uni.prob(i) for i in range(sg.order)):
            return "normalized invariance solution is not uniform"
    if grp is not None:
        if not classify_translation_invariance(haar_uniform(grp)).biinvariant_on_carrier:
            return "uniform distribution not bi-invariant on group"
    for mu in _seeded_dists(inst, seed, 5, 2):
        if classify_translation_invariance(mu).biinvariant_on_carrier:
            if mu != haar_uniform(group_structure(support(mu))):
                return "bi-invariant distribution is not uniform on a group"
    return None


@_law("idempotent_factorization", only=_simple, needs=("completely simple", _simple))
def _idempotent_factorization(inst, seed):
    """Idempotent distributions are exactly the products of an L-part, the
    uniform distribution on the anchor group, and an R-part; composing and
    factoring are mutually inverse."""
    sg, dec = inst.semigroup, inst.rees
    rng = _instance_rng(inst, seed, 6)
    for _ in range(2):
        supp_l = sg.subset(psi_inv(dec, z)[0] for z in _random_support(sg, rng))
        supp_r = sg.subset(psi_inv(dec, z)[2] for z in _random_support(sg, rng))
        mu_l = random_dist(supp_l, rng.next_word(), 32)
        mu_r = random_dist(supp_r, rng.next_word(), 32)
        composed = compose_idempotent(mu_l, mu_r, dec.group)
        if factorize_idempotent(composed).recompose() != composed:
            return "factorization does not recompose the composition"
    nu = cesaro_limit(_seeded_dists(inst, seed, 7, 1)[0])
    if factorize_idempotent(nu).recompose() != nu:
        return "limit distribution does not recompose from factors"
    return None


@_law("convolution_invariance")
def _convolution_invariance(inst, seed):
    """A distribution fixed by mu under convolution on both sides is fixed
    by every point mass drawn from supp(mu), relative to its own support.
    cesaro_limit verified mu * nu = nu = nu * mu before returning nu."""
    for mu in _seeded_dists(inst, seed, 8, 2):
        _translation_identities(mu, cesaro_limit(mu))
    return None


@_law("limit_theorem")
def _limit_theorem(inst, seed):
    """Full limit analysis: the averaged limit, the cluster cycle, and the
    product factorizations all verify on seeded walks, and the cycle's
    closure, proven from its generator, holds under a full pair sweep."""
    for mu in _seeded_dists(inst, seed, 9, 2):
        if not cluster_closed_by_sweep(analyze_limit(mu).cluster):
            return "cluster cycle not closed under convolution"
    return None


@_law("cesaro_average_shift_bound", only=lambda inst: inst.semigroup.order <= 64)
def _cesaro_bound(inst, seed):
    """Shifting a length-n average by j steps moves it by at most 2j/n in
    variation norm.  Both shifts are read off the diagnostic's powers mu to
    mu^13, extended to mu^15; power(mu, j), by squaring, checks the
    series' mu^j independently."""
    mu = _seeded_dists(inst, seed, 10, 1)[0]
    powers = list(cesaro_diagnostic(mu, 12, cesaro_limit(mu)).powers)
    while len(powers) < 15:
        powers.append(convolve(powers[-1], mu))
    for n, j in ((8, 2), (12, 3)):
        squared, series = power(mu, j), powers[j - 1]
        if squared != series:
            at = min(z for z, _ in set(squared.items()) ^ set(series.items()))
            return (
                f"power(mu, {j}) and the series' mu^{j} differ at "
                f"{inst.semigroup.label(at)}: {squared.prob(at)} against {series.prob(at)}"
            )
        dev = shift_deviation(powers, n, j)
        if dev > RAT(2 * j, n):
            return f"shift deviation {dev} exceeds {2 * j}/{n}"
    return None


@_law("float_shadow_decay", only=lambda inst: inst.semigroup.order <= 32)
def _float_shadow(inst, seed):
    """A floating-point power iteration tracks the exact cluster cycle with
    non-increasing distance once aligned to the period."""
    mu = _seeded_dists(inst, seed, 11, 1)[0]
    report = analyze_limit(mu)
    shadow = float_shadow(mu, report.eta, report.p)
    if not shadow.non_increasing:
        return "shadow distance increased between iterations"
    if not shadow.converged:
        return "shadow distance did not fall below tolerance"
    return None


def _corrupted_instance():
    """A deliberately non-associative table used to prove the suite can
    fail: the damaged entry makes its kernel miss the minimal principal
    left ideals."""
    labels = ("0", "1", "2")
    rows = ((0, 1, 2), (1, 2, 0), (2, 0, 2))
    return CorpusInstance("corrupted cyclic(3)", Semigroup(labels, rows))


def run_suite(corpus="default", seed=0, inject_corruption=False):
    """Run every check against the named corpus, one after another in the
    fixed check order; each check's elapsed is its own wall time."""
    instances = build_corpus(corpus)
    corrupted = [_corrupted_instance()] if inject_corruption else []
    checks = tuple(
        _run_law(law, corrupted + instances if law.corrupted else instances, seed)
        for law in _LAWS.values()
    )
    return SuiteResult(corpus=corpus, seed=seed, checks=checks)
