"""Batch verification suite over a corpus of generated semigroups.

Each check exercises one structural or probabilistic law on every corpus
instance it applies to, using exact arithmetic throughout.  Checks never
assume each other's conclusions: wherever feasible a second, independent
route (brute-force subset sweeps, exact linear solves) confirms the
optimized implementation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from time import perf_counter

from ._rat import ONE, RAT, ZERO
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
    minimal_left_ideals,
    minimal_right_ideals,
    principal_left_ideal,
    principal_right_ideal,
    product_sets,
)
from .dynamics import (
    analyze_limit,
    cesaro_deviation,
    cesaro_diagnostic,
    cesaro_limit,
    element_power_cluster,
    float_shadow,
)
from .errors import SemiconvError
from .generators import CorpusSpec, XorShift64Star, build, random_dist
from .linalg import nullspace
from .measure import (
    check_convolution_invariance,
    classify_translation_invariance,
    compose_idempotent,
    convolve,
    factorize_idempotent,
    haar_uniform,
    marginals,
    support,
)
from .rees import idempotent_criterion, psi, psi_inv, rebase, rees_decompose


@dataclass(frozen=True)
class CorpusInstance:
    name: str
    semigroup: Semigroup


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


def _random_support(sg, rng, max_size=4):
    n = sg.order
    size = 1 + rng.below(min(max_size, n))
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
    return [a for a in sets if not any(b.mask != a.mask and b.mask & ~a.mask == 0 for b in sets)]


def principal_minimal_ideals(car, side):
    """Oracle for the minimal one-sided ideals: every principal ideal S*a + {a}
    (or a*S + {a}), compared pairwise, keeping the inclusion-minimal ones,
    sorted by least member.  Quadratic in the number of distinct ideals."""
    principal = principal_left_ideal if side == "left" else principal_right_ideal
    found = {}
    for a in car:
        ideal = principal(car, a)
        found[ideal.mask] = ideal
    return sorted(_inclusion_minimal(list(found.values())), key=lambda i: i.least())


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
        if moved.mask != a.mask:
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
# Structural checks
# ---------------------------------------------------------------------------


def _check_minimal_ideal_criterion(ctx):
    """Minimal one-sided ideals are exactly the sets with Sa = A for all a,
    cross-checked against the principal-ideal enumeration, and against a
    full subset sweep on tiny instances."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        for side, finder in (("left", minimal_left_ideals), ("right", minimal_right_ideals)):
            mins = finder(car)
            if [a.mask for a in mins] != [a.mask for a in principal_minimal_ideals(car, side)]:
                return ran, (
                    f"{inst.name}: minimal {side} ideals differ from the "
                    f"principal-ideal enumeration"
                )
            for a in mins:
                for x in a:
                    trans = (
                        product_sets(car, sg.singleton(x))
                        if side == "left"
                        else product_sets(sg.singleton(x), car)
                    )
                    if trans.mask != a.mask:
                        return ran, (
                            f"{inst.name}: {side} ideal {_labels(a)} fails "
                            f"translation criterion at {sg.label(x)}"
                        )
            if sg.order <= 5:
                brute = _inclusion_minimal(_all_subset_ideals(sg, side))
                if {a.mask for a in brute} != {a.mask for a in mins}:
                    return ran, (
                        f"{inst.name}: subset sweep found different minimal "
                        f"{side} ideals than the kernel translates"
                    )
    return ran, ""


def _check_kernel_least_ideal(ctx):
    """The kernel is a simple ideal contained in every ideal."""
    ran = 0
    for inst in ctx.corrupted + ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        try:
            k = kernel(car)
        except SemiconvError as exc:
            return ran, f"{inst.name}: kernel computation failed: {exc}"
        union = 0
        for part in principal_minimal_ideals(car, "left"):
            union |= part.mask
        if k.mask != union:
            return ran, (
                f"{inst.name}: kernel {_labels(k)} is not the union of the minimal "
                f"principal left ideals"
            )
        if not is_ideal(k):
            return ran, f"{inst.name}: kernel {_labels(k)} is not an ideal"
        if not simple_by_sweep(k, "two-sided"):
            return ran, f"{inst.name}: kernel {_labels(k)} is not simple"
        for a in car:
            principal = principal_left_ideal(car, a) | principal_right_ideal(car, a)
            principal |= product_sets(product_sets(car, sg.singleton(a)), car)
            if not k.issubset(principal):
                return ran, (
                    f"{inst.name}: kernel escapes the ideal generated by {sg.label(a)}"
                )
    return ran, ""


def _check_one_sided_simplicity(ctx):
    """Left (right) simplicity is equivalent to every translation Sa (aS)
    covering the carrier, confirmed by subset sweep on tiny instances."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        for side, fast in (("left", is_left_simple), ("right", is_right_simple)):
            claimed = fast(car)
            if claimed != simple_by_sweep(car, side):
                return ran, (
                    f"{inst.name}: {side} simplicity flag disagrees with translation sweep"
                )
            if sg.order <= 5:
                brute = all(a.mask == car.mask for a in _all_subset_ideals(sg, side))
                if claimed != brute:
                    return ran, (
                        f"{inst.name}: {side} simplicity flag disagrees with subset sweep"
                    )
    return ran, ""


def _check_simplicity(ctx):
    """Simplicity is equivalent to SaS = S for every a."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        claimed = is_simple(car)
        if claimed != simple_by_sweep(car, "two-sided"):
            return ran, f"{inst.name}: simplicity flag disagrees with SaS sweep"
        if sg.order <= 5:
            brute = all(a.mask == car.mask for a in _all_subset_ideals(sg, "two-sided"))
            if claimed != brute:
                return ran, f"{inst.name}: simplicity flag disagrees with subset sweep"
    return ran, ""


def _check_bilateral_simple_group(ctx):
    """A semigroup is both left and right simple exactly when it is a group."""
    ran = 0
    applicable = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        both = is_left_simple(car) and is_right_simple(car)
        try:
            group_structure(car)
            found_group = True
        except SemiconvError as exc:
            found_group = False
            group_error = exc
        if both and not found_group:
            return ran, f"{inst.name}: bilaterally simple but not a group: {group_error}"
        if found_group and not both:
            return ran, f"{inst.name}: group found despite missing one-sided simplicity"
        applicable += both
    if applicable == 0:
        return ran, "no bilaterally simple instance in corpus"
    return ran, ""


def _check_idempotent_right_identity(ctx):
    """Each idempotent e acts as a right identity on Se."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        for e in idempotents(car):
            for x in product_sets(car, sg.singleton(e)):
                if sg.mul(x, e) != x:
                    return ran, (
                        f"{inst.name}: {sg.label(e)} is not a right identity "
                        f"for {sg.label(x)}"
                    )
    return ran, ""


def _check_left_group_structure(ctx):
    """A left simple semigroup with an idempotent tiles as L x G with a
    singleton right factor."""
    ran = 0
    applicable = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        if not is_left_simple(car) or not idempotents(car):
            continue
        applicable += 1
        dec = rees_decompose(car)
        if len(dec.right) != 1:
            return ran, f"{inst.name}: left simple carrier has non-singleton right factor"
        combos = {sg.mul(x, g) for x in dec.left for g in dec.group.carrier}
        if len(combos) != len(dec.left) * dec.group.order or combos != set(car):
            return ran, f"{inst.name}: L x G does not tile the left group"
    if applicable == 0:
        return ran, "no left group instance in corpus"
    return ran, ""


def _check_rees_decomposition(ctx):
    """The kernel of every instance admits a verified product decomposition
    L x G x R with invertible coordinates."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        k = kernel(sg.carrier())
        dec = rees_decompose(k)
        for z in k:
            x, g, y = psi_inv(dec, z)
            if psi(dec, x, g, y) != z:
                return ran, f"{inst.name}: coordinate round trip failed at {sg.label(z)}"
    return ran, ""


def _check_rees_ideal_translates(ctx):
    """Minimal left ideals of the kernel are the sets (LG)y, and minimal
    right ideals are the sets x(GR)."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        k = kernel(sg.carrier())
        dec = rees_decompose(k)
        lg = product_sets(dec.left, dec.group.carrier)
        gr = product_sets(dec.group.carrier, dec.right)
        expect_left = {product_sets(lg, sg.singleton(y)).mask for y in dec.right}
        expect_right = {product_sets(sg.singleton(x), gr).mask for x in dec.left}
        got_left = {a.mask for a in minimal_left_ideals(k)}
        got_right = {a.mask for a in minimal_right_ideals(k)}
        if got_left != expect_left:
            return ran, f"{inst.name}: minimal left ideals are not the (LG)y translates"
        if got_right != expect_right:
            return ran, f"{inst.name}: minimal right ideals are not the x(GR) translates"
    return ran, ""


def _check_rees_idempotent_criterion(ctx):
    """Within each cell xGy there is exactly one idempotent, the one whose
    group coordinate inverts yx."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        k = kernel(sg.carrier())
        dec = rees_decompose(k)
        predicted = set()
        for x in dec.left:
            for y in dec.right:
                e = idempotent_criterion(dec, x, y)
                predicted.add(e)
                cell = {psi(dec, x, g, y) for g in dec.group.carrier}
                cell_idem = {z for z in cell if sg.mul(z, z) == z}
                if cell_idem != {e}:
                    return ran, (
                        f"{inst.name}: cell ({sg.label(x)},{sg.label(y)}) has "
                        f"idempotents {sorted(sg.label(z) for z in cell_idem)}"
                    )
        if predicted != set(idempotents(k)):
            return ran, f"{inst.name}: predicted idempotents disagree with direct scan"
    return ran, ""


def _check_rees_rebase(ctx):
    """Re-anchoring the kernel decomposition at any idempotent satisfies the
    translation identities relating the two coordinate systems."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        k = kernel(sg.carrier())
        dec = rees_decompose(k)
        for e2 in idempotents(k):
            rebase(dec, e2)
    return ran, ""


def _check_minimal_product_group(ctx):
    """The product BA of a minimal right ideal B and a minimal left ideal A
    is a group."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        for b in minimal_right_ideals(car):
            for a in minimal_left_ideals(car):
                ba = product_sets(b, a)
                try:
                    group_structure(ba)
                except SemiconvError as exc:
                    return ran, (
                        f"{inst.name}: {_labels(b)} * {_labels(a)} is not a group: {exc}"
                    )
    return ran, ""


def _check_element_power_clusters(ctx):
    """Powers of every element settle into a coset cycle of a cyclic group."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        for a in sg.carrier():
            element_power_cluster(sg, a)
    return ran, ""


# ---------------------------------------------------------------------------
# Measure checks
# ---------------------------------------------------------------------------


def _check_support_convolution(ctx):
    """The support of a convolution is the product of the supports."""
    ran = 0
    for inst in ctx.instances:
        ran += 1
        mus = _seeded_dists(inst, ctx.seed, 1, 3)
        nus = _seeded_dists(inst, ctx.seed, 2, 3)
        for mu, nu in zip(mus, nus):
            got = support(convolve(mu, nu))
            want = product_sets(support(mu), support(nu))
            if got != want:
                return ran, f"{inst.name}: support law failed"
    return ran, ""


def _check_convolution_marginals(ctx):
    """On a completely simple carrier the left marginal of mu * nu matches
    mu's and the right marginal matches nu's."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        car = sg.carrier()
        if not is_simple(car) or not idempotents(car):
            continue
        ran += 1
        dec = rees_decompose(car)
        mus = _seeded_dists(inst, ctx.seed, 3, 3)
        nus = _seeded_dists(inst, ctx.seed, 4, 3)
        for mu, nu in zip(mus, nus):
            conv_l, _, conv_r = marginals(convolve(mu, nu), dec)
            if conv_l != marginals(mu, dec)[0]:
                return ran, f"{inst.name}: left marginal not inherited from left factor"
            if conv_r != marginals(nu, dec)[2]:
                return ran, f"{inst.name}: right marginal not inherited from right factor"
    if ran == 0:
        return ran, "no completely simple instance in corpus"
    return ran, ""


def _solve_invariant_dists(sg):
    """Exact homogeneous solve for vectors fixed by every translation.

    Returns a basis of the solution space of p[x*w] = p[w] = p[w*x] for
    all x, w; independent of the convolution code entirely.
    """
    n = sg.order
    rows = []
    for x in range(n):
        for w in range(n):
            row_l = [ZERO] * n
            row_l[sg.mul(x, w)] += ONE
            row_l[w] -= ONE
            rows.append(row_l)
            row_r = [ZERO] * n
            row_r[sg.mul(w, x)] += ONE
            row_r[w] -= ONE
            rows.append(row_r)
    return nullspace(rows)


def _check_translation_biinvariance(ctx):
    """Bi-invariance pins down the uniform distribution on a group: the
    exact linear system has a one-dimensional solution space, and any seeded
    distribution found bi-invariant is uniform on a group support."""
    ran = 0
    solved = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        ran += 1
        car = sg.carrier()
        try:
            grp = group_structure(car)
        except SemiconvError:
            grp = None
        if grp is not None and sg.order <= 8:
            solved += 1
            basis = _solve_invariant_dists(sg)
            if len(basis) != 1:
                return ran, (
                    f"{inst.name}: invariance system has solution dimension {len(basis)}"
                )
            vec = basis[0]
            total = sum(vec, ZERO)
            if total == ZERO:
                return ran, f"{inst.name}: invariance solution does not normalize"
            uni = haar_uniform(grp)
            if any(vec[i] / total != uni.prob(i) for i in range(sg.order)):
                return ran, f"{inst.name}: normalized invariance solution is not uniform"
        if grp is not None:
            inv = classify_translation_invariance(haar_uniform(grp))
            if not inv.biinvariant_on_carrier:
                return ran, f"{inst.name}: uniform distribution not bi-invariant on group"
        for mu in _seeded_dists(inst, ctx.seed, 5, 2):
            inv = classify_translation_invariance(mu)
            if inv.biinvariant_on_carrier:
                sub = group_structure(support(mu))
                if mu != haar_uniform(sub):
                    return ran, (
                        f"{inst.name}: bi-invariant distribution is not uniform on a group"
                    )
    if solved == 0:
        return ran, "no small group instance in corpus"
    return ran, ""


def _check_idempotent_factorization(ctx):
    """Idempotent distributions are exactly the products of an L-part, the
    uniform distribution on the anchor group, and an R-part; composing and
    factoring are mutually inverse."""
    ran = 0
    for inst in ctx.instances:
        sg = inst.semigroup
        car = sg.carrier()
        if not is_simple(car) or not idempotents(car):
            continue
        ran += 1
        dec = rees_decompose(car)
        rng = _instance_rng(inst, ctx.seed, 6)
        for _ in range(2):
            supp_l = sg.subset(psi_inv(dec, z)[0] for z in _random_support(sg, rng))
            supp_r = sg.subset(psi_inv(dec, z)[2] for z in _random_support(sg, rng))
            mu_l = random_dist(supp_l, rng.next_word(), 32)
            mu_r = random_dist(supp_r, rng.next_word(), 32)
            composed = compose_idempotent(mu_l, mu_r, dec.group)
            fact = factorize_idempotent(composed)
            if fact.recompose() != composed:
                return ran, f"{inst.name}: factorization does not recompose the composition"
        nu = cesaro_limit(_seeded_dists(inst, ctx.seed, 7, 1)[0])
        fact = factorize_idempotent(nu)
        if fact.recompose() != nu:
            return ran, f"{inst.name}: limit distribution does not recompose from factors"
    if ran == 0:
        return ran, "no completely simple instance in corpus"
    return ran, ""


def _check_convolution_invariance(ctx):
    """A distribution fixed by mu under convolution on both sides is fixed
    by every point mass drawn from supp(mu), relative to its own support."""
    ran = 0
    for inst in ctx.instances:
        ran += 1
        for mu in _seeded_dists(inst, ctx.seed, 8, 2):
            nu = cesaro_limit(mu)
            res = check_convolution_invariance(mu, nu)
            if res.pairs_checked < 1:
                return ran, f"{inst.name}: no invariance pairs checked"
    return ran, ""


def _check_limit_theorem(ctx):
    """Full limit analysis: the averaged limit, the cluster cycle, and the
    product factorizations all verify on seeded walks, and the cycle's
    closure, proven from its generator, holds under a full pair sweep."""
    ran = 0
    for inst in ctx.instances:
        ran += 1
        for mu in _seeded_dists(inst, ctx.seed, 9, 2):
            report = analyze_limit(mu)
            if not cluster_closed_by_sweep(report.cluster):
                return ran, f"{inst.name}: cluster cycle not closed under convolution"
    return ran, ""


def _check_cesaro_bound(ctx):
    """Shifting a length-n average by j steps moves it by at most 2j/n in
    variation norm."""
    ran = 0
    for inst in ctx.instances:
        if inst.semigroup.order > 64:
            continue
        ran += 1
        mu = _seeded_dists(inst, ctx.seed, 10, 1)[0]
        cesaro_diagnostic(mu, 12, cesaro_limit(mu))
        for n, j in ((8, 2), (12, 3)):
            dev = cesaro_deviation(mu, n, j)
            if dev > RAT(2 * j, n):
                return ran, f"{inst.name}: shift deviation {dev} exceeds {2 * j}/{n}"
    return ran, ""


def _check_float_shadow(ctx):
    """A floating-point power iteration tracks the exact cluster cycle with
    non-increasing distance once aligned to the period."""
    ran = 0
    for inst in ctx.instances:
        if inst.semigroup.order > 32:
            continue
        ran += 1
        mu = _seeded_dists(inst, ctx.seed, 11, 1)[0]
        report = analyze_limit(mu)
        shadow = float_shadow(mu, report.eta, report.p)
        if not shadow.non_increasing:
            return ran, f"{inst.name}: shadow distance increased between iterations"
        if not shadow.converged:
            return ran, f"{inst.name}: shadow distance did not fall below tolerance"
    return ran, ""


_CHECKS = [
    ("minimal_ideal_criterion", _check_minimal_ideal_criterion),
    ("kernel_least_ideal", _check_kernel_least_ideal),
    ("one_sided_simplicity_criterion", _check_one_sided_simplicity),
    ("simplicity_criterion", _check_simplicity),
    ("bilateral_simple_is_group", _check_bilateral_simple_group),
    ("idempotent_right_identity", _check_idempotent_right_identity),
    ("left_group_structure", _check_left_group_structure),
    ("kernel_product_decomposition", _check_rees_decomposition),
    ("decomposition_ideal_translates", _check_rees_ideal_translates),
    ("cell_idempotent_criterion", _check_rees_idempotent_criterion),
    ("decomposition_rebase", _check_rees_rebase),
    ("minimal_product_group", _check_minimal_product_group),
    ("element_power_clusters", _check_element_power_clusters),
    ("support_convolution", _check_support_convolution),
    ("convolution_marginals", _check_convolution_marginals),
    ("translation_biinvariance", _check_translation_biinvariance),
    ("idempotent_factorization", _check_idempotent_factorization),
    ("convolution_invariance", _check_convolution_invariance),
    ("limit_theorem", _check_limit_theorem),
    ("cesaro_average_shift_bound", _check_cesaro_bound),
    ("float_shadow_decay", _check_float_shadow),
]


@dataclass
class _SuiteContext:
    instances: list
    corrupted: list
    seed: int


def _corrupted_instance():
    """A deliberately non-associative table used to prove the suite can
    fail: the damaged entry breaks the minimal-ideal verification."""
    labels = ("0", "1", "2")
    rows = ((0, 1, 2), (1, 2, 0), (2, 0, 2))
    return CorpusInstance("corrupted cyclic(3)", Semigroup(labels, rows))


def _run_check(name, fn, ctx):
    start = perf_counter()
    try:
        count, witness = fn(ctx)
        passed = witness == ""
    except SemiconvError as exc:
        count, witness, passed = 0, f"{type(exc).__name__}: {exc}", False
    except Exception as exc:
        # A bug inside a check fails that check; the rest of the suite runs.
        count, witness, passed = 0, f"internal error: {type(exc).__name__}: {exc}", False
    elapsed = perf_counter() - start
    return CheckResult(name, passed, count, witness, elapsed)


def run_suite(corpus="default", seed=0, inject_corruption=False):
    """Run every check against the named corpus, one after another in the
    fixed check order; each check's elapsed is its own wall time."""
    instances = build_corpus(corpus)
    corrupted = [_corrupted_instance()] if inject_corruption else []
    ctx = _SuiteContext(instances=instances, corrupted=corrupted, seed=seed)
    results = tuple(_run_check(name, fn, ctx) for name, fn in _CHECKS)
    return SuiteResult(corpus=corpus, seed=seed, checks=results)
