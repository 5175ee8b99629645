"""End-to-end acceptance: ten exact, property-based criteria.

Each test prints one PASS/FAIL line through record_criterion.  Every
expected value is recomputed here from first principles (exhaustive
enumeration, direct table loops, exact linear algebra), never copied out
of the library under test.
"""

import json
import time
from pathlib import Path

from conftest import fraction_nullspace, minimal_left_ideals, minimal_right_ideals, record_criterion

from semiconv import (
    CorpusSpec,
    Dist,
    RAT,
    XorShift64Star,
    analyze_limit,
    build,
    build_corpus,
    cesaro_limit,
    check_convolution_invariance,
    compose_idempotent,
    convolve,
    dirac,
    element_power_cluster,
    factorize_idempotent,
    haar_uniform,
    idempotents,
    is_left_simple,
    is_right_simple,
    kernel,
    power,
    psi,
    psi_inv,
    random_dist,
    rebase,
    rees_decompose,
    variation_norm,
)
from semiconv.cli import main
from semiconv.serialize import (
    dumps_canonical,
    limit_report_to_json,
    rees_to_json,
    semigroup_to_json,
)

GOLDEN = Path(__file__).parent / "golden"


def seeded_support(sg, rng, max_size):
    size = 1 + rng.below(min(max_size, sg.order))
    chosen = set()
    while len(chosen) < size:
        chosen.add(rng.below(sg.order))
    return sg.subset(sorted(chosen))


def seeded_dist(sg, seed, max_size=3):
    rng = XorShift64Star(seed)
    return random_dist(seeded_support(sg, rng, max_size), rng.next_word(), 64)


# ---------------------------------------------------------------- criterion 1


def brute_ideals(sg, left, right):
    """All nonempty subsets closed under the requested translations."""
    n = sg.order
    found = []
    for mask in range(1, 1 << n):
        members = [a for a in range(n) if mask >> a & 1]
        ok = True
        for a in members:
            for s in range(n):
                if left and not mask >> sg.mul(s, a) & 1:
                    ok = False
                    break
                if right and not mask >> sg.mul(a, s) & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.append(frozenset(members))
    return found


def brute_minimal(ideals):
    return {i for i in ideals if not any(j < i for j in ideals)}


def small_corpus():
    specs = [CorpusSpec("cyclic", (n,)) for n in range(1, 6)]
    specs += [CorpusSpec("left_zero", (n,)) for n in range(1, 6)]
    specs += [CorpusSpec("right_zero", (n,)) for n in range(2, 6)]
    specs += [
        CorpusSpec("rectangular_band", (2, 2)),
        CorpusSpec("full_transformation", (1,)),
        CorpusSpec("full_transformation", (2,)),
        CorpusSpec("boolean_matrices", (1,)),
        CorpusSpec("rees_matrix", (1, 2, 2), seed=1),
        CorpusSpec("rees_matrix", (2, 2, 1), seed=2),
        CorpusSpec("rees_matrix", (1, 1, 3), seed=3),
        CorpusSpec("rees_matrix", (5, 1, 1), seed=4),
        CorpusSpec("direct_product", factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,)))),
        CorpusSpec("direct_product", factors=(CorpusSpec("cyclic", (2,)), CorpusSpec("cyclic", (2,)))),
    ]
    return specs


def test_criterion_01_minimal_ideals_match_exhaustive_enumeration():
    start = time.perf_counter()
    specs = small_corpus()
    checked = 0
    ok = len(specs) >= 20
    for spec in specs:
        sg = build(spec)
        ok = ok and sg.order <= 5
        car = sg.carrier()
        want_left = brute_minimal(brute_ideals(sg, left=True, right=False))
        got_left = {frozenset(m.elements()) for m in minimal_left_ideals(car)}
        ok = ok and want_left == got_left
        want_right = brute_minimal(brute_ideals(sg, left=False, right=True))
        got_right = {frozenset(m.elements()) for m in minimal_right_ideals(car)}
        ok = ok and want_right == got_right
        two_sided = brute_minimal(brute_ideals(sg, left=True, right=True))
        ok = ok and len(two_sided) == 1
        ok = ok and next(iter(two_sided)) == frozenset(kernel(car).elements())
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert record_criterion(
        1,
        "minimal ideals and kernel match exhaustive subset enumeration",
        ok,
        f"{checked} semigroups of order <= 5, {elapsed:.2f}s",
    )


# ------------------------------------------------------------ criteria 2 and 3


def product_instances():
    out = []
    seed = 100
    for g in (1, 2, 3, 4, 6):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                out.append(build(CorpusSpec("rees_matrix", (g, m, k), seed=seed)))
                seed += 1
    return out


def table_product_set(sg, aa, bb):
    return {sg.mul(a, b) for a in aa for b in bb}


def test_criterion_02_product_coordinates_are_a_bijection():
    start = time.perf_counter()
    instances = product_instances()
    count = 0
    ok = len(instances) == 45
    for sg in instances:
        car = sg.carrier()
        dec = rees_decompose(car)
        e = dec.base
        everything = list(range(sg.order))
        ok = ok and sg.mul(e, e) == e
        # the three factors, recomputed from the table
        se = {sg.mul(s, e) for s in everything}
        es = {sg.mul(e, s) for s in everything}
        ese = {sg.mul(sg.mul(e, s), e) for s in everything}
        ok = ok and set(dec.left.elements()) == {x for x in se if sg.mul(x, x) == x}
        ok = ok and set(dec.right.elements()) == {y for y in es if sg.mul(y, y) == y}
        ok = ok and set(dec.group.carrier.elements()) == ese
        # the group factor really is a group with identity e
        ok = ok and all(sg.mul(e, g) == g and sg.mul(g, e) == g for g in ese)
        ok = ok and all(
            any(sg.mul(g, h) == e and sg.mul(h, g) == e for h in ese) for g in ese
        )
        ok = ok and all(sg.mul(g, h) in ese for g in ese for h in ese)
        # one-sided factors multiply out to one-sided groups
        lg = table_product_set(sg, dec.left.elements(), ese)
        gr = table_product_set(sg, ese, dec.right.elements())
        ok = ok and lg == se and gr == es
        ok = ok and is_left_simple(sg.subset(lg)) and is_right_simple(sg.subset(gr))
        ok = ok and any(sg.mul(x, x) == x for x in lg)
        ok = ok and any(sg.mul(y, y) == y for y in gr)
        lgr = table_product_set(sg, lg, dec.right.elements())
        ok = ok and lgr == set(everything)
        # coordinates: a bijection both ways, counted exactly
        ok = ok and len(dec.left) * dec.group.order * len(dec.right) == sg.order
        images = set()
        for x in dec.left:
            for g in dec.group.carrier:
                for y in dec.right:
                    z = psi(dec, x, g, y)
                    ok = ok and z == sg.mul(sg.mul(x, g), y)
                    ok = ok and psi_inv(dec, z) == (x, g, y)
                    images.add(z)
        ok = ok and images == set(everything)
        for z in everything:
            x, g, y = psi_inv(dec, z)
            ok = ok and psi(dec, x, g, y) == z
        count += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert record_criterion(
        2,
        "kernel product coordinates biject on all sandwich instances",
        ok,
        f"{count} instances, {elapsed:.2f}s",
    )


def test_criterion_03_decomposition_corollaries():
    start = time.perf_counter()
    instances = product_instances()
    count = 0
    ok = True
    for sg in instances:
        car = sg.carrier()
        dec = rees_decompose(car)
        left = list(dec.left.elements())
        grp = list(dec.group.carrier.elements())
        right = list(dec.right.elements())
        lg = table_product_set(sg, left, grp)
        # minimal left ideals are exactly the right translates of LG
        want = {frozenset(table_product_set(sg, lg, [y])) for y in right}
        got = {frozenset(m.elements()) for m in minimal_left_ideals(car)}
        ok = ok and want == got
        # every idempotent sits at coordinates (x, (y*x)^-1, y)
        predicted = set()
        for x in left:
            for y in right:
                inv = dec.group.inv(sg.mul(y, x))
                predicted.add(sg.mul(sg.mul(x, inv), y))
        scanned = {z for z in range(sg.order) if sg.mul(z, z) == z}
        ok = ok and predicted == scanned and len(predicted) == len(left) * len(right)
        # rebasing at any idempotent translates the factors
        for e2 in sorted(scanned):
            a, _, b = psi_inv(dec, e2)
            dec2 = rebase(dec, e2)
            lg2 = table_product_set(sg, dec2.left.elements(), dec2.group.carrier.elements())
            ok = ok and lg2 == table_product_set(sg, lg, [b])
            ok = ok and set(dec2.group.carrier.elements()) == {
                sg.mul(sg.mul(a, g), b) for g in grp
            }
            gr2 = table_product_set(sg, dec2.group.carrier.elements(), dec2.right.elements())
            ok = ok and gr2 == {sg.mul(a, w) for w in table_product_set(sg, grp, right)}
        count += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert record_criterion(
        3,
        "ideal translates, cell idempotents, and rebasing identities",
        ok,
        f"{count} instances, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 4


def test_criterion_04_idempotent_measure_round_trip():
    start = time.perf_counter()
    trials = 0
    ok = True
    instances = build_corpus("default")
    base_seed = 4000
    while trials < 100:
        for inst in instances:
            if trials >= 100:
                break
            sg = inst.semigroup
            dec = rees_decompose(kernel(sg.carrier()))
            rng = XorShift64Star(base_seed + trials)
            left_supp = seeded_subset_of(dec.left, rng)
            right_supp = seeded_subset_of(dec.right, rng)
            mu_left = random_dist(left_supp, rng.next_word(), 64)
            mu_right = random_dist(right_supp, rng.next_word(), 64)
            mu = compose_idempotent(mu_left, mu_right, dec.group)
            ok = ok and convolve(mu, mu) == mu
            fac = factorize_idempotent(mu)
            ok = ok and fac.recompose() == mu
            ok = ok and fac.haar == haar_uniform(fac.decomposition.group)
            ok = ok and convolve(convolve(fac.left, fac.haar), fac.right) == mu
            trials += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert record_criterion(
        4,
        "seeded compose/factorize round trips with uniform group marginal",
        ok,
        f"{trials} triples, {elapsed:.2f}s",
    )


def seeded_subset_of(es, rng):
    elems = list(es.elements())
    size = 1 + rng.below(len(elems))
    chosen = set()
    while len(chosen) < size:
        chosen.add(elems[rng.below(len(elems))])
    return es.parent.subset(sorted(chosen))


# ---------------------------------------------------------------- criterion 5


def test_criterion_05_uniform_is_the_unique_biinvariant_distribution():
    start = time.perf_counter()
    groups = []
    for inst in build_corpus("default"):
        sg = inst.semigroup
        grp = rees_decompose(kernel(sg.carrier())).group
        if grp.order <= 8:
            groups.append(grp)
    ok = len(groups) >= 10
    solved = 0
    for grp in groups:
        sg = grp.parent
        carrier = list(grp.carrier.elements())
        pos = {g: i for i, g in enumerate(carrier)}
        n = len(carrier)
        rows = []
        for a in carrier:
            for side in ("left", "right"):
                # image counts of the translation: p(target) row minus p row
                for z in carrier:
                    row = [RAT(0)] * n
                    for i in carrier:
                        t = sg.mul(a, i) if side == "left" else sg.mul(i, a)
                        if t == z:
                            row[pos[i]] += RAT(1)
                    row[pos[z]] -= RAT(1)
                    rows.append(row)
        basis = fraction_nullspace(rows)
        # solution space is exactly the constants: dimension one, flat vector
        ok = ok and len(basis) == 1
        ok = ok and len(set(basis[0])) == 1 and basis[0][0] != RAT(0)
        # so with total mass one the only bi-invariant distribution is uniform
        uniform = haar_uniform(grp)
        for a in carrier:
            ok = ok and convolve(dirac(sg, a), uniform) == uniform
            ok = ok and convolve(uniform, dirac(sg, a)) == uniform
        solved += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    assert record_criterion(
        5,
        "uniform is the unique bi-invariant distribution on corpus groups",
        ok,
        f"{solved} groups of order <= 8, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_06_invariant_pairs_from_averaged_limits():
    start = time.perf_counter()
    plan = [
        (CorpusSpec("cyclic", (2,)), 2),
        (CorpusSpec("cyclic", (3,)), 2),
        (CorpusSpec("cyclic", (4,)), 2),
        (CorpusSpec("cyclic", (6,)), 2),
        (CorpusSpec("cyclic", (8,)), 2),
        (CorpusSpec("left_zero", (3,)), 2),
        (CorpusSpec("right_zero", (3,)), 2),
        (CorpusSpec("rectangular_band", (2, 3)), 2),
        (CorpusSpec("rectangular_band", (3, 2)), 2),
        (CorpusSpec("full_transformation", (2,)), 3),
        (CorpusSpec("full_transformation", (3,)), 3),
        (CorpusSpec("boolean_matrices", (2,)), 4),
        (CorpusSpec("rees_matrix", (2, 2, 2), seed=11), 4),
        (CorpusSpec("rees_matrix", (3, 1, 2), seed=12), 4),
        (CorpusSpec("rees_matrix", (4, 2, 1), seed=13), 4),
        (CorpusSpec("rees_matrix", (3, 2, 2), seed=14), 4),
        (
            CorpusSpec(
                "direct_product",
                factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))),
            ),
            3,
        ),
        (CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21), 3),
    ]
    pairs = 0
    identities = 0
    ok = True
    for spec, reps in plan:
        sg = build(spec)
        for r in range(reps):
            mu = seeded_dist(sg, 6000 + 17 * pairs + r)
            nu = cesaro_limit(mu)
            ok = ok and convolve(mu, nu) == nu and convolve(nu, mu) == nu
            identities += check_convolution_invariance(mu, nu)
            pairs += 1
    ok = ok and pairs == 50
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert record_criterion(
        6,
        "translation identities hold for averaged-limit invariant pairs",
        ok,
        f"{pairs} pairs, {identities} identities, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_07_limit_reports_verify_on_seeded_walks():
    start = time.perf_counter()
    plan = [
        (CorpusSpec("cyclic", (2,)), 3),
        (CorpusSpec("cyclic", (3,)), 3),
        (CorpusSpec("cyclic", (4,)), 4),
        (CorpusSpec("cyclic", (6,)), 4),
        (CorpusSpec("cyclic", (8,)), 4),
        (CorpusSpec("cyclic", (12,)), 4),
        (CorpusSpec("left_zero", (3,)), 3),
        (CorpusSpec("right_zero", (3,)), 3),
        (CorpusSpec("rectangular_band", (2, 3)), 4),
        (CorpusSpec("rectangular_band", (3, 2)), 4),
        (CorpusSpec("full_transformation", (2,)), 4),
        (CorpusSpec("full_transformation", (3,)), 6),
        (CorpusSpec("boolean_matrices", (2,)), 6),
        (CorpusSpec("rees_matrix", (2, 2, 2), seed=11), 4),
        (CorpusSpec("rees_matrix", (3, 1, 2), seed=12), 4),
        (CorpusSpec("rees_matrix", (4, 2, 1), seed=13), 4),
        (CorpusSpec("rees_matrix", (3, 2, 2), seed=14), 4),
        (CorpusSpec("rees_matrix", (6, 2, 2), seed=15), 4),
        (
            CorpusSpec(
                "direct_product",
                factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))),
            ),
            4,
        ),
        (
            CorpusSpec(
                "direct_product",
                factors=(CorpusSpec("cyclic", (3,)), CorpusSpec("rectangular_band", (2, 2))),
            ),
            4,
        ),
        (CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21), 4),
        (CorpusSpec("random_transformation_subsemigroup", (3, 3), seed=22), 4),
        (CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=24), 4),
        (CorpusSpec("full_transformation", (4,)), 8),
    ]
    required = {
        "nu_idempotent",
        "nu_invariant",
        "support_nu_is_kernel",
        "subgroup_normal",
        "period_matches_quotient",
        "cluster_distinct",
        "cluster_closed_cyclic",
        "cluster_factorization",
        "gamma_representative_independent",
    }
    walks = 0
    largest = 0
    ok = True
    for spec, reps in plan:
        sg = build(spec)
        largest = max(largest, sg.order)
        for r in range(reps):
            mu = seeded_dist(sg, 7000 + 31 * walks + r)
            report = analyze_limit(mu)
            ok = ok and len(report.checks) == 21
            ok = ok and required <= set(report.checks)
            ok = ok and all(report.checks.values())
            # the averaged limit is reproduced by the cluster cycle average
            total = [RAT(0)] * sg.order
            for c in report.cluster:
                for i, pr in enumerate(c.probs):
                    total[i] += pr
            inv = RAT(1, report.p)
            ok = ok and Dist(sg, [t * inv for t in total]) == report.nu
            walks += 1
    ok = ok and walks == 100 and largest == 256
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    assert record_criterion(
        7,
        "limit analysis passes every internal check on seeded walks",
        ok,
        f"{walks} walks, orders up to {largest}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_08_power_clusters_on_all_transformations():
    start = time.perf_counter()
    checked = 0
    ok = True
    for degree in (3, 4):
        sg = build(CorpusSpec("full_transformation", (degree,)))
        for a in range(sg.order):
            # brute-force the power sequence
            seen = {}
            powers = [None]
            cur = a
            k = 1
            while cur not in seen:
                seen[cur] = k
                powers.append(cur)
                cur = sg.mul(cur, a)
                k += 1
            q = seen[cur]
            p = k - q
            cluster = set(powers[q:])
            r = -(-q // p)
            ok = ok and q <= r * p <= q + p - 1
            e = powers[r * p]
            ok = ok and sg.mul(e, e) == e
            # the cycle is generated by a*e starting from e
            orbit = [e]
            b = sg.mul(a, e)
            x = b
            while x != e:
                orbit.append(x)
                x = sg.mul(x, b)
            ok = ok and len(orbit) == p and set(orbit) == cluster
            # the library agrees on every field
            pc = element_power_cluster(sg, a)
            ok = ok and (pc.q, pc.p) == (q, p)
            ok = ok and set(pc.cluster.elements()) == cluster
            ok = ok and pc.idempotent == e
            checked += 1
    ok = ok and checked == 27 + 256
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert record_criterion(
        8,
        "element power cycles form cyclic groups with the predicted identity",
        ok,
        f"{checked} elements, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------- criterion 9


def test_criterion_09_averaged_shift_bound():
    start = time.perf_counter()
    specs = [
        CorpusSpec("cyclic", (2,)),
        CorpusSpec("cyclic", (3,)),
        CorpusSpec("cyclic", (4,)),
        CorpusSpec("cyclic", (5,)),
        CorpusSpec("cyclic", (6,)),
        CorpusSpec("cyclic", (8,)),
        CorpusSpec("left_zero", (3,)),
        CorpusSpec("right_zero", (3,)),
        CorpusSpec("rectangular_band", (2, 2)),
        CorpusSpec("rectangular_band", (2, 3)),
        CorpusSpec("rectangular_band", (3, 2)),
        CorpusSpec("full_transformation", (2,)),
        CorpusSpec("boolean_matrices", (2,)),
        CorpusSpec("rees_matrix", (2, 2, 2), seed=11),
        CorpusSpec("rees_matrix", (3, 1, 2), seed=12),
        CorpusSpec("rees_matrix", (2, 1, 2), seed=1),
        CorpusSpec("rees_matrix", (2, 2, 1), seed=2),
        CorpusSpec("rees_matrix", (4, 2, 1), seed=13),
        CorpusSpec(
            "direct_product",
            factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))),
        ),
        CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21),
    ]
    instances = 0
    checked = 0
    ok = len(specs) == 20
    for i, spec in enumerate(specs):
        sg = build(spec)
        mu = seeded_dist(sg, 9000 + i)
        shifted = [power(mu, j) for j in (1, 2, 3)]
        acc = list(mu.probs)
        cur = mu
        for n in range(1, 65):
            if n > 1:
                cur = convolve(cur, mu)
                for idx, pr in cur.items():
                    acc[idx] += pr
            inv = RAT(1, n)
            avg = Dist(sg, [a * inv for a in acc])
            for j, muj in zip((1, 2, 3), shifted):
                dev = variation_norm(avg, convolve(muj, avg))
                ok = ok and dev <= RAT(2 * j, n)
                checked += 1
        instances += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert record_criterion(
        9,
        "averaged walk shifts stay within the 2j/n variation bound",
        ok,
        f"{instances} walks, {checked} inequalities, {elapsed:.2f}s",
    )


# --------------------------------------------------------------- criterion 10


def test_criterion_10_golden_reports_match_byte_for_byte(tmp_path, capsys):
    start = time.perf_counter()
    ok = True

    z2 = build(CorpusSpec("cyclic", (2,)))
    text = dumps_canonical(limit_report_to_json(analyze_limit(dirac(z2, 1))))
    ok = ok and text == (GOLDEN / "z2_delta1_limit.json").read_text(encoding="utf-8")

    lz3 = build(CorpusSpec("left_zero", (3,)))
    text = dumps_canonical(rees_to_json(rees_decompose(kernel(lz3.carrier()))))
    ok = ok and text == (GOLDEN / "left_zero3_rees.json").read_text(encoding="utf-8")

    band = build(CorpusSpec("rectangular_band", (2, 3)))
    text = dumps_canonical(rees_to_json(rees_decompose(kernel(band.carrier()))))
    ok = ok and text == (GOLDEN / "rect_band23_rees.json").read_text(encoding="utf-8")

    t2 = build(CorpusSpec("full_transformation", (2,)))
    table = tmp_path / "t2.json"
    table.write_text(dumps_canonical(semigroup_to_json(t2)), encoding="utf-8")
    ok = ok and main(["analyze", str(table), "--json"]) == 0
    out = capsys.readouterr().out
    ok = ok and out == (GOLDEN / "t2_structure.json").read_text(encoding="utf-8")
    # spot checks against the hand-derived structure
    parsed = json.loads(out)
    ok = ok and parsed["kernel"] == ["00", "11"]
    ok = ok and parsed["idempotents"] == ["00", "01", "11"]

    walk = Dist.from_mapping(t2, {"01": RAT(1, 2), "11": RAT(1, 2)})
    text = dumps_canonical(limit_report_to_json(analyze_limit(walk)))
    ok = ok and text == (GOLDEN / "t2_walk_limit.json").read_text(encoding="utf-8")
    ok = ok and json.loads(text)["nu"] == {"probs": {"11": "1/1"}}

    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    assert record_criterion(
        10,
        "hand-verified golden reports reproduce byte for byte",
        ok,
        f"5 files, {elapsed:.2f}s",
    )
