"""Exact distributions and convolution, checked against brute-force sums."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import is_idempotent_measure

from semiconv import (
    CorpusSpec,
    Dist,
    EmptySet,
    HypothesisViolated,
    InvalidDistribution,
    MalformedInput,
    MismatchedParent,
    NotASubsemigroup,
    NotSimple,
    PreconditionViolated,
    RAT,
    SupportOutsideDecomposition,
    TheoremViolation,
    XorShift64Star,
    build,
    build_corpus,
    check_convolution_invariance,
    classify_translation_invariance,
    compose_idempotent,
    convolve,
    dirac,
    factorize_idempotent,
    group_structure,
    haar_uniform,
    kernel,
    marginals,
    psi_inv,
    random_dist,
    rees_decompose,
    translate,
    uniform_on,
)
from semiconv import measure


def cyclic(n):
    return build(CorpusSpec("cyclic", (n,)))


def t_full(n):
    return build(CorpusSpec("full_transformation", (n,)))


def band(m, k):
    return build(CorpusSpec("rectangular_band", (m, k)))


def dense_convolve(sg, f, g):
    # direct double sum over all pairs of dense vectors, no support shortcut
    out = [RAT(0)] * sg.order
    for x in range(sg.order):
        for y in range(sg.order):
            out[sg.mul(x, y)] += f[x] * g[y]
    return tuple(out)


def brute_convolve(mu, nu):
    return Dist(mu.parent, dense_convolve(mu.parent, mu.probs, nu.probs))


def test_dist_validation():
    z3 = cyclic(3)
    mu = Dist(z3, (RAT(1, 2), RAT(1, 3), RAT(1, 6)))
    assert mu.prob(0) == RAT(1, 2)
    assert mu.items() == [(0, RAT(1, 2)), (1, RAT(1, 3)), (2, RAT(1, 6))]
    with pytest.raises(InvalidDistribution):
        Dist(z3, (RAT(1, 2), RAT(1, 2)))  # wrong length
    with pytest.raises(InvalidDistribution):
        Dist(z3, (RAT(1, 2), RAT(1, 2), RAT(1, 2)))  # sums to 3/2
    with pytest.raises(InvalidDistribution):
        Dist(z3, (RAT(3, 2), RAT(-1, 2), RAT(0)))  # negative entry
    # ints are accepted and coerced
    assert Dist(z3, (1, 0, 0)) == dirac(z3, 0)


def test_dist_equality_and_mapping():
    z3 = cyclic(3)
    a = Dist(z3, (RAT(1, 2), RAT(1, 2), RAT(0)))
    b = Dist.from_mapping(z3, {"0": RAT(1, 2), "1": RAT(1, 2)})
    assert a == b
    assert hash(a) == hash(b)
    # mapping keys may be indices, repeated keys accumulate
    c = Dist.from_mapping(z3, {0: RAT(1, 4), "0": RAT(1, 4), 1: RAT(1, 2)})
    assert c == a
    other = Dist(cyclic(3), (RAT(1, 2), RAT(1, 2), RAT(0)))
    assert a != other  # same table, different parent object
    with pytest.raises(MalformedInput):
        Dist.from_mapping(z3, {7: RAT(1)})
    with pytest.raises(MalformedInput):
        Dist.from_mapping(z3, {"9": RAT(1)})


def test_dist_rejects_attribute_assignment_and_deletion():
    mu = Dist(cyclic(3), (RAT(1, 2), RAT(1, 2), RAT(0)))
    probs, items = mu.probs, mu.items()  # fill the probs cache first
    for name in ("parent", "den", "_nums", "_items", "_probs", "other"):
        with pytest.raises(AttributeError, match="Dist is immutable"):
            setattr(mu, name, None)
        with pytest.raises(AttributeError, match="Dist is immutable"):
            delattr(mu, name)
    assert mu.probs is probs and mu.items() == items
    assert mu == Dist(mu.parent, probs)


def test_dirac_and_support():
    z4 = cyclic(4)
    d = dirac(z4, 2)
    assert d.prob(2) == RAT(1) and d.prob(0) == RAT(0)
    assert d.support().labels() == ("2",)
    mu = Dist(z4, (RAT(1, 2), RAT(0), RAT(1, 2), RAT(0)))
    assert mu.support().labels() == ("0", "2")


def test_a_support_is_the_subset_of_its_numerator_indices():
    # The mask and the element tuple are read straight off the numerators.
    sg = build(CorpusSpec("cyclic", (70,)))
    for picked in ([69], [0, 3, 64], list(range(1, 70, 2))):
        mu = uniform_on(sg.subset(picked))
        supp = mu.support()
        assert supp == sg.subset(picked) and hash(supp) == hash(sg.subset(picked))
        assert supp.elements() == tuple(picked) == sg.subset(picked).elements()
        assert all(type(a) is int for a in supp.elements())


@pytest.mark.parametrize("a", [-1, 3])
def test_dirac_rejects_an_index_out_of_range(a):
    with pytest.raises(MalformedInput, match="element index out of range"):
        dirac(cyclic(3), a)


def test_support_constructor_checks_the_support():
    z3 = cyclic(3)
    assert Dist.from_mapping(z3, {2: RAT(1, 3), 0: RAT(2, 3)}) == Dist(
        z3, (RAT(2, 3), RAT(0), RAT(1, 3))
    )
    with pytest.raises(InvalidDistribution, match="sum to 2/3"):
        Dist.from_mapping(z3, {0: RAT(1, 3), 1: RAT(1, 3)})
    assert Dist.from_mapping(z3, {0: RAT(1), 1: RAT(0)}) == dirac(z3, 0)  # zero dropped
    with pytest.raises(InvalidDistribution, match="negative probability at 1"):
        Dist.from_mapping(z3, {0: RAT(3, 2), 1: RAT(-1, 2)})
    with pytest.raises(InvalidDistribution, match="sum to 0, not 1"):
        Dist.from_mapping(z3, {})
    # the integer constructor behind it: numerators over one denominator
    with pytest.raises(InvalidDistribution, match="non-positive"):
        Dist._from_numerators(z3, 2, {0: 2, 1: 0})
    with pytest.raises(InvalidDistribution, match="non-positive"):
        Dist._from_numerators(z3, 2, {0: 3, 1: -1})
    for den in (3, 5):
        with pytest.raises(InvalidDistribution, match="sum to"):
            Dist._from_numerators(z3, den, {0: 2, 1: 2})
    with pytest.raises(InvalidDistribution):
        Dist._from_numerators(z3, 1, {})
    # reduced to lowest terms, so equal distributions are equal and hash equal
    halves = Dist._from_numerators(z3, 4, {0: 2, 1: 2})
    assert halves == Dist._from_numerators(z3, 2, {0: 1, 1: 1})
    assert hash(halves) == hash(Dist._from_numerators(z3, 2, {0: 1, 1: 1}))
    assert halves == Dist(z3, (RAT(1, 2), RAT(1, 2), RAT(0)))


@pytest.mark.parametrize("a", [-1, 3])
def test_prob_rejects_an_index_out_of_range(a):
    mu = Dist(cyclic(3), (RAT(1, 2), RAT(1, 3), RAT(1, 6)))
    with pytest.raises(MalformedInput, match="element index out of range"):
        mu.prob(a)


def test_uniform_on():
    z4 = cyclic(4)
    sub = z4.subset_of_labels(["1", "3"])
    u = uniform_on(sub)
    assert u.prob(1) == RAT(1, 2) and u.prob(3) == RAT(1, 2)
    with pytest.raises(EmptySet):
        uniform_on(z4.empty())


def test_convolve_dirac_is_group_addition():
    z4 = cyclic(4)
    assert convolve(dirac(z4, 1), dirac(z4, 2)) == dirac(z4, 3)
    assert convolve(dirac(z4, 3), dirac(z4, 3)) == dirac(z4, 2)


def test_convolve_matches_brute_force():
    z4 = cyclic(4)
    mu = Dist(z4, (RAT(1, 2), RAT(1, 4), RAT(1, 8), RAT(1, 8)))
    nu = Dist(z4, (RAT(0), RAT(2, 3), RAT(1, 3), RAT(0)))
    assert convolve(mu, nu) == brute_convolve(mu, nu)
    t2 = t_full(2)
    a = Dist.from_mapping(t2, {"01": RAT(1, 3), "10": RAT(1, 3), "00": RAT(1, 3)})
    b = Dist.from_mapping(t2, {"10": RAT(1, 2), "11": RAT(1, 2)})
    assert convolve(a, b) == brute_convolve(a, b)


def test_convolve_rejects_distributions_on_different_semigroups():
    # the same parent check, and error, as variation_norm and product_sets
    mu = dirac(cyclic(4), 1)
    nu = dirac(t_full(2), 0)
    with pytest.raises(MismatchedParent, match="different semigroups"):
        convolve(mu, nu)
    with pytest.raises(MismatchedParent):
        convolve(nu, mu)


def test_convolution_support_law():
    # supp(mu*nu) = supp(mu) * supp(nu) elementwise
    t2 = t_full(2)
    mu = Dist.from_mapping(t2, {"01": RAT(1, 2), "00": RAT(1, 2)})
    nu = Dist.from_mapping(t2, {"10": RAT(1, 4), "11": RAT(3, 4)})
    prod = convolve(mu, nu)
    expected = set()
    for x in mu.support().elements():
        for y in nu.support().elements():
            expected.add(t2.mul(x, y))
    assert set(prod.support().elements()) == expected


def test_convolve_many_associates():
    z4 = cyclic(4)
    a = Dist(z4, (RAT(1, 2), RAT(1, 2), RAT(0), RAT(0)))
    b = dirac(z4, 1)
    c = Dist(z4, (RAT(0), RAT(0), RAT(1, 3), RAT(2, 3)))
    left = convolve(convolve(a, b), c)
    right = convolve(a, convolve(b, c))
    assert left == right == brute_convolve(brute_convolve(a, b), c)


def test_translate():
    z4 = cyclic(4)
    mu = Dist(z4, (RAT(1, 2), RAT(1, 2), RAT(0), RAT(0)))
    assert translate(mu, 2, "left") == Dist(z4, (RAT(0), RAT(0), RAT(1, 2), RAT(1, 2)))
    assert translate(mu, 2, "right") == translate(mu, 2, "left")  # abelian
    lz = build(CorpusSpec("left_zero", (3,)))
    nu = uniform_on(lz.carrier())
    assert translate(nu, 0, "left") == dirac(lz, 0)  # left zero absorbs
    assert translate(nu, 0, "right") == nu
    with pytest.raises(MalformedInput):
        translate(mu, 0, "sideways")


def test_haar_uniform_is_biinvariant():
    z6 = cyclic(6)
    grp = group_structure(z6.carrier())
    h = haar_uniform(grp)
    for a in range(6):
        assert translate(h, a, "left") == h
        assert translate(h, a, "right") == h
    assert convolve(h, h) == h
    inv = classify_translation_invariance(h)
    assert inv.biinvariant_on_carrier and inv.biinvariant_on_support
    with pytest.raises(MalformedInput):
        haar_uniform(z6.carrier())  # requires the verified group wrapper


def test_translation_invariance_classification():
    z4 = cyclic(4)
    mu = Dist(z4, (RAT(1, 2), RAT(0), RAT(1, 2), RAT(0)))
    # mu is uniform on the subgroup {0,2}: invariant under its own support,
    # but translating by 1 shifts it off itself
    inv = classify_translation_invariance(mu)
    assert inv.left_on_support and inv.right_on_support
    assert not inv.left_on_carrier and not inv.right_on_carrier
    assert inv.biinvariant_on_support and not inv.biinvariant_on_carrier


def test_marginals_on_rectangular_band():
    b23 = band(2, 3)
    dec = rees_decompose(b23.carrier())
    mu = Dist.from_mapping(
        b23,
        {
            "(0,0)": RAT(1, 2),
            "(0,1)": RAT(1, 4),
            "(1,2)": RAT(1, 4),
        },
    )
    left, mid, right = marginals(mu, dec)
    # left coordinate of (i,j) is its row: rows 0 and 1 get 3/4 and 1/4
    row0 = dec.left.labels()
    assert left.prob(b23.index(row0[0])) == RAT(3, 4)
    assert sum((p for _, p in left.items()), RAT(0)) == RAT(1)
    # trivial group: the middle marginal is the point mass at the base idempotent
    assert mid == dirac(b23, dec.group.identity)
    # right coordinate collects columns 0, 1, 2 with weights 1/2, 1/4, 1/4
    assert sorted(p for _, p in right.items()) == [RAT(1, 4), RAT(1, 4), RAT(1, 2)]


def test_marginals_reject_escaping_support():
    t2 = t_full(2)
    dec = rees_decompose(kernel(t2))
    mu = Dist.from_mapping(t2, {"01": RAT(1, 2), "00": RAT(1, 2)})
    with pytest.raises(SupportOutsideDecomposition):
        marginals(mu, dec)


def test_marginals_reject_a_split_of_another_semigroup():
    # rectangular_band(2,2) and cyclic(4) both have order 4, so every support
    # point of mu lies in the split's carrier by index; the three marginals
    # were once built from cyclic(4)'s coordinates with no error.
    mu = uniform_on(band(2, 2).carrier())
    dec = rees_decompose(kernel(cyclic(4)))
    with pytest.raises(MismatchedParent, match="different semigroups"):
        marginals(mu, dec)


def test_is_idempotent_measure():
    z4 = cyclic(4)
    sub = z4.subset_of_labels(["0", "2"])
    assert is_idempotent_measure(uniform_on(sub))
    assert not is_idempotent_measure(dirac(z4, 1))
    assert is_idempotent_measure(dirac(z4, 0))


def test_factorize_idempotent_round_trip():
    b23 = band(2, 3)
    mu = Dist.from_mapping(
        b23,
        {
            "(0,0)": RAT(1, 6),
            "(0,1)": RAT(1, 3),
            "(1,0)": RAT(1, 6),
            "(1,1)": RAT(1, 3),
        },
    )
    # product measure on a rectangular band is idempotent
    assert is_idempotent_measure(mu)
    fac = factorize_idempotent(mu)
    assert fac.recompose() == mu
    assert fac.haar == haar_uniform(fac.decomposition.group)
    # left marginal carries the row weights 1/2, 1/2
    assert sorted(p for _, p in fac.left.items()) == [RAT(1, 2), RAT(1, 2)]
    assert sorted(p for _, p in fac.right.items()) == [RAT(1, 3), RAT(2, 3)]


def test_factorize_idempotent_on_subgroup():
    z6 = cyclic(6)
    mu = uniform_on(z6.subset_of_labels(["0", "2", "4"]))
    fac = factorize_idempotent(mu)
    assert len(fac.decomposition.group.carrier) == 3
    assert fac.left == dirac(z6, 0) and fac.right == dirac(z6, 0)


def test_factorize_rejects_non_idempotent():
    z4 = cyclic(4)
    with pytest.raises(PreconditionViolated):
        factorize_idempotent(dirac(z4, 1))


def test_compose_idempotent():
    b23 = band(2, 3)
    dec = rees_decompose(b23.carrier())
    mu_left = uniform_on(dec.left)
    mu_right = Dist.from_mapping(
        b23,
        {dec.right.labels()[0]: RAT(1, 5), dec.right.labels()[2]: RAT(4, 5)},
    )
    built = compose_idempotent(mu_left, mu_right, dec.group)
    assert is_idempotent_measure(built)
    fac = factorize_idempotent(built)
    assert fac.recompose() == built


def test_compose_idempotent_squares_nothing(monkeypatch):
    # the fold lemma proves the product idempotent; no measure is convolved
    # with itself
    squared = []
    real = measure.convolve

    def watched(a, b):
        if a is b:
            squared.append(a)
        return real(a, b)

    monkeypatch.setattr(measure, "convolve", watched)
    b23 = band(2, 3)
    dec = rees_decompose(b23.carrier())
    built = compose_idempotent(uniform_on(dec.left), uniform_on(dec.right), dec.group)
    assert squared == []
    assert real(built, built) == built


def test_factorize_idempotent_squares_nothing(monkeypatch):
    # idempotence is decided by the factorization theorem; no measure is
    # convolved at all
    calls = []
    real = measure.convolve

    def watched(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(measure, "convolve", watched)
    b23 = band(2, 3)
    dec = rees_decompose(b23.carrier())
    built = measure.coordinate_product(
        uniform_on(dec.left), haar_uniform(dec.group), uniform_on(dec.right)
    )
    assert factorize_idempotent(built).recompose() == built
    with pytest.raises(PreconditionViolated, match="mu \\* mu = mu"):
        factorize_idempotent(dirac(cyclic(4), 1))
    assert calls == []


def random_part(factor, rng):
    """A seeded distribution on a seeded non-empty subset of factor."""
    elements = factor.elements()
    chosen = [z for z in elements if rng.below(2)] or [elements[rng.below(len(elements))]]
    return random_dist(factor.parent.subset(chosen), rng.next_word(), 32)


def test_composed_measures_square_to_themselves_on_the_extended_corpus():
    # the square compose_idempotent leaves to the fold lemma, made here on
    # seeded lambda and rho over the kernel of every extended-corpus table
    for n, inst in enumerate(build_corpus("extended")):
        dec = inst.rees
        rng = XorShift64Star(7000 + n)
        for _ in range(3):
            built = compose_idempotent(
                random_part(dec.left, rng), random_part(dec.right, rng), dec.group
            )
            assert convolve(built, built) == built, inst.name
            assert factorize_idempotent(built).recompose() == built, inst.name


def mixed(a, b):
    """The even mixture (a + b) / 2."""
    union = a.support() | b.support()
    return Dist.from_mapping(a.parent, {z: (a.prob(z) + b.prob(z)) / 2 for z in union})


def test_factorize_idempotent_returns_exactly_on_idempotent_measures():
    # The squaring oracle against the factorization theorem, on seeded
    # measures over every extended-corpus table: compositions and point
    # masses that are idempotent, and near misses that are not, whose
    # support does not split, whose group marginal is not Haar, or that are
    # not the product of their marginals.
    idempotent, missed = 0, {"split": 0, "haar": 0, "product": 0}
    for n, inst in enumerate(build_corpus("extended")):
        dec, sg = inst.rees, inst.semigroup
        rng = XorShift64Star(11000 + n)
        for _ in range(16):
            lam, rho = random_part(dec.left, rng), random_part(dec.right, rng)
            composed = measure.coordinate_product(lam, haar_uniform(dec.group), rho)
            # the same support, reweighted: a mixture with composed keeps
            # its Haar group marginal
            other = measure.coordinate_product(
                random_dist(lam.support(), rng.next_word(), 32),
                haar_uniform(dec.group),
                random_dist(rho.support(), rng.next_word(), 32),
            )
            picked = sg.subset(rng.below(sg.order) for _ in range(1 + rng.below(4)))
            candidates = [
                composed,
                mixed(composed, other),
                measure.coordinate_product(lam, random_part(dec.group.carrier, rng), rho),
                random_dist(picked, rng.next_word(), 32),
                dirac(sg, picked.least()),
            ]
            for mu in candidates:
                if is_idempotent_measure(mu):
                    assert factorize_idempotent(mu).recompose() == mu, (inst.name, mu)
                    idempotent += 1
                    continue
                with pytest.raises(PreconditionViolated, match="mu \\* mu = mu"):
                    factorize_idempotent(mu)
                try:
                    split = rees_decompose(mu.support())
                except (NotASubsemigroup, NotSimple):
                    missed["split"] += 1
                    continue
                haar = marginals(mu, split)[1] == haar_uniform(split.group)
                missed["product" if haar else "haar"] += 1
    assert idempotent > 1000 and min(missed.values()) > 10, (idempotent, missed)


def test_coordinate_product_matches_two_convolutions_on_the_extended_corpus():
    # seeded lambda on L and rho on R over the kernel of every extended-corpus
    # table, with m Haar on G or uniform on a coset a*<g> in G
    for n, inst in enumerate(build_corpus("extended")):
        dec = inst.rees
        sg = dec.parent
        rng = XorShift64Star(9000 + n)
        g_els = dec.group.carrier.elements()
        for _ in range(3):
            g, a = (g_els[rng.below(len(g_els))] for _ in range(2))
            powers = [dec.base]
            while sg.mul(powers[-1], g) != dec.base:
                powers.append(sg.mul(powers[-1], g))
            coset = sg.subset(sg.mul(a, h) for h in powers)
            lam, rho = random_part(dec.left, rng), random_part(dec.right, rng)
            for m in (haar_uniform(dec.group), uniform_on(coset)):
                expected = convolve(convolve(lam, m), rho)
                assert measure.coordinate_product(lam, m, rho) == expected, inst.name


def test_coordinate_product_raises_where_triples_meet():
    # on Z6, x*g*y = x + g + y: uniform lambda and m put six triples on each
    # element, all but one overwritten, so the mass falls short of one
    z6 = cyclic(6)
    u = uniform_on(z6.carrier())
    assert convolve(convolve(u, u), dirac(z6, 0)) == u
    with pytest.raises(InvalidDistribution):
        measure.coordinate_product(u, u, dirac(z6, 0))
    with pytest.raises(MismatchedParent):
        measure.coordinate_product(u, u, dirac(cyclic(6), 0))


def test_compose_idempotent_rejects_escaping_fold():
    # in Z4 with the trivial group {0}, delta_1 * delta_1 folds to 2, not 0;
    # supp(mu_right) * supp(mu_left) = {1,2} + {2,3} = {3,0,1} escapes at 1
    # and 3, and the least of them is the witness
    z4 = cyclic(4)
    grp = group_structure(z4.subset_of_labels(["0"]))
    mu = dirac(z4, 1)
    with pytest.raises(PreconditionViolated) as exc:
        compose_idempotent(mu, mu, grp)
    assert exc.value.witness == "2"
    mu_left = Dist.from_mapping(z4, {"2": RAT(1, 2), "3": RAT(1, 2)})
    mu_right = Dist.from_mapping(z4, {"1": RAT(1, 3), "2": RAT(2, 3)})
    with pytest.raises(PreconditionViolated) as exc:
        compose_idempotent(mu_left, mu_right, grp)
    assert exc.value.condition == "support of mu_right * mu_left inside the group"
    assert exc.value.witness == "1"


def test_check_convolution_invariance():
    z4 = cyclic(4)
    grp = group_structure(z4.carrier())
    nu = haar_uniform(grp)
    mu = Dist(z4, (RAT(0), RAT(1, 2), RAT(0), RAT(1, 2)))
    assert check_convolution_invariance(mu, nu) == 2 * 4
    # a fixed point of convolution by mu that is not invariant fails the hypothesis
    with pytest.raises(HypothesisViolated):
        check_convolution_invariance(mu, dirac(z4, 0))


def test_check_convolution_invariance_nontrivial():
    # nu uniform on the subgroup {0,3} of Z6, mu supported on a coset
    z6 = cyclic(6)
    nu = uniform_on(z6.subset_of_labels(["0", "3"]))
    mu = nu
    assert check_convolution_invariance(mu, nu) == 4


# Differential tests: the sparse measure layer against dense double loops
# over every pair of elements, zeros included, on small generated tables.

_SPECS = st.one_of(
    st.builds(lambda n: CorpusSpec("cyclic", (n,)), st.integers(1, 6)),
    st.builds(lambda n: CorpusSpec("left_zero", (n,)), st.integers(1, 4)),
    st.builds(
        lambda m, k: CorpusSpec("rectangular_band", (m, k)), st.integers(1, 3), st.integers(1, 3)
    ),
    st.builds(
        lambda d, c, seed: CorpusSpec("random_transformation_subsemigroup", (d, c), seed),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 31),
    ),
    st.builds(
        lambda g, m, k, seed: CorpusSpec("rees_matrix", (g, m, k), seed),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(0, 31),
    ),
)

_build = lru_cache(maxsize=None)(build)


@st.composite
def _walk(draw, sg, elements):
    """A Dist through the public constructor: 1-4 points, small weights."""
    points = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 6), min_size=len(points), max_size=len(points)))
    return Dist.from_mapping(sg, {z: RAT(w, sum(weights)) for z, w in zip(points, weights)})


def point_mass(sg, a):
    return tuple(RAT(int(z == a)) for z in range(sg.order))


def check_against_dense(dist, dense):
    assert dist.probs == dense
    assert dist == Dist(dist.parent, dense)
    assert hash(dist) == hash(Dist(dist.parent, dense))
    assert dist.items() == [(z, p) for z, p in enumerate(dense) if p]


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.data())
def test_convolve_and_translate_match_dense_double_loop(data):
    sg = _build(data.draw(_SPECS))
    elements = list(range(sg.order))
    mu = data.draw(_walk(sg, elements))
    nu = data.draw(_walk(sg, elements))
    a = data.draw(st.sampled_from(elements))
    check_against_dense(convolve(mu, nu), dense_convolve(sg, mu.probs, nu.probs))
    check_against_dense(translate(mu, a, "left"), dense_convolve(sg, point_mass(sg, a), mu.probs))
    check_against_dense(translate(mu, a, "right"), dense_convolve(sg, mu.probs, point_mass(sg, a)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_marginals_match_dense_loop(data):
    sg = _build(data.draw(_SPECS))
    dec = rees_decompose(kernel(sg))
    mu = data.draw(_walk(sg, dec.carrier.elements()))
    dense = [[RAT(0)] * sg.order for _ in range(3)]
    for z in range(sg.order):
        if z in dec.carrier:
            x, g, y = psi_inv(dec, z)
            assert sg.mul(sg.mul(x, g), y) == z
            for coord, w in zip(dense, (x, g, y)):
                coord[w] += mu.prob(z)
    for dist, coord in zip(marginals(mu, dec), dense):
        check_against_dense(dist, tuple(coord))


def dense_from_mapping(sg, mapping):
    """Oracle for Dist.from_mapping: the dense vector, checked by Dist()."""
    probs = [RAT(0)] * sg.order
    for key, value in mapping.items():
        probs[sg.index(key) if isinstance(key, str) else key] += RAT(value)
    return Dist(sg, probs)


def mapping_verdict(build_dist, sg, mapping):
    try:
        dist = build_dist(sg, mapping)
    except InvalidDistribution as exc:
        return str(exc)
    return dist, dist.den, dist.items()


@pytest.mark.parametrize(
    "mapping",
    [
        {"0": RAT(1, 2), "2": RAT(1, 2)},
        {"0": RAT(1, 2), "1": RAT(0), "2": RAT(1, 2)},  # zero entry dropped
        {0: RAT(1, 4), "0": RAT(1, 4), "3": RAT(1, 2)},  # label and index add up
        {"1": RAT(1, 2), 1: RAT(-1, 2), 2: RAT(1)},  # they cancel to zero
        {"3": RAT(-1, 2), "1": RAT(-1, 2), "0": RAT(2)},  # least negative index
        {"0": RAT(3, 2), "1": RAT(-1, 2)},
        {"0": RAT(1, 2)},
        {"0": RAT(0)},
        {"0": RAT(1, 2), 1: RAT(1, 3)},
    ],
)
def test_from_mapping_matches_the_dense_vector(mapping):
    z4 = cyclic(4)
    assert mapping_verdict(Dist.from_mapping, z4, mapping) == mapping_verdict(
        dense_from_mapping, z4, mapping
    )


def test_from_mapping_reads_only_the_given_entries():
    sg = cyclic(1000)
    mu = Dist.from_mapping(sg, {"1": RAT(1, 3), 7: RAT(2, 3)})
    assert mu._probs is None  # no dense vector was built
    assert mu == dense_from_mapping(sg, {"1": RAT(1, 3), 7: RAT(2, 3)})
