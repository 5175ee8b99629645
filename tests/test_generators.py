"""Corpus builders and the seeded generator, pinned bit-for-bit.

The xorshift64* reference values are recomputed inline from the published
recurrence (shifts 12/25/27, multiplier 0x2545F4914F6CDD1D) so the class
is checked against the algorithm, not against itself.
"""

import pytest

from semiconv import (
    CorpusSpec,
    Dist,
    EmptySupport,
    ParameterOutOfRange,
    RAT,
    XorShift64Star,
    build,
    kernel,
    random_dist,
)
from semiconv import generators

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    s = seed & MASK
    if s == 0:
        s = 0x9E3779B97F4A7C15
    out = []
    for _ in range(count):
        s ^= s >> 12
        s = (s ^ (s << 25)) & MASK
        s ^= s >> 27
        out.append((s * 0x2545F4914F6CDD1D) & MASK)
    return out


def test_xorshift_matches_reference():
    for seed in (1, 42, 0xDEADBEEF, MASK):
        rng = XorShift64Star(seed)
        assert [rng.next_word() for _ in range(50)] == reference_stream(seed, 50)


def test_xorshift_pinned_values():
    rng = XorShift64Star(1)
    assert rng.next_word() == 0x47E4CE4B896CDD1D
    assert rng.next_word() == 0xABCFA6A8E079651D
    assert rng.next_word() == 0xB9D10D8FEB731F57


def test_xorshift_zero_seed_fill():
    # the all-zero state is a fixed point of the shifts, so seed 0 is
    # replaced by a fixed odd constant
    a = XorShift64Star(0)
    b = XorShift64Star(0x9E3779B97F4A7C15)
    assert [a.next_word() for _ in range(5)] == [b.next_word() for _ in range(5)]


def test_below():
    rng = XorShift64Star(42)
    ref = reference_stream(42, 8)
    assert [rng.below(10) for _ in range(8)] == [w % 10 for w in ref]
    assert XorShift64Star(7).below(1) == 0
    with pytest.raises(ParameterOutOfRange):
        rng.below(0)


def test_cyclic_builder():
    z5 = build(CorpusSpec("cyclic", (5,)))
    assert z5.order == 5
    for i in range(5):
        for j in range(5):
            assert z5.mul(i, j) == (i + j) % 5
    assert z5.labels == ("0", "1", "2", "3", "4")


def test_builders_reject_boolean_params():
    # True is an int to isinstance, but not a parameter
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("cyclic", (True,)))
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("rectangular_band", (2, True)))


def test_left_and_right_zero_builders():
    lz = build(CorpusSpec("left_zero", (3,)))
    rz = build(CorpusSpec("right_zero", (3,)))
    assert lz.labels == ("a", "b", "c") and rz.labels == ("a", "b", "c")
    for i in range(3):
        for j in range(3):
            assert lz.mul(i, j) == i
            assert rz.mul(i, j) == j


def test_rectangular_band_builder():
    b = build(CorpusSpec("rectangular_band", (2, 3)))
    assert b.order == 6
    for i in range(2):
        for j in range(3):
            for a in range(2):
                for c in range(3):
                    lhs = b.index(f"({i},{j})")
                    rhs = b.index(f"({a},{c})")
                    assert b.label(b.mul(lhs, rhs)) == f"({i},{c})"


def test_full_transformation_builder():
    t2 = build(CorpusSpec("full_transformation", (2,)))
    assert t2.order == 4
    maps = {lab: tuple(int(ch) for ch in lab) for lab in t2.labels}
    for la in t2.labels:
        for lb in t2.labels:
            f, g = maps[la], maps[lb]
            composed = "".join(str(f[g[x]]) for x in range(2))
            assert t2.label(t2.mul(t2.index(la), t2.index(lb))) == composed
    # constants form a left-zero kernel under f(g(x)) composition
    assert kernel(t2).labels() == ("00", "11")
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("full_transformation", (5,)))


def test_boolean_matrices_builder():
    bm = build(CorpusSpec("boolean_matrices", (2,)))
    assert bm.order == 16
    # labels are row-major bit strings; check one product by hand:
    # [[1,1],[0,0]] * [[0,1],[1,0]] = [[1,1],[0,0]]
    assert bm.label(bm.mul(bm.index("1100"), bm.index("0110"))) == "1100"
    # identity matrix is neutral
    e = bm.index("1001")
    for a in range(16):
        assert bm.mul(e, a) == a and bm.mul(a, e) == a
    # all-ones absorbs anything with a full row/column appropriately:
    # [[1,1],[1,1]] * [[1,0],[0,0]] = [[1,0],[1,0]]
    assert bm.label(bm.mul(bm.index("1111"), bm.index("1000"))) == "1010"
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("boolean_matrices", (4,)))


def test_direct_product_builder():
    spec = CorpusSpec(
        "direct_product",
        factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (3,))),
    )
    sg = build(spec)
    assert sg.order == 6
    assert sg.label(0) == "(a,0)"
    lz = build(CorpusSpec("left_zero", (2,)))
    z3 = build(CorpusSpec("cyclic", (3,)))
    for a1 in range(2):
        for b1 in range(3):
            for a2 in range(2):
                for b2 in range(3):
                    got = sg.mul(a1 * 3 + b1, a2 * 3 + b2)
                    want = lz.mul(a1, a2) * 3 + z3.mul(b1, b2)
                    assert got == want
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("direct_product", factors=(spec,)))
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("direct_product", params=(2,), factors=spec.factors))


def test_rees_matrix_builder_deterministic():
    spec = CorpusSpec("rees_matrix", (3, 2, 2), seed=11)
    a = build(spec)
    b = build(spec)
    assert a.labels == b.labels
    assert a.rows == b.rows
    assert a.order == 3 * 2 * 2
    # different seed, different sandwich, usually a different table
    c = build(CorpusSpec("rees_matrix", (3, 2, 2), seed=12))
    assert c.order == a.order


def test_random_transformation_subsemigroup():
    spec = CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21)
    sg = build(spec)
    assert sg.labels == tuple(sorted(sg.labels))
    # closed under composition by construction; validate_cayley already
    # checked associativity, here we check closure of the label set
    labels = set(sg.labels)
    for la in labels:
        for lb in labels:
            f = tuple(int(ch) for ch in la)
            g = tuple(int(ch) for ch in lb)
            comp = "".join(str(f[g[x]]) for x in range(3))
            assert comp in labels
    assert build(spec).rows == sg.rows
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("random_transformation_subsemigroup", (5, 2)))


def compose(f, g):
    return tuple(f[g[x]] for x in range(len(f)))


def two_sided_closure(gens):
    """Oracle: compose every new map with every map found so far, on both
    sides, until nothing new appears."""
    closed = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for f in frontier:
            for g in list(closed):
                for prod in (compose(f, g), compose(g, f)):
                    if prod not in closed:
                        closed.add(prod)
                        nxt.append(prod)
        frontier = nxt
    return closed


def test_random_transformation_closure_matches_two_sided_oracle(monkeypatch):
    # Only the label set is compared: the table and the labels are functions
    # of the sorted closure, so skip building and validating the tables.
    monkeypatch.setattr(generators, "_transformation_table", lambda maps: (maps, None))
    monkeypatch.setattr(generators, "validate_cayley", lambda labels, table: labels)
    for degree in range(1, 5):
        for count in range(1, 5):
            for seed in range(40):
                rng = XorShift64Star(seed)
                gens = [tuple(rng.below(degree) for _ in range(degree)) for _ in range(count)]
                spec = CorpusSpec("random_transformation_subsemigroup", (degree, count), seed=seed)
                assert build(spec) == sorted(two_sided_closure(gens)), spec.describe()


def test_spec_validation():
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("no_such_kind", (2,)))
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("cyclic", (2, 3)))
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("cyclic", (0,)))
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("cyclic", ("2",)))
    with pytest.raises(ParameterOutOfRange):
        build(CorpusSpec("left_zero", (27,)))


def test_describe():
    assert CorpusSpec("cyclic", (6,)).describe() == "cyclic(6)"
    assert CorpusSpec("rees_matrix", (2, 2, 2), seed=11).describe() == "rees_matrix(2,2,2)@seed=11"
    prod = CorpusSpec(
        "direct_product",
        factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))),
    )
    assert prod.describe() == "direct_product(left_zero(2) x cyclic(2))"


def test_random_dist_properties():
    z5 = build(CorpusSpec("cyclic", (5,)))
    sub = z5.subset_of_labels(["0", "2", "3"])
    mu = random_dist(sub, 99, 64)
    assert sum((p for _, p in mu.items()), RAT(0)) == RAT(1)
    assert mu.support() == sub
    for _, p in mu.items():
        # weight/64 in lowest terms: denominator divides 64
        assert 64 % p.denominator == 0
    assert random_dist(sub, 99, 64) == mu
    # exactly the bound many unit weights get spread
    total_units = sum(p * 64 for _, p in mu.items())
    assert total_units == RAT(64)


def test_random_dist_matches_the_public_constructor():
    # random_dist builds through integer numerators over the bound; the
    # result must equal the dense, fully checked Dist of the same values
    for spec, labels in (
        (CorpusSpec("cyclic", (5,)), ["0", "2", "3"]),
        (CorpusSpec("full_transformation", (2,)), ["00", "10", "11"]),
        (CorpusSpec("rectangular_band", (2, 3)), None),
    ):
        sg = build(spec)
        sub = sg.carrier() if labels is None else sg.subset_of_labels(labels)
        for seed in (1, 7, 99):
            for bound in (len(sub), 12, 64):
                d = random_dist(sub, seed, bound)
                assert d == Dist(d.parent, d.probs)
                assert hash(d) == hash(Dist(d.parent, d.probs))
                assert bound % d.den == 0
                assert all(bound % p.denominator == 0 for _, p in d.items())


def test_random_dist_rejections():
    z5 = build(CorpusSpec("cyclic", (5,)))
    with pytest.raises(EmptySupport):
        random_dist(z5.empty(), 1, 8)
    with pytest.raises(ParameterOutOfRange):
        random_dist(z5.carrier(), 1, 4)
