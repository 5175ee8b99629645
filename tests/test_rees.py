import pytest

from semiconv import core, generators, rees, verify
from semiconv.core import group_structure, idempotents, kernel, product_sets, validate_cayley
from semiconv.errors import (
    InvalidSandwichEntry,
    NotASubsemigroup,
    NotIdempotent,
    NotInFactor,
    NotPrimitive,
    NotSimple,
    OrderCapExceeded,
    SemiconvError,
    VerificationFailed,
)
from semiconv.generators import CorpusSpec, build
from semiconv.rees import (
    idempotent_criterion,
    is_primitive_idempotent,
    minimal_one_sided_ideals,
    psi,
    psi_inv,
    rebase,
    rees_decompose,
    rees_matrix_semigroup,
)
from semiconv.verify import build_corpus


def factor_sizes(dec):
    return (len(dec.left), dec.group.order, len(dec.right))


def test_left_zero_decomposition():
    sg = build(CorpusSpec("left_zero", (3,)))
    dec = rees_decompose(sg.carrier())
    assert factor_sizes(dec) == (3, 1, 1)
    assert dec.left == sg.carrier()


def test_right_zero_decomposition():
    sg = build(CorpusSpec("right_zero", (3,)))
    dec = rees_decompose(sg.carrier())
    assert factor_sizes(dec) == (1, 1, 3)


def test_rectangular_band_decomposition():
    sg = build(CorpusSpec("rectangular_band", (2, 3)))
    dec = rees_decompose(sg.carrier())
    assert factor_sizes(dec) == (2, 1, 3)


def test_group_decomposition_trivial_wings():
    sg = build(CorpusSpec("cyclic", (4,)))
    dec = rees_decompose(sg.carrier())
    assert factor_sizes(dec) == (1, 4, 1)
    assert dec.base == 0


def test_full_transformation_kernel_decomposition():
    sg = build(CorpusSpec("full_transformation", (2,)))
    dec = rees_decompose(kernel(sg.carrier()))
    assert factor_sizes(dec) == (2, 1, 1)
    assert sg.label(dec.base) == "00"


def test_decompose_requires_simple():
    sg = build(CorpusSpec("full_transformation", (2,)))
    with pytest.raises(NotSimple):
        rees_decompose(sg.carrier())


def test_coordinates_are_mutually_inverse():
    sg = build(CorpusSpec("rees_matrix", (3, 2, 2), seed=5))
    dec = rees_decompose(sg.carrier())
    seen = set()
    for x in dec.left:
        for g in dec.group.carrier:
            for y in dec.right:
                z = psi(dec, x, g, y)
                assert psi_inv(dec, z) == (x, g, y)
                seen.add(z)
    assert seen == set(sg.carrier())
    for z in sg.carrier():
        x, g, y = psi_inv(dec, z)
        assert psi(dec, x, g, y) == z


def test_psi_rejects_foreign_coordinates():
    sg = build(CorpusSpec("rectangular_band", (2, 2)))
    dec = rees_decompose(sg.carrier())
    bad_left = next(a for a in sg.carrier() if a not in dec.left)
    with pytest.raises(NotInFactor):
        psi(dec, bad_left, dec.group.identity, dec.right.least())


def test_negative_index_is_in_no_factor():
    # -1 is outside the table like the order itself, not a shift-count error
    sg = build(CorpusSpec("rectangular_band", (2, 2)))
    dec = rees_decompose(sg.carrier())
    assert -1 not in sg.carrier()
    with pytest.raises(NotInFactor):
        psi(dec, -1, dec.group.identity, dec.right.least())
    with pytest.raises(NotInFactor):
        psi_inv(dec, -1)
    with pytest.raises(NotIdempotent):
        rees_decompose(kernel(sg.carrier()), at=-1)


def test_idempotent_criterion_unique_per_cell():
    sg = build(CorpusSpec("rees_matrix", (2, 2, 3), seed=9))
    dec = rees_decompose(sg.carrier())
    predicted = set()
    for x in dec.left:
        for y in dec.right:
            e = idempotent_criterion(dec, x, y)
            cell = {psi(dec, x, g, y) for g in dec.group.carrier}
            assert {z for z in cell if sg.mul(z, z) == z} == {e}
            predicted.add(e)
    assert predicted == set(idempotents(sg.carrier()))


def test_primitive_idempotents():
    t2 = build(CorpusSpec("full_transformation", (2,)))
    const0 = t2.index("00")
    ident = t2.index("01")
    assert is_primitive_idempotent(t2.carrier(), const0)
    # the identity sits above the constants, hence not primitive
    assert not is_primitive_idempotent(t2.carrier(), ident)
    for e in (t2.index("10"), t2.order):
        with pytest.raises(NotIdempotent):
            is_primitive_idempotent(t2.carrier(), e)


def test_rebase_at_every_idempotent():
    sg = build(CorpusSpec("rees_matrix", (3, 2, 2), seed=5))
    dec = rees_decompose(sg.carrier())
    for e2 in idempotents(sg.carrier()):
        fresh = rebase(dec, e2)
        assert fresh.base == e2
        assert factor_sizes(fresh) == factor_sizes(dec)
    with pytest.raises(NotIdempotent):
        non_idem = next(a for a in sg.carrier() if sg.mul(a, a) != a)
        rebase(dec, non_idem)


def test_rebase_names_an_index_outside_the_table():
    # Both ends of 0 <= e' < order; the order itself would read past the
    # table.
    sg = build(CorpusSpec("rees_matrix", (3, 2, 2), seed=5))
    dec = rees_decompose(sg.carrier())
    for index in (-1, sg.order):
        with pytest.raises(NotIdempotent, match=f"^element {index} is not idempotent$"):
            rebase(dec, index)


def test_an_idempotent_outside_the_carrier_is_not_in_the_factor():
    # In full_transformation(2) the identity map 01 is idempotent but lies
    # outside the kernel {00, 11}; the swap 10 is not idempotent at all.
    t2 = build(CorpusSpec("full_transformation", (2,)))
    k = kernel(t2.carrier())
    dec = rees_decompose(k)
    ident, swap = t2.index("01"), t2.index("10")
    for attempt in (
        lambda e: is_primitive_idempotent(k, e),
        lambda e: rees_decompose(k, at=e),
        lambda e: rebase(dec, e),
    ):
        with pytest.raises(NotInFactor, match="^element 01 does not belong to the carrier factor$"):
            attempt(ident)
        with pytest.raises(NotIdempotent, match="^element 10 is not idempotent$"):
            attempt(swap)


def test_rees_theorem_both_ways_on_the_extended_corpus():
    # Each kernel K = L*G*R is the Rees matrix semigroup over G with the
    # sandwich P[k][j] = y_k * x_j: (i, g, k) -> x_i * g * y_k is a
    # bijection onto K that preserves products, since x_i*g*y_k * x_j*h*y_l
    # = x_i * (g * P[k][j] * h) * y_l.
    for inst in build_corpus("extended"):
        sg = inst.semigroup
        dec = rees_decompose(kernel(sg.carrier()))
        xs, gs, ys = dec.left.elements(), dec.group.carrier.elements(), dec.right.elements()
        pos = {g: t for t, g in enumerate(gs)}
        group = validate_cayley(
            [sg.label(g) for g in gs], [[pos[sg.mul(g, h)] for h in gs] for g in gs]
        )
        sandwich = [[pos[sg.mul(y, x)] for x in xs] for y in ys]
        rms = rees_matrix_semigroup(group, len(xs), len(ys), sandwich)
        # rees_matrix_semigroup numbers (i, g, k) in this order
        image = [sg.mul(sg.mul(x, g), y) for x in xs for g in gs for y in ys]
        assert sorted(image) == sorted(dec.carrier), inst.name
        for a in range(rms.order):
            for b in range(rms.order):
                assert image[rms.mul(a, b)] == sg.mul(image[a], image[b]), inst.name


def test_rebase_translation_identities():
    sg = build(CorpusSpec("rees_matrix", (4, 2, 2), seed=3))
    dec = rees_decompose(sg.carrier())
    for e2 in idempotents(sg.carrier()):
        a, g0, b = psi_inv(dec, e2)
        fresh = rebase(dec, e2)
        lhs = product_sets(fresh.left, fresh.group.carrier)
        rhs = product_sets(
            product_sets(dec.left, dec.group.carrier), sg.singleton(b)
        )
        assert lhs == rhs


def test_rees_matrix_construction():
    z3 = build(CorpusSpec("cyclic", (3,)))
    sg = rees_matrix_semigroup(z3, rows=2, cols=2, sandwich=[[0, 1], [2, 0]])
    assert sg.order == 12
    # (i, g, k)(j, h, l) = (i, g + P[k][j] + h, l) in additive notation
    a = sg.index("(0,1,1)")
    b = sg.index("(1,2,0)")
    assert sg.label(sg.mul(a, b)) == "(0,0,0)"  # 1 + P[1][1] + 2 = 1 + 0 + 2 = 0 mod 3
    c = sg.index("(0,0,1)")
    d = sg.index("(0,1,0)")
    assert sg.label(sg.mul(c, d)) == "(0,0,0)"  # 0 + P[1][0] + 1 = 0 + 2 + 1 = 0 mod 3
    dec = rees_decompose(sg.carrier())
    assert factor_sizes(dec) == (2, 3, 2)


def loop_rees_matrix_table(group, rows, cols, sandwich):
    """The Rees matrix table by the product rule, one entry at a time."""
    n_g = group.order

    def enc(i, g, k):
        return (i * n_g + g) * cols + k

    order = rows * n_g * cols
    table = [[0] * order for _ in range(order)]
    for i in range(rows):
        for g in range(n_g):
            for k in range(cols):
                row = table[enc(i, g, k)]
                for j in range(rows):
                    gp = group.mul(g, sandwich[k][j])
                    for h in range(n_g):
                        v = group.mul(gp, h)
                        for l in range(cols):
                            row[enc(j, h, l)] = enc(i, v, l)
    return table


@pytest.mark.parametrize(
    "spec",
    [
        spec
        for spec in (
            *verify._specs_extended(),
            CorpusSpec("rees_matrix", (16, 8, 8), seed=3),
        )
        if spec.kind == "rees_matrix"
    ],
    ids=CorpusSpec.describe,
)
def test_rees_matrix_table_matches_the_product_rule_loop(spec):
    # The sandwich is drawn as the corpus builder draws it.
    g_order, rows, cols = spec.params
    group = build(CorpusSpec("cyclic", (g_order,)))
    rng = generators.XorShift64Star(spec.seed)
    sandwich = [[rng.below(g_order) for _ in range(rows)] for _ in range(cols)]
    want = loop_rees_matrix_table(group, rows, cols, sandwich)
    assert [list(r) for r in build(spec).rows] == want
    assert [list(r) for r in rees_matrix_semigroup(group, rows, cols, sandwich).rows] == want


def test_rees_matrix_sandwich_validation():
    z2 = build(CorpusSpec("cyclic", (2,)))
    with pytest.raises(InvalidSandwichEntry):
        rees_matrix_semigroup(z2, rows=1, cols=1, sandwich=[[7]])


def test_rees_matrix_order_cap_before_building(monkeypatch):
    z1 = build(CorpusSpec("cyclic", (1,)))

    def unreachable(labels, table):
        raise AssertionError("the table was built")

    monkeypatch.setattr(rees, "validate_cayley", unreachable)
    with pytest.raises(OrderCapExceeded, match="order 1600 exceeds"):
        rees_matrix_semigroup(z1, rows=40, cols=40, sandwich=[[0] * 40] * 40)


def closed_form_coordinates(dec, z):
    """(z*e*g^-1, g, g^-1*e*z) with g = e*z*e, the inverse found by search."""
    sg = dec.parent
    e = dec.base
    g = sg.mul(sg.mul(e, z), e)
    g_inv = next(h for h in dec.group.carrier if sg.mul(g, h) == e)
    return (sg.mul(sg.mul(z, e), g_inv), g, sg.mul(g_inv, sg.mul(e, z)))


def test_coordinates_equal_the_closed_form_on_the_extended_corpus():
    checked = 0
    for inst in build_corpus("extended"):
        sg = inst.semigroup
        k = kernel(sg.carrier())
        for e in idempotents(k):
            dec = rees_decompose(k, at=e)
            # what the split derives rather than compares: G's identity is
            # e, e*L = {e} and R*e = {e}
            assert dec.group.identity == e, (inst.name, e)
            assert all(sg.mul(e, x) == e for x in dec.left), (inst.name, e)
            assert all(sg.mul(y, e) == e for y in dec.right), (inst.name, e)
            for z in k:
                assert psi_inv(dec, z) == closed_form_coordinates(dec, z), (inst.name, e, z)
                checked += 1
    assert checked > 500


def test_psi_inv_rejects_every_index_outside_the_carrier():
    sg = build(CorpusSpec("full_transformation", (3,)))
    dec = rees_decompose(kernel(sg.carrier()))
    outside = [z for z in range(sg.order) if z not in dec.carrier]
    assert outside
    named = [(z, sg.label(z)) for z in outside] + [(-1, "-1"), (sg.order, str(sg.order))]
    for z, shown in named:
        with pytest.raises(NotInFactor, match=f"^element {shown} does not belong to the carrier factor$"):
            psi_inv(dec, z)


def rees_in_checked_order(x, at=None):
    """Oracle: every hypothesis checked before the split, in the order
    closure, kernel witness, idempotent, requested base, primitivity."""
    s = core._as_set(x)
    sg = s.parent
    w = core._simplicity_witness(s)
    if w is not None:
        raise NotSimple(sg.label(w))
    ids = idempotents(s)
    if not ids:
        raise VerificationFailed("idempotent existence", "no idempotent in a finite semigroup")
    e = ids.least() if at is None else at
    if e not in ids:
        if 0 <= e < sg.order and sg.mul(e, e) == e:
            raise NotInFactor("carrier", sg.label(e))
        raise NotIdempotent(sg.label(e) if 0 <= e < sg.order else e)
    if not is_primitive_idempotent(s, e):
        below = next(f for f in ids if f != e and sg.mul(e, f) == f and sg.mul(f, e) == f)
        raise NotPrimitive(sg.label(e), sg.label(below))
    single_e = sg.singleton(e)
    se = product_sets(s, single_e)
    es = product_sets(single_e, s)
    group = group_structure(product_sets(single_e, se))
    if group.identity != e:
        raise VerificationFailed("group", "identity of e*S*e differs from e")
    left, right = idempotents(se), idempotents(es)
    coordinates = rees._verify_decomposition(s, e, left, group, right)
    return rees.ReesDecomposition(
        carrier=s, base=e, left=left, group=group, right=right, coordinates=coordinates
    )


def outcome(decompose, x, at=None):
    try:
        dec = decompose(x, at=at)
    except SemiconvError as exc:
        return type(exc), str(exc)
    g = dec.group
    return dec.carrier, dec.base, dec.left, dec.right, g.carrier, g.identity, g.inverses, dec.coordinates


def test_decompose_agrees_with_the_checked_order_on_every_small_subset():
    # Every non-empty subset of the default tables of order <= 8: most are
    # not closed or not simple, so each error path is compared too.
    seen = set()
    count = 0
    for inst in build_corpus("default"):
        sg = inst.semigroup
        if sg.order > 8:
            continue
        for mask in range(1, 1 << sg.order):
            x = core.ElementSet(sg, mask)
            got = outcome(rees_decompose, x)
            assert got == outcome(rees_in_checked_order, x), (inst.name, x)
            seen.add(got[0] if isinstance(got[0], type) else "ok")
            count += 1
    assert count == 1558
    # a finite simple semigroup is completely simple, so NotPrimitive and
    # the idempotent-existence failure cannot be reached here
    assert seen == {"ok", NotSimple, NotASubsemigroup}


def test_decompose_agrees_with_the_checked_order_at_every_base():
    for inst in build_corpus("extended"):
        sg = inst.semigroup
        k = kernel(sg.carrier())
        for at in range(-1, sg.order + 1):
            assert outcome(rees_decompose, k, at) == outcome(rees_in_checked_order, k, at), (
                inst.name,
                at,
            )


def test_decompose_on_a_kernel_builds_no_kernel(monkeypatch):
    # rees_decompose reaches the kernel only through core._simplicity_witness.
    calls = []
    real = core.kernel

    def counted(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(core, "kernel", counted)
    sg = build(CorpusSpec("full_transformation", (3,)))
    k = kernel(sg.carrier())
    calls.clear()
    rees_decompose(k)
    assert calls == []
    # a carrier that is not simple is named by its kernel witness
    with pytest.raises(NotSimple):
        rees_decompose(sg.carrier())
    assert calls == [sg.carrier()]


def translates_by_sweep(s, k, left):
    """Oracle: the distinct sets S*y (left) or y*S (right) for y in the
    ideal K, sorted by least member, each checked to be regenerated by
    every one of its members, which makes it a minimal one-sided ideal.
    One pass over S for each y in K."""
    rows = s.parent.rows
    moved = {}
    for y in k:
        mask = 0
        for a in s:
            mask |= 1 << (rows[a][y] if left else rows[y][a])
        moved[y] = mask
    parts = {}
    for mask in moved.values():
        part = core.ElementSet(s.parent, mask)
        assert all(moved[a] == mask for a in part), part
        parts[mask] = part
    return sorted(parts.values(), key=core.ElementSet.least)


def test_coordinate_reading_matches_the_translate_sweep():
    sgs = [inst.semigroup for inst in build_corpus("extended")]
    sgs.append(build(CorpusSpec("rectangular_band", (32, 32))))
    seed = 200
    for g in (1, 2, 3, 4):
        for m in (1, 2, 3):
            for k in (1, 2, 3):
                sgs.append(build(CorpusSpec("rees_matrix", (g, m, k), seed=seed)))
                seed += 1
    for sg in sgs:
        car = sg.carrier()
        k = kernel(car)
        lefts, rights = minimal_one_sided_ideals(rees_decompose(k))
        assert lefts == translates_by_sweep(car, k, left=True), sg
        assert rights == translates_by_sweep(car, k, left=False), sg
