import ast
import copy
import pickle
import random
import re
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import minimal_ideals, minimal_left_ideals, minimal_right_ideals

import semiconv
from semiconv import core, rees
from semiconv.core import (
    DEFAULT_ORDER_CAP,
    _by_image_size,
    _greedy_generators,
    generated_subsemigroup,
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
    translates,
    validate_cayley,
)
from semiconv.errors import (
    EmptySet,
    IndexOutOfRange,
    InvalidTable,
    MalformedInput,
    MismatchedParent,
    NonAssociative,
    NotAGroup,
    NotASubsemigroup,
    NotSimple,
    OrderCapExceeded,
)
from semiconv.generators import CorpusSpec, XorShift64Star, build
from semiconv.measure import uniform_on
from semiconv.rees import rees_decompose
from semiconv.verify import (
    _corrupted_instance,
    build_corpus,
    principal_minimal_ideals,
    simple_by_sweep,
)


def cyclic(n):
    return build(CorpusSpec("cyclic", (n,)))


def t_full(n):
    return build(CorpusSpec("full_transformation", (n,)))


def brute_products(sg, aa, bb):
    return {sg.mul(a, b) for a in aa for b in bb}


def all_subsets(n):
    for mask in range(1, 1 << n):
        yield [i for i in range(n) if mask >> i & 1]


# ---- table validation ----


def test_validate_accepts_cyclic():
    sg = validate_cayley(["0", "1", "2"], [[(i + j) % 3 for j in range(3)] for i in range(3)])
    assert sg.order == 3
    assert sg.mul(1, 2) == 0
    assert sg.label(2) == "2"
    assert sg.index("2") == 2


def test_validate_reports_first_broken_triple():
    # (1*0)*1 = 0*1 = 1 but 1*(0*1) = 1*1 = 0; first bad triple scanning
    # lexicographically is (0,1,1): (0*1)*1 = 1*1 = 0, 0*(1*1) = 0*0 = 0 ok,
    # so the witness lands at (1,0,1) after the full (a,b,c) sweep.
    with pytest.raises(NonAssociative) as info:
        validate_cayley(["a", "b"], [[0, 1], [0, 0]])
    a, b, c = info.value.witness
    # independently recheck the witness and that it is the first one
    table = [[0, 1], [0, 0]]
    firsts = [
        (x, y, z)
        for x in range(2)
        for y in range(2)
        for z in range(2)
        if table[table[x][y]][z] != table[x][table[y][z]]
    ]
    assert (a, b, c) == firsts[0]


LIGHT_TABLES = [
    CorpusSpec("cyclic", (4,)),
    CorpusSpec("left_zero", (3,)),
    CorpusSpec("rectangular_band", (2, 3)),
    CorpusSpec("full_transformation", (2,)),
    CorpusSpec("rees_matrix", (2, 2, 2), seed=11),
    CorpusSpec(
        "direct_product",
        (),
        factors=(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))),
    ),
]


def first_broken_triple(table):
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def pairwise_closure(table, start):
    """The fixed point of all pairwise products, from the given elements."""
    closed = set(start)
    while new := {table[x][y] for x in closed for y in closed} - closed:
        closed |= new
    return closed


def right_translate_closure(table, start, picks):
    """The least set holding the given elements and x*g for each x in it
    and g in picks."""
    closed = set(start)
    while new := {table[x][g] for x in closed for g in picks} - closed:
        closed |= new
    return closed


def greedy_generators(table, order=None, pairwise=False):
    """Each element in the given order (default: index order) that the
    closure of the earlier picks misses: under right translation by the
    picks, or under both products of every pair."""
    closed, gens = set(), []
    for g in range(len(table)) if order is None else order:
        if g not in closed:
            gens.append(g)
            if pairwise:
                closed = pairwise_closure(table, closed | {g})
            else:
                closed = right_translate_closure(table, closed | {g}, gens)
    return gens


@pytest.mark.parametrize(
    "spec",
    LIGHT_TABLES
    + [
        CorpusSpec("full_transformation", (3,)),
        CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21),
    ],
    ids=CorpusSpec.describe,
)
def test_generating_set_matches_the_pairwise_closure(spec):
    rows = [list(r) for r in build(spec).rows]
    labels = [str(a) for a in range(len(rows))]
    variants = [rows]
    # One corruption per row keeps a non-associative table in the mix.
    for i in range(len(rows)):
        table = [list(r) for r in rows]
        table[i][0] = (table[i][0] + 1) % len(rows)
        variants.append(table)
    for k, table in enumerate(variants):
        # The set that decides Light's test is picked in descending order of
        # |a*S|, ties by index; it must still generate every element.
        order = sorted(range(len(table)), key=lambda a: (-len(set(table[a])), a))
        by_image = _by_image_size(np.array(table))
        assert by_image.tolist() == order
        for picked in (None, order):
            gens = _greedy_generators(np.array(table), None if picked is None else by_image)
            assert gens == greedy_generators(table, picked)
            assert right_translate_closure(table, gens, gens) == set(range(len(table)))
            if k == 0:
                # On an associative table the right translates of the picks
                # close under every product: the two closures agree.
                assert gens == greedy_generators(table, picked, pairwise=True)
        if k:
            # Every corrupted variant breaks associativity; Light's test on the
            # smaller closure names the full sweep's first broken triple.
            want = first_broken_triple(table)
            assert want is not None
            with pytest.raises(NonAssociative) as info:
                validate_cayley(labels, table)
            assert info.value.witness == want


def test_image_ordered_generating_set_is_small():
    # Index order needs 26 and 36 rows on these tables.
    for spec, most in [
        (CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=25), 4),
        (CorpusSpec("full_transformation", (4,)), 5),
    ]:
        t = build(spec).table_array()
        assert len(_greedy_generators(t, _by_image_size(t))) <= most


@pytest.mark.parametrize("spec", LIGHT_TABLES, ids=CorpusSpec.describe)
def test_light_test_matches_the_triple_loop_on_every_one_entry_corruption(spec):
    # Light's test sweeps only the rows of a greedy generating set; every
    # cell set to every wrong value must still be accepted exactly when the
    # full triple loop accepts it, with the loop's first broken triple
    # otherwise.
    sg = build(spec)
    n = sg.order
    labels = list(sg.labels)
    variants = [[list(r) for r in sg.rows]]
    for i in range(n):
        for j in range(n):
            for v in range(n):
                if v != sg.rows[i][j]:
                    table = [list(r) for r in sg.rows]
                    table[i][j] = v
                    variants.append(table)
    rejected = 0
    for table in variants:
        want = first_broken_triple(table)
        if want is None:
            assert validate_cayley(labels, table).rows == tuple(map(tuple, table))
        else:
            rejected += 1
            with pytest.raises(NonAssociative) as info:
                validate_cayley(labels, table)
            assert info.value.witness == want
    assert 0 < rejected < len(variants)


def test_validate_rejects_malformed():
    with pytest.raises(InvalidTable, match="no elements"):
        validate_cayley([], [])
    with pytest.raises(MalformedInput):
        validate_cayley(["a", "a"], [[0, 0], [0, 0]])
    with pytest.raises(InvalidTable):
        validate_cayley(["a", "b"], [[0, 1]])
    with pytest.raises(InvalidTable):
        validate_cayley(["a", "b"], [[0], [0, 1]])
    with pytest.raises(IndexOutOfRange):
        validate_cayley(["a", "b"], [[0, 2], [1, 0]])
    with pytest.raises(IndexOutOfRange):
        validate_cayley(["a", "b"], [[0, True], [1, 0]])


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.uint8])
def test_validate_takes_an_integer_array_as_the_list_table(dtype):
    # A builder hands over the array it formed; the Semigroup is the one
    # its rows as lists give, with rows of Python ints, and every check runs.
    rows = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    labels = [str(i) for i in range(5)]
    table = np.array(rows, dtype=dtype)
    sg = validate_cayley(labels, table)
    assert sg.rows == validate_cayley(labels, rows).rows == tuple(map(tuple, rows))
    assert all(type(row) is tuple and all(type(v) is int for v in row) for row in sg.rows)
    # The rows are unpacked from the array's bytes in row-major order, so a
    # column-major array reads the same: here the left-zero table a*b = a.
    left_zero = np.asfortranarray(np.repeat(np.arange(3, dtype=dtype)[:, None], 3, axis=1))
    assert validate_cayley("abc", left_zero).rows == ((0, 0, 0), (1, 1, 1), (2, 2, 2))
    arr = sg.table_array()
    assert arr.dtype == np.int32 and arr.flags.writeable is False
    table[0, 0] = 4  # the caller's array is not the one kept
    assert arr[0, 0] == 0 and sg.rows[0][0] == 0

    broken = np.array(rows, dtype=dtype)
    broken[1, 2] = broken[2, 0] = 0  # 1*2 = 0 breaks associativity
    with pytest.raises(NonAssociative) as info:
        validate_cayley(labels, broken)
    assert info.value.witness == first_broken_triple(broken.tolist())

    wide = np.array(rows, dtype=dtype)
    wide[1, 3] = wide[4, 0] = 5
    with pytest.raises(IndexOutOfRange) as info:
        validate_cayley(labels, wide)
    assert (info.value.row, info.value.col, info.value.value) == (1, 3, 5)
    with pytest.raises(InvalidTable):
        validate_cayley(labels, table[:4])
    with pytest.raises(InvalidTable):
        validate_cayley(labels, table[:, :4])
    with pytest.raises(InvalidTable):
        validate_cayley(labels, table.ravel())


def test_validate_names_a_negative_array_entry():
    table = np.array([[0, 1], [1, -1]], dtype=np.int64)
    with pytest.raises(IndexOutOfRange) as info:
        validate_cayley(["0", "1"], table)
    assert (info.value.row, info.value.col, info.value.value) == (1, 1, -1)


@pytest.mark.parametrize(
    "value",
    [2**63, 2**70, -(2**70), True, 1.0, np.int64(1), "1"],
    ids=["2**63", "2**70", "-2**70", "True", "1.0", "np.int64(1)", "str"],
)
def test_validate_names_the_first_entry_numpy_cannot_hold(value):
    # A later cell holding the same value must not be the one reported.
    table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    table[1][2] = table[2][0] = value
    with pytest.raises(IndexOutOfRange) as info:
        validate_cayley(["0", "1", "2"], table)
    assert (info.value.row, info.value.col) == (1, 2)
    assert info.value.value is value


def test_validate_names_an_in_range_int64_entry_before_a_later_overflow():
    table = [[0, 5, 0], [0, 0, 0], [0, 0, 2**70]]
    with pytest.raises(IndexOutOfRange) as info:
        validate_cayley(["0", "1", "2"], table)
    assert (info.value.row, info.value.col, info.value.value) == (0, 1, 5)


def test_table_array_is_read_only_and_built_once():
    # validate_cayley keeps the array it validated; a Semigroup built
    # directly builds its array on first use.
    kept = validate_cayley(["0", "1", "2"], [[(i + j) % 3 for j in range(3)] for i in range(3)])
    direct = _corrupted_instance().semigroup
    assert kept._np is not None and direct._np is None
    for sg in (kept, direct):
        arr = sg.table_array()
        assert arr.dtype == np.int32
        assert np.array_equal(arr, np.array(sg.rows, dtype=np.int32))
        assert arr.flags.writeable is False
        assert sg.table_array() is arr


def test_validate_order_cap():
    # The cap is checked before any row is read, so no table is needed.
    with pytest.raises(OrderCapExceeded):
        validate_cayley([str(i) for i in range(DEFAULT_ORDER_CAP + 1)], [])


# ---- element sets ----


def test_element_set_operations():
    sg = cyclic(4)
    a = sg.subset([0, 1])
    b = sg.subset([1, 3])
    assert (a | b).elements() == (0, 1, 3)
    assert (a & b).elements() == (1,)
    assert (a - b).elements() == (0,)
    assert a.least() == 0
    assert list(a.labels()) == ["0", "1"]
    assert 3 in b and 3 not in a
    assert a.issubset(sg.carrier())
    with pytest.raises(EmptySet):
        sg.empty().least()


def test_element_set_caches_its_elements_but_compares_by_mask():
    sg = cyclic(5)
    a = sg.subset([4, 1])
    assert a.elements() is a.elements() == (1, 4)
    b = sg.subset([1, 4])
    assert a == b and hash(a) == hash(b)
    assert a != sg.subset([1])


def test_element_set_is_immutable_and_has_no_instance_dict():
    sg = cyclic(5)
    a = sg.subset([1, 4])
    els = a.elements()
    for name in ("parent", "mask", "_elements"):
        with pytest.raises(FrozenInstanceError):
            setattr(a, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(a, name)
    assert not hasattr(a, "__dict__")
    assert a.parent is sg and a.mask == 0b10010 and a.elements() is els


def test_semigroup_is_immutable():
    # Rebinding rows would let mul and table_array() answer from two tables.
    sg = cyclic(3)
    with pytest.raises(FrozenInstanceError):
        sg.rows = ((0, 0, 0), (0, 0, 0), (1, 2, 0))
    for name in ("labels", "rows", "_index", "_np"):
        with pytest.raises(FrozenInstanceError):
            setattr(sg, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(sg, name)
    assert not hasattr(sg, "__dict__")
    assert sg.mul(2, 1) == sg.table_array()[2, 1] == 0
    assert sg.table_array() is sg.table_array()
    for other in (copy.copy(sg), pickle.loads(pickle.dumps(sg))):
        assert other.labels == sg.labels and other.rows == sg.rows
        assert other.index("2") == 2 and other.table_array()[2, 1] == 0


def test_equal_element_sets_are_one_dict_key():
    sg = cyclic(5)
    keys = {sg.subset([1, 4]): "a", sg.subset([2]): "b"}
    assert keys[sg.subset([4, 1])] == "a"
    assert keys[sg.singleton(2)] == "b"
    assert sg.subset([4, 1]) in keys and sg.subset([1]) not in keys
    assert len({sg.subset([1, 4]), sg.subset([4, 1]), sg.singleton(1) | sg.singleton(4)}) == 1


def test_element_set_copies_rebuild_an_equal_set():
    # A Dist copies the same way.  Pickle rebuilds the Semigroup too, so the
    # unpickled value equals the one made the same way on that copy.
    sg = cyclic(5)
    for make in (lambda s: s.subset([0, 3]), lambda s: uniform_on(s.subset([0, 3]))):
        a = make(sg)
        for b in (copy.copy(a), copy.deepcopy(a, {id(sg): sg})):
            assert b == a and hash(b) == hash(a) and repr(b) == repr(a)
        sg2, b = pickle.loads(pickle.dumps((sg, a)))
        assert b.parent is sg2 and sg2.rows == sg.rows
        assert b == make(sg2) and b != a and repr(b) == repr(a)


def first_unclosed_pair(sg, els):
    return next(((a, b) for a in els for b in els if sg.mul(a, b) not in els), None)


def test_closure_witness_is_the_first_unclosed_pair():
    # Small sets take the pair loop in product_sets, cyclic(100) subsets
    # of more than 64 elements its array path.
    cases = [(sg, list(all_subsets(sg.order))) for sg in (cyclic(5), t_full(2))]
    big = cyclic(100)
    cases.append((big, [range(100), range(0, 100, 2), range(1, 100), range(70)]))
    for sg, subsets in cases:
        for els in subsets:
            sub = sg.subset(els)
            want = first_unclosed_pair(sg, sub.elements())
            assert core._closure_witness(sub) == want
            if want is not None:
                with pytest.raises(NotASubsemigroup) as info:
                    is_left_simple(sub)
                assert info.value.witness == want


def test_element_set_parent_mismatch():
    with pytest.raises(MismatchedParent):
        product_sets(cyclic(2).carrier(), cyclic(2).carrier())


def test_subset_of_labels():
    sg = t_full(2)
    assert sg.subset_of_labels(["00", "11"]).elements() == (0, 3)
    with pytest.raises(MalformedInput):
        sg.subset_of_labels(["99"])


# ---- products against the brute oracle ----


def test_product_sets_matches_nested_loop():
    for sg in (cyclic(5), t_full(2), build(CorpusSpec("rectangular_band", (2, 3)))):
        n = sg.order
        subsets = [sg.subset([0]), sg.subset(range(n)), sg.subset([n - 1, 0]), sg.empty()]
        for a in subsets:
            for b in subsets:
                got = product_sets(a, b)
                want = brute_products(sg, a.elements(), b.elements())
                assert set(got.elements()) == want


def test_product_sets_large_path():
    # Above core._PRODUCT_GATHER_PAIRS index pairs the product marks a
    # boolean array; seeded subsets on both sides of the cut, and whole
    # carriers, against the loop.
    sg = t_full(3)
    car = sg.carrier()
    got = product_sets(car, car)
    assert set(got.elements()) == brute_products(sg, range(27), range(27))
    rng = random.Random(7)
    for spec in (
        CorpusSpec("cyclic", (1000,)),
        CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=25),
    ):
        sg = build(spec)
        cut = core._PRODUCT_GATHER_PAIRS
        sizes = [(8, cut // 8), (8, cut // 8 + 1), (cut // 8 + 1, 8), (64, 64), (1, sg.order)]
        sizes.append((sg.order, sg.order))
        sizes += [(rng.randint(1, sg.order), rng.randint(1, sg.order)) for _ in range(12)]
        for size_a, size_b in sizes:
            a, b = (sg.subset(rng.sample(range(sg.order), k)) for k in (size_a, size_b))
            want = sg.subset(brute_products(sg, a, b))
            assert product_sets(a, b) == want, (spec.describe(), size_a, size_b)


def test_elements_read_large_masks_as_the_bit_scan():
    # Above core._UNPACK_SIZE elements a mask is read by np.unpackbits; sets
    # on both sides of the cut, spread and dense, against a scan of bits.
    rng = random.Random(11)
    for n in (40, 176, 1000):
        sg = cyclic(n)
        for size in (1, core._UNPACK_SIZE, core._UNPACK_SIZE + 1, n // 2, n):
            for picked in (rng.sample(range(n), size), range(n - size, n)):
                mask = sum(1 << a for a in picked)
                got = sg.subset(picked).elements()
                assert got == tuple(a for a in range(n) if mask >> a & 1)
                assert all(type(a) is int for a in got)


# ---- the power walk ----


def power_cycle_by_masks(base):
    """The power walk one product_sets call per step, from the first
    occurrence of each mask: the loop core._power_cycle ran before its
    steps took the array form, kept as its oracle."""
    seen = {}
    sets = []
    reached = 0
    cur = base
    while cur.mask not in seen:
        seen[cur.mask] = len(sets)
        sets.append(cur)
        reached |= cur.mask
        cur = product_sets(cur, base)
    start = seen[cur.mask]
    return start + 1, sets[start:], core.ElementSet(base.parent, reached)


def assert_walk_matches_the_mask_loop(base, monkeypatch):
    # The default size selection, every step a gather, and every step a
    # loop over pairs all give the oracle's q, cycle and T.
    want = power_cycle_by_masks(base)
    for cut in (core._WALK_GATHER_PAIRS, 0, float("inf")):
        monkeypatch.setattr(core, "_WALK_GATHER_PAIRS", cut)
        q, cycle, reached = core._power_cycle(base)
        assert (q, cycle, reached) == want, (base, cut)
        assert all(type(c) is core.ElementSet for c in cycle)


@pytest.mark.parametrize("n", [2, 7, 30, 101, 300])
def test_the_walk_matches_the_mask_loop_on_cyclic_walks(n, monkeypatch):
    # {2,5} and {1,7} grow from 2 elements to all n, so their steps cross
    # the size selection, and {2,5} has q = n - 1; {1} visits p = n
    # singletons.
    sg = cyclic(n)
    for steps in ((2, 5), (1, 7), (1,)):
        base = sg.subset(a % n for a in steps)
        assert_walk_matches_the_mask_loop(base, monkeypatch)
    q, cycle, _ = core._power_cycle(sg.subset((1,)))
    assert (q, len(cycle)) == (1, n)


def test_the_walk_matches_the_mask_loop_on_the_order_176_walks(monkeypatch):
    # The six 2-point supports the limit_large benchmark draws on
    # random_transformation_subsemigroup(4,2)@seed=25, by label.
    sg = build(CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=25))
    pairs = [
        ("2012", "3201"),
        ("2030", "3201"),
        ("1231", "2310"),
        ("0203", "2310"),
        ("0121", "3201"),
        ("2310", "3203"),
    ]
    for labels in pairs:
        base = sg.subset_of_labels(labels)
        assert_walk_matches_the_mask_loop(base, monkeypatch)
        assert len(core._power_cycle(base)[2]) == 128


# ---- idempotents, closure ----


def test_idempotents_by_scan():
    sg = t_full(2)
    assert list(idempotents(sg.carrier()).labels()) == ["00", "01", "11"]
    z4 = cyclic(4)
    assert idempotents(z4.carrier()).elements() == (0,)


def brute_closure(sg, gens):
    cur = set(gens)
    while True:
        nxt = cur | {sg.mul(a, b) for a in cur for b in cur}
        if nxt == cur:
            return cur
        cur = nxt


CLOSURE_TABLES = [
    CorpusSpec("cyclic", (6,)),
    CorpusSpec("rectangular_band", (2, 3)),
    CorpusSpec("full_transformation", (3,)),
    CorpusSpec("boolean_matrices", (2,)),
    CorpusSpec("rees_matrix", (3, 2, 2), seed=14),
    CorpusSpec(
        "direct_product",
        (),
        factors=(CorpusSpec("cyclic", (3,)), CorpusSpec("rectangular_band", (2, 2))),
    ),
    CorpusSpec("random_transformation_subsemigroup", (3, 2), seed=21),
]


def test_generated_subsemigroup_is_closure():
    sg = t_full(3)
    gens = sg.subset_of_labels(["120", "110"])
    assert set(generated_subsemigroup(gens).elements()) == brute_closure(sg, gens.elements())
    with pytest.raises(EmptySet):
        generated_subsemigroup(sg.empty())
    for spec in CLOSURE_TABLES:
        sg = build(spec)
        n = sg.order
        # every singleton, a pair per element, and one spread-out triple
        gen_sets = [[a] for a in range(n)]
        gen_sets += [[a, (5 * a + 1) % n] for a in range(n)]
        gen_sets.append([0, n // 3, (2 * n) // 3])
        for picked in gen_sets:
            got = generated_subsemigroup(sg.subset(picked))
            assert set(got.elements()) == brute_closure(sg, picked), (spec.describe(), picked)


# ---- ideals ----


def test_ideal_predicates():
    sg = t_full(2)
    k = sg.subset_of_labels(["00", "11"])
    assert is_left_ideal(k) and is_right_ideal(k) and is_ideal(k)
    just_id = sg.subset_of_labels(["01"])
    assert not is_left_ideal(just_id)
    for predicate in (is_left_ideal, is_right_ideal):
        with pytest.raises(EmptySet):
            predicate(sg.empty())


def outcome(call):
    """("ok", the result) or ("raised", the error type and text); a split,
    which compares by identity, as its parts."""
    try:
        got = call()
    except Exception as exc:
        return "raised", type(exc), str(exc)
    if isinstance(got, rees.ReesDecomposition):
        got = (got.carrier, got.base, got.left, got.group, got.right)
    return "ok", got


@pytest.mark.parametrize(
    "function",
    [
        generated_subsemigroup,
        group_structure,
        idempotents,
        is_ideal,
        is_left_ideal,
        is_left_simple,
        is_right_ideal,
        is_right_simple,
        is_simple,
        kernel,
        minimal_ideals,
        minimal_left_ideals,
        minimal_right_ideals,
        rees_decompose,
        uniform_on,
        pytest.param(lambda x: principal_left_ideal(x, 1), id="principal_left_ideal"),
        pytest.param(lambda x: principal_right_ideal(x, 1), id="principal_right_ideal"),
        pytest.param(lambda x: rees.is_primitive_idempotent(x, 0), id="is_primitive_idempotent"),
        pytest.param(lambda x: product_sets(x, x), id="product_sets"),
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "spec",
    [
        CorpusSpec("cyclic", (4,)),
        CorpusSpec("full_transformation", (2,)),
        CorpusSpec("rectangular_band", (2, 2)),
    ],
    ids=CorpusSpec.describe,
)
def test_a_semigroup_stands_for_its_carrier(function, spec):
    # Each public function that takes a subset answers, or refuses, a
    # Semigroup as it does its carrier.  Ten of them once ended in
    # AttributeError, as a Semigroup has no parent.
    sg = build(spec)
    got = outcome(lambda: function(sg))
    assert got == outcome(lambda: function(sg.carrier()))
    assert got[:2] != ("raised", AttributeError)


def test_principal_ideals():
    sg = t_full(2)
    car = sg.carrier()
    for a in range(sg.order):
        pl = principal_left_ideal(car, a)
        want = brute_products(sg, range(sg.order), [a]) | {a}
        assert set(pl.elements()) == want
        pr = principal_right_ideal(car, a)
        want_r = brute_products(sg, [a], range(sg.order)) | {a}
        assert set(pr.elements()) == want_r


def brute_minimal_ideals(sg, side):
    found = []
    for members in all_subsets(sg.order):
        s = sg.subset(members)
        if side == "left":
            ok = is_left_ideal(s)
        elif side == "right":
            ok = is_right_ideal(s)
        else:
            ok = is_ideal(s)
        if ok:
            found.append(frozenset(members))
    return {a for a in found if not any(b < a for b in found)}


def test_minimal_ideals_match_subset_sweep():
    cases = [
        cyclic(4),
        t_full(2),
        build(CorpusSpec("left_zero", (3,))),
        build(CorpusSpec("right_zero", (3,))),
        build(CorpusSpec("rectangular_band", (2, 2))),
    ]
    for sg in cases:
        got_l = {frozenset(a.elements()) for a in minimal_left_ideals(sg.carrier())}
        got_r = {frozenset(a.elements()) for a in minimal_right_ideals(sg.carrier())}
        assert got_l == brute_minimal_ideals(sg, "left")
        assert got_r == brute_minimal_ideals(sg, "right")


def test_minimal_ideals_sorted_by_least():
    sg = build(CorpusSpec("rectangular_band", (2, 3)))
    mins = minimal_left_ideals(sg.carrier())
    leasts = [a.least() for a in mins]
    assert leasts == sorted(leasts)


def test_kernel_known_cases():
    # full transformation semigroup: the constants form the kernel
    t2 = t_full(2)
    assert list(kernel(t2.carrier()).labels()) == ["00", "11"]
    t3 = t_full(3)
    assert list(kernel(t3.carrier()).labels()) == ["000", "111", "222"]
    # a group is its own kernel
    z6 = cyclic(6)
    assert kernel(z6.carrier()) == z6.carrier()


def test_kernel_and_minimal_ideals_match_the_principal_ideal_enumeration():
    for inst in build_corpus("extended"):
        sg = inst.semigroup
        rng = XorShift64Star(sg.order)
        carriers = [sg.carrier()]
        for _ in range(8):
            support = sg.subset(rng.below(sg.order) for _ in range(1 + rng.below(3)))
            carriers.append(generated_subsemigroup(support))
        for car in carriers:
            left = principal_minimal_ideals(car, "left")
            right = principal_minimal_ideals(car, "right")
            assert [a.mask for a in minimal_left_ideals(car)] == [a.mask for a in left], inst.name
            assert [a.mask for a in minimal_right_ideals(car)] == [a.mask for a in right], inst.name
            union = 0
            for part in left:
                union |= part.mask
            k = kernel(car)
            assert k.mask == union, inst.name
            # K is an ideal of car, which may be a proper subsemigroup
            assert product_sets(car, k).issubset(k), inst.name
            assert product_sets(k, car).issubset(k), inst.name
            assert minimal_ideals(car) == (k, left, right), inst.name
            # the kernel-based simplicity flags against the per-element sweeps
            for a in [car, k] + left + right:
                simple = simple_by_sweep(a, "two-sided")
                assert is_simple(a) == simple, inst.name
                assert is_left_simple(a) == simple_by_sweep(a, "left"), inst.name
                assert is_right_simple(a) == simple_by_sweep(a, "right"), inst.name
                if not simple:
                    with pytest.raises(NotSimple) as info:
                        rees_decompose(a)
                    w = sg.singleton(sg.index(info.value.witness))
                    assert product_sets(product_sets(a, w), a) != a, inst.name
    empty = cyclic(3).empty()
    with pytest.raises(EmptySet):
        kernel(empty)


def test_kernel_is_least_ideal():
    for sg in (t_full(2), build(CorpusSpec("rectangular_band", (2, 2))), cyclic(4)):
        k = kernel(sg.carrier())
        ideals = [
            sg.subset(members)
            for members in all_subsets(sg.order)
            if is_ideal(sg.subset(members))
        ]
        assert all(k.issubset(i) for i in ideals)
        assert any(k == i for i in ideals)


# ---- simplicity and groups ----


def test_simplicity_flags():
    band = build(CorpusSpec("rectangular_band", (2, 3)))
    assert is_simple(band.carrier())
    assert not is_left_simple(band.carrier())  # proper left ideals: columns
    assert not is_right_simple(band.carrier())
    lz = build(CorpusSpec("left_zero", (3,)))
    assert is_left_simple(lz.carrier()) and not is_right_simple(lz.carrier())
    t2 = t_full(2)
    assert not is_simple(t2.carrier())
    z5 = cyclic(5)
    assert is_simple(z5.carrier()) and is_left_simple(z5.carrier())


def test_simplicity_flags_cost_no_sweep_per_element(monkeypatch):
    calls = []
    real = core.product_sets

    def counted(first, second):
        calls.append(1)
        return real(first, second)

    monkeypatch.setattr(core, "product_sets", counted)
    counts = []
    for n in (16, 64):
        car = cyclic(n).carrier()
        calls.clear()
        assert is_simple(car) and is_left_simple(car) and is_right_simple(car)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_one_sided_simplicity_makes_no_rees_split(monkeypatch):
    # One translate of a kernel element decides each flag; the split and
    # its read-outs belong to rees and are never reached.
    def no_split(*args, **kwargs):
        raise AssertionError("is_left_simple / is_right_simple ran a Rees split")

    monkeypatch.setattr(rees, "rees_decompose", no_split)
    monkeypatch.setattr(rees, "_split", no_split)
    for inst in build_corpus("extended"):
        car = inst.semigroup.carrier()
        assert is_left_simple(car) == simple_by_sweep(car, "left"), inst.name
        assert is_right_simple(car) == simple_by_sweep(car, "right"), inst.name


_SMALL_FACTORS = st.one_of(
    st.builds(lambda n: CorpusSpec("cyclic", (n,)), st.integers(1, 4)),
    st.builds(lambda n: CorpusSpec("left_zero", (n,)), st.integers(1, 3)),
    st.builds(lambda n: CorpusSpec("right_zero", (n,)), st.integers(1, 3)),
    st.builds(
        lambda m, k: CorpusSpec("rectangular_band", (m, k)), st.integers(1, 2), st.integers(1, 2)
    ),
)


@st.composite
def small_subsemigroups(draw):
    """A drawn small table and either its carrier or the subsemigroup that
    one to three drawn elements generate."""
    seed = draw(st.integers(0, 2**16))
    spec = draw(
        st.one_of(
            st.builds(
                lambda g, r, c: CorpusSpec("rees_matrix", (g, r, c), seed=seed),
                st.integers(1, 3),
                st.integers(1, 3),
                st.integers(1, 3),
            ),
            st.builds(
                lambda a, b: CorpusSpec("direct_product", factors=(a, b)),
                _SMALL_FACTORS,
                _SMALL_FACTORS,
            ),
            st.builds(
                lambda k: CorpusSpec("random_transformation_subsemigroup", (3, k), seed=seed),
                st.integers(1, 3),
            ),
        )
    )
    sg = build(spec)
    if draw(st.booleans()):
        return sg.carrier()
    gens = draw(st.lists(st.integers(0, sg.order - 1), min_size=1, max_size=3))
    return generated_subsemigroup(sg.subset(gens))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_subsemigroups())
def test_simplicity_flags_and_minimal_ideals_match_the_oracles_on_drawn_tables(car):
    assert is_left_simple(car) == simple_by_sweep(car, "left")
    assert is_right_simple(car) == simple_by_sweep(car, "right")
    assert is_simple(car) == simple_by_sweep(car, "two-sided")
    for found, side in ((minimal_left_ideals(car), "left"), (minimal_right_ideals(car), "right")):
        assert [a.mask for a in found] == [a.mask for a in principal_minimal_ideals(car, side)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(car=small_subsemigroups(), data=st.data())
def test_the_walk_matches_the_mask_loop_on_drawn_tables(car, data):
    # Every drawn walk runs under each of the three selections; pytest's
    # monkeypatch fixture is per test, not per example, so it is set by hand.
    els = car.elements()
    picked = data.draw(st.lists(st.sampled_from(els), min_size=1, max_size=4, unique=True))
    base = car.parent.subset(picked)
    want = power_cycle_by_masks(base)
    default = core._WALK_GATHER_PAIRS
    try:
        for cut in (default, 0, float("inf")):
            core._WALK_GATHER_PAIRS = cut
            assert core._power_cycle(base) == want, (base, cut)
    finally:
        core._WALK_GATHER_PAIRS = default


def test_group_structure_cyclic():
    sg = cyclic(4)
    grp = group_structure(sg.carrier())
    assert grp.identity == 0
    assert grp.order == 4
    for a in range(4):
        assert sg.mul(a, grp.inv(a)) == 0
        assert sg.mul(grp.inv(a), a) == 0


def test_group_structure_rejects_non_groups():
    with pytest.raises(NotAGroup):
        group_structure(t_full(2).carrier())
    band = build(CorpusSpec("rectangular_band", (2, 2)))
    with pytest.raises(NotAGroup):
        group_structure(band.carrier())
    with pytest.raises(EmptySet):
        group_structure(band.empty())
    # subgroup of a non-group ambient semigroup works
    t2 = t_full(2)
    perms = t2.subset_of_labels(["01", "10"])
    grp = group_structure(perms)
    assert grp.order == 2 and t2.label(grp.identity) == "01"


def group_by_sweep(subset):
    """Oracle for group_structure: a pair loop for closure, then one
    product_sets sweep per element for x*A = A = A*x, then searches for the
    identity and each inverse."""
    sg = subset.parent
    els = subset.elements()
    for a in els:
        for b in els:
            if sg.mul(a, b) not in subset:
                raise NotASubsemigroup(a, b)
    for a in els:
        single = sg.singleton(a)
        if product_sets(single, subset) != subset:
            raise NotAGroup("left translation is not onto", sg.label(a))
        if product_sets(subset, single) != subset:
            raise NotAGroup("right translation is not onto", sg.label(a))
    identity = next(e for e in els if sg.mul(e, els[0]) == els[0])
    return identity, {a: next(b for b in els if sg.mul(a, b) == identity) for a in els}


def group_verdict(fn, subset):
    try:
        grp = fn(subset)
    except (NotAGroup, NotASubsemigroup) as exc:
        return type(exc), str(exc)
    if isinstance(grp, tuple):
        return grp
    return grp.identity, grp.inverses


def test_group_structure_matches_the_sweep_on_every_small_subset():
    tables = [inst.semigroup for inst in build_corpus("default") if inst.semigroup.order <= 8]
    compared = rejected = 0
    for sg in tables:
        for els in all_subsets(sg.order):
            subset = sg.subset(els)
            expected = group_verdict(group_by_sweep, subset)
            assert group_verdict(group_structure, subset) == expected, (sg, els)
            compared += 1
            rejected += expected[0] in (NotAGroup, NotASubsemigroup)
    assert 0 < rejected < compared


@pytest.mark.parametrize(
    "spec, pick, rejection",
    [
        (CorpusSpec("cyclic", (70,)), range, None),
        (CorpusSpec("cyclic", (70,)), lambda n: range(1, n), NotASubsemigroup),
        (CorpusSpec("full_transformation", (4,)), range, NotAGroup),
        (CorpusSpec("rectangular_band", (70, 1)), range, NotAGroup),  # left zero
        (CorpusSpec("rectangular_band", (1, 70)), range, NotAGroup),  # right zero
    ],
)
def test_group_structure_matches_the_sweep_on_large_subsets(spec, pick, rejection):
    sg = build(spec)
    subset = sg.subset(pick(sg.order))
    expected = group_verdict(group_by_sweep, subset)
    assert group_verdict(group_structure, subset) == expected
    if rejection is not None:
        assert expected[0] is rejection


def test_the_inverse_gather_matches_the_row_loop_on_every_small_subset(monkeypatch):
    # The row loop is the gather's oracle: on every subset of the small
    # default tables, at every candidate identity, both return the same map
    # or both None; and group_structure with every subset gathered still
    # matches the sweep, witness included, on the non-groups.
    monkeypatch.setattr(core, "_INVERSE_GATHER_SIZE", 0)
    tables = [inst.semigroup for inst in build_corpus("default") if inst.semigroup.order <= 8]
    found = 0
    for sg in tables:
        for els in all_subsets(sg.order):
            subset = sg.subset(els)
            for e in els:
                by_rows = core._inverses_by_rows(subset, e)
                assert core._inverses_by_gather(subset, e) == by_rows, (sg, els, e)
                found += by_rows is not None
            expected = group_verdict(group_by_sweep, subset)
            assert group_verdict(group_structure, subset) == expected, (sg, els)
    assert found > 0


def test_translates_equal_the_three_set_products():
    # S*e, e*S and e*(S*e) on every extended-corpus kernel at each of its
    # idempotents.
    checked = 0
    for inst in build_corpus("extended"):
        sg = inst.semigroup
        k = kernel(sg.carrier())
        for e in idempotents(k):
            single = sg.singleton(e)
            se = product_sets(k, single)
            expected = (se, product_sets(single, k), product_sets(single, se))
            assert translates(k, e) == expected, (inst.name, e)
            checked += 1
    assert checked > 100


def test_group_structure_reads_rows_not_set_products(monkeypatch):
    monkeypatch.setattr(core, "product_sets", lambda first, second: pytest.fail("swept"))
    # _require_subsemigroup's one closure product is the only set product.
    monkeypatch.setattr(core, "_closure_witness", lambda subset: None)
    for n in (8, 70):
        grp = group_structure(cyclic(n).carrier())
        assert grp.identity == 0 and all(grp.inv(a) == -a % n for a in range(n))


def test_only_core_reads_the_element_set_mask():
    # The bitmask is core's representation: other modules build and read
    # element sets through ElementSet's operations alone.
    source = Path(core.__file__).parent
    offending = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(source.glob("*.py"))
        if path.name != "core.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\.mask\b|\bElementSet\(", line)
    ]
    assert offending == []


def _imported_modules(node):
    """Dotted names of the modules an import statement reads, a relative
    import resolved inside semiconv."""
    if isinstance(node, ast.Import):
        return [a.name for a in node.names]
    base = ".".join(filter(None, ["semiconv" if node.level else "", node.module]))
    return [base] if node.module else [f"{base}.{a.name}" for a in node.names]


def test_every_import_is_at_module_level_and_core_imports_only_errors():
    # core is the leaf the other modules build on: an import inside a
    # function, or from core to any module but errors, hides a cycle.
    source = Path(core.__file__).parent
    nested, core_uses = [], set()
    for path in sorted(source.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if node not in tree.body:
                nested.append(f"{path.name}:{node.lineno}")
            if path.name == "core.py":
                mods = _imported_modules(node)
                core_uses.update(m for m in mods if m.split(".")[0] == "semiconv")
    assert nested == []
    assert core_uses <= {"semiconv.errors"}


def _names_read(node, defs=()):
    """(name, names of the enclosing defs) for every bare name or attribute
    the code under node reads: a call, or a function passed as a value."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _names_read(child, (*defs, child.name))
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield child.id, defs
        elif isinstance(child, ast.Attribute):
            yield child.attr, defs
        yield from _names_read(child, defs)


# Exported for perfbench/, which calls both (ROADMAP item 15).
UNUSED_PUBLIC_FUNCTIONS = {"support_period", "generated_subsemigroup"}


def test_every_public_function_has_a_caller_in_the_package_or_the_readme():
    # A function stays in semiconv.__all__ only if a command, a verify check
    # or a README example needs it: a module of the package other than
    # __init__ reads it outside its own def, or README.md names it.
    source = Path(core.__file__).parent
    used = {
        name
        for path in source.glob("*.py")
        if path.name != "__init__.py"
        for name, defs in _names_read(ast.parse(path.read_text()))
        if name not in defs
    }
    readme = (source.parents[1] / "README.md").read_text(encoding="utf-8")
    unused = {
        name
        for name in semiconv.__all__
        if callable(obj := getattr(semiconv, name))
        and not isinstance(obj, type)
        and name not in used
        and not re.search(rf"\b{name}\b", readme)
    }
    assert unused == UNUSED_PUBLIC_FUNCTIONS
