"""Finite semigroup structure: Cayley tables, ideals, kernel, embedded groups.

Elements are indices 0..n-1 into a label list.  Element subsets are bitmasks
wrapped in ElementSet, and that format is this module's alone: every other
module builds sets through Semigroup.subset and its kin and reads them
through ElementSet's operations, never through the mask.  So the set
algebra that needs the mask lives here, down to the power walk A, A*A, ...
up to its first repeat (_power_cycle), which dynamics runs on supp(mu) to
read off the support cycle of mu^n, and on a singleton {a} to read off the
power cycle of an element a for its cluster.  A walk step, a set product
or a mask read above a measured size goes through numpy, one table gather
into a boolean array or one np.unpackbits; below it a loop over the
table's rows or the mask's bits is cheaper, as numpy's fixed cost per
call dominates small sets.  All operations are exact table lookups.
Validation decides associativity by Light's test: it sweeps (a*b)*c =
a*(b*c) over all b and c only for the rows a of a greedy generating set,
each pick outside the closure of the earlier picks under right
translation by them.  That closure is sound without associativity: the
good rows (those whose sweep passes) are closed under the product, so the
right translates of good picks are good, and picks that reach every
element prove every row good.  It lies inside the closure under both
products of every pair, and equals it on an associative table.  Two such
sets are used.  The one that decides is taken in descending order of row
image size |a*S|, which keeps it small; only when its sweep finds a
broken row is a second set, taken in index order, swept to name the
lexicographically first broken triple.  The validated table is kept as a
read-only int32 array.  The kernel of a subsemigroup S is computed from
one of its elements, as K = (S*z)*S; associativity, which validation
proved, makes it an ideal of S, so it is not tested for one.  S is simple
exactly when it is its own kernel, and left (right) simple exactly when
one translate S*z (z*S) of a kernel element z is S.  The minimal
one-sided ideals are read off the verified Rees split of K in rees.
"""

import struct
from dataclasses import FrozenInstanceError, dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    EmptySet,
    IndexOutOfRange,
    InvalidTable,
    MalformedInput,
    MismatchedParent,
    NonAssociative,
    NotAGroup,
    NotASubsemigroup,
    OrderCapExceeded,
    VerificationFailed,
)

DEFAULT_ORDER_CAP = 1024


class _Frozen:
    """Base of the value types Semigroup, ElementSet and measure.Dist:
    assigning or deleting any attribute raises FrozenInstanceError.  Each
    subclass writes its slots through their own descriptors, and rebuilds
    through __reduce__ for copy and pickle, as no slot can be set."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(
            f"{type(self).__name__} is immutable; cannot assign to field {name!r}"
        )

    def __delattr__(self, name):
        raise FrozenInstanceError(
            f"{type(self).__name__} is immutable; cannot delete field {name!r}"
        )


class Semigroup(_Frozen):
    """A finite semigroup presented by a full Cayley table.

    table[a][b] is the index of the product a*b.  Construct through
    validate_cayley, which is the only path that checks associativity.
    Immutable through _Frozen, as every ElementSet and Dist keys on it and
    the table is read both as rows and as table_array().  The constructor,
    validate_cayley and the table_array cache write through the slots' own
    descriptors.
    """

    __slots__ = ("labels", "rows", "_index", "_np")

    def __init__(self, labels, rows):
        labels = tuple(labels)
        _set_labels(self, labels)
        _set_rows(self, tuple(tuple(r) for r in rows))
        _set_index(self, {lab: i for i, lab in enumerate(labels)})
        _set_np(self, None)

    def __reduce__(self):
        return Semigroup, (self.labels, self.rows)

    @property
    def order(self):
        return len(self.labels)

    def mul(self, a, b):
        return self.rows[a][b]

    def label(self, a):
        return self.labels[a]

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise MalformedInput(f"unknown element label: {label!r}") from None

    def table_array(self):
        """The table as a read-only int32 array, built once."""
        if self._np is None:
            t = np.array(self.rows, dtype=np.int32)
            t.flags.writeable = False
            _set_np(self, t)
        return self._np

    def carrier(self):
        return ElementSet(self, (1 << self.order) - 1)

    def empty(self):
        return ElementSet(self, 0)

    def singleton(self, a):
        if not 0 <= a < len(self.labels):
            raise MalformedInput(f"element index out of range: {a}")
        return ElementSet(self, 1 << a)

    def subset(self, indices):
        n = len(self.labels)
        mask = 0
        for a in indices:
            if not 0 <= a < n:
                raise MalformedInput(f"element index out of range: {a}")
            mask |= 1 << a
        return ElementSet(self, mask)

    def subset_of_labels(self, labels):
        return self.subset(self.index(lab) for lab in labels)

    def __repr__(self):
        shown = ",".join(self.labels[:6])
        if self.order > 6:
            shown += ",..."
        return f"Semigroup(order={self.order}, labels=[{shown}])"


_set_labels = Semigroup.labels.__set__
_set_rows = Semigroup.rows.__set__
_set_index = Semigroup._index.__set__
_set_np = Semigroup._np.__set__


class ElementSet(_Frozen):
    """Subset of a semigroup's carrier, stored as a bitmask over indices.

    Immutable through _Frozen, as its instances are dict keys.  The
    constructor and the elements cache write through the slots' own
    descriptors.
    """

    __slots__ = ("parent", "mask", "_elements")

    def __init__(self, parent, mask):
        _set_parent(self, parent)
        _set_mask(self, mask)
        _set_elements(self, None)

    def __reduce__(self):
        return ElementSet, (self.parent, self.mask)

    def elements(self):
        # Cached in a slot beside the fields, so equality and hashing stay on
        # (parent, mask).  Slots leave each set without an instance __dict__,
        # which would cost more to make than the set itself, and one
        # analysis makes dozens of sets.
        els = self._elements
        if els is None:
            m = self.mask
            els = tuple(_indices(m).tolist()) if m.bit_count() > _UNPACK_SIZE else _bits(m)
            _set_elements(self, els)
        return els

    def labels(self):
        return tuple(self.parent.labels[a] for a in self.elements())

    def least(self):
        if not self.mask:
            raise EmptySet("empty set has no least element")
        return (self.mask & -self.mask).bit_length() - 1

    def __contains__(self, a):
        return a >= 0 and bool((self.mask >> a) & 1)

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(self.elements())

    def __bool__(self):
        return self.mask != 0

    def __eq__(self, other):
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.parent is other.parent and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.parent), self.mask))

    def union(self, other):
        _check_parent(self, other)
        return ElementSet(self.parent, self.mask | other.mask)

    def intersection(self, other):
        _check_parent(self, other)
        return ElementSet(self.parent, self.mask & other.mask)

    def difference(self, other):
        _check_parent(self, other)
        return ElementSet(self.parent, self.mask & ~other.mask)

    __or__ = union
    __and__ = intersection
    __sub__ = difference

    def issubset(self, other):
        _check_parent(self, other)
        return self.mask & ~other.mask == 0

    def __repr__(self):
        return f"ElementSet({{{','.join(self.labels())}}})"


_set_parent = ElementSet.parent.__set__
_set_mask = ElementSet.mask.__set__
_set_elements = ElementSet._elements.__set__

# Above this many elements a mask is read by np.unpackbits rather than one
# bit at a time: the bit loop costs about 0.13 us per element at order 176
# and 0.17 us at order 1000, the unpacking a flat 3-5 us, and they cross
# between 24 and 32 elements at both orders (best of 5x2000 calls).
_UNPACK_SIZE = 32


def _bits(mask):
    """The set bits of a mask, ascending, one bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _indices(mask):
    """The set bits of a mask as an ascending index array."""
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
    return np.flatnonzero(np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little"))


def _mask_of(hit):
    """The mask of a boolean array over the carrier."""
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def _check_parent(first, second):
    """MismatchedParent unless two sets or distributions share one Semigroup."""
    if first.parent is not second.parent:
        raise MismatchedParent("operands belong to different semigroups")


def _as_set(x):
    if isinstance(x, Semigroup):
        return x.carrier()
    if isinstance(x, ElementSet):
        return x
    raise TypeError(f"expected Semigroup or ElementSet, got {type(x).__name__}")


def _check_order(n):
    """Raise OrderCapExceeded for a table over DEFAULT_ORDER_CAP elements."""
    if n > DEFAULT_ORDER_CAP:
        raise OrderCapExceeded(n, DEFAULT_ORDER_CAP)


def validate_cayley(labels, table):
    """Build a Semigroup from labels and a Cayley table, checking everything.

    Checks: distinct labels, order at most DEFAULT_ORDER_CAP (before any row
    is read), square table, entries in range, associativity.  The table is
    rows of ints, or an integer numpy array as the corpus builders form it
    and as serialize.load_semigroup reads most table files; an array is
    checked as an array, with no pass over its entries in Python.  Either
    way the Semigroup's rows are tuples of Python ints.

    Associativity is decided by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, section 1.2).  Call a good when
    (a*b)*c = a*(b*c) for all b and c.  The good elements are closed under
    the product: for good a and a', ((a*a')*b)*c = (a*(a'*b))*c =
    a*((a'*b)*c) = a*(a'*(b*c)) = (a*a')*(b*c), using only the goodness of
    a (twice) and of a'.  So they are the whole carrier once they include
    a set B whose closure under right translation, x -> x*g for g in B, is
    the whole carrier: every element of that closure is a pick or x*g with
    x in it, hence a product of good elements.  B is picked greedily, each
    pick outside that closure of the earlier ones (_greedy_generators),
    without assuming associativity; then only the rows a in B are swept
    against every b and c, at O(|B|*n^2) cost instead of O(n^3).  The
    closure lies inside the closure under both products of every pair; on
    an associative table the two are one set, the products of picks, so
    only a table that fails the test can need more picks.

    Any such B decides the test, so the deciding B is picked in descending
    order of row image size |a*S| (ties by index): rows that reach many
    elements generate the table in few picks.  Only if one of its rows is
    bad is a second B, picked in index order, swept in ascending order to
    name the witness: the lexicographically first triple (a, b, c) with
    (a*b)*c != a*(b*c), as a full sweep would find it.  Every row before
    the first bad row a is good, so the closure of the picks before a is
    good and misses a, and the index-order pick therefore puts a in that
    B; the picks swept before it are good, so a's first broken (b, c) is
    the first triple found.

    The returned Semigroup keeps the validated table as its read-only
    table_array().
    """
    labels = list(labels)
    n = len(labels)
    if n == 0:
        raise InvalidTable("no elements")
    if len(set(labels)) != n:
        raise InvalidTable("duplicate element labels")
    _check_order(n)
    if isinstance(table, np.ndarray) and table.dtype.kind in "iu":
        t = _checked_array(table, n)
        # The rows as tuples of ints, unpacked from the array's bytes with no
        # intermediate lists; Semigroup keeps these tuples as they are.
        table = tuple(struct.iter_unpack(f"={n}i", t.tobytes()))
    else:
        if len(table) != n:
            raise InvalidTable(f"table has {len(table)} rows for {n} elements")
        for i, row in enumerate(table):
            if len(row) != n:
                raise InvalidTable(f"table row {i} has {len(row)} entries for {n} elements")
        t = _entry_array(table, n)
    t.flags.writeable = False
    if _first_broken_triple(t, _greedy_generators(t, _by_image_size(t))) is not None:
        raise NonAssociative(*_first_broken_triple(t, _greedy_generators(t)))
    sg = Semigroup(labels, table)
    _set_np(sg, t)
    return sg


def _checked_array(table, n):
    """An integer array table as an int32 copy, checked as a list table is:
    InvalidTable for a shape other than n x n, IndexOutOfRange naming the
    first entry, in row-major order, outside range(n)."""
    if table.ndim != 2 or len(table) != n:
        raise InvalidTable(f"table has shape {table.shape} for {n} elements")
    if table.shape[1] != n:
        raise InvalidTable(f"table row 0 has {table.shape[1]} entries for {n} elements")
    if table.min() < 0 or table.max() >= n:
        i, j = np.argwhere((table < 0) | (table >= n))[0]
        raise IndexOutOfRange(int(i), int(j), int(table[i, j]))
    return table.astype(np.int32)


def _entry_array(table, n):
    """The square table as an int32 array, or IndexOutOfRange naming its
    first entry, in row-major order, that is not an int in range(n).

    One type pass and one array cover the common case; anything they do not
    settle (another type, a value outside range(n) or past int64) falls
    back to the per-entry loop, which names the bad cell."""
    try:
        if {*map(type, chain.from_iterable(table))} == {int}:
            t = np.array(table, dtype=np.int64)
            if t.min() >= 0 and t.max() < n:
                return t.astype(np.int32)
    except OverflowError:
        pass
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise IndexOutOfRange(i, j, v)
    # Only int subclasses other than bool get here; their values are valid.
    return np.array(table, dtype=np.int32)


def _by_image_size(t):
    """Element indices in descending order of |a*S|, the number of distinct
    entries in row a, ties broken by index."""
    n = len(t)
    hit = np.zeros((n, n), dtype=bool)
    hit[np.arange(n)[:, None], t] = True
    return np.argsort(-hit.sum(axis=1), kind="stable")


# Above this many pairs |frontier|*|picks| a layer of _greedy_generators is
# one table gather; below it a loop over the pairs is cheaper.  cyclic(n)
# grows one element per layer: on cyclic(32) the search took 0.16 ms with
# every layer a gather and 0.034 ms at this cut.  Cuts of 16, 32 and 64
# timed alike on cyclic(32), cyclic(1000), full_transformation(4),
# random_transformation_subsemigroup(4,2)@seed=25 and
# rectangular_band(32,32); with every layer a loop the last took 5.4 ms
# against 1.4 (best of 300 calls, or of 10 above order 200).
_GREEDY_GATHER_PAIRS = 32


def _greedy_generators(t, order=None):
    """Elements taken in the given order (default: index order), each one
    outside the closure of those taken before it, so that together they
    generate the whole table.

    The closure is under right translation by the picks: the least set
    that holds every pick g and x*g for each x in it and each pick g.  It
    grows breadth first.  A new pick g sends everything reached before it
    through x*g; g and each newly reached element go through every pick.
    No associativity is assumed, and validate_cayley needs none: each
    element reached is a pick or x*g for a reached x, so if the picks are
    good rows of Light's test, so is everything reached.  The closure lies
    inside the closure under both products of every reached pair, and on
    an associative table it is that closure, the subsemigroup of all
    products of picks, each a shorter product times one pick on the right.

    A layer of more than _GREEDY_GATHER_PAIRS pairs |frontier|*|picks| is
    one table gather, and a smaller one a loop over the pairs.  An element
    is marked as it is first reached, in one bytearray that the loop reads
    and the gathers read and write through an array view.
    """
    n = len(t)
    inside = bytearray(n)
    marked = np.frombuffer(inside, dtype=bool)  # the same bytes, as an array
    reached = np.empty(n, dtype=np.intp)
    size = 0
    gens = []
    for g in range(n) if order is None else order.tolist():
        if inside[g]:
            continue
        gens.append(g)
        picks = np.array(gens)
        hit = np.zeros(n, dtype=bool)
        hit[t[reached[:size], g]] = True
        hit[g] = True
        frontier = np.flatnonzero(hit & ~marked)
        marked[frontier] = True
        while len(frontier):
            reached[size : size + len(frontier)] = frontier
            size += len(frontier)
            if len(frontier) * len(gens) > _GREEDY_GATHER_PAIRS:
                hit = np.zeros(n, dtype=bool)
                hit[t[np.asarray(frontier)[:, None], picks]] = True
                frontier = np.flatnonzero(hit & ~marked)
                marked[frontier] = True
            else:
                layer, frontier = frontier, []
                for x in layer:
                    for h in gens:
                        y = t.item(x, h)
                        if not inside[y]:
                            inside[y] = 1
                            frontier.append(y)
    return gens


def _first_broken_triple(t, rows):
    """First (a, b, c) with (a*b)*c != a*(b*c), taking a from rows in the
    order given and (b, c) lexicographically, or None.  Each row a is one
    pair of n x n gathers."""
    for a in rows:
        row = t[a]
        # t[row][b, c] = t[t[a, b], c] and row[t][b, c] = t[a, t[b, c]].
        bad = t.take(row, axis=0) != row.take(t)
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return int(a), int(b), int(c)
    return None


# Above this many index pairs product_sets marks a boolean array with one
# table gather instead of looping over the pairs.  The loop costs about
# 0.07 us a pair, the gather a flat 15-20 us with both index arrays read
# from the masks; they cross between 128 and 256 pairs at orders 40, 176
# and 1000 (fresh sets, best of 5x500 calls).
_PRODUCT_GATHER_PAIRS = 192


def product_sets(first, second):
    """{a*b : a in first, b in second}.  Empty factor gives the empty set."""
    # Exact type tests keep the usual pair of ElementSets off _as_set's two
    # calls: this is the set product of the kernel, ideal and group steps.
    if type(first) is not ElementSet or type(second) is not ElementSet:
        first, second = _as_set(first), _as_set(second)
    _check_parent(first, second)
    sg = first.parent
    pairs = first.mask.bit_count() * second.mask.bit_count()
    if not pairs:
        return sg.empty()
    if pairs > _PRODUCT_GATHER_PAIRS:
        hit = np.zeros(sg.order, dtype=bool)
        hit[sg.table_array()[np.ix_(_indices(first.mask), _indices(second.mask))]] = True
        return ElementSet(sg, _mask_of(hit))
    rows = sg.rows
    bb = second.elements()
    mask = 0
    for a in first.elements():
        row = rows[a]
        for b in bb:
            mask |= 1 << row[b]
    return ElementSet(sg, mask)


def translates(s, e):
    """(S*e, e*S, e*S*e) for a set S and an element e, in one pass over S:
    z*e, e*z and e*(z*e) are read for each z in S.  The three are the
    products product_sets(S, {e}), product_sets({e}, S) and
    product_sets({e}, S*e), as a set product is the set of its pairwise
    products."""
    sg = s.parent
    rows = sg.rows
    row_e = rows[e]
    se = es = ese = 0
    for z in s.elements():
        ze = rows[z][e]
        se |= 1 << ze
        es |= 1 << row_e[z]
        ese |= 1 << row_e[ze]
    return ElementSet(sg, se), ElementSet(sg, es), ElementSet(sg, ese)


def idempotents(x):
    """Elements with a*a = a, within the given carrier or subset."""
    s = _as_set(x)
    rows = s.parent.rows
    mask = 0
    for a in s:
        if rows[a][a] == a:
            mask |= 1 << a
    return ElementSet(s.parent, mask)


def generated_subsemigroup(gens):
    """Least subsemigroup containing the generators (closure under products).

    Every product of generators is a shorter product times one generator on
    the right, so a breadth-first search under z -> z*g reaches them all in
    O(|T|*|gens|) table lookups.
    """
    gens = _as_set(gens)
    if not gens:
        raise EmptySet("cannot generate from the empty set")
    rows = gens.parent.rows
    steps = gens.elements()
    mask = gens.mask
    frontier = steps
    while frontier:
        nxt = []
        for z in frontier:
            row = rows[z]
            for g in steps:
                w = row[g]
                if not (mask >> w) & 1:
                    mask |= 1 << w
                    nxt.append(w)
        frontier = nxt
    return ElementSet(gens.parent, mask)


# Above this many index pairs |A_n|*|A_1| a step of _power_cycle is one
# gather into a boolean array.  On the walks_corpus walks (|T| <= 64) a
# gather's fixed cost loses to the loop up to about 100 pairs: three walks
# over orders 16-27 took 15-20 us with every step a loop and 20-28 us at a
# cut of 48 (best of 7x300), and walks_corpus wall_s read 3.3% over the
# parent at 48 and 2.4% at 128 (--seconds 8, 6 runs each).  The 8
# limit_large walks take 1.06 ms per pass at 128, 0.86-0.91 ms at 48 and
# 2.9 ms at 256.
_WALK_GATHER_PAIRS = 128


def _power_cycle(base):
    """q, the sets A_q, ..., A_(q+p-1) and T, for the powers A_1 = base,
    A_(n+1) = A_n * A_1, with (q, p) least such that A_(q+p) = A_q, and T
    the subsemigroup base generates.

    Exact cycle detection with a first-occurrence map over the mask
    sequence; the first repeat of a deterministic sequence lands exactly at
    the preperiod.  T is the union of the A_n, and every A_n past the walk
    repeats one it visited, so T is the union of the visited sets.

    Each step is taken by the cheaper of two forms, chosen by its size
    |A_n|*|A_1|.  Above _WALK_GATHER_PAIRS it is one gather of A_n's rows
    from the table's A_1 columns into a boolean array, and A_n's index
    array is kept from the step before when that was a gather too.  Below
    it the step loops over the pairs on the table's rows: on a walk of
    small sets, such as a point mass over cyclic(1000) with its 1,000
    singletons, numpy's fixed cost per call would dominate every step.
    Either way each visited set is one mask, the key of the repeat test,
    and only the cycle's sets and T become ElementSets.
    """
    sg = base.parent
    rows = sg.rows
    steps = base.elements()
    columns = None
    seen = {}
    masks = []
    reached = 0
    mask, index = base.mask, None
    while mask not in seen:
        seen[mask] = len(masks)
        masks.append(mask)
        reached |= mask
        if mask.bit_count() * len(steps) > _WALK_GATHER_PAIRS:
            if columns is None:
                columns = sg.table_array()[:, list(steps)]
            hit = np.zeros(sg.order, dtype=bool)
            hit[columns[_indices(mask) if index is None else index]] = True
            index = np.flatnonzero(hit)
            mask = _mask_of(hit)
        else:
            els = _bits(mask) if index is None else index.tolist()
            index = None
            mask = 0
            for a in els:
                row = rows[a]
                for b in steps:
                    mask |= 1 << row[b]
    start = seen[mask]
    return start + 1, [ElementSet(sg, m) for m in masks[start:]], ElementSet(sg, reached)


def is_left_ideal(ideal):
    """Whether S*I is contained in I (I nonempty), S the ambient carrier."""
    ideal = _as_set(ideal)
    if not ideal:
        raise EmptySet("ideal test on the empty set")
    return product_sets(ideal.parent.carrier(), ideal).issubset(ideal)


def is_right_ideal(ideal):
    ideal = _as_set(ideal)
    if not ideal:
        raise EmptySet("ideal test on the empty set")
    return product_sets(ideal, ideal.parent.carrier()).issubset(ideal)


def is_ideal(ideal):
    return is_left_ideal(ideal) and is_right_ideal(ideal)


def _closure_witness(subset):
    """First pair (a, b) in subset with a*b outside it, or None if closed.
    One set product decides; the pair loop runs only to name the pair."""
    if product_sets(subset, subset).issubset(subset):
        return None
    rows = subset.parent.rows
    els = subset.elements()
    for a in els:
        row = rows[a]
        for b in els:
            if row[b] not in subset:
                return (a, b)
    return None


def _require_subsemigroup(x):
    """x as an ElementSet, once it is checked to be a subsemigroup."""
    subset = _as_set(x)
    if not subset:
        raise EmptySet("empty set is not a subsemigroup")
    w = _closure_witness(subset)
    if w is not None:
        raise NotASubsemigroup(*w)
    return subset


def is_left_simple(subset):
    """Whether A*a = A for every a in A (A a subsemigroup), decided by the
    one translate A*z = A, z the least element of the kernel K of A.

    The test is needed, as a left simple A has A*a = A for every a.  It is
    enough: A*z lies in the ideal K, so A = A*z forces A = K, which is
    simple and so completely simple.  Then K*z is a minimal left ideal
    (see the rees module docstring), and A = K*z has no smaller left
    ideal.  Each A*a, a left ideal of A, is then A.
    """
    subset = _require_subsemigroup(subset)
    return product_sets(subset, subset.parent.singleton(kernel(subset).least())) == subset


def is_right_simple(subset):
    """Whether a*A = A for every a in A: the mirror of is_left_simple, by
    the one translate z*A = A."""
    subset = _require_subsemigroup(subset)
    return product_sets(subset.parent.singleton(kernel(subset).least()), subset) == subset


def is_simple(subset):
    """Whether A*a*A = A for every a in A (no proper two-sided ideals)."""
    return _simplicity_witness(subset) is None


def _simplicity_witness(subset):
    """None if A is its own kernel, else the least kernel element a, for
    which A*a*A is the kernel, a proper ideal."""
    subset = _require_subsemigroup(subset)
    k = kernel(subset)
    return None if k == subset else k.least()


def principal_left_ideal(x, a):
    """S*a together with a itself."""
    s = _as_set(x)
    return product_sets(s, s.parent.singleton(a)) | s.parent.singleton(a)


def principal_right_ideal(x, a):
    s = _as_set(x)
    return product_sets(s.parent.singleton(a), s) | s.parent.singleton(a)


def kernel(x):
    """The least two-sided ideal K of the subsemigroup x, computed as S*z*S.

    x must be closed under the product: it is a validated carrier, the
    union T of a support walk (closed, as A_i*A_j = A_(i+j)), or a set
    just checked to be a subsemigroup.  Nothing here tests that, and on a
    set that is not closed the result may leave it.

    S*z*S is an ideal of a closed S by associativity alone: S*(S*z*S) =
    (S*S)*z*S lies in S*z*S, as S*S lies in S, and mirrored on the right.
    z is the left-normed product of the elements of S, so it has every
    element of S as a factor, and it lies in every ideal I of S: the factor
    a taken from I puts the partial product ending in a in I, and each
    later factor on the right keeps it there.  So S*z*S lies inside every
    ideal of S, and, being one, it is the least one.
    """
    s = _as_set(x)
    if not s:
        raise EmptySet("the empty set has no kernel")
    sg = s.parent
    rows = sg.rows
    els = s.elements()
    z = els[0]
    for a in els[1:]:
        z = rows[z][a]
    return product_sets(product_sets(s, sg.singleton(z)), s)


def group_structure(subset):
    """Check that a subset is a group under the ambient product and extract
    its identity and inverse map.

    A closed subset with a two-sided identity e in it, and a two-sided
    inverse in it for every element, is a group; that is the whole test.
    The identity is the first element fixing an anchor from the left, and
    each inverse is looked up in a row: any b with a*b = e gives e*b*e,
    which is a's inverse if A is a group, as a^-1*(a*b)*e = e*b*e.  So the
    test passes on every group.  Above _INVERSE_GATHER_SIZE elements the
    rows are read by table gathers, below it by a loop; both take the first
    such b in each row.  When the test fails, the translation sweep
    x*A = A = A*x runs to name the witness: the least x, its left
    translate before its right.  Closure puts x*A and A*x inside A, so
    each is A exactly when row or column x hits |A| distinct elements of
    it.
    """
    subset = _require_subsemigroup(subset)
    sg = subset.parent
    rows = sg.rows
    els = subset.elements()
    anchor = els[0]
    identity = next((e for e in els if rows[e][anchor] == anchor), None)
    if identity is not None:
        find = _inverses_by_gather if len(els) > _INVERSE_GATHER_SIZE else _inverses_by_rows
        inverses = find(subset, identity)
        if inverses is not None:
            return GroupStructure(carrier=subset, identity=identity, inverses=inverses)
    for a in els:
        if len({rows[a][b] for b in els}) != len(els):
            raise NotAGroup("left translation is not onto", sg.label(a))
        if len({rows[b][a] for b in els}) != len(els):
            raise NotAGroup("right translation is not onto", sg.label(a))
    # A closed subset on which every translation is onto is a group, and
    # the test above passes on every group.
    raise VerificationFailed("group", "translations are onto, yet no identity and inverses")


# Above this many elements group_structure reads the inverses by gathers
# over the table's rows rather than by a loop whose row scans cost O(n) for
# each element.  On cyclic(n), where |G| = n, the loop took 2.6 us at n =
# 8, 40 us at 48, 66 us at 64 and 8.4 ms at 1000, the gathers 40-45 us up
# to 64 and 0.71 ms at 1000 (best of 5x50 calls).
_INVERSE_GATHER_SIZE = 48


def _inverses_by_rows(subset, identity):
    """The inverse map of subset, if identity is a two-sided identity for
    each element a and a has a two-sided inverse in subset, else None.
    Each inverse is e*b*e for the first b in a's row with a*b = e."""
    rows = subset.parent.rows
    row_e = rows[identity]
    inverses = {}
    for a in subset.elements():
        row_a = rows[a]
        if row_e[a] != a or row_a[identity] != a or identity not in row_a:
            return None
        inv = rows[row_e[row_a.index(identity)]][identity]
        if inv not in subset or row_a[inv] != identity or rows[inv][a] != identity:
            return None
        inverses[a] = inv
    return inverses


def _inverses_by_gather(subset, identity):
    """_inverses_by_rows by table gathers: the first b in each row with
    a*b = e is one argmax over the rows' comparison with e.  A row without
    e gives b = 0, and then fails a*(e*b*e) = e, as that would put e in
    the row."""
    sg = subset.parent
    t = sg.table_array()
    index = _indices(subset.mask)
    first = (t[index] == identity).argmax(axis=1)
    inv = t[t[identity, first], identity]
    inside = np.zeros(sg.order, dtype=bool)
    inside[index] = True
    if (
        (t[identity, index] == index).all()
        and (t[index, identity] == index).all()
        and inside[inv].all()
        and (t[index, inv] == identity).all()
        and (t[inv, index] == identity).all()
    ):
        return dict(zip(index.tolist(), inv.tolist()))
    return None


@dataclass(frozen=True, eq=False)
class GroupStructure:
    """A subset verified to be a group, with identity and inverse map."""

    carrier: ElementSet
    identity: int
    inverses: dict = field(repr=False)

    @property
    def parent(self):
        return self.carrier.parent

    @property
    def order(self):
        return len(self.carrier)

    def inv(self, a):
        return self.inverses[a]

    def __contains__(self, a):
        return a in self.carrier

    def __iter__(self):
        return iter(self.carrier)

    def __eq__(self, other):
        if not isinstance(other, GroupStructure):
            return NotImplemented
        return self.carrier == other.carrier and self.identity == other.identity

    def __hash__(self):
        return hash((self.carrier, self.identity))

    def __repr__(self):
        return (
            f"GroupStructure(order={self.order}, "
            f"identity={self.parent.label(self.identity)})"
        )
