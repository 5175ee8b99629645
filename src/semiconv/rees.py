"""Product decomposition of completely simple semigroups.

A simple finite semigroup S with an idempotent e splits as S = L*G*R with
L = E(Se), G = eSe (a group with identity e), R = E(eS), and the product
map psi(x, g, y) = x*g*y a bijection L x G x R -> S.  The inverse has the
closed form psi_inv(z) = (z*e*(e*z*e)^-1, e*z*e, (e*z*e)^-1*e*z).
rees_decompose computes that closed form and verifies it, by multiplying
back, once for every element of the carrier, and keeps the verified
triples in the decomposition; psi_inv then looks them up.

The verified split is itself the proof that the carrier is completely
simple, so rees_decompose tries it first, at the least idempotent e (or
at the requested one), and proves nothing beforehand.  Suppose the split
holds, in an associative ambient table: L*G*R = S with |L|*|G|*|R| =
|S|, every z in S is x*g*y for verified coordinates, G = e*(S*e) is a
group, and R*L lies in G.  Three more facts follow with no comparison:
  * e is G's identity: e = e*e*e lies in e*(S*e) = G and is idempotent,
    and a group's only idempotent is its identity;
  * e*L = {e}: x in L = E(S*e) is x = s*e, so x*e = x, and e*x = e*s*e
    lies in G and is idempotent, as (e*x)*(e*x) = e*(x*e)*x = e*x*x =
    e*x; so e*x is G's identity e;
  * R*e = {e}, mirrored: y in E(e*S) has e*y = y, and y*e in G is
    idempotent.
Likewise the coordinate loop need not test that e*z*e lies in G: z*e
lies in S*e, so e*z*e lies in e*(S*e) = G by construction.  Then
  * S is closed: for z = x*g*y and z' = x'*g'*y',
    z*z' = x*(g*(y*x')*g')*y' with g*(y*x')*g' in G, so it lies in L*G*R;
  * S is simple: for a = x*g*y and any t = x'*g'*y', put c = y*x in G,
    h = g'*(c*g*c)^-1 and k = e; then (x'*h*y)*a*(x*k*y') =
    x'*(h*c*g*c)*y' = t, so S*a*S = S, and S is its own kernel;
  * e is primitive: an idempotent f with e*f = f*e = f is
    f = e*f*e = (e*x)*g*(y*e) = e*g*e = g for its coordinates (x, g, y),
    an idempotent of the group G, so f = e.
So the hypotheses the decomposition theorem needs (a closed carrier, its
own kernel, an idempotent, a primitive base) all follow from a split that
verifies, and checking them first would only repeat that work.  Only
when the split fails, or no idempotent can serve as the base, are they
checked, in the order closure, kernel, idempotent, requested base,
primitivity, so that the error raised names the first one to fail, as
before; if they all hold, the split is re-run to raise its own error.

The split checks L*G*R = S without forming the product.  The coordinate
loop maps S into L x G x R, and the map is one-to-one, since z = x*g*y is
rebuilt from its coordinates; |L|*|G|*|R| = |S| then makes it a
bijection, so every x*g*y lies in S and L*G*R = S.

When S is the kernel K of a larger semigroup T, the split also gives the
minimal one-sided ideals of T, which minimal_one_sided_ideals reads off
the decomposition of K.  For z in K,
K*z is a left ideal of T inside T*z, as K is an ideal.  For z = x*g*y,
K*z = L*G*y: K*z lies in L*(G*(R*x)*G)*y = L*G*y because R*L lies in G,
and x'*g'*y = (x'*h*y'')*z for any y'' in R with h = g'*g^-1*(y''*x)^-1.
So L*G*y is a left ideal of T that every left ideal of T inside it
contains (K*z lies in any left ideal holding z), hence a minimal one;
and a minimal left ideal M holds the left ideal K*m for each m in M, so
M = K*m lies in K, and M is one of the sets L*G*y.  Since psi is a
bijection, L*G*y is the set of kernel elements with R-coordinate y.
Symmetrically the minimal right ideals are the sets x*G*R, the kernel
elements with L-coordinate x.

Also builds the converse construction: the semigroup on I x G x J with
product (i, g, k)(j, h, l) = (i, g*P[k][j]*h, l) for a sandwich matrix P.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ElementSet,
    GroupStructure,
    _as_set,
    _check_order,
    _simplicity_witness,
    group_structure,
    idempotents,
    product_sets,
    validate_cayley,
)
from .errors import (
    InvalidSandwichEntry,
    NotAGroup,
    NotASubsemigroup,
    NotIdempotent,
    NotInFactor,
    NotPrimitive,
    NotSimple,
    ParameterOutOfRange,
    VerificationFailed,
)


@dataclass(frozen=True, eq=False)
class ReesDecomposition:
    """S = left * group * right, anchored at the idempotent base."""

    carrier: ElementSet
    base: int
    left: ElementSet
    group: GroupStructure
    right: ElementSet
    # z -> (x, g, y) for every z in the carrier, each verified x*g*y = z.
    coordinates: dict = field(repr=False)

    @property
    def parent(self):
        return self.carrier.parent

    def __repr__(self):
        return (
            f"ReesDecomposition(base={self.parent.label(self.base)}, "
            f"|L|={len(self.left)}, |G|={self.group.order}, |R|={len(self.right)})"
        )


def _label_or_index(sg, a):
    """The label of element a in error messages, or a itself when it is
    not an index of sg."""
    return sg.label(a) if 0 <= a < sg.order else a


def is_primitive_idempotent(x, e):
    """Whether no other idempotent f satisfies e*f = f*e = f.

    e must be an idempotent of x: an index that is not an idempotent of the
    table raises NotIdempotent, one that is but lies outside x NotInFactor.
    """
    s = _as_set(x)
    sg = s.parent
    rows = sg.rows
    if not 0 <= e < sg.order or rows[e][e] != e:
        raise NotIdempotent(_label_or_index(sg, e))
    if e not in s:
        raise NotInFactor("carrier", sg.label(e))
    for f in idempotents(s):
        if f != e and rows[e][f] == f and rows[f][e] == f:
            return False
    return True


def rees_decompose(x, at=None):
    """Decompose a completely simple (sub)semigroup at an idempotent.

    With at=None the anchor is the least-index idempotent.  A carrier that
    is not its own kernel raises NotSimple naming the least kernel element
    a, for which S*a*S is the kernel, a proper ideal; that need not be the
    first element with S*a*S != S.  Every clause of the decomposition is
    verified on the concrete table before returning; a failure raises
    VerificationFailed naming the clause.  A split that verifies proves the
    carrier completely simple (see the module docstring), so the
    hypotheses are checked only to name a failure.
    """
    s = _as_set(x)
    ids = idempotents(s)
    if ids and (at is None or at in ids):
        try:
            return _split(s, ids.least() if at is None else at)
        except (NotASubsemigroup, NotAGroup, VerificationFailed):
            pass
    return _split(s, _base_or_raise(s, ids, at))


def _base_or_raise(s, ids, at):
    """The base idempotent, once S is checked closed, simple and with a
    primitive idempotent there; the first failing hypothesis raises."""
    sg = s.parent
    w = _simplicity_witness(s)
    if w is not None:
        raise NotSimple(sg.label(w))
    if not ids:
        raise VerificationFailed("idempotent existence", "no idempotent in a finite semigroup")
    e = ids.least() if at is None else at
    if not is_primitive_idempotent(s, e):  # raises if a requested base is not in ids
        below = next(
            f for f in ids if f != e and sg.mul(e, f) == f and sg.mul(f, e) == f
        )
        raise NotPrimitive(sg.label(e), sg.label(below))
    return e


def _split(s, e):
    """S = L*G*R at the idempotent e of S, every clause verified."""
    sg = s.parent
    single_e = sg.singleton(e)
    se = product_sets(s, single_e)
    es = product_sets(single_e, s)
    left = idempotents(se)
    right = idempotents(es)
    # e is the identity of the verified group (see the module docstring).
    group = group_structure(product_sets(single_e, se))
    coordinates = _verify_decomposition(s, e, left, group, right)
    return ReesDecomposition(
        carrier=s, base=e, left=left, group=group, right=right, coordinates=coordinates
    )


def _verify_decomposition(s, e, left, group, right):
    """Check that S = L*G*R splits as a product and return the coordinates
    of every z in S, each verified by multiplying back."""
    sg = s.parent
    g_set = group.carrier
    # e*L = {e} and R*e = {e} follow from G being a group (see the module
    # docstring), so only R*L in G is checked.
    if not product_sets(right, left).issubset(g_set):
        raise VerificationFailed("interface", "R*L not contained in G")
    if len(left) * len(g_set) * len(right) != len(s):
        raise VerificationFailed("bijection", "factor sizes do not multiply to the order")
    rows = sg.rows
    row_e = rows[e]
    coordinates = {}
    for z in s:
        ze = rows[z][e]
        eze = row_e[ze]  # in e*(S*e) = G by construction
        g_inv = group.inv(eze)
        x = rows[ze][g_inv]
        y = rows[g_inv][row_e[z]]
        if x not in left or y not in right:
            raise VerificationFailed("coordinates", f"inverse image of {sg.label(z)} left the factors")
        if rows[rows[x][eze]][y] != z:
            raise VerificationFailed("coordinates", f"x*g*y != z at {sg.label(z)}")
        coordinates[z] = (x, eze, y)
    return coordinates


def minimal_one_sided_ideals(dec):
    """(minimal left ideals, minimal right ideals) of any semigroup whose
    kernel is dec.carrier, each list sorted by least member: the kernel
    elements that share an R-coordinate, L*G*y, and those that share an
    L-coordinate, x*G*R (see the module docstring)."""
    lefts, rights = {}, {}
    for z, (x, _, y) in dec.coordinates.items():
        lefts.setdefault(y, []).append(z)
        rights.setdefault(x, []).append(z)
    return tuple(
        sorted(map(dec.parent.subset, parts.values()), key=ElementSet.least)
        for parts in (lefts, rights)
    )


def psi(dec, x, g, y):
    """Product map (x, g, y) -> x*g*y."""
    if x not in dec.left:
        raise NotInFactor("left", _label_or_index(dec.parent, x))
    if g not in dec.group.carrier:
        raise NotInFactor("group", _label_or_index(dec.parent, g))
    if y not in dec.right:
        raise NotInFactor("right", _label_or_index(dec.parent, y))
    sg = dec.parent
    return sg.mul(sg.mul(x, g), y)


def psi_inv(dec, z):
    """Coordinates (x, g, y) of z, as computed and verified by rees_decompose."""
    if z not in dec.carrier:
        raise NotInFactor("carrier", _label_or_index(dec.parent, z))
    return dec.coordinates[z]


def idempotent_criterion(dec, x, y):
    """The unique idempotent with coordinates (x, *, y): g = (y*x)^-1.

    z = x*g*y is idempotent with no test: y*x lies in G (the split verified
    R*L in G), so with g its inverse, z*z = x*g*(y*x)*g*y = x*e*g*y = z, as
    x*e = x for x in L = E(S*e).
    """
    if x not in dec.left:
        raise NotInFactor("left", _label_or_index(dec.parent, x))
    if y not in dec.right:
        raise NotInFactor("right", _label_or_index(dec.parent, y))
    return psi(dec, x, dec.group.inv(dec.parent.mul(y, x)), y)


def rebase(dec, new_base):
    """Redecompose at another idempotent e' and verify the translation laws.

    With (a, g0, b) = psi_inv(e'): L'G' = L*G*b, G' = a*G*b, G'R' = a*G*R.
    """
    sg = dec.parent
    if not 0 <= new_base < sg.order or sg.mul(new_base, new_base) != new_base:
        raise NotIdempotent(_label_or_index(sg, new_base))
    a, _, b = psi_inv(dec, new_base)  # NotInFactor for an idempotent outside the carrier
    fresh = rees_decompose(dec.carrier, at=new_base)

    g_old = dec.group.carrier
    g_new = fresh.group.carrier
    sa, sb = sg.singleton(a), sg.singleton(b)
    lg_old = product_sets(dec.left, g_old)
    if product_sets(fresh.left, g_new) != product_sets(lg_old, sb):
        raise VerificationFailed("rebase left", "L'G' != L*G*b")
    if g_new != product_sets(sa, product_sets(g_old, sb)):
        raise VerificationFailed("rebase group", "G' != a*G*b")
    if product_sets(g_new, fresh.right) != product_sets(sa, product_sets(g_old, dec.right)):
        raise VerificationFailed("rebase right", "G'R' != a*G*R")
    return fresh


def rees_matrix_semigroup(group_table, rows, cols, sandwich):
    """Semigroup on {0..rows-1} x G x {0..cols-1} with a sandwich matrix.

    group_table must be the Cayley table of a group; sandwich is cols x rows
    with entries indexing group elements.  Product:
    (i, g, k) * (j, h, l) = (i, g * sandwich[k][j] * h, l).
    Labels are "(i,glabel,k)".  An order over DEFAULT_ORDER_CAP is refused
    before the table is built; the result is revalidated through
    validate_cayley before returning.
    """
    if rows < 1 or cols < 1:
        raise ParameterOutOfRange(f"need at least one row and column, got {rows}x{cols}")
    _check_order(rows * group_table.order * cols)
    group_structure(group_table.carrier())  # raises NotAGroup on a non-group table
    n_g = group_table.order
    if len(sandwich) != cols:
        raise ParameterOutOfRange(f"sandwich has {len(sandwich)} rows, expected {cols}")
    for k, srow in enumerate(sandwich):
        if len(srow) != rows:
            raise ParameterOutOfRange(f"sandwich row {k} has {len(srow)} entries, expected {rows}")
        for j, v in enumerate(srow):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n_g:
                raise InvalidSandwichEntry(k, j, v)

    labels = [
        f"({i},{group_table.label(g)},{k})"
        for i in range(rows)
        for g in range(n_g)
        for k in range(cols)
    ]
    order = rows * n_g * cols
    # (i, g, k) is coded (i * n_g + g) * cols + k.  The product's middle
    # factor middle[g, k, j, h] = g * P[k][j] * h is one gather over the
    # group table; the product is coded over the axes (i, g, k, j, h, l).
    gt = group_table.table_array()
    middle = gt[gt[:, np.array(sandwich, dtype=np.intp)]]
    i = np.arange(rows)[:, None, None, None, None, None]
    l = np.arange(cols)
    table = ((i * n_g + middle[None, :, :, :, :, None]) * cols + l).reshape(order, order)
    return validate_cayley(labels, table)
