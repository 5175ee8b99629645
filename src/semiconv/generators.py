"""Deterministic corpus constructors: stock semigroups and seeded instances.

Transformation composition is (f.g)(x) = f(g(x)) throughout: the right
factor acts first.  Under this convention constant maps form a LEFT-zero
kernel (c.g = c), so e.g. full_transformation(2) has kernel {"00", "11"}.

Randomized kinds draw from xorshift64*, a fixed 64-bit shift-register
generator (shift triple 12/25/27, multiplier 0x2545F4914F6CDD1D), so the
corpus is reproducible bit-for-bit across implementations and platforms.
"""

from dataclasses import dataclass

from .core import _check_order, validate_cayley
from .errors import EmptySupport, ParameterOutOfRange
from .measure import Dist

_MASK64 = (1 << 64) - 1
_SEED_FILL = 0x9E3779B97F4A7C15  # used when the caller passes seed 0


class XorShift64Star:
    """xorshift64*: s ^= s>>12; s ^= s<<25; s ^= s>>27; out = s * multiplier."""

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed):
        self.state = (seed & _MASK64) or _SEED_FILL

    def next_word(self):
        s = self.state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * self.MULTIPLIER) & _MASK64

    def below(self, n):
        """Uniform-ish draw in [0, n); modulo reduction, documented and
        deterministic, which is what the corpus needs."""
        if n < 1:
            raise ParameterOutOfRange(f"draw bound must be >= 1, got {n}")
        return self.next_word() % n


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for one corpus semigroup."""

    kind: str
    params: tuple = ()
    seed: int = 0
    factors: tuple = ()

    def describe(self):
        inner = ",".join(str(p) for p in self.params)
        if self.kind == "direct_product":
            inner = " x ".join(f.describe() for f in self.factors)
            return f"direct_product({inner})"
        text = f"{self.kind}({inner})"
        if self.kind in ("rees_matrix", "random_transformation_subsemigroup"):
            text += f"@seed={self.seed}"
        return text


def build(spec):
    """Construct the semigroup a CorpusSpec describes.

    Pure function of the spec; every table is run through validate_cayley.
    An order over DEFAULT_ORDER_CAP is refused before its table is built.
    """
    try:
        builder = _BUILDERS[spec.kind]
    except KeyError:
        raise ParameterOutOfRange(f"unknown corpus kind: {spec.kind!r}") from None
    return builder(spec)


def _expect_params(spec, count):
    if len(spec.params) != count:
        raise ParameterOutOfRange(
            f"{spec.kind} takes {count} parameter(s), got {len(spec.params)}"
        )
    for p in spec.params:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ParameterOutOfRange(f"{spec.kind} parameters must be positive integers")
    return spec.params


def _build_cyclic(spec):
    (n,) = _expect_params(spec, 1)
    _check_order(n)
    labels = [str(i) for i in range(n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return validate_cayley(labels, table)


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _build_left_zero(spec):
    (n,) = _expect_params(spec, 1)
    if n > len(_LETTERS):
        raise ParameterOutOfRange(f"left_zero supports at most {len(_LETTERS)} elements")
    labels = list(_LETTERS[:n])
    table = [[i] * n for i in range(n)]
    return validate_cayley(labels, table)


def _build_right_zero(spec):
    (n,) = _expect_params(spec, 1)
    if n > len(_LETTERS):
        raise ParameterOutOfRange(f"right_zero supports at most {len(_LETTERS)} elements")
    labels = list(_LETTERS[:n])
    table = [list(range(n)) for _ in range(n)]
    return validate_cayley(labels, table)


def _build_rectangular_band(spec):
    m, k = _expect_params(spec, 2)
    _check_order(m * k)
    labels = [f"({i},{j})" for i in range(m) for j in range(k)]

    def enc(i, j):
        return i * k + j

    n = m * k
    table = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(k):
            row = table[enc(i, j)]
            for a in range(m):
                for b in range(k):
                    row[enc(a, b)] = enc(i, b)
    return validate_cayley(labels, table)


def _all_maps(degree):
    """All self-maps of {0..degree-1} as image tuples, lexicographic."""
    maps = [()]
    for _ in range(degree):
        maps = [m + (v,) for m in maps for v in range(degree)]
    return maps


def _compose(f, g):
    """(f.g)(x) = f(g(x))."""
    return tuple(f[g[x]] for x in range(len(f)))


def _map_label(images):
    return "".join(str(v) for v in images)


def _transformation_table(maps):
    index = {m: i for i, m in enumerate(maps)}
    table = [[index[_compose(f, g)] for g in maps] for f in maps]
    return [_map_label(m) for m in maps], table


def _build_full_transformation(spec):
    (degree,) = _expect_params(spec, 1)
    if degree > 4:
        raise ParameterOutOfRange("full_transformation degree capped at 4")
    labels, table = _transformation_table(_all_maps(degree))
    return validate_cayley(labels, table)


def _build_boolean_matrices(spec):
    (dim,) = _expect_params(spec, 1)
    if dim > 3:
        raise ParameterOutOfRange("boolean_matrices dimension capped at 3")
    count = 1 << (dim * dim)
    mats = []
    for code in range(count):
        bits = format(code, f"0{dim * dim}b")
        mats.append(tuple(tuple(int(bits[r * dim + c]) for c in range(dim)) for r in range(dim)))

    def bool_mul(a, b):
        return tuple(
            tuple(int(any(a[r][t] and b[t][c] for t in range(dim))) for c in range(dim))
            for r in range(dim)
        )

    index = {m: i for i, m in enumerate(mats)}
    labels = [format(code, f"0{dim * dim}b") for code in range(count)]
    table = [[index[bool_mul(a, b)] for b in mats] for a in mats]
    return validate_cayley(labels, table)


def _build_rees_matrix(spec):
    from .rees import rees_matrix_semigroup

    g_order, rows, cols = _expect_params(spec, 3)
    _check_order(g_order * rows * cols)
    group = _build_cyclic(CorpusSpec("cyclic", (g_order,)))
    rng = XorShift64Star(spec.seed)
    sandwich = [[rng.below(g_order) for _ in range(rows)] for _ in range(cols)]
    return rees_matrix_semigroup(group, rows, cols, sandwich)


def _build_direct_product(spec):
    if spec.params:
        raise ParameterOutOfRange("direct_product takes factor specs, not parameters")
    if len(spec.factors) != 2:
        raise ParameterOutOfRange("direct_product needs exactly two factors")
    first = build(spec.factors[0])
    second = build(spec.factors[1])
    _check_order(first.order * second.order)
    labels = [
        f"({la},{lb})" for la in first.labels for lb in second.labels
    ]
    nb = second.order
    n = first.order * nb
    table = [[0] * n for _ in range(n)]
    for a1 in range(first.order):
        for b1 in range(nb):
            row = table[a1 * nb + b1]
            ra, rb = first.rows[a1], second.rows[b1]
            for a2 in range(first.order):
                prod_a = ra[a2] * nb
                for b2 in range(nb):
                    row[a2 * nb + b2] = prod_a + rb[b2]
    return validate_cayley(labels, table)


def _build_random_transformation_subsemigroup(spec):
    degree, count = _expect_params(spec, 2)
    if degree > 4:
        raise ParameterOutOfRange("transformation degree capped at 4")
    rng = XorShift64Star(spec.seed)
    gens = {tuple(rng.below(degree) for _ in range(degree)) for _ in range(count)}
    # Every composite is a shorter one composed with one generator on the
    # right, so a breadth-first search under f -> f.g reaches them all.
    closed = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                prod = _compose(f, g)
                if prod not in closed:
                    closed.add(prod)
                    nxt.append(prod)
        frontier = nxt
    labels, table = _transformation_table(sorted(closed))
    return validate_cayley(labels, table)


_BUILDERS = {
    "cyclic": _build_cyclic,
    "left_zero": _build_left_zero,
    "right_zero": _build_right_zero,
    "rectangular_band": _build_rectangular_band,
    "full_transformation": _build_full_transformation,
    "boolean_matrices": _build_boolean_matrices,
    "rees_matrix": _build_rees_matrix,
    "direct_product": _build_direct_product,
    "random_transformation_subsemigroup": _build_random_transformation_subsemigroup,
}


def random_dist(support, seed, denominator_bound):
    """Seeded distribution strictly positive exactly on the given support.

    Spreads denominator_bound unit weights over the support, one at a time,
    starting from one unit per element; probabilities are weight/bound, so
    every denominator divides the bound.
    """
    if not support:
        raise EmptySupport("cannot place a distribution on the empty set")
    elements = support.elements()
    k = len(elements)
    if denominator_bound < k:
        raise ParameterOutOfRange(
            f"denominator_bound {denominator_bound} below support size {k}"
        )
    rng = XorShift64Star(seed)
    weights = [1] * k
    for _ in range(denominator_bound - k):
        weights[rng.below(k)] += 1
    return Dist._from_numerators(support.parent, denominator_bound, dict(zip(elements, weights)))
