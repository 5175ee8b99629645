"""Deterministic corpus constructors: stock semigroups and seeded instances.

Transformation composition is (f.g)(x) = f(g(x)) throughout: the right
factor acts first.  Under this convention constant maps form a LEFT-zero
kernel (c.g = c), so e.g. full_transformation(2) has kernel {"00", "11"}.

Tables are composed by array gathers: the transformation, cyclic,
rectangular-band, boolean-matrix, direct-product and Rees-matrix builders
form the whole table as numpy expressions over all pairs at once, and hand
validate_cayley that integer array.

Randomized kinds draw from xorshift64*, a fixed 64-bit shift-register
generator (shift triple 12/25/27, multiplier 0x2545F4914F6CDD1D), so the
corpus is reproducible bit-for-bit across implementations and platforms.

Runs of draws are read from a jump table, with no per-step loop.  The
state step s -> s^(s>>12), s^(s<<25), s^(s>>27) is linear over GF(2)^64:
each shift and XOR maps a XOR b to f(a) XOR f(b).  So the state t steps
after s is the XOR of the images of the parts of s; cut s into its 16
nibbles and it is the XOR, over nibble j with value v, of the state t
steps after the state holding v at nibble j and zeros elsewhere.  The
table _jump_table() holds those 16 x 16 x 64 states, built once by
stepping the 64 one-bit states as one numpy vector, so one reader of
output words, which below_many and random_dist share, reads up to 64
states with one gather and one XOR reduction; the output multiply wraps
mod 2^64 in uint64, as next_word does.  This is the jump-ahead of
Haramoto, Matsumoto, Nishimura, Panneton and L'Ecuyer (INFORMS J.
Computing 20, 2008) for Vigna's xorshift64* (ACM TOMS 42, 2016).

random_dist on a one-point support draws nothing: every draw below 1 is
0, so the one weight is the whole bound, and the generator is local to
the call, so skipping its draws changes no later value.  On k >= 2
points it needs only how many of its draws land on each index, so it
counts the same words by one np.bincount of their residues mod k, a
block of up to 64 words at a time, and keeps no list of draws.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import _check_order, validate_cayley
from .errors import EmptySet, ParameterOutOfRange
from .measure import Dist
from .rees import rees_matrix_semigroup

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

    def below_many(self, n, count):
        """count draws in [0, n): the values, and the state left behind, of
        count calls to below(n)."""
        if n < 1:
            raise ParameterOutOfRange(f"draw bound must be >= 1, got {n}")
        return [w % n for words in self._words(count) for w in words.tolist()]

    def _words(self, count):
        """Yield the next count outputs of next_word as uint64 arrays of at
        most 64, read from the jump table (module docstring), moving the
        state past each array before it is yielded."""
        table = _jump_table()
        while count > 0:
            m = min(count, 64)
            rows = _NIBBLE_ROWS + ((np.uint64(self.state) >> _NIBBLE_SHIFTS) & _NIBBLE_MASK)
            states = np.bitwise_xor.reduce(table.take(rows, axis=0), axis=0)[:m]
            self.state = int(states[-1])
            count -= m
            yield states * _MULTIPLIER


_NIBBLE_SHIFTS = np.arange(0, 64, 4, dtype=np.uint64)
_NIBBLE_ROWS = 16 * np.arange(16, dtype=np.uint64)
_NIBBLE_MASK = np.uint64(15)
_MULTIPLIER = np.uint64(XorShift64Star.MULTIPLIER)


@cache
def _jump_table():
    """Row 16*j + v, column t: the state t+1 steps after the state whose
    nibble j is v and whose other bits are 0 (a 16 x 16 x 64 table, with
    its first two axes flattened).  Built on first use, by stepping the 64
    one-bit states as one vector."""
    s = np.uint64(1) << np.arange(64, dtype=np.uint64)
    steps = np.empty((64, 64), dtype=np.uint64)
    for t in range(64):
        s ^= s >> np.uint64(12)
        s ^= s << np.uint64(25)
        s ^= s >> np.uint64(27)
        steps[:, t] = s
    # bit b of nibble j is bit 4j+b; the axes of table are (j, v, t)
    bits = steps.reshape(16, 4, 64)
    table = np.zeros((16, 16, 64), dtype=np.uint64)
    for b in range(4):
        has = (np.arange(16) >> b) & 1 == 1
        table[:, has, :] ^= bits[:, b, None, :]
    table.flags.writeable = False  # one table, shared by every caller
    return table.reshape(256, 64)


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
    if spec.factors:
        raise ParameterOutOfRange(f"{spec.kind} takes parameters, not factor specs")
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
    r = np.arange(n)
    return validate_cayley(labels, np.add.outer(r, r) % n)


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
    # (i,j)*(a,b) = (i,b), coded i*k + b; axes are (i, j, a, b)
    codes = np.arange(m).reshape(m, 1, 1, 1) * k + np.arange(k)
    n = m * k
    return validate_cayley(labels, np.broadcast_to(codes, (m, k, m, k)).reshape(n, n))


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
    """Labels and Cayley table (an int16 array) of a composition-closed list
    of maps.

    Every composite f.g is coded base degree, image of 0 first, one
    coordinate at a time: (f.g)(x) = m[f, m[g, x]] is one gather over all
    pairs.  A lookup array indexed by code turns codes into positions in
    maps (-1 for a code outside the list, which validate_cayley rejects)."""
    n, degree = len(maps), len(maps[0])
    m = np.array(maps, dtype=np.int16)
    code = np.zeros((n, n), dtype=np.int16)
    own = np.zeros(n, dtype=np.int16)
    for x in range(degree):
        code = code * degree + m[:, m[:, x]]
        own = own * degree + m[:, x]
    index = np.full(degree**degree, -1, dtype=np.int16)
    index[own] = np.arange(n)
    return [_map_label(f) for f in maps], index[code]


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
    # A matrix is its row-major bit string read as an int, which is also its
    # element index: entry (r, j) is bit dim*dim-1 - (r*dim + j), and row r
    # is a dim-bit mask, the first row highest.
    count = 1 << (dim * dim)
    codes = np.arange(count, dtype=np.int16)[:, None]
    entries = (codes >> np.arange(dim * dim - 1, -1, -1, dtype=np.int16)) & 1
    row_shifts = dim * np.arange(dim - 1, -1, -1, dtype=np.int16)
    rows = (codes >> row_shifts) & ((1 << dim) - 1)
    # Row r of a*b is the OR of the rows j of b with entry (r, j) of a set;
    # axes are (a, b, r, j).
    product = np.bitwise_or.reduce(
        entries.reshape(count, 1, dim, dim) * rows[None, :, None, :], axis=3
    )
    labels = [format(code, f"0{dim * dim}b") for code in range(count)]
    return validate_cayley(labels, (product << row_shifts).sum(axis=2))


def _build_rees_matrix(spec):
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
    # (a1,b1)*(a2,b2) = (a1*a2, b1*b2), coded a*nb + b; axes are (a1, b1, a2, b2)
    fa = first.table_array()[:, None, :, None]
    sb = second.table_array()[None, :, None, :]
    return validate_cayley(labels, (fa * nb + sb).reshape(n, n))


def _build_random_transformation_subsemigroup(spec):
    degree, count = _expect_params(spec, 2)
    if degree > 4:
        raise ParameterOutOfRange("transformation degree capped at 4")
    rng = XorShift64Star(spec.seed)
    # Drawing stops once every map has been drawn: further draws change
    # neither the set nor the table, and the count may be huge.
    gens = set()
    for _ in range(count):
        gens.add(tuple(rng.below(degree) for _ in range(degree)))
        if len(gens) == degree**degree:
            break
    # Every composite is a shorter one composed with one generator on the
    # right, so a breadth-first search under f -> f.g reaches them all; it
    # stops once it holds every map.
    closed = set(gens)
    frontier = list(gens)
    while frontier and len(closed) < degree**degree:
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
        raise EmptySet("cannot place a distribution on the empty set")
    elements = support.elements()
    k = len(elements)
    if denominator_bound < k:
        raise ParameterOutOfRange(
            f"denominator_bound {denominator_bound} below support size {k}"
        )
    if k == 1:
        weights = [denominator_bound]
    else:
        # Only how many draws land on each index matters, so each block of
        # words is counted by one bincount of its residues mod k.
        counts = np.ones(k, dtype=np.int64)
        for words in XorShift64Star(seed)._words(denominator_bound - k):
            counts += np.bincount((words % np.uint64(k)).astype(np.intp), minlength=k)
        weights = counts.tolist()
    return Dist._from_numerators(support.parent, denominator_bound, dict(zip(elements, weights)))
