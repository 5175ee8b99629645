"""Output checks for limit reports, independent of semiconv's arithmetic.

A distribution here is a dict {element index: Fraction} over its support,
and a table is the Cayley table the benchmark generated (rows of element
indices).  Convolution is the plain definition over the table in
``fractions.Fraction``; it shares no code with ``semiconv.measure``.

For the walk mu, the report's averaged limit nu is pinned down by
nu*nu = nu, mu*nu = nu = nu*mu and supp nu = kernel(<supp mu>).  The
cluster is checked as a cycle: eta*eta = eta, cluster[0] = eta,
mu*cluster[k] = cluster[k+1 mod p], and the cluster averages to nu.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction


def convolve(rows, first, second):
    out = {}
    for x, p in first.items():
        row = rows[x]
        for y, q in second.items():
            z = row[y]
            out[z] = out.get(z, 0) + p * q
    return {z: v for z, v in out.items() if v}


def generated(rows, gens):
    """Closure of ``gens`` under the product."""
    closed = set(gens)
    frontier = list(closed)
    while frontier:
        nxt = []
        for f in frontier:
            for g in list(closed):
                for z in (rows[f][g], rows[g][f]):
                    if z not in closed:
                        closed.add(z)
                        nxt.append(z)
        frontier = nxt
    return closed


def kernel_of(rows, elements):
    """Least ideal of the subsemigroup ``elements``.

    The product w of all its elements lies in the kernel K (an ideal, and
    one factor is in K), and K = T1 w T1 for any w in K.
    """
    order = sorted(elements)
    w = order[0]
    for t in order[1:]:
        w = rows[w][t]
    left = {rows[t][w] for t in order} | {w}
    return left | {rows[x][t] for x in left for t in order}


def limit_problems(rows, mu, nu, eta, cluster, p):
    """Return the failed clauses for one limit report (empty when it holds)."""
    problems = []
    if sum(nu.values()) != 1 or any(v <= 0 for v in nu.values()):
        problems.append("nu is not a probability vector")
    if convolve(rows, nu, nu) != nu:
        problems.append("nu*nu != nu")
    if convolve(rows, mu, nu) != nu or convolve(rows, nu, mu) != nu:
        problems.append("mu*nu != nu or nu*mu != nu")
    if set(nu) != kernel_of(rows, generated(rows, mu)):
        problems.append("supp nu != kernel(<supp mu>)")
    if convolve(rows, eta, eta) != eta:
        problems.append("eta*eta != eta")
    if len(cluster) != p or p < 1:
        problems.append(f"cluster has {len(cluster)} entries for period {p}")
    elif cluster[0] != eta:
        problems.append("cluster does not start at eta")
    else:
        for k in range(p):
            if convolve(rows, mu, cluster[k]) != cluster[(k + 1) % p]:
                problems.append(f"mu*cluster[{k}] != cluster[{(k + 1) % p}]")
                break
        average = {}
        for member in cluster:
            for z, v in member.items():
                average[z] = average.get(z, 0) + v / p
        if average != nu:
            problems.append("cluster does not average to nu")
    return problems


def digest(labels, nu, eta, p, cluster):
    """Short hash of (nu, eta, p, cluster) by element label.

    All four are fixed by the walk, whatever order the table lists its
    elements in.  The coset generator gamma is left out: the report picks
    it as the least element index of a coset of the anchor group, which
    depends on that order; the cluster cycle carries the same information.
    q is left out too: its meaning is due to change (support cycle versus
    cluster period).
    """
    def by_label(dist):
        return {labels[z]: f"{v.numerator}/{v.denominator}" for z, v in dist.items()}

    text = json.dumps(
        {"nu": by_label(nu), "eta": by_label(eta), "p": p, "cluster": [by_label(c) for c in cluster]},
        sort_keys=True,
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


def fraction(value):
    """Any rational (Fraction, mpq, "p/q" string) as a Fraction."""
    if isinstance(value, str):
        num, den = value.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(value.numerator), int(value.denominator))
