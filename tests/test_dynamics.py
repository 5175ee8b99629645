"""Convolution powers, averaged limits, cluster cycles, and diagnostics.

Expected values are derived by hand in comments or recomputed inline with
direct loops; composition in full transformation semigroups is mul(f, g)
= f(g(x)), so constants absorb on the left.
"""

import ast
import dataclasses
import fractions
import math
import re
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cesaro_deviations_by_average,
    coset_algebra,
    fraction_nullspace,
    is_idempotent_measure,
    solve,
    tv_distance,
)

from semiconv import (
    CorpusSpec,
    Dist,
    GroupStructure,
    LimitReport,
    MalformedInput,
    MismatchedParent,
    NotSimple,
    RAT,
    SingularDecomposition,
    TheoremViolation,
    VerificationFailed,
    XorShift64Star,
    analyze_limit,
    build,
    cesaro_average,
    cesaro_deviation,
    cesaro_diagnostic,
    cesaro_limit,
    convolve,
    dirac,
    element_power_cluster,
    float_shadow,
    generated_subsemigroup,
    haar_uniform,
    marginals,
    power,
    random_dist,
    rees_decompose,
    support,
    support_period,
    translate,
    uniform_on,
    validate_cayley,
    variation_norm,
)
from semiconv import core, dynamics, measure, rees, verify
from semiconv._rat import ONE, ZERO
from semiconv.cli import main
from semiconv.serialize import dist_to_json, dumps_canonical, semigroup_to_json


# What limit_clauses_by_brute returns when every clause holds.
ALL_CLAUSES_HOLD = dict.fromkeys(dynamics.LIMIT_CLAUSES, True)


def cyclic(n):
    return build(CorpusSpec("cyclic", (n,)))


def t_full(n):
    return build(CorpusSpec("full_transformation", (n,)))


def t2_walk():
    # half swap, half the constant map 0
    t2 = t_full(2)
    return Dist.from_mapping(t2, {"10": RAT(1, 2), "00": RAT(1, 2)})


def test_power_matches_iterated_convolve():
    z4 = cyclic(4)
    mu = Dist(z4, (RAT(1, 2), RAT(1, 4), RAT(1, 8), RAT(1, 8)))
    acc = mu
    for n in range(1, 9):
        assert power(mu, n) == acc
        acc = convolve(acc, mu)
    t2 = t_full(2)
    nu = Dist.from_mapping(t2, {"10": RAT(1, 3), "00": RAT(2, 3)})
    assert power(nu, 5) == convolve(convolve(convolve(convolve(nu, nu), nu), nu), nu)
    with pytest.raises(MalformedInput):
        power(mu, 0)


def test_cesaro_average_small_cases():
    z4 = cyclic(4)
    d1 = dirac(z4, 1)
    assert cesaro_average(d1, 1) == d1
    # (delta_1 + delta_2) / 2
    assert cesaro_average(d1, 2) == Dist(z4, (RAT(0), RAT(1, 2), RAT(1, 2), RAT(0)))
    assert cesaro_average(d1, 4) == haar_uniform_on_cyclic(z4)
    with pytest.raises(MalformedInput):
        cesaro_average(d1, 0)


def haar_uniform_on_cyclic(sg):
    return uniform_on(sg.carrier())


def test_variation_norm_and_tv():
    z2 = cyclic(2)
    a = dirac(z2, 0)
    b = dirac(z2, 1)
    assert variation_norm(a, b) == RAT(2)
    assert tv_distance(a, b) == RAT(1)
    c = Dist(z2, (RAT(3, 4), RAT(1, 4)))
    d = Dist(z2, (RAT(1, 4), RAT(3, 4)))
    assert variation_norm(c, d) == RAT(1)
    assert tv_distance(c, d) == RAT(1, 2)
    assert variation_norm(c, c) == RAT(0)
    with pytest.raises(MismatchedParent):
        variation_norm(a, dirac(cyclic(2), 0))


def test_cesaro_limit_alternating_walk():
    # delta_1 on Z2 alternates between delta_1 and delta_0; the average
    # converges to the uniform distribution
    z2 = cyclic(2)
    nu = cesaro_limit(dirac(z2, 1))
    assert nu == Dist(z2, (RAT(1, 2), RAT(1, 2)))
    assert convolve(nu, dirac(z2, 1)) == nu
    assert is_idempotent_measure(nu)


def test_cesaro_limit_differs_from_power_cycle():
    # half swap + half constant-0 on maps of {0,1}: the supports of the
    # powers alternate forever, yet the powers themselves converge to a
    # single distribution, so the cluster is a fixed point
    mu = t2_walk()
    t2 = mu.parent
    assert support_period(mu) == (2, 2)
    nu = cesaro_limit(mu)
    expected = Dist.from_mapping(t2, {"00": RAT(2, 3), "11": RAT(1, 3)})
    assert nu == expected
    # nu is the fixed point of convolution by mu on both sides
    assert convolve(mu, nu) == nu and convolve(nu, mu) == nu
    # and the straight powers approach it: exact gap halves every step
    assert variation_norm(power(mu, 8), nu) < variation_norm(power(mu, 4), nu)


def test_support_period_cyclic():
    z4 = cyclic(4)
    u13 = Dist(z4, (RAT(0), RAT(1, 2), RAT(0), RAT(1, 2)))
    # supports: {1,3} -> {0,2} -> {1,3}
    assert support_period(u13) == (1, 2)
    assert support_period(dirac(z4, 1)) == (1, 4)
    assert support_period(uniform_on(z4.carrier())) == (1, 1)


def test_element_power_cluster_transformations():
    t3 = t_full(3)
    # the 3-cycle: powers run 120 -> 201 -> identity -> 120
    pc = element_power_cluster(t3, t3.index("120"))
    assert (pc.q, pc.p) == (1, 3)
    assert sorted(pc.cluster.labels()) == ["012", "120", "201"]
    assert t3.label(pc.idempotent) == "012"
    # 110 squares to the constant map 1 and stays there
    pc = element_power_cluster(t3, t3.index("110"))
    assert (pc.q, pc.p) == (2, 1)
    assert pc.cluster.labels() == ("111",)
    assert t3.label(pc.idempotent) == "111"
    # idempotents are their own cluster
    for lab in ("012", "000"):
        pc = element_power_cluster(t3, t3.index(lab))
        assert (pc.q, pc.p) == (1, 1)
        assert t3.label(pc.idempotent) == lab


@pytest.mark.parametrize("a", [-1, 3])
def test_element_power_cluster_rejects_an_index_out_of_range(a):
    with pytest.raises(MalformedInput, match="element index out of range"):
        element_power_cluster(cyclic(3), a)


def test_element_power_cluster_brute_force():
    # cross-check q, p, and the cluster set against a direct power walk
    t3 = t_full(3)
    for a in range(t3.order):
        seen = {}
        powers = [None]
        cur = a
        k = 1
        while cur not in seen:
            seen[cur] = k
            powers.append(cur)
            cur = t3.mul(cur, a)
            k += 1
        q = seen[cur]
        p = k - q
        pc = element_power_cluster(t3, a)
        assert (pc.q, pc.p) == (q, p)
        assert sorted(pc.cluster.elements()) == sorted(set(powers[q:]))


def patch_power_cycle_call(monkeypatch, which, change):
    # The walk's answer on call number `which` (0: the powers of a, 1: the
    # powers of a*e) is passed through `change`; other calls are left alone.
    real = dynamics._power_cycle
    calls = []

    def patched(base):
        q, cycle, reached = real(base)
        calls.append(base)
        if len(calls) - 1 == which:
            cycle = change(cycle)
        return q, cycle, reached

    monkeypatch.setattr(dynamics, "_power_cycle", patched)


def test_an_orbit_of_a_times_e_one_set_short_fails_the_generator_check(monkeypatch):
    # On Z6 the powers of 1 run 1, 2, ..., 5, 0 with e = 0, and a*e = 1 has
    # six powers; a walk that reports five of them does not generate C.
    patch_power_cycle_call(monkeypatch, 1, lambda cycle: cycle[:-1])
    with pytest.raises(VerificationFailed, match="cycle is not generated by a\\*e"):
        element_power_cluster(cyclic(6), 1)


def test_a_rotated_power_cycle_fails_the_idempotent_check(monkeypatch):
    # Rotating the cycle of 1 in Z6 by one puts 1, not 0, at index -q % p.
    patch_power_cycle_call(monkeypatch, 0, lambda cycle: cycle[1:] + cycle[:1])
    with pytest.raises(VerificationFailed, match="a\\^\\(rp\\) is not idempotent"):
        element_power_cluster(cyclic(6), 1)


def test_analyze_limit_alternating_walk():
    z2 = cyclic(2)
    rep = analyze_limit(dirac(z2, 1))
    assert rep.nu == Dist(z2, (RAT(1, 2), RAT(1, 2)))
    assert (rep.q, rep.p) == (1, 2)
    assert rep.eta == dirac(z2, 0)
    assert rep.cluster == (dirac(z2, 0), dirac(z2, 1))
    assert len(rep.H.carrier) == 1 and z2.label(rep.gamma) == "1"
    assert len(rep.checks) == 21 and all(rep.checks.values())


def test_analyze_limit_coset_walk():
    # on Z6 with support {2,5} = 2 + {0,3}: the limit is uniform, the
    # cluster cycles through the three cosets of H = {0,3}
    z6 = cyclic(6)
    mu = Dist.from_mapping(z6, {"2": RAT(1, 2), "5": RAT(1, 2)})
    rep = analyze_limit(mu)
    assert rep.nu == uniform_on(z6.carrier())
    assert (rep.q, rep.p) == (1, 3)
    assert rep.H.carrier.labels() == ("0", "3")
    assert z6.label(rep.gamma) == "2"
    assert rep.eta == uniform_on(z6.subset_of_labels(["0", "3"]))
    supports = [sorted(c.support().labels()) for c in rep.cluster]
    assert supports == [["0", "3"], ["2", "5"], ["1", "4"]]
    # p * |H| = |G|
    assert rep.p * len(rep.H.carrier) == len(rep.rees.group.carrier)


def test_analyze_limit_contracting_walk():
    # the T2 counterexample walk: support cycle has period 2 but the
    # cluster is a single point, so the report separates the two notions
    mu = t2_walk()
    rep = analyze_limit(mu)
    assert (rep.q, rep.p) == (2, 1)
    assert rep.cluster == (rep.nu,)
    assert rep.eta == rep.nu
    assert rep.nu == Dist.from_mapping(mu.parent, {"00": RAT(2, 3), "11": RAT(1, 3)})
    assert all(rep.checks.values())


def point_mass(spec, label):
    sg = build(spec)
    return dirac(sg, sg.index(label))


def product_spec(first, second):
    return CorpusSpec("direct_product", (), factors=(first, second))


def t2_by_z3_walk():
    # t2_walk() on the first coordinate (support period 2, cluster period 1)
    # times the rotation 1 on Z3: support period 6, cluster period 3
    sg = build(product_spec(CorpusSpec("full_transformation", (2,)), CorpusSpec("cyclic", (3,))))
    return Dist.from_mapping(sg, {"(10,1)": RAT(1, 2), "(00,1)": RAT(1, 2)})


def fold_walk():
    # half ((0,0),2), half ((1,1),5) on rectangular_band(2,2) x Z6: the kernel
    # is the whole table with |L| = |R| = 2 and |G| = 6, and the walk has
    # q = 3, p = 3 and H = {0,3} in the Z6 coordinate, so the fold R*L in H
    # is not trivial
    sg = build(
        product_spec(CorpusSpec("rectangular_band", (2, 2)), CorpusSpec("cyclic", (6,)))
    )
    return Dist.from_mapping(sg, {"((0,0),2)": RAT(1, 2), "((1,1),5)": RAT(1, 2)})


def test_a_walk_whose_fold_is_not_trivial_passes_every_brute_clause():
    mu = fold_walk()
    rep = analyze_limit(mu)
    dec = rep.rees
    assert (rep.q, rep.p) == (3, 3)
    assert (len(dec.left), dec.group.order, len(dec.right), rep.H.order) == (2, 6, 2, 2)
    assert rep.H.carrier.labels() == ("((0,0),0)", "((0,0),3)")
    assert limit_clauses_by_brute(mu, rep) == ALL_CLAUSES_HOLD


KNOWN_PERIOD_WALKS = [
    *[
        pytest.param(
            lambda n=n, a=a: dirac(cyclic(n), a), n // math.gcd(a, n), id=f"delta_{a} on Z{n}"
        )
        for n, a in ((2, 1), (4, 1), (4, 2), (6, 4), (12, 8), (30, 12), (30, 0))
    ],
    pytest.param(t2_walk, 1, id="t2_walk"),
    pytest.param(t2_by_z3_walk, 3, id="t2_walk x rotation on Z3"),
    pytest.param(
        lambda: point_mass(
            product_spec(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (2,))), "(a,1)"
        ),
        2,
        id="point mass on left_zero(2) x Z2",
    ),
    pytest.param(
        lambda: point_mass(CorpusSpec("rees_matrix", (4, 2, 1), seed=13), "(0,1,0)"),
        4,
        id="point mass on rees_matrix(4,2,1)",
    ),
    pytest.param(
        lambda: point_mass(CorpusSpec("rees_matrix", (2, 2, 2), seed=11), "(1,1,1)"),
        2,
        id="point mass on rees_matrix(2,2,2)",
    ),
]


@pytest.mark.parametrize("make_walk, period", KNOWN_PERIOD_WALKS)
def test_cluster_period_on_walks_of_known_period(make_walk, period):
    mu = make_walk()
    rep = analyze_limit(mu)
    assert rep.p == period
    assert limit_clauses_by_brute(mu, rep) == ALL_CLAUSES_HOLD
    # the float iteration, p steps at a time, converges to eta only when p
    # is a multiple of the true period and eta is the cluster identity
    assert float_shadow(mu, rep.eta, rep.p).converged


def test_analyze_limit_rejects_a_wrong_solve(monkeypatch):
    # The swap 10 lies off the kernel L = {00, 11} of full_transformation(2)
    # (G and R are one element), so lambda is solved over two states: nu =
    # 2/3 at 00, 1/3 at 11.  Swapping the two entries of that solve gives an
    # idempotent nu that mu does not fix: no report may come back.
    mu = t2_walk()
    real_solve = dynamics.integer_kernel_vector

    def swapped(rows):
        x = real_solve(rows)
        return x[::-1] if len(x) == 2 else x

    monkeypatch.setattr(dynamics, "integer_kernel_vector", swapped)
    with pytest.raises(VerificationFailed, match="limit invariance"):
        analyze_limit(mu)


def test_analyze_limit_rejects_a_wrong_marginal(monkeypatch):
    # On a left zero semigroup every distribution is idempotent, and mu is
    # the only one that mu fixes on the left.  The kernel is L = {a, b}
    # with a one-element G and R, and supp(mu) lies in it, so lambda is the
    # walk's shared column, mu's L-marginal, mu itself.  Swapping its two
    # entries gives an idempotent nu that mu does not fix: no report may
    # come back.
    lz2 = build(CorpusSpec("left_zero", (2,)))
    mu = Dist(lz2, (RAT(1, 3), RAT(2, 3)))
    real_law = dynamics._fixed_law

    def swapped(mu, dec, side):
        law = real_law(mu, dec, side)
        if side:
            return law
        (a, p), (b, r) = law.items()
        return Dist.from_mapping(mu.parent, {a: r, b: p})

    monkeypatch.setattr(dynamics, "_fixed_law", swapped)
    with pytest.raises(VerificationFailed, match="limit invariance"):
        analyze_limit(mu)


def limit_exit_code(tmp_path, mu):
    """The exit code of semiconv limit on mu's table and mu, as files."""
    table, step = tmp_path / "table.json", tmp_path / "step.json"
    table.write_text(dumps_canonical(semigroup_to_json(mu.parent)), encoding="utf-8")
    step.write_text(dumps_canonical(dist_to_json(mu)), encoding="utf-8")
    return main(["limit", str(table), str(step)])


def test_analyze_limit_names_a_kernel_that_does_not_split(monkeypatch, tmp_path, capsys):
    def not_simple(carrier, at=None):
        raise NotSimple(carrier.parent.label(carrier.least()))

    monkeypatch.setattr(dynamics, "rees_decompose", not_simple)
    with pytest.raises(TheoremViolation, match="^theorem check failed: kernel completely simple"):
        analyze_limit(t2_walk())
    assert limit_exit_code(tmp_path, t2_walk()) == 3
    assert "kernel completely simple" in capsys.readouterr().err


def test_analyze_limit_rejects_a_solve_with_no_vector(monkeypatch, tmp_path, capsys):
    # The swap 10 lies off the kernel, so lambda is solved over two states;
    # a solve that finds no kernel vector leaves no law to fix.
    monkeypatch.setattr(dynamics, "integer_kernel_vector", lambda rows: None)
    with pytest.raises(SingularDecomposition, match="^no probability is fixed"):
        analyze_limit(t2_walk())
    assert limit_exit_code(tmp_path, t2_walk()) == 3
    assert "no probability is fixed" in capsys.readouterr().err


IN_KERNEL_WALKS = [
    pytest.param(
        lambda: Dist.from_mapping(cyclic(6), {"1": RAT(1, 3), "2": RAT(2, 3)}), id="cyclic(6)"
    ),
    pytest.param(
        lambda: Dist.from_mapping(
            build(CorpusSpec("rectangular_band", (3, 4))),
            {"(0,1)": RAT(1, 4), "(2,3)": RAT(1, 4), "(1,1)": RAT(1, 2)},
        ),
        id="rectangular_band(3,4)",
    ),
    pytest.param(
        lambda: point_mass(CorpusSpec("rees_matrix", (2, 2, 2), seed=11), "(1,1,1)"),
        id="rees_matrix(2,2,2)",
    ),
]


class SolveCalled(Exception):
    pass


def refuse_to_solve(rows):
    raise SolveCalled


@pytest.mark.parametrize("make_walk", IN_KERNEL_WALKS)
def test_walks_inside_the_kernel_take_no_solve(monkeypatch, make_walk):
    # supp(mu) in K: lambda and rho are mu's coordinate marginals, and no
    # elimination runs, for the report or for the Cesaro limit alone.
    mu = make_walk()
    assert support(mu).issubset(analyze_limit(mu).rees.carrier)
    monkeypatch.setattr(dynamics, "integer_kernel_vector", refuse_to_solve)
    rep = analyze_limit(mu)
    assert all(rep.checks.values())
    assert cesaro_limit(mu) == rep.nu


def test_walks_off_the_kernel_still_solve(monkeypatch):
    monkeypatch.setattr(dynamics, "integer_kernel_vector", refuse_to_solve)
    for run in (analyze_limit, cesaro_limit):
        with pytest.raises(SolveCalled):
            run(t2_walk())


def fixed_law_by_fraction_solve(mu, states, step):
    """Oracle for dynamics._fixed_law: the law on states fixed by x ->
    step(s, x), s drawn from mu, as one Fraction solve of (P - I) law = 0
    with the entries summing to one."""
    pos = {x: i for i, x in enumerate(states)}
    k = len(pos)
    rows = [[ZERO] * k for _ in range(k)]
    for i, x in enumerate(states):
        rows[i][i] -= ONE
        for s, p in mu.items():
            rows[pos[step(s, x)]][i] += p
    law = solve(rows + [[ONE] * k], [ZERO] * k + [ONE])
    return Dist.from_mapping(mu.parent, {x: v for x, v in zip(states, law) if v})


def laws_by_fraction_solve(mu, dec):
    """lambda and rho for the split dec, each by fixed_law_by_fraction_solve."""
    rows, coordinates = mu.parent.rows, dec.coordinates
    lam = fixed_law_by_fraction_solve(
        mu, dec.left.elements(), lambda s, x: coordinates[rows[s][x]][0]
    )
    rho = fixed_law_by_fraction_solve(
        mu, dec.right.elements(), lambda s, y: coordinates[rows[y][s]][2]
    )
    return lam, rho


def extended_corpus_walks(seed):
    return [
        mu
        for inst in verify.build_corpus("extended")
        for mu in verify._seeded_dists(inst, seed, 9, 2)
    ]


def t2_by_band_walks(n):
    # The uniform walk on full_transformation(2) x rectangular_band(n,1):
    # half its mass lies off K, and all |L| = 2n states step by one law, so
    # each side lumps to a single class, at sizes the corpora lack.
    t2 = CorpusSpec("full_transformation", (2,))
    sg = build(product_spec(t2, CorpusSpec("rectangular_band", (n, 1))))
    return [uniform_on(sg.carrier())]


@pytest.mark.parametrize(
    "corpus, seed",
    [
        *(("default", seed) for seed in range(4)),
        ("extended", 0),
        ("extended", 1),
        # for t2xrb the second entry is n
        ("t2xrb", 8),
        ("t2xrb", 16),
    ],
)
def test_fixed_laws_match_the_fraction_solve(corpus, seed):
    walks = {
        "default": default_corpus_walks,
        "extended": extended_corpus_walks,
        "t2xrb": t2_by_band_walks,
    }[corpus](seed)
    for mu in walks:
        dec = rees_decompose(core.kernel(generated_subsemigroup(support(mu))))
        lam, rho = laws_by_fraction_solve(mu, dec)
        assert dynamics._fixed_law(mu, dec, 0) == lam, mu
        assert dynamics._fixed_law(mu, dec, 2) == rho, mu


@pytest.mark.parametrize("seed", [0, 1])
def test_marginal_laws_match_the_solve_inside_the_kernel(seed):
    # On every in-K walk the fixed laws are the shared column, mu's L- and
    # R-coordinate marginals, and the Fraction solve stays their oracle.
    in_kernel = 0
    for mu in extended_corpus_walks(seed):
        dec = rees_decompose(core.kernel(generated_subsemigroup(support(mu))))
        if not support(mu).issubset(dec.carrier):
            continue
        in_kernel += 1
        lam, _, rho = marginals(mu, dec)
        assert dynamics._fixed_law(mu, dec, 0) == lam, mu
        assert dynamics._fixed_law(mu, dec, 2) == rho, mu
        assert laws_by_fraction_solve(mu, dec) == (lam, rho), mu
    assert in_kernel >= 40


def rotations_and_constants(m):
    """The maps x -> x+i (r_i) and x -> a (c_a) on {0..m-1}, composed right
    to left: r_i r_j = r_(i+j), r_i c_a = c_(a+i) and c_a s = c_a."""
    i, j = np.arange(m)[:, None], np.arange(2 * m)[None, :]
    rotations = (i + j) % m + np.where(j < m, 0, m)
    constants = np.broadcast_to(m + i, (m, 2 * m))
    labels = [f"r{a}" for a in range(m)] + [f"c{a}" for a in range(m)]
    return validate_cayley(labels, np.vstack([rotations, constants]))


def test_a_walk_that_lumps_nothing_solves_over_every_state():
    # Under 1/2 r_1 + 1/2 c_0 the walk sits at c_a once it has made k = a
    # mod m rotations before its first constant, so nu(c_a) = 2^(m-1-a) /
    # (2^m - 1).  The m left states each step by a different law, so
    # nothing lumps and the elimination runs over all m of them, at sizes
    # the corpora lack.
    for m in range(2, 65):
        mu = Dist.from_mapping(rotations_and_constants(m), {"r1": RAT(1, 2), "c0": RAT(1, 2)})
        report = analyze_limit(mu)
        assert (report.q, report.p) == (m, 1)
        want = {m + a: RAT(2 ** (m - 1 - a), 2**m - 1) for a in range(m)}
        assert dict(report.nu.items()) == want, m


def test_fixed_laws_make_no_fraction():
    # Every Fraction is made, and computed with, by Python code in the
    # fractions module, so a profile hook sees each one.
    sg = build(product_spec(CorpusSpec("rectangular_band", (3, 4)), CorpusSpec("cyclic", (2,))))
    mu = Dist.from_mapping(sg, {"((0,1),1)": RAT(1, 3), "((2,3),0)": RAT(2, 3)})
    dec = rees_decompose(core.kernel(generated_subsemigroup(support(mu))))
    seen = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            seen.append(frame.f_code.co_name)

    def watched(run):
        seen.clear()
        sys.setprofile(watch)
        try:
            return run()
        finally:
            sys.setprofile(None)

    lam = watched(lambda: dynamics._fixed_law(mu, dec, 0))
    assert seen == []
    rho = watched(lambda: dynamics._fixed_law(mu, dec, 2))
    assert seen == []
    # the kernel is {0, 2} x {1, 3} x Z2, entered at mu's two rows and columns
    assert lam == Dist.from_mapping(sg, {"((0,1),0)": RAT(1, 3), "((2,1),0)": RAT(2, 3)})
    assert rho == Dist.from_mapping(sg, {"((0,1),0)": RAT(1, 3), "((0,3),0)": RAT(2, 3)})
    # the hook does see one: mu's probabilities are made on first use
    watched(mu.items)
    assert seen


def spectral_limit(mu):
    """Reference Cesaro limit by spectral projection: nu spans the left
    nullspace of N = M - I over the reachable states (M the transition
    matrix), and mu = nu + w with w in the row range of N."""
    sg = mu.parent
    states = generated_subsemigroup(support(mu)).elements()
    pos = {z: i for i, z in enumerate(states)}
    k = len(states)
    n_rows = []
    for z in states:
        row = [ZERO] * k
        for s, p in mu.items():
            row[pos[sg.rows[z][s]]] += p
        row[pos[z]] -= ONE
        n_rows.append(row)
    nt = [list(col) for col in zip(*n_rows)]
    fixed = fraction_nullspace(nt)
    stacked = [[vec[i] for vec in fixed] + nt[i] for i in range(k)]
    coeffs = solve(stacked, [mu.probs[z] for z in states])
    probs = [ZERO] * sg.order
    for c, vec in zip(coeffs, fixed):
        for i, z in enumerate(states):
            probs[z] += c * vec[i]
    return Dist(sg, probs)


def test_cesaro_limit_matches_spectral_projection():
    # boolean_matrices(3), order 512, adds the one table over 300 elements;
    # the oracle solves over the generated states only, so it stays cheap
    big = CorpusSpec("boolean_matrices", (3,))
    instances = verify.build_corpus("default") + [verify.CorpusInstance(big.describe(), build(big))]
    periodic = 0
    for inst in instances:
        for seed in range(4):
            for mu in verify._seeded_dists(inst, seed, 9, 2):
                assert cesaro_limit(mu) == spectral_limit(mu), inst.name
                report = analyze_limit(mu)
                if report.p > 1:
                    periodic += 1
                    mu_p = power(mu, report.p)
                    assert cesaro_limit(mu_p) == spectral_limit(mu_p), inst.name
                    # the report's eta is lambda * omega_H * rho, not a solve on mu^p
                    assert report.eta == spectral_limit(mu_p), inst.name
    assert periodic >= 10


def test_report_distributions_pass_the_public_checks():
    # nu, eta and the cluster points are built through the support-only
    # constructor; each must also pass the dense checks of Dist(parent, probs)
    walks = 0
    for inst in verify.build_corpus("default"):
        for seed in range(4):
            for mu in verify._seeded_dists(inst, seed, 9, 2):
                report = analyze_limit(mu)
                for d in (report.nu, report.eta, *report.cluster):
                    assert Dist(d.parent, d.probs) == d, inst.name
                    assert hash(Dist(d.parent, d.probs)) == hash(d), inst.name
                walks += 1
    assert walks >= 100


def test_readme_library_example():
    # runs the README's "Library" block as printed; pins repr and (q, p)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    scope = {}
    exec(block, scope)
    report = scope["report"]
    assert repr(report.nu) == "Dist({00: 2/3, 11: 1/3})"
    assert (report.q, report.p) == (2, 1)
    assert len(report.checks) == 21 and all(report.checks.values())


def test_cesaro_diagnostic_series():
    # for delta_1 on Z2: averages alternate (0,1), (1/2,1/2), (1/3,2/3),
    # (1/2,1/2), ... so the deviation of mu_n from mu * mu_n is
    # 2, 0, 2/3, 0 and the gap to the uniform limit is 1, 0, 1/3, 0
    z2 = cyclic(2)
    mu = dirac(z2, 1)
    nu = cesaro_limit(mu)
    diag = cesaro_diagnostic(mu, 4, nu)
    assert diag.deviations == (RAT(2), RAT(0), RAT(2, 3), RAT(0))
    assert diag.limit_gaps == (RAT(1), RAT(0), RAT(1, 3), RAT(0))
    with pytest.raises(MalformedInput):
        cesaro_diagnostic(mu, 0, nu)


def test_the_diagnostic_deviations_match_the_two_convolution_form():
    # mu^(n+1) against mu gives every deviation the average and mu * avg_n
    # gave, over the default corpus and a wide walk on cyclic(40).
    walks = [uniform_on(cyclic(40).subset(range(0, 40, 3)))]
    for inst in verify.build_corpus("default"):
        walks += verify._seeded_dists(inst, 0, 10, 2)
    for mu in walks:
        diag = cesaro_diagnostic(mu, 12, cesaro_limit(mu))
        assert diag.deviations == cesaro_deviations_by_average(mu, 12), mu
        assert all(type(v) is RAT for v in diag.deviations)


def test_the_diagnostic_makes_one_convolution_a_step(monkeypatch):
    mu = uniform_on(cyclic(12).subset([1, 4]))
    nu = cesaro_limit(mu)
    calls = Counter()

    def counted(first, second):
        calls["convolve"] += 1
        return convolve(first, second)

    monkeypatch.setattr(dynamics, "convolve", counted)
    for n_max in (1, 2, 16):
        calls.clear()
        cesaro_diagnostic(mu, n_max, nu)
        assert calls["convolve"] == n_max


def test_cesaro_deviation_bound():
    z2 = cyclic(2)
    d1 = dirac(z2, 1)
    assert cesaro_deviation(d1, 3, 1) == RAT(2, 3)
    assert cesaro_deviation(d1, 3, 2) == RAT(0)
    # the 2j/n bound holds on a worst-case point mass
    for n in range(1, 9):
        for j in range(1, 4):
            assert cesaro_deviation(d1, n, j) <= RAT(2 * j, n)


def test_float_shadow_converges():
    z4 = cyclic(4)
    mu = Dist(z4, (RAT(1, 2), RAT(1, 2), RAT(0), RAT(0)))
    eta = uniform_on(z4.carrier())
    rep = float_shadow(mu, eta, step=1)
    assert rep.converged and rep.non_increasing
    assert rep.gaps[-1] < 1e-9
    assert rep.iterations_to_tolerance == len(rep.gaps) - 1


def test_float_shadow_periodic_step():
    # stepping by the period lands exactly on eta immediately
    z2 = cyclic(2)
    rep = float_shadow(dirac(z2, 1), dirac(z2, 0), step=2)
    assert rep.converged and rep.iterations_to_tolerance == 0


def test_float_shadow_rejects_a_foreign_eta_and_a_step_below_one():
    # Each of these once ran: the foreign eta has the same probabilities, so
    # it "converged", and step 0 or -1 iterated the identity or an inverse.
    z3 = cyclic(3)
    lz3 = build(CorpusSpec("left_zero", (3,)))
    with pytest.raises(MismatchedParent, match="different semigroups"):
        float_shadow(uniform_on(z3.carrier()), uniform_on(lz3.carrier()), 1)
    for step in (0, -1):
        with pytest.raises(MalformedInput, match="step must be >= 1"):
            float_shadow(dirac(z3, 1), dirac(z3, 1), step)


def default_corpus_walks(seed):
    return [
        mu
        for inst in verify.build_corpus("default")
        for mu in verify._seeded_dists(inst, seed, 9, 2)
    ]


def limit_clauses_by_brute(mu, report):
    """Each of dynamics.LIMIT_CLAUSES, in that order, mapped to whether it
    holds, recomputed on the report's values with every product made
    afresh: no clause is read off another, and H, the gamma set and the
    cosets come from table rows."""
    sg = mu.parent
    rows = sg.rows
    nu, eta, cluster, p, dec = report.nu, report.eta, report.cluster, report.p, report.rees
    e, g_set, h_set, gamma = dec.base, dec.group.carrier, report.H.carrier, report.gamma
    eta_left, _, eta_right = marginals(eta, dec)

    def lgr(middle):
        return core.product_sets(core.product_sets(dec.left, middle), dec.right)

    def factor(middle):
        return convolve(convolve(eta_left, middle), eta_right)

    # H from a full group test on its carrier: same carrier, identity e and
    # the same inverse for every h
    brute_h = core.group_structure(h_set)
    assert (report.H.carrier, report.H.identity, report.H.inverses) == (
        brute_h.carrier,
        brute_h.identity,
        brute_h.inverses,
    )
    haar_h = haar_uniform(report.H)
    mu_p = power(mu, p)
    gamma_set = sg.subset(rows[e][rows[z][e]] for z in support(convolve(mu, eta)))
    gamma_coset = sg.subset(rows[gamma][h] for h in h_set)
    gamma_pows = [e]
    for _ in range(p):
        gamma_pows.append(sg.mul(gamma_pows[-1], gamma))
    cosets = [sg.subset(rows[gamma_pows[k]][h] for h in h_set) for k in range(p)]
    union = sg.empty()
    for cos in cosets:
        union = union | cos
    clauses = {
        "nu_idempotent": convolve(nu, nu) == nu,
        "nu_invariant": convolve(mu, nu) == nu == convolve(nu, mu),
        "support_nu_is_kernel": support(nu) == core.kernel(generated_subsemigroup(support(mu))),
        "support_nu_product": support(nu) == lgr(g_set),
        "eta_idempotent": convolve(eta, eta) == eta,
        "subgroup_in_group": h_set.issubset(g_set)
        and h_set == sg.subset(rows[e][rows[z][e]] for z in support(eta)),
        "eta_support_product": support(eta) == lgr(h_set),
        "subgroup_normal": all(
            sg.subset(rows[rows[g][h]][dec.group.inv(g)] for h in h_set) == h_set for g in g_set
        ),
        "gamma_coset": gamma == gamma_set.least() and gamma_set == gamma_coset,
        "gamma_representative_independent": all(
            sg.subset(rows[z][h] for h in h_set) == gamma_coset for z in gamma_set
        ),
        "period_matches_quotient": p * len(h_set) == len(g_set),
        "eta_power_invariant": convolve(mu_p, eta) == eta == convolve(eta, mu_p),
        "coset_powers_exhaust": len({cos.mask for cos in cosets}) == p and union == g_set,
        "gamma_power_in_subgroup": gamma_pows[p] in h_set,
        "cluster_distinct": len(set(cluster)) == p,
        "cluster_closed_cyclic": verify.cluster_closed_by_sweep(cluster),
        "cluster_supports_cosets": all(support(cluster[k]) == lgr(cosets[k]) for k in range(p)),
        "cluster_factorization": all(
            factor(translate(haar_h, gamma_pows[k], "left"))
            == cluster[k]
            == (eta if k == 0 else convolve(power(mu, k), eta))
            for k in range(p)
        ),
        "nu_factorization": factor(haar_uniform(dec.group)) == nu,
        "eta_factorization": factor(haar_h) == eta,
        "marginal_readings_agree": marginals(eta, rees_decompose(support(eta), at=e))
        == marginals(eta, dec),
    }
    assert list(clauses) == list(dynamics.LIMIT_CLAUSES)
    return clauses


def test_the_report_checks_are_the_declared_clauses():
    # LIMIT_CLAUSES is the one list of the clause names and their order:
    # the report's checks and the brute oracle follow it, and each access to
    # checks makes a new dict.
    assert len(set(dynamics.LIMIT_CLAUSES)) == len(dynamics.LIMIT_CLAUSES) == 21
    assert "checks" not in {f.name for f in dataclasses.fields(LimitReport)}
    mu = fold_walk()
    rep = analyze_limit(mu)
    checks = rep.checks
    assert list(checks.items()) == list(ALL_CLAUSES_HOLD.items())
    assert rep.checks is not checks
    checks["nu_idempotent"] = False
    assert rep.checks == ALL_CLAUSES_HOLD
    assert list(limit_clauses_by_brute(mu, rep)) == list(dynamics.LIMIT_CLAUSES)


def test_only_the_computed_clauses_are_named_outside_the_declared_list():
    # Each clause name is a string literal once in the package, in
    # LIMIT_CLAUSES, and a second time only for the six that analyze_limit
    # computes, where it raises.  A proven clause has no statement.
    computed = {
        "support_nu_is_kernel",
        "eta_idempotent",
        "subgroup_normal",
        "gamma_coset",
        "period_matches_quotient",
        "eta_power_invariant",
    }
    names = set(dynamics.LIMIT_CLAUSES)
    written = Counter(
        node.value
        for path in Path(dynamics.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value in names
    )
    assert written == {name: 1 + (name in computed) for name in names}


@pytest.mark.parametrize("seed", range(4))
def test_cluster_closure_from_the_generator_matches_the_pair_sweep(seed):
    # cluster_closed_cyclic is recorded from the fold and the coset
    # factorization of c_k = mu^k * eta; the p^2 sweep agrees, and so does
    # every other clause the report records
    for mu in default_corpus_walks(seed):
        report = analyze_limit(mu)
        assert report.checks["cluster_closed_cyclic"] is True
        assert verify.cluster_closed_by_sweep(report.cluster) is True
        assert limit_clauses_by_brute(mu, report) == ALL_CLAUSES_HOLD, mu.parent


@pytest.mark.parametrize("n", [2, 3, 12, 30])
def test_cluster_closure_on_point_masses_of_full_period(n):
    mu = dirac(cyclic(n), 1)
    rep = analyze_limit(mu)
    assert rep.p == n and rep.checks["cluster_closed_cyclic"]
    assert verify.cluster_closed_by_sweep(rep.cluster) is True
    assert limit_clauses_by_brute(mu, rep) == ALL_CLAUSES_HOLD


def test_an_open_cluster_list_fails_the_pair_sweep():
    # On left_zero(2) x Z4, (u, g) * (v, h) = (u, g + h), and mu = half
    # (a,1), half (b,1) cycles through c_k = uniform on {(a,k), (b,k)}.
    # Putting 1/3 (a,j) + 2/3 (b,j) in place of c_j keeps its support, but
    # eta * c_j = c_j fails.  Each j on its own must be caught, so the sweep
    # may not skip a point of the cycle.
    sg = build(product_spec(CorpusSpec("left_zero", (2,)), CorpusSpec("cyclic", (4,))))
    mu = Dist.from_mapping(sg, {"(a,1)": RAT(1, 2), "(b,1)": RAT(1, 2)})
    rep = analyze_limit(mu)
    assert [c.support().labels() for c in rep.cluster] == [
        (f"(a,{k})", f"(b,{k})") for k in range(4)
    ]
    assert rep.checks["cluster_closed_cyclic"] and verify.cluster_closed_by_sweep(rep.cluster)
    for j in range(1, 4):
        open_point = Dist.from_mapping(sg, {f"(a,{j})": RAT(1, 3), f"(b,{j})": RAT(2, 3)})
        open_list = list(rep.cluster)
        open_list[j] = open_point
        assert not verify.cluster_closed_by_sweep(open_list), j


# The witness each coset clause names when G((b,1)) is misread as (a,2).
MISREAD_STEP_WITNESS = {
    "gamma_coset": "G(s*x)*H and gamma*H differ at (a,2)",
    "eta_power_invariant": "G(y*s) = (a,2) lies outside gamma*H",
}


@pytest.mark.parametrize(
    "first, clause", [("left_zero", "gamma_coset"), ("right_zero", "eta_power_invariant")]
)
def test_a_wrong_g_coordinate_stops_the_coset_map(monkeypatch, first, clause):
    # mu = half (a,1), half (b,1) on left_zero(2) x Z4 or right_zero(2) x Z4
    # steps every coset of H = {e} to the next, each G(s*x) and G(y*s) being
    # (a,1).  Reading G((b,1)) as (a,2) instead splits the steps of one
    # side over two cosets: on left_zero, (b,1)*x = (b,1) for x in L, so
    # the gamma set is no coset; on right_zero, y*(b,1) = (b,1) for y in R,
    # so eta * mu^p = eta no longer follows.
    sg = build(product_spec(CorpusSpec(first, (2,)), CorpusSpec("cyclic", (4,))))
    mu = Dist.from_mapping(sg, {"(a,1)": RAT(1, 2), "(b,1)": RAT(1, 2)})
    assert analyze_limit(mu).p == 4
    real = dynamics.rees_decompose
    b1, a2 = sg.index("(b,1)"), sg.index("(a,2)")

    def misread(carrier):
        dec = real(carrier)
        x, _, y = dec.coordinates[b1]
        return dataclasses.replace(dec, coordinates={**dec.coordinates, b1: (x, a2, y)})

    monkeypatch.setattr(dynamics, "rees_decompose", misread)
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(mu)
    assert exc.value.clause == clause
    # The misread coordinate (a,2) is the step that leaves the coset.
    assert str(exc.value) == f"theorem check failed: {clause} ({MISREAD_STEP_WITNESS[clause]})"


def test_support_nu_is_kernel_is_decided_without_building_supp_nu(monkeypatch):
    # supp(nu) lies in K by the split, so its size decides the clause; only
    # supp(mu) is built, for the support walk.
    built = []
    real = Dist.support
    monkeypatch.setattr(Dist, "support", lambda self: built.append(self) or real(self))
    for mu in (t2_walk(), uniform_on(cyclic(6).subset([1, 4]))):
        built.clear()
        assert analyze_limit(mu).checks["support_nu_is_kernel"]
        assert built == [mu]


def test_a_limit_that_misses_a_kernel_point_fails_support_nu_is_kernel(monkeypatch):
    # The kernel of t2_walk's subsemigroup is {00, 11}.  A point mass at the
    # base idempotent in place of nu misses 11.
    real = dynamics._limit_factors

    def point_mass_nu(mu, dec):
        _, lam, rho = real(mu, dec)
        return dirac(mu.parent, dec.base), lam, rho

    monkeypatch.setattr(dynamics, "_limit_factors", point_mass_nu)
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(t2_walk())
    assert exc.value.clause == "support_nu_is_kernel"
    assert str(exc.value) == (
        "theorem check failed: support_nu_is_kernel (supp(nu)=('00',), kernel=('00', '11'))"
    )


def test_a_fold_that_leaves_h_fails_eta_idempotent(monkeypatch):
    # On fold_walk, H = {0,3} in the Z6 coordinate is not G, and R*L is the
    # base idempotent ((0,0),0).  Reading R as R*((0,0),1) puts R*L at
    # ((0,0),1), outside H, so eta * eta = eta no longer follows.
    mu = fold_walk()
    sg = mu.parent
    real = dynamics.rees_decompose

    def shifted(carrier):
        dec = real(carrier)
        shift = sg.singleton(sg.index("((0,0),1)"))
        return dataclasses.replace(dec, right=core.product_sets(dec.right, shift))

    monkeypatch.setattr(dynamics, "rees_decompose", shifted)
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(mu)
    assert exc.value.clause == "eta_idempotent"
    # R*L is now {((0,0),1)}, the element that leaves H = {0,3}.
    assert str(exc.value) == "theorem check failed: eta_idempotent (R*L holds ((0,0),1) outside H)"


def test_a_wrong_inverse_of_gamma_fails_subgroup_normal(monkeypatch):
    # delta_1 on Z4 has H = {0} and gamma = 1.  Giving 1 the inverse 2, not
    # 3, conjugates H to {3}.
    mu = dirac(cyclic(4), 1)
    real = dynamics.rees_decompose

    def misinverted(carrier):
        dec = real(carrier)
        group = dec.group
        inverses = {**group.inverses, 1: 2}
        return dataclasses.replace(dec, group=GroupStructure(group.carrier, group.identity, inverses))

    monkeypatch.setattr(dynamics, "rees_decompose", misinverted)
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(mu)
    assert exc.value.clause == "subgroup_normal"
    # The conjugate {3} and H = {0} differ first at 0.
    assert str(exc.value) == (
        "theorem check failed: subgroup_normal (gamma*H*gamma^-1 and H differ at 0)"
    )


def test_limit_theorem_check_runs_the_pair_sweep(monkeypatch):
    monkeypatch.setattr(verify, "cluster_closed_by_sweep", lambda cluster: False)
    res = verify._run_law(verify._LAWS["limit_theorem"], verify.build_corpus("default")[:1], 0)
    assert (res.instances, res.witness) == (
        1,
        "cyclic(1): cluster cycle not closed under convolution",
    )


def test_analyze_limit_reads_nothing_back():
    # nu, eta and the cluster terms are coordinate products, so their
    # factorizations and supports hold by construction: no measure is read
    # back with marginals, no Haar measure is translated onto a coset and no
    # power of mu is taken, at any period.  The cluster cycle comes from the
    # coset map, so the only convolutions are the two of the invariance
    # check mu * nu = nu = nu * mu.  A profile hook sees every call, however
    # it is bound.
    watched = {
        measure.marginals.__code__,
        measure.translate.__code__,
        dynamics.power.__code__,
        measure.convolve.__code__,
    }
    seen = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            seen.append(frame.f_code.co_name)

    for mu, period in ((t2_walk(), 1), (dirac(cyclic(3), 1), 3), (dirac(cyclic(600), 1), 600)):
        seen.clear()
        sys.setprofile(watch)
        try:
            rep = analyze_limit(mu)
        finally:
            sys.setprofile(None)
        assert rep.p == period and rep.checks["marginal_readings_agree"]
        assert seen == ["convolve", "convolve"], period


def test_analyze_limit_builds_the_kernel_once(monkeypatch):
    # The walk kernel is built and decomposed once, at every period, and the
    # only group test is the split's own: H is read off the verified group G.
    calls, decomposed, grouped = [], [], []

    def counting(into, real):
        def call(s, *args, **kwargs):
            into.append(s)
            return real(s, *args, **kwargs)

        return call

    monkeypatch.setattr(dynamics, "kernel", counting(calls, dynamics.kernel))
    monkeypatch.setattr(dynamics, "rees_decompose", counting(decomposed, dynamics.rees_decompose))
    monkeypatch.setattr(rees, "group_structure", counting(grouped, rees.group_structure))
    rep = analyze_limit(dirac(cyclic(600), 1))
    assert rep.p == 600
    assert len(calls) == 1
    assert decomposed == [rep.rees.carrier]
    assert len(grouped) == 1
    calls.clear()
    decomposed.clear()
    grouped.clear()
    rep = analyze_limit(t2_walk())
    assert rep.p == 1 and rep.H is rep.rees.group
    assert len(calls) == 1 and decomposed == [rep.rees.carrier]
    assert len(grouped) == 1
    grouped.clear()
    rep = analyze_limit(fold_walk())
    assert rep.p == 3 and rep.H.order == 2 and len(grouped) == 1


def test_no_limit_measure_is_squared(monkeypatch):
    # nu and eta are idempotent by the fold lemma, so no measure is
    # convolved with itself, in cesaro_limit or in analyze_limit
    squared = []
    real = dynamics.convolve

    def watched(a, b):
        if a is b:
            squared.append(a)
        return real(a, b)

    monkeypatch.setattr(dynamics, "convolve", watched)
    for mu in (t2_walk(), dirac(cyclic(3), 1), fold_walk()):
        nu = cesaro_limit(mu)
        rep = analyze_limit(mu)
        assert rep.nu == nu
        assert squared == [], mu.parent
        # the squares the oracle makes
        assert convolve(nu, nu) == nu and convolve(rep.eta, rep.eta) == rep.eta


def z6_walk_with_cycle(monkeypatch, sets, points=("2", "5")):
    # On Z6 with support {2,5} the support cycle is {2,5}, {4,1}, {0,3}
    # from q = 1, and T = K = Z6 with e = 0.  The walk is patched to report
    # the given sets in place of that cycle, with the true q and T.
    z6 = cyclic(6)
    real = dynamics._power_cycle

    def patched(steps):
        q, _, reached = real(steps)
        return q, [z6.subset_of_labels(labels) for labels in sets], reached

    monkeypatch.setattr(dynamics, "_power_cycle", patched)
    return Dist.from_mapping(z6, {z: RAT(1, len(points)) for z in points})


def test_an_h_equal_g_cycle_with_two_sets_fails_period_matches_quotient(monkeypatch):
    # With support {1,2} the supports on Z6 grow to Z6 itself, so H = G and
    # p = 1.  Reporting a second set {1,2} after Z6 keeps the set holding e
    # at K, so H is still G, but a cycle of period 1 has one set.
    mu = Dist.from_mapping(cyclic(6), {"1": RAT(1, 2), "2": RAT(1, 2)})
    rep = analyze_limit(mu)
    assert (rep.p, rep.H.carrier) == (1, rep.rees.group.carrier)
    mu = z6_walk_with_cycle(monkeypatch, [tuple("012345"), ("1", "2")], points=("1", "2"))
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(mu)
    assert exc.value.clause == "period_matches_quotient"
    assert str(exc.value) == (
        "theorem check failed: period_matches_quotient (p=1, 2 sets on K, |G|=6, |H|=6)"
    )


def benchmark_style_walks():
    """Walks drawn as the walks_corpus benchmark draws its batch: eight on
    each extended-corpus table of order <= 300, each a random_dist over at
    most four points that generate at most 64 elements."""
    rng = XorShift64Star(39)
    walks = []
    for inst in verify.build_corpus("extended"):
        sg = inst.semigroup
        if sg.order > 300:
            continue
        for _ in range(8):
            while True:
                size = 1 + rng.below(min(4, sg.order))
                points = sg.subset(rng.below(sg.order) for _ in range(size))
                if len(generated_subsemigroup(points)) <= 64:
                    break
            walks.append(random_dist(points, rng.next_word(), 64))
    return walks


@pytest.mark.parametrize("batch", ["default-0", "default-1", "default-2", "default-3", "drawn"])
def test_the_limit_matches_the_general_coset_algebra(batch):
    # analyze_limit reads gamma, p, H and the cluster off the split when
    # H = G; the general coset algebra, run on every walk, must agree.
    kind, _, seed = batch.partition("-")
    walks = default_corpus_walks(int(seed)) if kind == "default" else benchmark_style_walks()
    whole = 0
    for mu in walks:
        rep = analyze_limit(mu)
        assert (rep.gamma, rep.p, rep.H.carrier, rep.cluster) == coset_algebra(mu), mu.parent
        whole += rep.H.carrier == rep.rees.group.carrier
    # both branches are taken
    assert 0 < whole < len(walks)


def test_a_subset_of_g_that_is_not_closed_fails_subgroup_structure(monkeypatch):
    # The set holding e is {0,2}, read as H; {0,2}*{0,2} holds 4, so the
    # closure test is what stops it.
    mu = z6_walk_with_cycle(monkeypatch, [("2", "5"), ("4", "1"), ("0", "2")])
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(mu)
    assert exc.value.clause == "subgroup_structure"


@pytest.mark.parametrize(
    "sets",
    [
        pytest.param([("2", "5"), ("4", "1"), ("0", "3"), ("4", "1")], id="rotation moves it"),
        pytest.param([("2", "5"), ("2", "5"), ("0", "3")], id="a set repeats within p"),
    ],
)
def test_a_cycle_whose_least_period_is_not_p_fails_period_matches_quotient(monkeypatch, sets):
    # H = {0,3} is read right and gamma = 2 gives p = 3, but the cycle's
    # least period is not 3: rotating four sets by 3 moves them, and three
    # sets with a repeat have no 3 distinct ones.
    mu = z6_walk_with_cycle(monkeypatch, sets)
    with pytest.raises(TheoremViolation) as exc:
        analyze_limit(mu)
    assert exc.value.clause == "period_matches_quotient"


def test_analyze_limit_reads_the_walk_subsemigroup_off_the_support_walk():
    # T, the subsemigroup supp(mu) generates, is the union of the supports
    # the walk visits, so neither analyze_limit nor cesaro_limit runs the
    # closure.  A profile hook sees every call, however it is bound.
    closure = core.generated_subsemigroup.__code__
    closures = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is closure:
            closures.append(frame)

    for mu in (t2_walk(), fold_walk(), dirac(cyclic(600), 1)):
        sys.setprofile(watch)
        try:
            rep = analyze_limit(mu)
            nu = cesaro_limit(mu)
        finally:
            sys.setprofile(None)
        assert nu == rep.nu
    assert closures == []


def test_the_kernel_runs_no_ideal_test(monkeypatch):
    # S*z*S is an ideal of a closed S by associativity, so neither kernel
    # nor the limit analyses built on it test for one.
    def refuse(*args):
        raise AssertionError("ideal test")

    monkeypatch.setattr(core, "is_left_ideal", refuse)
    monkeypatch.setattr(core, "is_right_ideal", refuse)
    t2 = t_full(2)
    assert core.kernel(t2.carrier()).labels() == ("00", "11")
    for mu in (t2_walk(), fold_walk(), dirac(cyclic(6), 1)):
        rep = analyze_limit(mu)
        assert cesaro_limit(mu) == rep.nu


@pytest.mark.parametrize("seed", range(2))
def test_the_walk_reaches_the_generated_subsemigroup(seed):
    walks = [
        mu
        for inst in verify.build_corpus("extended")
        if inst.semigroup.order <= 300
        for mu in verify._seeded_dists(inst, seed, 9, 2)
    ]
    assert len(walks) >= 70
    for mu in walks:
        reached = dynamics._power_cycle(support(mu))[2]
        assert reached == generated_subsemigroup(support(mu)), mu


WALK_TABLES = [
    inst.semigroup for inst in verify.build_corpus("default") if inst.semigroup.order <= 12
]


@st.composite
def small_walks(draw):
    sg = draw(st.sampled_from(WALK_TABLES))
    points = draw(st.lists(st.integers(0, sg.order - 1), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.integers(1, 9), min_size=len(points), max_size=len(points)))
    total = sum(weights)
    return Dist.from_mapping(sg, {z: RAT(w, total) for z, w in zip(points, weights)})


def fraction_variation_norm(mu, nu):
    return sum((abs(mu.prob(z) - nu.prob(z)) for z in range(mu.parent.order)), ZERO)


def fraction_averages(mu, n_max):
    """The Cesaro averages of lengths 1..n_max, summed as Fractions."""
    acc = [ZERO] * mu.parent.order
    cur = mu
    out = []
    for n in range(1, n_max + 1):
        if n > 1:
            cur = convolve(cur, mu)
        for z, p in cur.items():
            acc[z] += p
        out.append(Dist(mu.parent, [a / n for a in acc]))
    return out


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_walks())
def test_the_walk_reaches_the_generated_subsemigroup_on_small_walks(mu):
    reached = dynamics._power_cycle(support(mu))[2]
    assert reached == generated_subsemigroup(support(mu))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_walks(), st.integers(1, 8))
def test_integer_cesaro_helpers_match_fraction_sums(mu, n_max):
    averages = fraction_averages(mu, n_max)
    for n, avg in enumerate(averages, 1):
        assert cesaro_average(mu, n) == avg
    nu = cesaro_limit(mu)
    diag = cesaro_diagnostic(mu, n_max, nu)
    assert diag.deviations == tuple(
        fraction_variation_norm(avg, convolve(mu, avg)) for avg in averages
    )
    assert diag.limit_gaps == tuple(fraction_variation_norm(avg, nu) for avg in averages)
    assert all(type(v) is RAT for v in diag.deviations + diag.limit_gaps)
    for other in (averages[-1], nu):
        norm = variation_norm(mu, other)
        assert type(norm) is RAT and norm == fraction_variation_norm(mu, other)
