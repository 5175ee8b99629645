"""Convolution powers, averaged limits, cluster cycles, and diagnostics.

Expected values are derived by hand in comments or recomputed inline with
direct loops; composition in full transformation semigroups is mul(f, g)
= f(g(x)), so constants absorb on the left.
"""

import math
import re
from pathlib import Path

import pytest

from semiconv import (
    CorpusSpec,
    Dist,
    MalformedInput,
    MismatchedParent,
    OrderCapExceeded,
    RAT,
    VerificationFailed,
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
    is_idempotent_measure,
    power,
    support,
    support_period,
    tv_distance,
    uniform_on,
    variation_norm,
)
from semiconv import dynamics, verify
from semiconv._rat import ONE, ZERO
from semiconv.linalg import nullspace, solve


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


@pytest.mark.parametrize(
    "make_walk, period",
    [
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
    ],
)
def test_cluster_period_on_walks_of_known_period(make_walk, period):
    mu = make_walk()
    rep = analyze_limit(mu)
    assert rep.p == period
    # the float iteration, p steps at a time, converges to eta only when p
    # is a multiple of the true period and eta is the cluster identity
    assert float_shadow(mu, rep.eta, rep.p).converged


def test_analyze_limit_rejects_a_wrong_solve(monkeypatch):
    # On a left zero semigroup every distribution is idempotent, and mu is
    # the only one that mu fixes on the left.  The kernel is L = {a, b}
    # with a one-element G and R, so lambda is nu, solved over two states.
    # Swapping the two entries of that solve gives an idempotent nu that mu
    # does not fix: no report may come back.
    lz2 = build(CorpusSpec("left_zero", (2,)))
    mu = Dist(lz2, (RAT(1, 3), RAT(2, 3)))
    real_solve = dynamics.solve

    def swapped(rows, rhs):
        x = real_solve(rows, rhs)
        return x[::-1] if len(x) == 2 else x

    monkeypatch.setattr(dynamics, "solve", swapped)
    with pytest.raises(VerificationFailed, match="limit invariance"):
        analyze_limit(mu)


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
    fixed = nullspace(nt)
    stacked = [[vec[i] for vec in fixed] + nt[i] for i in range(k)]
    coeffs = solve(stacked, [mu.probs[z] for z in states])
    probs = [ZERO] * sg.order
    for c, vec in zip(coeffs, fixed):
        for i, z in enumerate(states):
            probs[z] += c * vec[i]
    return Dist(sg, probs)


def test_cesaro_limit_matches_spectral_projection():
    periodic = 0
    for inst in verify.build_corpus("default"):
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


def test_order_cap():
    t3 = t_full(3)
    mu = uniform_on(t3.carrier())
    with pytest.raises(OrderCapExceeded):
        cesaro_limit(mu, order_cap=10)
    with pytest.raises(OrderCapExceeded):
        analyze_limit(mu, order_cap=10)
    # the cap applies to the ambient order, 27 here
    assert cesaro_limit(mu, order_cap=27) is not None


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
