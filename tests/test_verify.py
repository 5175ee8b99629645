"""The self-check suite: green on the stock corpus, red when fed damage."""

import json
from collections import Counter
from pathlib import Path
from time import perf_counter

import pytest

from semiconv import build_corpus, run_suite, verify
from semiconv.cli import main
from semiconv.errors import NotAGroup, SemiconvError
from semiconv.generators import CorpusSpec, build
from semiconv.verify import _LAWS, CorpusInstance, _corrupted_instance, _Law, _run_law

CHECK_NAMES = list(_LAWS)
GOLDEN = Path(__file__).parent / "golden"


def instance(kind, *params):
    spec = CorpusSpec(kind, params)
    return CorpusInstance(spec.describe(), build(spec))


def test_default_suite_passes():
    res = run_suite(corpus="default", seed=0)
    assert res.passed
    assert [c.name for c in res.checks] == CHECK_NAMES
    assert len(res.checks) == 21
    for c in res.checks:
        assert c.passed, f"{c.name}: {c.witness}"
        assert c.instances > 0
        assert c.witness == ""


def test_suite_json_is_deterministic_and_timing_free():
    a = run_suite(corpus="default", seed=7).to_json()
    b = run_suite(corpus="default", seed=7).to_json()
    assert json.dumps(a) == json.dumps(b)
    assert a["corpus"] == "default" and a["seed"] == 7 and a["passed"] is True
    for entry in a["checks"]:
        assert set(entry) == {"name", "passed", "instances", "witness"}
    # a different seed draws different distributions but must still pass
    c = run_suite(corpus="default", seed=8)
    assert c.passed


def test_corruption_is_detected():
    res = run_suite(corpus="default", seed=0, inject_corruption=True)
    assert not res.passed
    failed = [c for c in res.checks if not c.passed]
    assert [c.name for c in failed] == ["kernel_least_ideal"]
    assert "corrupted" in failed[0].witness


def test_corrupted_instance_is_really_non_associative():
    sg = _corrupted_instance().semigroup
    broken = [
        (a, b, c)
        for a in range(sg.order)
        for b in range(sg.order)
        for c in range(sg.order)
        if sg.mul(sg.mul(a, b), c) != sg.mul(a, sg.mul(b, c))
    ]
    assert broken  # the damaged entry breaks associativity somewhere


def test_build_corpus():
    default = build_corpus("default")
    extended = build_corpus("extended")
    assert len(default) >= 20
    assert len(extended) > len(default)
    names = [inst.name for inst in default]
    assert len(set(names)) == len(names)
    # extended keeps every default instance
    assert set(names) <= {inst.name for inst in extended}
    with pytest.raises(ValueError):
        build_corpus("nope")


def test_check_times_are_wall_times():
    # Checks run one after another, so their times fit inside the suite's.
    start = perf_counter()
    res = run_suite(corpus="default", seed=0)
    wall = perf_counter() - start
    assert res.passed
    assert sum(c.elapsed for c in res.checks) <= wall


def test_default_seed0_report_matches_the_golden_file(capsys):
    assert main(["verify", "--corpus", "default", "--seed", "0", "--json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify_default_seed0.json").read_text(encoding="utf-8")


def test_internal_error_fails_its_check(monkeypatch):
    def broken(inst, seed):
        return {}["missing"]

    first = next(iter(_LAWS.values()))
    monkeypatch.setattr(verify, "_LAWS", {"broken": _Law("broken", broken), first.name: first})
    res = run_suite(corpus="default", seed=0)
    assert [(c.name, c.passed) for c in res.checks] == [("broken", False), (first.name, True)]
    assert res.checks[0].witness == "cyclic(1): internal error: KeyError: 'missing'"
    assert res.checks[0].instances == 1


def test_a_package_error_names_its_instance_and_counts_it():
    def raises_on_the_second(inst, seed):
        if inst.name == "left_zero(2)":
            raise NotAGroup("left translation is not onto", "1")

    law = _Law("raises", raises_on_the_second)
    res = _run_law(law, [instance("cyclic", 2), instance("left_zero", 2), instance("cyclic", 3)], 0)
    assert (res.passed, res.instances) == (False, 2)
    assert res.witness == "left_zero(2): NotAGroup: " + str(NotAGroup("left translation is not onto", "1"))


def test_skipped_instances_are_not_counted():
    insts = [instance("full_transformation", 2), instance("left_zero", 2), instance("cyclic", 3)]
    res = _run_law(_LAWS["convolution_marginals"], insts, 0)
    assert (res.passed, res.instances, res.witness) == (True, 2, "")


def test_instances_outside_a_law_are_still_counted():
    insts = [instance("full_transformation", 2), instance("left_zero", 2), instance("right_zero", 2)]
    res = _run_law(_LAWS["left_group_structure"], insts, 0)
    assert (res.passed, res.instances, res.witness) == (True, 3, "")


@pytest.mark.parametrize(
    "name, instances, witness",
    [
        ("convolution_marginals", 0, "no completely simple instance in corpus"),
        ("idempotent_factorization", 0, "no completely simple instance in corpus"),
        ("bilateral_simple_is_group", 1, "no bilaterally simple instance in corpus"),
        ("left_group_structure", 1, "no left group instance in corpus"),
        ("translation_biinvariance", 1, "no small group instance in corpus"),
    ],
)
def test_a_corpus_without_the_needed_kind_fails(name, instances, witness):
    res = _run_law(_LAWS[name], [instance("full_transformation", 2)], 0)
    assert (res.passed, res.instances, res.witness) == (False, instances, witness)


def test_each_corpus_kernel_is_built_and_decomposed_once_per_run(monkeypatch):
    built, decomposed = Counter(), Counter()

    def counting(counter, real):
        def call(s):
            counter[id(s.parent), s.mask] += 1
            return real(s)

        return call

    monkeypatch.setattr(verify, "kernel", counting(built, verify.kernel))
    monkeypatch.setattr(verify, "rees_decompose", counting(decomposed, verify.rees_decompose))
    corpus = build_corpus("default")
    monkeypatch.setattr(verify, "build_corpus", lambda name: corpus)
    assert run_suite(corpus="default", seed=1).passed
    assert built == Counter({(id(i.semigroup), i.carrier.mask): 1 for i in corpus})
    assert decomposed == Counter({(id(i.semigroup), i.kernel.mask): 1 for i in corpus})


def test_a_record_part_that_fails_is_not_kept():
    # The corrupted table's kernel builds; its split does not.
    inst = _corrupted_instance()
    for _ in range(2):
        with pytest.raises(
            SemiconvError, match="^idempotent 0 is not primitive: 2 lies strictly below it$"
        ):
            inst.rees
    assert "rees" not in vars(inst) and "ideals" not in vars(inst)


def test_each_instance_runs_each_oracle_once_per_side(monkeypatch):
    # The record keeps the principal-ideal enumeration and the subset sweep
    # that two laws each read.
    calls = Counter()

    def counted(oracle):
        def run(source, side):
            parent = getattr(source, "parent", source)
            calls[(oracle.__name__, id(parent), side)] += 1
            return oracle(source, side)

        return run

    for name in ("principal_minimal_ideals", "_all_subset_ideals"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    res = run_suite(corpus="default", seed=0, inject_corruption=True)
    assert [c.name for c in res.checks if not c.passed] == ["kernel_least_ideal"]
    runs = Counter((name, side) for name, _, side in calls)
    assert set(calls.values()) == {1}
    # 28 default instances enumerate both sides, and the corrupted one its
    # left side in kernel_least_ideal; the sweeps cover the orders up to 5.
    assert runs[("principal_minimal_ideals", "left")] == 29
    assert runs[("principal_minimal_ideals", "right")] == 28
    sweeps = [runs[("_all_subset_ideals", side)] for side in ("left", "right", "two-sided")]
    assert sweeps[0] > 0 and sweeps == sweeps[:1] * 3
