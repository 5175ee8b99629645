"""The self-check suite: green on the stock corpus, red when fed damage."""

import json
from time import perf_counter

import pytest

from semiconv import build_corpus, run_suite, verify
from semiconv.verify import _CHECKS, _corrupted_instance

CHECK_NAMES = [name for name, _ in _CHECKS]


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


def test_internal_error_fails_its_check(monkeypatch):
    def broken(ctx):
        return {}["missing"]

    monkeypatch.setattr(verify, "_CHECKS", [("broken", broken), _CHECKS[0]])
    res = run_suite(corpus="default", seed=0)
    assert [(c.name, c.passed) for c in res.checks] == [("broken", False), (_CHECKS[0][0], True)]
    assert res.checks[0].witness == "internal error: KeyError: 'missing'"
    assert res.checks[0].instances == 0
