"""Tests of the benchmark itself: tracer, seeded inputs, output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import threading
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import semiconv  # noqa: E402
from perfbench import checks, harness, hostspeed, layers, workloads  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def test_tracer_rebinds_every_alias_and_restores_them():
    original = semiconv.measure.convolve
    holders = [
        mod for name, mod in sys.modules.items()
        if name.startswith("semiconv") and getattr(mod, "convolve", None) is original
    ]
    assert {m.__name__ for m in holders} >= {
        "semiconv", "semiconv.measure", "semiconv.dynamics", "semiconv.verify", "semiconv.cli"
    }
    tracer = Tracer({"measure.convolve": None})
    with tracer:
        assert all(m.convolve is not original for m in holders)
        assert len({id(m.convolve) for m in holders}) == 1
        sg = semiconv.build(semiconv.CorpusSpec("cyclic", (3,)))
        semiconv.analyze_limit(semiconv.dirac(sg, 1))
    assert all(m.convolve is original for m in holders)
    # analyze_limit reaches convolve through the dynamics module's own alias.
    assert tracer.summary()["measure.convolve"]["calls"] > 0


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")

    def inner():
        time.sleep(0.02)

    def outer():
        sum(range(20000))
        mod.inner()
        mod.inner()

    mod.inner, mod.outer = inner, outer
    pkg.mod = mod
    sys.modules["fakepkg"], sys.modules["fakepkg.mod"] = pkg, mod
    yield mod
    del sys.modules["fakepkg"], sys.modules["fakepkg.mod"]


def test_self_time_is_duration_minus_children(fake_package):
    tracer = Tracer({"mod.outer": None, "mod.inner": None}, package="fakepkg")
    with tracer:
        fake_package.outer()
    inner = [s for s in tracer.spans if s.name == "mod.inner"]
    (outer,) = [s for s in tracer.spans if s.name == "mod.outer"]
    assert len(inner) == 2
    assert outer.self_s == outer.duration - sum(s.duration for s in inner)
    assert all(s.self_s == s.duration for s in inner)
    # Sleeping is waiting, not CPU work.
    assert all(s.wait_s > 0.015 for s in inner)
    summary = tracer.summary()
    assert summary["mod.outer"]["incl_s"] == outer.duration
    assert summary["mod.inner"]["calls"] == 2


def test_spans_on_other_threads_are_not_children(fake_package):
    tracer = Tracer({"mod.outer": None, "mod.inner": None}, package="fakepkg")
    with tracer:
        worker = threading.Thread(target=fake_package.inner)
        worker.start()
        fake_package.outer()
        worker.join(timeout=10)
    assert not worker.is_alive()
    (outer,) = [s for s in tracer.spans if s.name == "mod.outer"]
    assert len([s for s in tracer.spans if s.name == "mod.inner"]) == 3
    assert outer.child_wall == pytest.approx(
        sum(s.duration for s in tracer.spans if s.thread == outer.thread and s is not outer)
    )


def test_scaler_scales_each_interval_by_the_samples_around_it(monkeypatch):
    ref = hostspeed.REFERENCE_KERNEL_S
    # The host runs at full speed, then at half speed.
    samples = iter([ref, ref, 2 * ref, 2 * ref])
    monkeypatch.setattr(hostspeed, "sample", lambda: next(samples))
    scaler = hostspeed.Scaler()
    scaler.add(0.3, 0.2)
    scaler.add(0.3, 0.3)  # 0.6 s since the first sample: the second follows
    scaler.add(1.0, 0.9)  # a third sample follows
    scaler.add(0.1, 0.1)
    scaled = scaler.result()  # and a fourth
    assert scaled == pytest.approx([(0.3, 0.2), (0.3, 0.3), (2 / 3, 0.6), (0.05, 0.05)])


def test_reference_kernel_is_exact_and_takes_milliseconds():
    # The 9 x 9 Hilbert system with right-hand side 1/(i+10) solves exactly.
    x = hostspeed.reference_kernel()
    n = hostspeed.KERNEL_SIZE
    for i in range(n):
        assert sum(Fraction(1, i + j + 1) * x[j] for j in range(n)) == Fraction(1, i + n + 1)
    assert 1e-4 < hostspeed.sample() < 0.1


def _limit_files(seed, workdir):
    workloads.LimitLarge().prepare(seed, str(workdir))
    return {p.name: p.read_bytes() for p in sorted(Path(workdir).iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    first = _limit_files(5, tmp_path / "a")
    assert first == _limit_files(5, tmp_path / "b")
    assert first != _limit_files(6, tmp_path / "c")

    def walk_bytes(seed):
        return json.dumps([[str(p) for p in w.mu.probs] for w in workloads.corpus_walks(seed)])

    assert walk_bytes(5) == walk_bytes(5)
    assert walk_bytes(5) != walk_bytes(6)


def test_a_seed_only_picks_recorded_weight_variants():
    refs = harness.load_references()
    walks = workloads.corpus_walks(3)
    assert len(refs["walks_corpus"]) == len(walks)
    assert len(refs["limit_large"]) == len(workloads.limit_walks(3))
    for recorded in (refs["walks_corpus"], refs["limit_large"]):
        assert all(len(op) == workloads.WEIGHT_VARIANTS for op in recorded)
    # The tables and supports are the same for every seed and variant.
    other = workloads.corpus_walks(4)
    assert [w.mu.parent.rows for w in walks] == [w.mu.parent.rows for w in other]
    assert [sorted(dict(w.mu.items())) for w in walks] == [sorted(dict(w.mu.items())) for w in other]
    assert [sorted(w.mu.items()) != sorted(o.mu.items()) for w, o in zip(walks, other)].count(True) > 100
    fixed = workloads.corpus_walks(4, variant=2)
    assert {w.variant for w in fixed} == {2}


def test_nearby_seeds_pick_unrelated_inputs():
    picks = {tuple(workloads.pick_variants(seed, 4)) for seed in range(1, 11)}
    assert len(picks) == 10
    assert len({tuple(workloads.seeded_draws(seed, 3, 4, 16)) for seed in range(1, 11)}) == 10


def _cyclic4_report():
    sg = semiconv.build(semiconv.CorpusSpec("cyclic", (4,)))
    mu = semiconv.dirac(sg, 1)
    return sg, mu, semiconv.analyze_limit(mu)


def _as_dicts(report):
    def d(dist):
        return {z: checks.fraction(p) for z, p in dist.items()}

    return d(report.nu), d(report.eta), [d(c) for c in report.cluster], report.p


def test_output_check_accepts_the_true_report():
    sg, mu, report = _cyclic4_report()
    nu, eta, cluster, p = _as_dicts(report)
    assert p == 4 and len(nu) == 4
    assert checks.limit_problems(sg.rows, {1: Fraction(1)}, nu, eta, cluster, p) == []
    walk = workloads.WalksCorpus()
    inputs = [workloads.Walk(mu, 0)]
    problems, digest = walk.check(inputs, 0, report, None)
    assert problems == []
    assert walk.check(inputs, 0, report, digest)[0] == []
    assert walk.check(inputs, 0, report, "0" * 10)[0]


def test_output_check_rejects_a_perturbed_nu():
    sg, _, report = _cyclic4_report()
    nu, eta, cluster, p = _as_dicts(report)
    nu[0] += Fraction(1, 64)
    nu[1] -= Fraction(1, 64)
    problems = checks.limit_problems(sg.rows, {1: Fraction(1)}, nu, eta, cluster, p)
    assert "nu*nu != nu" in problems
    assert "cluster does not average to nu" in problems


def test_output_check_rejects_a_wrong_period():
    sg, _, report = _cyclic4_report()
    nu, eta, cluster, p = _as_dicts(report)
    assert checks.limit_problems(sg.rows, {1: Fraction(1)}, nu, eta, cluster, p + 1)
    assert checks.limit_problems(sg.rows, {1: Fraction(1)}, nu, eta, cluster[:2], 2)
    assert checks.digest(sg.labels, nu, eta, p, cluster) != checks.digest(
        sg.labels, nu, eta, p + 1, cluster
    )


def test_kernel_oracle_matches_semiconv():
    for spec in workloads.WALK_SPECS[:30]:
        sg = semiconv.build(spec)
        got = checks.kernel_of(sg.rows, range(sg.order))
        assert got == set(semiconv.kernel(sg.carrier()))


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: layers.unit(n) for n in layers.metric_names()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walks_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
