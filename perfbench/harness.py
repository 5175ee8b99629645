"""Timed passes, output checks and metric reduction for one workload run."""

from __future__ import annotations

import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

from . import hostspeed, layers
from .tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[rank - 1]


def load_references():
    with open(BENCH_DIR / "references.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(workload, inputs):
    """One pass over the batch: (per-op (wall, cpu) as measured, the same
    scaled to the reference host speed (see hostspeed), per-op outputs)."""
    ops = workload.operations(inputs)
    gc.collect()
    scaler = hostspeed.Scaler()
    raw, outputs = [], []
    for op in ops:
        t0, c0 = perf_counter(), process_time()
        try:
            out = op()
        except Exception as exc:  # an operation that raised is a failed one
            traceback.print_exc(file=sys.stderr)
            out = exc
        raw.append((perf_counter() - t0, process_time() - c0))
        scaler.add(*raw[-1])
        outputs.append(out)
    return raw, scaler.result(), outputs


def pass_metrics(setup_times, passes):
    """End-to-end timing metrics from set-up times and passes of per-op
    (wall, cpu): {name: (value, note)}."""
    walls = [sum(w for w, _ in p) for p in passes]
    # An operation's latency is its median over the passes; p50 and p90 are
    # taken over the operations of the batch.
    latencies = [statistics.median(w for w, _ in op) for op in zip(*passes)]
    basis = f"{len(latencies)} ops, each the median of {len(passes)} passes"
    return {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups"),
        "wall_s": (statistics.median(walls), f"median of {len(passes)} passes"),
        "cpu_s": (
            statistics.median(sum(c for _, c in p) for p in passes),
            f"median of {len(passes)} passes",
        ),
        "ops_per_s": (
            statistics.median(len(p) / w for p, w in zip(passes, walls)),
            f"median of {len(passes)} passes of {len(passes[0])} ops",
        ),
        "op_p50_ms": (statistics.median(latencies) * 1e3, basis),
        "op_p90_ms": (percentile(latencies, 90) * 1e3, basis),
    }


def check_pass(workload, inputs, outputs, refs):
    """Number of failed operations in one pass; the problems go to stderr."""
    failed = 0
    for i, out in enumerate(outputs):
        if isinstance(out, Exception):
            failed += 1
            continue
        reference = workload.reference(refs.get(workload.name), inputs, i)
        problems, _ = workload.check(inputs, i, out, reference)
        if problems:
            failed += 1
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
    return failed


def traced_run(workload, seed, workdir, refs, untraced_wall):
    """One traced set-up and one traced pass: (per-layer metrics, ops, failed).

    Prints the metrics and the suite's per-check times, and writes every
    span to perfbench/out/trace-<workload>-<seed>.json.
    """
    tracer = Tracer(layers.TARGETS)
    with tracer:
        tracer.phase = "setup"
        inputs = workload.prepare(seed, workdir)
        tracer.phase = "pass"
        _, scaled, outputs = run_pass(workload, inputs)
    wall = sum(w for w, _ in scaled)
    failed = check_pass(workload, inputs, outputs, refs)
    summary = tracer.summary()
    metrics = layers.metrics(summary, wall / untraced_wall)
    for name, m in metrics.items():
        print(f"{workload.name} {name} = {m['value']:.6g} {m['unit']}")
    for key, value in tracer.summary(phase="pass")["verify.run_suite"].items():
        if key.startswith("check."):
            print(f"{workload.name} verify.{key} = {value:.6g} s")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"trace-{workload.name}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "spans": tracer.dump()}, fh)
    return metrics, len(outputs), failed


def measure(workload, seed, seconds, trace):
    """Run one workload; returns {"attempted", "failed", "metrics"}."""
    refs = load_references()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work_root)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            scaler = hostspeed.Scaler()
            t0 = perf_counter()
            inputs = workload.prepare(seed, workdir)
            scaler.add(perf_counter() - t0)
            setup_times.append(scaler.result()[0][0])

        # Passes run while the next one, at the median time a pass (with its
        # host-speed samples) took so far, is due to end within the time
        # given; the run never overshoots it.
        passes, unscaled, elapsed = [], [], []
        attempted = failed = 0
        deadline = perf_counter() + seconds
        while not passes or perf_counter() + statistics.median(elapsed) <= deadline:
            t0 = perf_counter()
            raw, scaled, outputs = run_pass(workload, inputs)
            elapsed.append(perf_counter() - t0)
            unscaled.append(sum(w for w, _ in raw))
            passes.append(scaled)
            attempted += len(outputs)
            failed += check_pass(workload, inputs, outputs, refs)

        if trace:
            metrics, traced_ops, traced_failed = traced_run(
                workload, seed, workdir, refs, statistics.median(sum(w for w, _ in p) for p in passes)
            )
            attempted += traced_ops
            failed += traced_failed
        else:
            samples = pass_metrics(setup_times, passes)
            samples["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "whole process",
            )
            metrics = {}
            for name, (value, note) in samples.items():
                metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
                print(f"{workload.name} {name} = {value:.6g} {END_TO_END_UNITS[name]} ({note})")
            print(f"{workload.name} wall_s as measured, not scaled = {statistics.median(unscaled):.6g} s")
        print(f"{workload.name} fail_ratio = {failed / attempted:.6g} ({failed}/{attempted} ops)")
        return {"attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
