"""semiconv benchmark: run one workload, or all of them.

One workload, as the command in BENCHMARK.json is run:

    python3 perfbench/run.py --workload walks_corpus --seed 1 --seconds 35 --trace 0

Every workload, each in its own process, with a table of every metric by
name and unit (``--trace 1`` adds a traced run of each for the per-layer
metrics):

    python3 perfbench/run.py --seed 1 --seconds 35

A run builds the workload's inputs from the seed several times (their
median is ``setup_s``), then repeats passes over the workload's batch while
the next pass fits in ``--seconds``, and reports medians.  Every time it
reports is scaled to one reference host speed, measured by a fixed piece of
exact arithmetic run between the timed operations (perfbench/hostspeed.py),
so that the drift of a shared host's speed does not read as a change of the
program; the unscaled pass time is printed beside them.
Every output is checked outside the timed region; an operation that raised,
exited non-zero or failed its check counts in ``failed``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``; with
``--trace 1``, the per-layer metrics of one traced set-up plus one traced
pass, made after the untraced passes, and ``trace.overhead`` (traced pass
wall time over the median untraced one).  The exit code is 0 only when
every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seed 7919 is held out: a claimed gain measured on the default seed can be
# rechecked on it, since no change was written against it.
DEFAULT_SEED = 1


def run_all(args, workloads):
    """Each workload in its own process, so peak memory is its own."""
    ok = True
    rows = []
    for name in workloads:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{name}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            if not trace:
                rows.append((name, "fail_ratio", result["failed"] / result["attempted"], "ratio"))
            rows.extend((name, m, v["value"], v["unit"]) for m, v in result["metrics"].items())
    for name, metric, value, unit in rows:
        print(f"{name:16s} {metric:44s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program is measured from the checkout's own sources, never from an
    # installed copy.
    if not (ROOT / "src" / "semiconv" / "__init__.py").is_file():
        print(f"no semiconv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import measure
    from perfbench.workloads import WORKLOADS

    if args.workload is None:
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except Exception:  # a failed set-up leaves no result to print
        traceback.print_exc(file=sys.stderr)
        return 1
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
