"""Record the reference answers the benchmark compares its outputs with.

    python3 perfbench/record_references.py

Runs every limit_large and walks_corpus operation once for each of the
WEIGHT_VARIANTS sets of probabilities a seed can pick, checks it with the
benchmark's own oracle (perfbench/checks.py) and stores a digest of
(nu, eta, p, cluster) per operation and variant.  Also stores the check
names of one ``verify --corpus default`` run.  Writes
perfbench/references.json.  Record only at a commit whose answers are
trusted: later runs fail every operation whose digest differs.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import BENCH_DIR
    from perfbench.workloads import WEIGHT_VARIANTS, WORKLOADS

    refs = {}
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / ".work") as workdir:
        for name in ("limit_large", "walks_corpus"):
            workload = WORKLOADS[name]
            by_variant = []
            for variant in range(WEIGHT_VARIANTS):
                inputs = workload.prepare(0, workdir, variant=variant)
                digests = []
                for i, op in enumerate(workload.operations(inputs)):
                    problems, got = workload.check(inputs, i, op(), None)
                    if problems:
                        raise SystemExit(f"{name} variant {variant} operation {i}: {problems}")
                    digests.append(got)
                by_variant.append(digests)
                print(f"{name} variant {variant}: {len(digests)} operations pass", flush=True)
            # One list per operation, indexed by variant.
            refs[name] = [list(op) for op in zip(*by_variant)]
        verify = WORKLOADS["verify_default"]
        inputs = verify.prepare(1, workdir)
        problems, names = verify.check(inputs, 0, verify.operations(inputs)[0](), None)
        if problems:
            raise SystemExit(f"verify_default: {problems}")
        refs["verify_default"] = {"checks": names}
    with open(BENCH_DIR / "references.json", "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
