"""Command-line interface.

File-driven workflows over JSON tables and distributions: validation,
structure reports, convolution, limit analysis, the verification suite,
and corpus generation.

Exit codes: 0 success, 1 unreadable or unparseable input, 2 invalid
semigroup or distribution data, 3 theorem or verification failure or an
unexpected internal error.
"""

from __future__ import annotations

import argparse
import sys

from . import serialize
from .core import idempotents, kernel
from .dynamics import (
    analyze_limit,
    cesaro_diagnostic,
    element_power_cluster,
    power,
)
from .errors import (
    HypothesisViolated,
    InvalidDistribution,
    InvalidTable,
    MalformedInput,
    SemiconvError,
    SingularDecomposition,
    TheoremViolation,
    VerificationFailed,
)
from .generators import build
from .measure import convolve
from .rees import minimal_one_sided_ideals, rees_decompose
from .verify import run_suite

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_THEOREM = 3

_THEOREM_ERRORS = (
    TheoremViolation,
    VerificationFailed,
    HypothesisViolated,
    SingularDecomposition,
)


def _emit(args, payload, human_lines):
    """Route one report: human text to stdout, JSON inline or to a file."""
    text = serialize.dumps_canonical(payload)
    if getattr(args, "json", False):
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _set_line(name, es):
    return f"{name}: " + "{" + ", ".join(es.labels()) + "}"


def _dist_lines(mu):
    return [f"{mu.parent.label(a)}: {serialize.rat_to_string(p)}" for a, p in mu.items()]


def _load_pair(args):
    sg = serialize.load_semigroup(args.table)
    mu = serialize.load_dist(args.mu, sg)
    return sg, mu


def cmd_validate(args):
    sg = serialize.load_semigroup(args.table)
    print(f"valid semigroup: order {sg.order}")
    return EXIT_OK


def cmd_analyze(args):
    sg = serialize.load_semigroup(args.table)
    car = sg.carrier()
    e_set = idempotents(car)
    k = kernel(car)
    dec = rees_decompose(k)
    mins_l, mins_r = minimal_one_sided_ideals(dec)
    payload = {
        "order": sg.order,
        "idempotents": list(e_set.labels()),
        "minimal_left_ideals": [list(a.labels()) for a in mins_l],
        "minimal_right_ideals": [list(a.labels()) for a in mins_r],
        "kernel": list(k.labels()),
        # The full carrier is closed, so it is simple exactly when it is its
        # own kernel, and left (right) simple exactly when it is its own only
        # minimal left (right) ideal.
        "is_simple": k == car,
        "is_left_simple": mins_l == [car],
        "is_right_simple": mins_r == [car],
        "kernel_decomposition": serialize.rees_to_json(dec),
    }
    human = [
        f"order: {sg.order}",
        _set_line("idempotents", e_set),
        "minimal left ideals: " + "; ".join("{" + ", ".join(a.labels()) + "}" for a in mins_l),
        "minimal right ideals: " + "; ".join("{" + ", ".join(a.labels()) + "}" for a in mins_r),
        _set_line("kernel", k),
        f"simple: {'yes' if payload['is_simple'] else 'no'}",
        (
            f"kernel decomposition at {sg.label(dec.base)}: "
            f"|L|={len(dec.left)}, |G|={dec.group.order}, |R|={len(dec.right)}"
        ),
    ]
    _emit(args, payload, human)
    return EXIT_OK


def cmd_rees(args):
    sg = serialize.load_semigroup(args.table)
    k = kernel(sg.carrier())
    at = None
    if args.at is not None:
        at = sg.index(args.at)
    dec = rees_decompose(k, at=at)
    payload = serialize.rees_to_json(dec)
    human = [
        f"base: {sg.label(dec.base)}",
        _set_line("left", dec.left),
        _set_line("group", dec.group.carrier),
        _set_line("right", dec.right),
    ]
    _emit(args, payload, human)
    return EXIT_OK


def cmd_conv(args):
    sg, mu = _load_pair(args)
    nu = serialize.load_dist(args.nu, sg)
    res = convolve(mu, nu)
    _emit(args, serialize.dist_to_json(res), _dist_lines(res))
    return EXIT_OK


def cmd_power(args):
    sg, mu = _load_pair(args)
    res = power(mu, args.n)
    _emit(args, serialize.dist_to_json(res), _dist_lines(res))
    return EXIT_OK


def cmd_limit(args):
    if args.emit_diagnostic and args.max_power < 1:
        raise MalformedInput(f"--max-power must be >= 1, got {args.max_power}")
    sg, mu = _load_pair(args)
    report = analyze_limit(mu)
    payload = serialize.limit_report_to_json(report)
    if args.emit_diagnostic:
        diag = cesaro_diagnostic(mu, args.max_power, report.nu)
        payload["diagnostic"] = {
            "deviations": [serialize.rat_to_string(d) for d in diag.deviations],
            "limit_gaps": [serialize.rat_to_string(g) for g in diag.limit_gaps],
        }
    human = [
        f"first cycle entry q: {report.q}",
        f"period p: {report.p}",
        _set_line("averaged limit support", report.nu.support()),
        _set_line("cluster identity support", report.eta.support()),
        f"coset generator gamma: {sg.label(report.gamma)}",
        f"checks passed: {len(report.checks)}",
    ]
    if args.emit_diagnostic:
        human.append(
            "diagnostic gap to limit after "
            f"{args.max_power} steps: {serialize.rat_to_string(diag.limit_gaps[-1])}"
        )
    _emit(args, payload, human)
    return EXIT_OK


def cmd_cluster_element(args):
    sg = serialize.load_semigroup(args.table)
    a = sg.index(args.label)
    pc = element_power_cluster(sg, a)
    payload = serialize.power_cluster_to_json(sg, pc)
    human = [
        f"element: {args.label}",
        f"first cycle entry q: {pc.q}",
        f"period p: {pc.p}",
        _set_line("cluster", pc.cluster),
        f"cluster identity: {sg.label(pc.idempotent)}",
    ]
    _emit(args, payload, human)
    return EXIT_OK


def cmd_verify(args):
    result = run_suite(
        corpus=args.corpus,
        seed=args.seed,
        inject_corruption=args.inject_corruption,
    )
    payload = result.to_json()
    human = []
    for check in result.checks:
        status = "PASS" if check.passed else "FAIL"
        line = f"{status} {check.name} ({check.instances} instances, {check.elapsed:.2f}s)"
        if not check.passed:
            line += f": {check.witness}"
        human.append(line)
    human.append(
        f"{'all checks passed' if result.passed else 'CHECK FAILURES'} "
        f"on corpus {result.corpus} with seed {result.seed}"
    )
    _emit(args, payload, human)
    return EXIT_OK if result.passed else EXIT_THEOREM


def cmd_gen(args):
    spec = serialize.load_corpus_spec(args.spec)
    sg = build(spec)
    _emit(args, serialize.semigroup_to_json(sg), [f"{spec.describe()}: order {sg.order}"])
    return EXIT_OK


def _parser():
    top = argparse.ArgumentParser(
        prog="semiconv",
        description="Exact structure and convolution-limit analysis of finite semigroups.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="print JSON instead of text")
        p.add_argument("-o", "--out", help="also write the JSON report to this file")
        return p

    p = add("validate", cmd_validate, "check a Cayley table file")
    p.add_argument("table")

    p = add("analyze", cmd_analyze, "structure report: idempotents, ideals, kernel")
    p.add_argument("table")

    p = add("rees", cmd_rees, "product decomposition of the kernel")
    p.add_argument("table")
    p.add_argument("--at", help="anchor idempotent label (default: least idempotent)")

    p = add("conv", cmd_conv, "convolve two distributions")
    p.add_argument("table")
    p.add_argument("mu")
    p.add_argument("nu")

    p = add("power", cmd_power, "n-th convolution power of a distribution")
    p.add_argument("table")
    p.add_argument("mu")
    p.add_argument("n", type=int)

    p = add("limit", cmd_limit, "limit analysis of the convolution walk")
    p.add_argument("table")
    p.add_argument("mu")
    p.add_argument("--max-power", type=int, default=16, help="diagnostic series length")
    p.add_argument(
        "--emit-diagnostic",
        action="store_true",
        help="include the averaged-shift deviation series",
    )

    p = add("cluster-element", cmd_cluster_element, "cycle structure of one element's powers")
    p.add_argument("table")
    p.add_argument("label")

    p = add("verify", cmd_verify, "run the theorem verification suite")
    p.add_argument("--corpus", choices=("default", "extended"), default="default")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-corruption",
        action="store_true",
        help="feed a broken table to prove the suite can fail",
    )

    p = add("gen", cmd_gen, "build a corpus semigroup from a spec file")
    p.add_argument("spec")

    return top


_PARSER = _parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except _THEOREM_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_THEOREM
    except (InvalidTable, InvalidDistribution) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MalformedInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SemiconvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_THEOREM


if __name__ == "__main__":
    sys.exit(main())
