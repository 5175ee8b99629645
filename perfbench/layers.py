"""The traced layers: which public functions are wrapped, what each counts,
and the per-layer metric names.

Layers are semiconv's modules; a layer metric is named
``<module>.<function>.<field>``.  ``TIMED_LAYERS`` run on every workload
(counting the traced set-up), so each gets calls, inclusive, self and
wait time.  ``CALL_ONLY_LAYERS`` run on some workloads only; their metric
is the call count, and their times are in the trace file.  The per-check
times ``verify`` reports are in the trace file as
``verify.check.<name>.elapsed_s``.
"""

from __future__ import annotations

from .checks import generated


def _rref(args, kwargs, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0), "max_rows": len(rows)}


def _support_size(dist):
    return sum(1 for p in dist.probs if p)


def _convolve(args, kwargs, result):
    return {"mults": _support_size(args[0]) * _support_size(args[1])}


def _validate_cayley(args, kwargs, result):
    return {"triples": result.order ** 3}


def _product_sets(args, kwargs, result):
    return {"pairs": len(args[0]) * len(args[1])}


def _cesaro_limit(args, kwargs, result):
    mu = args[0]
    gens = [z for z, p in enumerate(mu.probs) if p]
    return {"states": len(generated(mu.parent.rows, gens))}


def _run_suite(args, kwargs, result):
    return {f"check.{c.name}.elapsed_s": c.elapsed for c in result.checks}


TIMED_LAYERS = {
    "linalg.rref": _rref,
    "measure.convolve": _convolve,
    "measure.translate": None,
    "measure.marginals": None,
    "core.validate_cayley": _validate_cayley,
    "generators.build": None,
    "core.product_sets": _product_sets,
    "core.kernel": None,
    "core.group_structure": None,
    "rees.rees_decompose": None,
    "dynamics.cesaro_limit": _cesaro_limit,
    "dynamics.analyze_limit": None,
    "dynamics.support_period": None,
    "dynamics.power": None,
}
CALL_ONLY_LAYERS = {
    "serialize.load_semigroup": None,
    "serialize.limit_report_to_json": None,
    "verify.run_suite": _run_suite,
    "dynamics.element_power_cluster": None,
    "dynamics.cesaro_diagnostic": None,
    "dynamics.float_shadow": None,
}
TARGETS = {**TIMED_LAYERS, **CALL_ONLY_LAYERS}
COUNT_FIELDS = {
    "linalg.rref": ("cells", "max_rows"),
    "measure.convolve": ("mults",),
    "core.validate_cayley": ("triples",),
    "core.product_sets": ("pairs",),
    "dynamics.cesaro_limit": ("states",),
}
TIME_FIELDS = ("incl_s", "self_s", "wait_s")


def metric_names():
    names = []
    for layer in TIMED_LAYERS:
        names.append(f"{layer}.calls")
        names.extend(f"{layer}.{f}" for f in TIME_FIELDS + COUNT_FIELDS.get(layer, ()))
    names.extend(f"{layer}.calls" for layer in CALL_ONLY_LAYERS)
    names.append("trace.overhead")
    return names


def unit(name):
    if name == "trace.overhead":
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def metrics(summary, overhead):
    """Per-layer metrics from a tracer summary, as {name: {value, unit}}."""
    out = {}
    for name in metric_names():
        if name == "trace.overhead":
            value = overhead
        else:
            layer, field = name.rsplit(".", 1)
            value = summary[layer].get(field, 0)
        out[name] = {"value": value, "unit": unit(name)}
    return out
