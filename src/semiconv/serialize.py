"""JSON wire formats.

Cayley tables: {"labels": [...], "table": [[int, ...], ...]}.
Distributions: {"probs": {label: "p/q"}}, support entries only, in element
index order.  Rationals always travel as "p/q" strings, never floats.
All dumps are insertion-ordered and indent-2, so equal inputs produce
byte-identical files.
"""

import json

from ._rat import rat_from_string, rat_to_string
from .core import validate_cayley
from .errors import InvalidDistribution, MalformedInput
from .generators import CorpusSpec
from .measure import Dist


def dumps_canonical(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _load_json(path):
    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                # json.load alone would keep the last value without a word.
                raise MalformedInput(f"{path} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable UTF-8 and integer
        # literals past the interpreter's digit limit; RecursionError covers
        # arrays or objects nested too deeply for the parser.
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def semigroup_to_json(sg):
    return {"labels": list(sg.labels), "table": [list(r) for r in sg.rows]}


def semigroup_from_json(obj):
    if not isinstance(obj, dict) or "labels" not in obj or "table" not in obj:
        raise MalformedInput('expected an object with "labels" and "table"')
    labels = obj["labels"]
    table = obj["table"]
    if not isinstance(labels, list) or not all(isinstance(l, str) for l in labels):
        raise MalformedInput('"labels" must be an array of strings')
    if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
        raise MalformedInput('"table" must be an array of arrays')
    return validate_cayley(labels, table)


def load_semigroup(path):
    return semigroup_from_json(_load_json(path))


def dist_to_json(mu):
    return {"probs": {mu.parent.label(i): rat_to_string(p) for i, p in mu.items()}}


def dist_from_json(sg, obj):
    if not isinstance(obj, dict) or "probs" not in obj or not isinstance(obj["probs"], dict):
        raise MalformedInput('expected an object with a "probs" mapping')
    probs = {}
    for label, text in obj["probs"].items():
        if not isinstance(text, str):
            raise MalformedInput(f"probability of {label!r} must be a 'p/q' string")
        try:
            z = sg.index(label)
        except MalformedInput as exc:
            raise InvalidDistribution(str(exc)) from None
        probs[z] = rat_from_string(text)
    if not probs:
        raise InvalidDistribution("no probabilities given")
    return Dist.from_mapping(sg, probs)


def load_dist(path, sg):
    return dist_from_json(sg, _load_json(path))


def element_set_to_json(es):
    return list(es.labels())


def group_to_json(grp):
    sg = grp.parent
    return {
        "carrier": element_set_to_json(grp.carrier),
        "identity": sg.label(grp.identity),
        "inverse": [[sg.label(a), sg.label(grp.inv(a))] for a in grp.carrier],
    }


def rees_to_json(dec):
    sg = dec.parent
    return {
        "base": sg.label(dec.base),
        "left": element_set_to_json(dec.left),
        "group": group_to_json(dec.group),
        "right": element_set_to_json(dec.right),
    }


def limit_report_to_json(report):
    sg = report.nu.parent
    return {
        "nu": dist_to_json(report.nu),
        "q": report.q,
        "p": report.p,
        "eta": dist_to_json(report.eta),
        "cluster": [dist_to_json(c) for c in report.cluster],
        "rees": rees_to_json(report.rees),
        "H": group_to_json(report.H),
        "gamma": sg.label(report.gamma),
        "checks": dict(report.checks),
    }


def power_cluster_to_json(sg, pc):
    return {
        "q": pc.q,
        "p": pc.p,
        "cluster": element_set_to_json(pc.cluster),
        "idempotent": sg.label(pc.idempotent),
    }


# Factor specs nest at most this deep.  A product of factors of order >= 2
# passes the order cap past 10 levels, so deeper specs only add order-1
# factors, and unbounded nesting would exhaust the interpreter's stack.
_MAX_SPEC_DEPTH = 32


def corpus_spec_from_json(obj, _depth=0):
    if _depth > _MAX_SPEC_DEPTH:
        raise MalformedInput(f"corpus spec factors nest deeper than {_MAX_SPEC_DEPTH} levels")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInput('corpus spec needs a "kind"')
    if not isinstance(obj["kind"], str):
        raise MalformedInput('"kind" must be a string')
    params = obj.get("params", [])
    if not isinstance(params, list) or not all(
        isinstance(p, int) and not isinstance(p, bool) for p in params
    ):
        raise MalformedInput('"params" must be an array of integers')
    seed = obj.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise MalformedInput('"seed" must be an integer')
    factors = obj.get("factors", [])
    if not isinstance(factors, list) or not all(isinstance(f, dict) for f in factors):
        raise MalformedInput('"factors" must be an array of objects')
    factors = tuple(corpus_spec_from_json(f, _depth + 1) for f in factors)
    return CorpusSpec(kind=obj["kind"], params=tuple(params), seed=seed, factors=factors)


def load_corpus_spec(path):
    return corpus_spec_from_json(_load_json(path))
