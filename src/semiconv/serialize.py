"""JSON wire formats.

Cayley tables: {"labels": [...], "table": [[int, ...], ...]}.
Distributions: {"probs": {label: "p/q"}}, support entries only, in element
index order.  Rationals always travel as "p/q" strings, never floats.
All dumps are insertion-ordered and indent-2, so equal inputs produce
byte-identical files.

A table file is read once as bytes, and its common form is parsed with no
Python int per entry (_read_table): an object with exactly the keys
"labels" and "table", in that order, n labels (0 < n <= the order cap)
and n rows of n plain decimal integers in range(n), with any JSON spacing.
The table's digits go to one int array through bytes operations and
numpy.  The labels come from json.loads, with the repeated-key hook, on
the text with the table's value replaced by [].

This is sound: when _read_table returns, json.load with the hook gives
the same labels and table.  The table's value is taken as the text from
the last colon to the "]" before the closing "} ws", and it holds only
digits, commas, brackets and JSON whitespace.  Its whitespace removed and
then its digits, it is "[[" + n rows of n - 1 commas joined by "],[" +
"]]": a skeleton with n * n entry slots, each between "[" or "," and ","
or "]".  No digit follows a "]" or precedes a "[", so every digit lies in
a slot, each slot holds at most one digit run, and as the value has
n * n runs, each slot holds exactly one.  It had as many runs before its
whitespace was removed, so no whitespace split a run.  No run starts
with 0 unless it is "0", or has more digits than n - 1.  So the value is
a JSON array of n arrays of n integers, and the text parses exactly when
the text with [] in its place does, to the same object but for that
value.  That [] sits after a colon and just before the final "}", so it
is the value of the top-level object's last key, and json.loads found
the keys "labels" and "table", each once.  The integers are those
json.load reads, each in range(n), so core.validate_cayley takes the
array through the checks the rows would get, to the same result or error.

Every other file falls back to json.load on the file, read again as
text, and semigroup_from_json: other key orders, extra keys, "-0",
floats, true, leading zeros, out-of-range values, ragged rows, labels
that are not strings, and malformed JSON.  So every error keeps the
class, message and exit code that path gives it.
"""

import json

import numpy as np

from ._rat import rat_from_string, rat_to_string
from .core import DEFAULT_ORDER_CAP, validate_cayley
from .errors import InvalidDistribution, MalformedInput
from .generators import CorpusSpec
from .measure import Dist

# JSON's four whitespace bytes, and with them the bytes a table of plain
# non-negative integers is written in.
_WS = b" \t\n\r"
_TABLE_BYTES = b"0123456789,[]" + _WS


def dumps_canonical(obj):
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _unique_keys(path):
    """An object_pairs_hook that refuses a key repeated in one object."""

    def hook(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                # json.load alone would keep the last value without a word.
                raise MalformedInput(f"{path} repeats the key {key!r} in one object")
            obj[key] = value
        return obj

    return hook


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys(path))
    except OSError as exc:
        raise MalformedInput(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError, undecodable UTF-8 and integer
        # literals past the interpreter's digit limit; RecursionError covers
        # arrays or objects nested too deeply for the parser.
        raise MalformedInput(f"{path} is not valid JSON: {exc}") from exc


def _read_table(data, path):
    """(labels, n x n int array) from a table file's bytes in the common
    form the module docstring describes, or None for anything else."""
    end = len(data.rstrip(_WS))
    close = len(data[: end - 1].rstrip(_WS))
    colon = data.rfind(b":", 0, close)
    if data[end - 1 : end] != b"}" or data[close - 1 : close] != b"]" or colon < 0:
        return None
    body = data[colon + 1 : close]
    if body.translate(None, _TABLE_BYTES):
        return None
    head = data[: colon + 1] + b"[]" + data[close:]
    try:
        obj = json.loads(head.decode("utf-8"), object_pairs_hook=_unique_keys(path))
    except (ValueError, RecursionError, MalformedInput):
        return None
    if list(obj) != ["labels", "table"]:
        return None
    labels = obj["labels"]
    if not isinstance(labels, list) or not 0 < len(labels) <= DEFAULT_ORDER_CAP:
        return None
    if not all(isinstance(label, str) for label in labels):
        return None
    table = _int_table(body, len(labels))
    return None if table is None else (labels, table)


def _int_table(body, n):
    """The n x n array of a table value made of digits, commas, brackets
    and whitespace, or None unless it is n rows of n plain integers in
    range(n)."""
    compact = body.translate(None, _WS)
    if compact.translate(None, b"0123456789") != b"[[" + b"],[".join([b"," * (n - 1)] * n) + b"]]":
        return None
    width = len(str(n - 1))
    # width brackets in front, so every entry has width bytes before its end.
    c = np.frombuffer(b"[" * width + compact, dtype=np.uint8)
    v = c - ord("0")
    d = v < 10
    if ((c[:-1] == ord("]")) & d[1:]).any() or (d[:-1] & (c[1:] == ord("["))).any():
        return None  # a digit outside the entry slots
    end = d[width:-1] > d[width + 1 :]
    raw = np.frombuffer(body, dtype=np.uint8) - ord("0") < 10
    if np.count_nonzero(end) != n * n or np.count_nonzero(raw[1:] > raw[:-1]) != n * n:
        return None  # an empty slot, or an entry split by whitespace
    if ((v[1:-1] == 0) & d[2:] & ~d[:-2]).any():
        return None  # a leading zero
    at = np.flatnonzero(end)
    table = np.zeros(n * n, dtype=np.int32)
    inside = np.ones(n * n, dtype=bool)
    for k in range(width + 1):
        byte = v[width - k :][at]  # k bytes before each entry's last digit
        inside &= byte < 10
        if k < width:
            table += (byte * inside).astype(np.int32) * 10**k
    if inside.any() or table.max() >= n:
        return None  # an entry of more than width digits, or out of range
    return table.reshape(n, n)


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
    # The bytes are dropped before any fallback parse of the text.
    try:
        with open(path, "rb") as fh:
            table = _read_table(fh.read(), path)
    except OSError:
        table = None  # _load_json reports it
    if table is None:
        return semigroup_from_json(_load_json(path))
    return validate_cayley(*table)


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
