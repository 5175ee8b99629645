"""JSON wire formats: round trips, canonical dumps, malformed rejections."""

import copy
import json
import pickle
import random

import pytest

from semiconv import (
    CorpusSpec,
    Dist,
    InvalidDistribution,
    MalformedInput,
    RAT,
    analyze_limit,
    build,
    dirac,
    element_power_cluster,
    group_structure,
    kernel,
    rees_decompose,
    serialize,
)
from semiconv.dynamics import LIMIT_CLAUSES
from semiconv.serialize import (
    _load_json,
    corpus_spec_from_json,
    dist_from_json,
    dist_to_json,
    dumps_canonical,
    element_set_to_json,
    group_to_json,
    limit_report_to_json,
    load_corpus_spec,
    load_dist,
    load_semigroup,
    power_cluster_to_json,
    rees_to_json,
    semigroup_from_json,
    semigroup_to_json,
)


def cyclic(n):
    return build(CorpusSpec("cyclic", (n,)))


def test_semigroup_round_trip():
    z4 = cyclic(4)
    obj = semigroup_to_json(z4)
    assert obj == {
        "labels": ["0", "1", "2", "3"],
        "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
    }
    back = semigroup_from_json(obj)
    assert back.labels == z4.labels and back.rows == z4.rows


def test_semigroup_from_json_rejections():
    with pytest.raises(MalformedInput):
        semigroup_from_json([])
    with pytest.raises(MalformedInput):
        semigroup_from_json({"labels": ["a"]})
    with pytest.raises(MalformedInput):
        semigroup_from_json({"labels": [1], "table": [[0]]})
    with pytest.raises(MalformedInput):
        semigroup_from_json({"labels": ["a"], "table": [0]})


def test_load_semigroup(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(dumps_canonical(semigroup_to_json(cyclic(3))), encoding="utf-8")
    sg = load_semigroup(str(path))
    assert sg.order == 3 and sg.mul(1, 2) == 0
    with pytest.raises(MalformedInput):
        load_semigroup(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_semigroup(str(bad))


# Tables of orders 1 to 176, and the three ways table files are written:
# json.dump's default separators (as the benchmark writes them), gen's
# indent=2, and compact.
MUTATED_TABLE_SPECS = [
    (CorpusSpec("cyclic", (1,)), 40),
    (CorpusSpec("cyclic", (2,)), 40),
    (CorpusSpec("full_transformation", (2,)), 40),
    (CorpusSpec("rectangular_band", (3, 4)), 40),
    (CorpusSpec("full_transformation", (3,)), 30),
    (CorpusSpec("random_transformation_subsemigroup", (4, 2), seed=25), 4),
]
TABLE_WRITERS = [json.dumps, dumps_canonical, lambda obj: json.dumps(obj, separators=(",", ":"))]
MUTATION_BYTES = b'0123456789-+.eE,[]{}: \n\r\t"tn\\\x00\xff'


def _table_outcome(load, path):
    try:
        sg = load(path)
    except Exception as exc:
        return type(exc), str(exc)
    return sg.labels, sg.rows


def _mutate(rng, data):
    data = bytearray(data)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(data) + 1)
        byte = MUTATION_BYTES[rng.randrange(len(MUTATION_BYTES))]
        edit = rng.randrange(3)
        if edit == 0:
            data.insert(at, byte)
        elif at < len(data):
            if edit == 1:
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


def test_table_files_load_as_the_json_path_loads_them(tmp_path):
    # load_semigroup must agree with json.load and semigroup_from_json on
    # every file: the same Semigroup, or the same error and message.
    rng = random.Random(2024)
    path = str(tmp_path / "table.json")
    for spec, mutations in MUTATED_TABLE_SPECS:
        obj = semigroup_to_json(build(spec))
        for write in TABLE_WRITERS:
            text = write(obj).encode("utf-8")
            for data in [text, text.replace(b"\n", b"\r\n")] + [_mutate(rng, text) for _ in range(mutations)]:
                with open(path, "wb") as fh:
                    fh.write(data)
                want = _table_outcome(lambda p: semigroup_from_json(_load_json(p)), path)
                assert _table_outcome(load_semigroup, path) == want, data


def test_written_table_files_skip_the_json_path(tmp_path, monkeypatch):
    # Every way a table file is written is read by the array reader.
    path = tmp_path / "table.json"
    calls = []
    monkeypatch.setattr(serialize, "_load_json", lambda p: calls.append(p) or _load_json(p))
    for spec, _ in MUTATED_TABLE_SPECS:
        sg = build(spec)
        for write in TABLE_WRITERS:
            text = write(semigroup_to_json(sg))
            for data in (text, text.replace("\n", "\r\n")):
                path.write_text(data, encoding="utf-8", newline="")
                got = load_semigroup(str(path))
                assert (got.labels, got.rows) == (sg.labels, sg.rows)
    assert calls == []


# Files the array reader must decline, each but the first two an error.
DECLINED_TABLES = {
    "table_first": '{"table": [[0, 1], [1, 0]], "labels": ["a", "b"]}',
    "third_key": '{"labels": ["a", "b"], "table": [[0, 1], [1, 0]], "note": ""}',
    "entry_split_by_a_space": json.dumps(semigroup_to_json(cyclic(11))).replace(", 10,", ", 1 0,", 1),
    "entry_after_a_row": '{"labels": ["a", "b"], "table": [[0, ] 1, [1, 0]]}',
    "leading_zero": '{"labels": ["a", "b"], "table": [[0, 1], [01, 0]]}',
    "minus_zero": '{"labels": ["a", "b"], "table": [[0, 1], [1, -0]]}',
    "exponent": '{"labels": ["a", "b"], "table": [[0, 1], [1e0, 0]]}',
    "out_of_range": '{"labels": ["a", "b"], "table": [[0, 1], [1, 2]]}',
    "too_many_digits": '{"labels": ["a", "b"], "table": [[0, 1], [1, 10]]}',
    "ragged": '{"labels": ["a", "b"], "table": [[0, 1, 0], [1]]}',
    "repeated_key": '{"labels": ["a", "b"], "labels": ["a", "b"], "table": [[0, 1], [1, 0]]}',
}


@pytest.mark.parametrize("text", DECLINED_TABLES.values(), ids=DECLINED_TABLES)
def test_declined_table_files_load_through_the_json_path(text, tmp_path, monkeypatch):
    path = str(tmp_path / "table.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    want = _table_outcome(lambda p: semigroup_from_json(_load_json(p)), path)
    calls = []
    monkeypatch.setattr(serialize, "_load_json", lambda p: calls.append(p) or _load_json(p))
    assert _table_outcome(load_semigroup, path) == want
    assert calls == [path]


def test_dist_wire_format():
    z4 = cyclic(4)
    mu = Dist(z4, (RAT(1, 2), RAT(0), RAT(1, 2), RAT(0)))
    obj = dist_to_json(mu)
    # support entries only, index order, rationals as "p/q" strings
    assert obj == {"probs": {"0": "1/2", "2": "1/2"}}
    assert list(obj["probs"]) == ["0", "2"]
    assert dist_from_json(z4, obj) == mu


def test_dist_from_json_rejections():
    z4 = cyclic(4)
    with pytest.raises(MalformedInput):
        dist_from_json(z4, {"weights": {}})
    with pytest.raises(InvalidDistribution):
        dist_from_json(z4, {"probs": {}})
    with pytest.raises(MalformedInput):
        dist_from_json(z4, {"probs": {"0": 0.5}})
    with pytest.raises(MalformedInput):
        dist_from_json(z4, {"probs": {"0": "0.5"}})
    with pytest.raises(MalformedInput):
        dist_from_json(z4, {"probs": {"9": "1/1"}})
    with pytest.raises(InvalidDistribution):
        dist_from_json(z4, {"probs": {"0": "1/3"}})


def test_load_dist(tmp_path):
    z4 = cyclic(4)
    path = tmp_path / "mu.json"
    path.write_text(dumps_canonical({"probs": {"1": "1/1"}}), encoding="utf-8")
    assert load_dist(str(path), z4) == dirac(z4, 1)


def test_dumps_canonical_is_stable():
    obj = {"b": 1, "a": [1, 2]}
    text = dumps_canonical(obj)
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert dumps_canonical(json.loads(text)) == text


def test_group_and_rees_to_json():
    t2 = build(CorpusSpec("full_transformation", (2,)))
    dec = rees_decompose(kernel(t2))
    obj = rees_to_json(dec)
    assert obj["base"] == "00"
    assert obj["left"] == ["00", "11"]
    assert obj["group"]["carrier"] == ["00"]
    assert obj["group"]["identity"] == "00"
    assert obj["group"]["inverse"] == [["00", "00"]]
    assert obj["right"] == ["00"]
    z3 = cyclic(3)
    gobj = group_to_json(group_structure(z3.carrier()))
    assert gobj["identity"] == "0"
    assert gobj["inverse"] == [["0", "0"], ["1", "2"], ["2", "1"]]
    assert element_set_to_json(z3.carrier()) == ["0", "1", "2"]


def test_limit_report_to_json():
    z2 = cyclic(2)
    rep = analyze_limit(dirac(z2, 1))
    obj = limit_report_to_json(rep)
    assert obj["nu"] == {"probs": {"0": "1/2", "1": "1/2"}}
    assert obj["q"] == 1 and obj["p"] == 2
    assert obj["eta"] == {"probs": {"0": "1/1"}}
    assert obj["cluster"] == [{"probs": {"0": "1/1"}}, {"probs": {"1": "1/1"}}]
    assert obj["gamma"] == "1"
    assert obj["H"]["carrier"] == ["0"]
    assert obj["checks"] == dict.fromkeys(LIMIT_CLAUSES, True)
    assert list(obj["checks"]) == list(LIMIT_CLAUSES)
    # serializable as-is
    json.dumps(obj)


def test_limit_report_copies_and_pickles_to_the_same_json():
    # The report holds Dists, ElementSets and its Semigroup; each rebuilds.
    sg = build(CorpusSpec("full_transformation", (2,)))
    rep = analyze_limit(Dist.from_mapping(sg, {"10": RAT(1, 2), "00": RAT(1, 2)}))
    want = dumps_canonical(limit_report_to_json(rep))
    for other in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert other.nu.parent is not sg
        assert dumps_canonical(limit_report_to_json(other)) == want


def test_power_cluster_to_json():
    t3 = build(CorpusSpec("full_transformation", (3,)))
    pc = element_power_cluster(t3, t3.index("120"))
    obj = power_cluster_to_json(t3, pc)
    assert obj == {
        "q": 1,
        "p": 3,
        "cluster": ["012", "120", "201"],
        "idempotent": "012",
    }


def test_corpus_spec_from_json():
    spec = CorpusSpec(
        "direct_product",
        factors=(
            CorpusSpec("left_zero", (2,)),
            CorpusSpec("rees_matrix", (2, 2, 2), seed=11),
        ),
    )
    obj = {
        "kind": "direct_product",
        "factors": [
            {"kind": "left_zero", "params": [2]},
            {"kind": "rees_matrix", "params": [2, 2, 2], "seed": 11},
        ],
    }
    assert corpus_spec_from_json(obj) == spec
    assert corpus_spec_from_json({"kind": "cyclic", "params": [4], "seed": 0}) == CorpusSpec("cyclic", (4,))
    assert corpus_spec_from_json({"kind": "cyclic", "params": [4]}) == CorpusSpec("cyclic", (4,))


def test_corpus_spec_rejections(tmp_path):
    with pytest.raises(MalformedInput):
        corpus_spec_from_json({"params": [1]})
    with pytest.raises(MalformedInput):
        corpus_spec_from_json({"kind": "cyclic", "params": ["2"]})
    with pytest.raises(MalformedInput):
        corpus_spec_from_json({"kind": "cyclic", "seed": "x"})
    with pytest.raises(MalformedInput):
        corpus_spec_from_json({"kind": "direct_product", "factors": 5})
    for kind in ([], {"a": 1}, None):
        with pytest.raises(MalformedInput, match='"kind" must be a string'):
            corpus_spec_from_json({"kind": kind})
    # factors nest at most 32 levels deep
    spec = {"kind": "cyclic", "params": [1]}
    for _ in range(32):
        spec = {"kind": "direct_product", "factors": [spec]}
    assert corpus_spec_from_json(spec).kind == "direct_product"
    with pytest.raises(MalformedInput, match="nest deeper than 32 levels"):
        corpus_spec_from_json({"kind": "direct_product", "factors": [spec]})
    path = tmp_path / "spec.json"
    path.write_text(dumps_canonical({"kind": "cyclic", "params": [3], "seed": 0}), encoding="utf-8")
    assert load_corpus_spec(str(path)) == CorpusSpec("cyclic", (3,))
