"""JSON wire formats: round trips, canonical dumps, malformed rejections."""

import copy
import json
import pickle

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
)
from semiconv.dynamics import LIMIT_CLAUSES
from semiconv.serialize import (
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
