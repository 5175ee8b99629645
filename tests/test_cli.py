"""Command line driver: output shapes and the exit-code contract.

Exit codes: 0 success, 1 unreadable or unparseable input, 2 structurally
invalid semigroup or distribution data, 3 a theorem check failed.  Each
error class declares its code in `semiconv.errors`.
"""

import json

import pytest

from semiconv import DEFAULT_ORDER_CAP, cli, core, errors, generators, rees
from semiconv.cli import main
from semiconv.core import is_left_simple, is_right_simple, is_simple
from semiconv.errors import (
    IndexOutOfRange,
    MalformedInput,
    NonAssociative,
    SemiconvError,
    TheoremViolation,
)
from semiconv.serialize import dumps_canonical, semigroup_to_json
from semiconv.verify import build_corpus


def write(path, obj):
    path.write_text(dumps_canonical(obj), encoding="utf-8")
    return str(path)


@pytest.fixture
def z4(tmp_path):
    return write(
        tmp_path / "z4.json",
        {
            "labels": ["0", "1", "2", "3"],
            "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        },
    )


@pytest.fixture
def z2(tmp_path):
    return write(
        tmp_path / "z2.json",
        {"labels": ["0", "1"], "table": [[0, 1], [1, 0]]},
    )


def dist_file(tmp_path, name, probs):
    return write(tmp_path / name, {"probs": probs})


def test_validate_ok(z4, capsys):
    assert main(["validate", z4]) == 0
    assert capsys.readouterr().out == "valid semigroup: order 4\n"


def test_validate_honours_json_and_out(z4, tmp_path, capsys):
    # validate once printed its line and ignored both flags.
    assert main(["validate", z4, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"order": 4}
    target = tmp_path / "valid.json"
    assert main(["validate", z4, "-o", str(target)]) == 0
    assert capsys.readouterr().out == "valid semigroup: order 4\n"
    assert json.loads(target.read_text(encoding="utf-8")) == {"order": 4}


def test_validate_non_associative(tmp_path, capsys):
    bad = write(
        tmp_path / "bad.json",
        {"labels": ["a", "b"], "table": [[0, 1], [0, 0]]},
    )
    assert main(["validate", bad]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_index_out_of_range(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"labels": ["a"], "table": [[9]]})
    assert main(["validate", bad]) == 2


def test_validate_entry_past_int64(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"labels": ["a", "b"], "table": [[0, 1], [2**70, 0]]})
    assert main(["validate", bad]) == 2
    assert "table[1][0] = 1180591620717411303424 is not a valid element index" in capsys.readouterr().err


def test_validate_ragged_table(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"labels": ["a", "b"], "table": [[0, 1]]})
    assert main(["validate", bad]) == 2
    assert "table has 1 rows for 2 elements" in capsys.readouterr().err
    bad = write(tmp_path / "bad.json", {"labels": ["a", "b"], "table": [[0], [0, 1]]})
    assert main(["validate", bad]) == 2


def test_validate_duplicate_labels(tmp_path, capsys):
    bad = write(tmp_path / "bad.json", {"labels": ["a", "a"], "table": [[0, 1], [1, 0]]})
    assert main(["validate", bad]) == 2
    assert "duplicate element labels" in capsys.readouterr().err


def test_validate_empty_table(tmp_path, capsys):
    # A table with no elements parses but is invalid data: once exit 1.
    bad = write(tmp_path / "empty.json", {"labels": [], "table": []})
    assert main(["validate", bad]) == 2
    assert capsys.readouterr().err == "error: no elements\n"


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unparseable_json_is_io_error(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{oops", encoding="utf-8")
    assert main(["validate", str(path)]) == 1


def test_repeated_key_is_io_error(tmp_path, capsys):
    # json.load alone keeps the last "a", so this would pass as {a: 1/2, b: 1/2}.
    table = write(tmp_path / "ab.json", {"labels": ["a", "b"], "table": [[0, 1], [1, 0]]})
    mu = tmp_path / "mu.json"
    mu.write_text('{"probs": {"a": "1/3", "b": "1/2", "a": "1/2"}}', encoding="utf-8")
    assert main(["limit", table, str(mu)]) == 1
    err = capsys.readouterr().err
    assert "repeats the key 'a'" in err and str(mu) in err
    twice = tmp_path / "twice.json"
    twice.write_text('{"labels": ["a"], "table": [[0]], "labels": ["b"]}', encoding="utf-8")
    assert main(["validate", str(twice)]) == 1
    assert "repeats the key 'labels'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, data",
    [
        ("validate", b"[" * 200000 + b"]" * 200000),
        ("validate", b"\xff\xfe{}"),
        # Past the integer digit limit json.load fails; without it the
        # number loads and is rejected as a probability that is no string.
        ("limit", b'{"probs": {"0": ' + b"7" * 5000 + b"}}"),
    ],
    ids=["deeply_nested_table", "table_not_utf8", "5000_digit_probability"],
)
def test_input_beyond_parser_limits_is_io_error(z2, tmp_path, capsys, command, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    argv = ["validate", str(path)] if command == "validate" else ["limit", z2, str(path)]
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_json(z4, capsys):
    assert main(["analyze", z4, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 4
    assert payload["idempotents"] == ["0"]
    assert payload["kernel"] == ["0", "1", "2", "3"]
    assert payload["is_simple"] and payload["is_left_simple"] and payload["is_right_simple"]
    assert payload["minimal_left_ideals"] == [["0", "1", "2", "3"]]
    assert payload["kernel_decomposition"]["group"]["identity"] == "0"


def test_analyze_human(z4, capsys):
    assert main(["analyze", z4]) == 0
    out = capsys.readouterr().out
    assert "order: 4" in out
    assert "idempotents: {0}" in out
    assert "simple: yes" in out


def test_rees_subcommand(tmp_path, capsys):
    band = write(
        tmp_path / "band.json",
        {
            "labels": ["(0,0)", "(0,1)", "(1,0)", "(1,1)"],
            "table": [[0, 1, 0, 1], [0, 1, 0, 1], [2, 3, 2, 3], [2, 3, 2, 3]],
        },
    )
    assert main(["rees", band, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"] == "(0,0)"
    assert payload["left"] == ["(0,0)", "(1,0)"]
    assert payload["group"]["carrier"] == ["(0,0)"]
    assert payload["right"] == ["(0,0)", "(0,1)"]
    # anchor at another idempotent
    assert main(["rees", band, "--at", "(1,1)", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["base"] == "(1,1)"
    # unknown label is a parse-level failure
    assert main(["rees", band, "--at", "zzz"]) == 1


def test_rees_at_an_idempotent_outside_the_kernel(tmp_path, capsys):
    # In full_transformation(2) the kernel is {00, 11}.  The identity map 01
    # is idempotent but outside it; the swap 10 is not idempotent at all.
    spec = write(tmp_path / "t2-spec.json", {"kind": "full_transformation", "params": [2]})
    table = tmp_path / "t2.json"
    assert main(["gen", spec, "-o", str(table)]) == 0
    capsys.readouterr()
    assert main(["rees", str(table), "--at", "01"]) == 2
    err = capsys.readouterr().err
    assert "01" in err and "is not idempotent" not in err
    assert main(["rees", str(table), "--at", "10"]) == 2
    assert "element 10 is not idempotent" in capsys.readouterr().err


def test_conv_subcommand(z4, tmp_path, capsys):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/1"})
    nu = dist_file(tmp_path, "nu.json", {"2": "1/1"})
    assert main(["conv", z4, mu, nu]) == 0
    assert capsys.readouterr().out == "3: 1/1\n"
    assert main(["conv", z4, mu, nu, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"probs": {"3": "1/1"}}


def test_power_subcommand(z4, tmp_path, capsys):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/2", "3": "1/2"})
    assert main(["power", z4, mu, "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # (1/2, 1/2) on {1,3} squared lands on {0, 2}
    assert payload == {"probs": {"0": "1/2", "2": "1/2"}}
    assert main(["power", z4, mu, "0"]) == 1


def test_invalid_distribution_exit_code(z4, tmp_path, capsys):
    short = dist_file(tmp_path, "short.json", {"1": "1/2"})
    assert main(["power", z4, short, "2"]) == 2
    off = dist_file(tmp_path, "off.json", {"9": "1/1"})
    assert main(["power", z4, off, "2"]) == 2  # unknown label
    assert "unknown element label: '9'" in capsys.readouterr().err


def test_limit_subcommand(z2, tmp_path, capsys):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/1"})
    assert main(["limit", z2, mu, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["nu"] == {"probs": {"0": "1/2", "1": "1/2"}}
    assert payload["q"] == 1 and payload["p"] == 2
    assert payload["eta"] == {"probs": {"0": "1/1"}}
    assert payload["gamma"] == "1"
    assert all(payload["checks"].values())
    assert "diagnostic" not in payload


def test_limit_diagnostic(z2, tmp_path, capsys):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/1"})
    assert main(["limit", z2, mu, "--json", "--emit-diagnostic", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["diagnostic"]["deviations"] == ["2/1", "0/1", "2/3", "0/1"]
    assert payload["diagnostic"]["limit_gaps"] == ["1/1", "0/1", "1/3", "0/1"]
    # human mode mentions the final gap
    assert main(["limit", z2, mu, "--emit-diagnostic", "4"]) == 0
    assert "diagnostic gap to limit after 4 steps: 0/1" in capsys.readouterr().out
    # with no value the series runs 16 steps
    assert main(["limit", z2, mu, "--emit-diagnostic"]) == 0
    assert "diagnostic gap to limit after 16 steps: 0/1" in capsys.readouterr().out


def test_limit_rejects_max_power_before_solving(z2, tmp_path, capsys, monkeypatch):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/1"})

    def unreachable(*args, **kwargs):
        raise AssertionError("analyze_limit ran before the argument check")

    monkeypatch.setattr(cli, "analyze_limit", unreachable)
    assert main(["limit", z2, mu, "--emit-diagnostic", "0"]) == 1
    assert "--emit-diagnostic must be >= 1, got 0" in capsys.readouterr().err


# The exit-code taxonomy, written out class by class: 1 for input that
# cannot be read, parsed or written, 2 for invalid data, 3 for a failed
# theorem.
EXIT_CODES = {
    "MalformedInput": 1,
    "InvalidTable": 2,
    "IndexOutOfRange": 2,
    "InvalidDistribution": 2,
    "TheoremViolation": 3,
    "VerificationFailed": 3,
    "HypothesisViolated": 3,
    "SingularDecomposition": 3,
}
ERROR_CLASSES = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, SemiconvError)
]


def test_the_taxonomy_names_existing_classes():
    assert set(EXIT_CODES) <= {c.__name__ for c in ERROR_CLASSES}


@pytest.mark.parametrize("error_class", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_each_error_class_declares_its_exit_code(error_class):
    assert error_class.exit_code == EXIT_CODES.get(error_class.__name__, 2)


@pytest.mark.parametrize(
    "error, code",
    [
        (MalformedInput("cannot parse"), 1),
        (IndexOutOfRange(0, 1, 9), 2),
        (NonAssociative(1, 2, 3), 2),
        (TheoremViolation("eta_idempotent", "detail"), 3),
    ],
    ids=["MalformedInput", "IndexOutOfRange", "NonAssociative", "TheoremViolation"],
)
def test_main_returns_the_code_the_error_declares(error, code, z2, tmp_path, capsys, monkeypatch):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/1"})

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "analyze_limit", failing)
    assert main(["limit", z2, mu]) == code == type(error).exit_code
    captured = capsys.readouterr()
    assert captured.err == f"error: {error}\n"
    assert captured.out == ""


def test_unwritable_out_file_is_io_error(z4, tmp_path, capsys):
    # Once an internal error: open's FileNotFoundError reached main's catch-all.
    target = tmp_path / "missing" / "report.json"
    assert main(["analyze", z4, "-o", str(target)]) == 1
    captured = capsys.readouterr()
    # the file is written before the report is printed, so a failed write
    # prints no report
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_a_command_line_that_does_not_parse_is_malformed_input(z2, capsys):
    assert main(["limit", z2]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: semiconv limit ")
    assert captured.err.endswith("error: the following arguments are required: mu\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["limit", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: semiconv limit ")


def test_unexpected_exception_is_an_internal_error(z2, tmp_path, capsys, monkeypatch):
    mu = dist_file(tmp_path, "mu.json", {"1": "1/1"})

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "analyze_limit", broken)
    assert main(["limit", z2, mu]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""


def test_cluster_element_subcommand(z4, capsys):
    assert main(["cluster-element", z4, "1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"q": 1, "p": 4, "cluster": ["0", "1", "2", "3"], "idempotent": "0"}
    assert main(["cluster-element", z4, "7"]) == 1


def test_out_file_written_in_human_mode(z4, tmp_path, capsys):
    target = tmp_path / "report.json"
    assert main(["analyze", z4, "-o", str(target)]) == 0
    human = capsys.readouterr().out
    assert "order: 4" in human
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["order"] == 4


def test_gen_subcommand(tmp_path, capsys):
    spec = write(tmp_path / "spec.json", {"kind": "rectangular_band", "params": [2, 2]})
    assert main(["gen", spec]) == 0
    assert capsys.readouterr().out == "rectangular_band(2,2): order 4\n"
    table = tmp_path / "band.json"
    assert main(["gen", spec, "-o", str(table)]) == 0
    capsys.readouterr()
    # generated output feeds straight back in as a table
    assert main(["validate", str(table)]) == 0
    assert main(["gen", write(tmp_path / "bad.json", {"kind": "nope"})]) == 2
    assert main(["gen", write(tmp_path / "kind.json", {"kind": []})]) == 1
    assert '"kind" must be a string' in capsys.readouterr().err


def test_gen_refuses_factor_specs_on_a_kind_that_is_not_a_product(tmp_path, capsys):
    # The factors were once ignored, and cyclic(2) built with exit 0.
    spec = {"kind": "cyclic", "params": [2], "factors": [{"kind": "cyclic", "params": [2]}]}
    assert main(["gen", write(tmp_path / "spec.json", spec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: cyclic takes parameters, not factor specs\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"kind": "cyclic", "params": [True]}, '"params" must be an array of integers'),
        ({"kind": "cyclic", "params": [3], "seed": True}, '"seed" must be an integer'),
    ],
    ids=["params", "seed"],
)
def test_gen_rejects_json_booleans_as_integers(spec, message, tmp_path, capsys):
    assert main(["gen", write(tmp_path / "spec.json", spec)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def nested_products(levels):
    """A direct_product spec nested `levels` deep, every leaf cyclic(1)."""
    spec = {"kind": "cyclic", "params": [1]}
    for _ in range(levels):
        spec = {"kind": "direct_product", "factors": [spec, {"kind": "cyclic", "params": [1]}]}
    return spec


def test_gen_refuses_a_spec_nested_too_deep_as_malformed_input(tmp_path, capsys):
    # 400 levels once overflowed the stack and exited 3 as an internal error.
    assert main(["gen", write(tmp_path / "deep.json", nested_products(400))]) == 1
    err = capsys.readouterr().err
    assert "nest deeper than 32 levels" in err
    assert "internal error" not in err
    assert main(["gen", write(tmp_path / "shallow.json", nested_products(3))]) == 0
    assert capsys.readouterr().out.endswith(": order 1\n")


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "params": [1100]},
        {
            "kind": "direct_product",
            "factors": [{"kind": "cyclic", "params": [40]}, {"kind": "cyclic", "params": [40]}],
        },
        {"kind": "rectangular_band", "params": [33, 33]},
        {"kind": "rees_matrix", "params": [11, 10, 10], "seed": 3},
    ],
    ids=["cyclic(1100)", "cyclic(40) x cyclic(40)", "rectangular_band(33,33)", "rees_matrix(11,10,10)"],
)
def test_gen_refuses_an_order_over_the_cap_before_building(spec, tmp_path, capsys, monkeypatch):
    real_validate = generators.validate_cayley

    def small_only(labels, table):
        if len(labels) > DEFAULT_ORDER_CAP:
            raise AssertionError(f"built a {len(labels)}-element table past the cap")
        return real_validate(labels, table)

    monkeypatch.setattr(generators, "validate_cayley", small_only)
    monkeypatch.setattr(rees, "validate_cayley", small_only)
    assert main(["gen", write(tmp_path / "spec.json", spec)]) == 2
    assert f"exceeds the configured cap {DEFAULT_ORDER_CAP}" in capsys.readouterr().err


def test_verify_subcommand(capsys):
    assert main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 21
    assert out.strip().endswith("on corpus default with seed 0")


def test_verify_json_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--seed", "3", "-o", str(a)]) == 0
    assert main(["verify", "--seed", "3", "-o", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_text(encoding="utf-8"))["passed"] is True


def test_verify_corruption_exit_code(capsys):
    assert main(["verify", "--inject-corruption"]) == 3
    out = capsys.readouterr().out
    assert "FAIL kernel_least_ideal" in out
    assert "CHECK FAILURES" in out


def test_limit_answers_on_a_table_over_300_elements(tmp_path, capsys):
    # the 16 x 19 rectangular band, (i, j) * (k, l) = (i, l), has order 304;
    # only DEFAULT_ORDER_CAP bounds the tables limit accepts
    cells = [(i, j) for i in range(16) for j in range(19)]
    band = write(
        tmp_path / "band.json",
        {
            "labels": [f"{i},{j}" for i, j in cells],
            "table": [[19 * i + l for _, l in cells] for i, _ in cells],
        },
    )
    mu = dist_file(tmp_path, "mu.json", {"0,0": "1/2", "15,18": "1/2"})
    assert main(["limit", band, mu, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["checks"]) == 21 and all(report["checks"].values())


def test_analyze_builds_the_kernel_once_and_keeps_the_flags(tmp_path, capsys, monkeypatch):
    calls, decomposed = [], []

    def counting(into, real):
        def call(s, *args, **kwargs):
            into.append(s)
            return real(s, *args, **kwargs)

        return call

    monkeypatch.setattr(cli, "kernel", counting(calls, cli.kernel))
    monkeypatch.setattr(cli, "rees_decompose", counting(decomposed, cli.rees_decompose))
    for inst in build_corpus("default"):
        sg = inst.semigroup
        car = sg.carrier()
        path = write(tmp_path / "sg.json", semigroup_to_json(sg))
        calls.clear()
        decomposed.clear()
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # once on the carrier; the minimal ideals are read off the one split
        assert [c.mask for c in calls] == [car.mask], inst.name
        assert [d.mask for d in decomposed] == [core.kernel(car).mask], inst.name
        assert [payload[f] for f in ("is_simple", "is_left_simple", "is_right_simple")] == [
            is_simple(car),
            is_left_simple(car),
            is_right_simple(car),
        ], inst.name


# Table files that validate refuses, with the exit code and message of each.
# {path} stands for the file's path.
REFUSED_TABLES = {
    "not_an_object": (b'["labels", "table"]', 1, 'expected an object with "labels" and "table"'),
    "labels_not_strings": (b'{"labels": [0], "table": [[0]]}', 1, '"labels" must be an array of strings'),
    "table_not_rows": (b'{"labels": ["a"], "table": [0]}', 1, '"table" must be an array of arrays'),
    "entry_00": (
        b'{"labels": ["a", "b"], "table": [[0, 1], [1, 00]]}',
        1,
        "{path} is not valid JSON: Expecting ',' delimiter: line 1 column 47 (char 46)",
    ),
    "repeated_key": (
        b'{"labels": ["a"], "table": [[0]], "table": [[0]]}',
        1,
        "{path} repeats the key 'table' in one object",
    ),
    "entry_true": (
        b'{"labels": ["a", "b"], "table": [[0, 1], [true, 0]]}',
        2,
        "table[1][0] = True is not a valid element index",
    ),
    "entry_float": (
        b'{"labels": ["a", "b"], "table": [[0, 1], [1.0, 0]]}',
        2,
        "table[1][0] = 1.0 is not a valid element index",
    ),
    "entry_negative": (
        b'{"labels": ["a", "b"], "table": [[0, 1], [1, -1]]}',
        2,
        "table[1][1] = -1 is not a valid element index",
    ),
    "entry_n": (
        b'{"labels": ["a", "b"], "table": [[0, 2], [1, 0]]}',
        2,
        "table[0][1] = 2 is not a valid element index",
    ),
    "row_count": (b'{"labels": ["a", "b"], "table": [[0, 1]]}', 2, "table has 1 rows for 2 elements"),
    "row_length": (
        b'{"labels": ["a", "b"], "table": [[0, 1], [1]]}',
        2,
        "table row 1 has 1 entries for 2 elements",
    ),
    "no_labels": (b'{"labels": [], "table": []}', 2, "no elements"),
}


@pytest.mark.parametrize("data, code, message", REFUSED_TABLES.values(), ids=REFUSED_TABLES)
def test_validate_refuses_a_table_file_with_its_code_and_message(data, code, message, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_bytes(data)
    assert main(["validate", str(path)]) == code
    assert capsys.readouterr().err == "error: " + message.format(path=path) + "\n"
