import importlib
import io
import itertools
import json
import sys

import pytest

from conftest import binary, bq, twist, z_squared
from dynres import cli
from dynres.cli import main


def _write_model(tmp_path, name, model):
    path = tmp_path / name
    path.write_text(json.dumps(model.to_json()))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_resultant_z_squared(tmp_path, capsys):
    path = _write_model(tmp_path, "z2.json", z_squared())
    code, out = _run(capsys, ["resultant", path])
    assert code == 0
    assert json.loads(out) == {"method": "sylvester", "res": "1", "vanishes": False}


def test_resultant_backend_flag(tmp_path, capsys):
    path = _write_model(tmp_path, "m.json", bq(2, 1, -3, 1, 0, 1))
    code_a, out_a = _run(capsys, ["resultant", path, "--backend", "bareiss"])
    code_b, out_b = _run(capsys, ["resultant", path, "--backend", "modular_crt"])
    assert code_a == code_b == 0
    assert json.loads(out_a)["res"] == json.loads(out_b)["res"]


def test_reduce_schema(tmp_path, capsys):
    path = _write_model(tmp_path, "t8.json", twist(8))
    code, out = _run(capsys, ["reduce", path])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"res", "local", "minimal_resultant", "norm", "fully_certified"}
    assert payload["res"] == "8"
    assert payload["norm"] == "2"
    assert payload["minimal_resultant"] == {"2": 1}
    assert payload["local"] == [{"certified": False, "e": 3, "eps": 1, "p": "2"}]
    assert payload["fully_certified"] is False


def test_invariants_z_squared(tmp_path, capsys):
    path = _write_model(tmp_path, "z2.json", z_squared())
    code, out = _run(capsys, ["invariants", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma1"] == "2"
    assert payload["sigma2"] == "0"
    assert payload["moduli_point"] == ["2", "0", "1"]
    assert payload["kind"] == "sigma_invariants"
    assert abs(payload["moduli_height"] - 0.693147180560) < 1e-11


def test_invariants_and_reduce_refuse_other_shapes(tmp_path, capsys):
    from dynres import MorphismModel

    # [X^2 : Y^2 : Z^2] has resultant 1, so no bad prime hides the refusal
    m = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    path = _write_model(tmp_path, "p.json", m)
    for command in ("invariants", "reduce"):
        code, out = _run(capsys, [command, path])
        assert code == 2
        assert json.loads(out)["error"] == "invalid-argument"
    cubic = _write_model(tmp_path, "c.json", binary(3, [1, 0, 0, 0], [0, 0, 0, 1]))
    code, out = _run(capsys, ["invariants", cubic])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-argument"


def test_twist_test_conjugate(tmp_path, capsys):
    first = _write_model(tmp_path, "t8.json", twist(8))
    second = _write_model(tmp_path, "t2.json", twist(2))
    code, out = _run(capsys, ["twist-test", first, second])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "conjugate"
    assert payload["witness"] == [["1", "0"], ["0", "2"]]


def test_twist_test_unknown(tmp_path, capsys):
    first = _write_model(tmp_path, "t2.json", twist(2))
    second = _write_model(tmp_path, "t3.json", twist(3))
    code, out = _run(capsys, ["twist-test", first, second, "--budget", "4,2,2"])
    assert code == 0
    assert json.loads(out) == {"status": "unknown", "witness": None}


def test_budget_spelling(tmp_path, capsys):
    path = _write_model(tmp_path, "t8.json", twist(8))
    code, out = _run(capsys, ["reduce", path, "--budget", "4,2,2"])
    assert code == 0 and json.loads(out)["norm"] == "2"
    # each part is ASCII digits with an optional minus: int() would read 4_0 as 40 and 3_0 as 30
    for budget in ("4_0", "\u0664", " 4", "+4", "4,2,3_0", "4, 2", "", "4,2,2,2"):
        code, out = _run(capsys, ["reduce", path, f"--budget={budget}"])
        assert code == 2
        assert json.loads(out)["error"] == "schema-violation"
    # a negative value is well spelled and reaches the budget's own refusal
    code, out = _run(capsys, ["reduce", path, "--budget=4,-1"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-argument"


def test_unknown_flag_is_validation_error(tmp_path, capsys):
    code, out = _run(capsys, ["resultant", "--frobnicate"])
    assert code == 2
    assert json.loads(out)["error"] == "usage-error"


def test_missing_subcommand(capsys):
    code, out = _run(capsys, [])
    assert code == 2
    assert json.loads(out)["error"] == "unknown-subcommand"


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    # the file is read as bytes and json.loads decodes them, so bytes that are not UTF-8 are malformed JSON too
    for raw in (b"{not json", b"\xff\xfe{}", b'{"n": "\xe9"}'):
        bad.write_bytes(raw)
        code, out = _run(capsys, ["resultant", str(bad)])
        assert code == 2
        assert json.loads(out)["error"] == "malformed-json"


def test_integer_strings_past_the_conversion_limit(tmp_path, capsys):
    # int() refuses strings of more than 4300 digits; such a key or budget is badly spelled input
    key = tmp_path / "key.json"
    key.write_text(json.dumps({"n": 1, "d": 2, "forms": [[["1" * 5000 + ",0", "1"]], [["0,2", "1"]]]}))
    code, out = _run(capsys, ["resultant", str(key)])
    assert code == 2
    assert json.loads(out)["error"] == "schema-violation"
    path = _write_model(tmp_path, "z2.json", z_squared())
    code, out = _run(capsys, ["reduce", path, "--budget", "1" * 5000])
    assert code == 2
    assert json.loads(out)["error"] == "schema-violation"


def test_twist_test_refuses_stdin_for_both_operands(tmp_path, capsys, monkeypatch):
    # stdin can be read once: the second operand would read "" and blame valid input
    text = json.dumps(twist(2).to_json())
    stdin = io.StringIO(text)
    monkeypatch.setattr("sys.stdin", stdin)
    code, out = _run(capsys, ["twist-test", "-", "-"])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-argument"
    assert stdin.tell() == 0  # refused before anything was read
    # one operand from stdin is read as any file
    good = _write_model(tmp_path, "t8.json", twist(8))
    code, out = _run(capsys, ["twist-test", "-", good])
    assert code == 0
    assert json.loads(out)["status"] == "conjugate"


def test_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": 1, "d": 2, "forms": []}))
    code, out = _run(capsys, ["resultant", str(bad)])
    assert code == 2
    assert json.loads(out)["error"] == "schema-violation"


def test_non_integer_shape_is_schema_violation(tmp_path, capsys):
    # int() would truncate these to (1, 2) and compute the resultant of z + 8/z
    payload = dict(twist(8).to_json(), n=1.9, d=2.4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out = _run(capsys, ["resultant", str(bad)])
    assert code == 2
    assert json.loads(out)["error"] == "schema-violation"


def test_degenerate_input_reported(tmp_path, capsys):
    path = _write_model(tmp_path, "d.json", bq(0, 1, 0, 0, 0, 1))
    code, out = _run(capsys, ["invariants", path])
    assert code == 2
    assert json.loads(out)["error"] == "not-a-morphism"


def test_deterministic_output(tmp_path, capsys):
    path = _write_model(tmp_path, "t8.json", twist(8))
    _, first = _run(capsys, ["reduce", path])
    _, second = _run(capsys, ["reduce", path])
    assert first == second


def test_repeated_in_process_calls_build_the_parser_once(tmp_path, capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    t8 = _write_model(tmp_path, "t8.json", twist(8))
    t2 = _write_model(tmp_path, "t2.json", twist(2))
    sequence = [
        ["reduce", t8],
        ["invariants", t8],
        ["twist-test", t8, t2],
        ["resultant", "--frobnicate"],
        ["--schema"],
        [],
    ]
    first = [_run(capsys, argv) for argv in sequence]
    second = [_run(capsys, argv) for argv in sequence]
    assert second == first
    assert [code for code, _ in first] == [0, 0, 0, 2, 0, 2]
    usage, schema, unknown = (json.loads(out) for _, out in first[3:])
    assert (usage["error"], unknown["error"]) == ("usage-error", "unknown-subcommand")
    assert schema == cli.SCHEMAS
    assert len(built) == 1


def test_import_builds_no_parser(monkeypatch):
    import argparse

    import dynres

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    # the fresh import rebinds dynres.cli; both are put back afterwards
    monkeypatch.setattr(dynres, "cli", cli)
    monkeypatch.delitem(sys.modules, "dynres.cli")
    fresh = importlib.import_module("dynres.cli")
    assert fresh is not cli
    assert fresh._PARSER is None
    assert built == []


def test_each_payload_is_parsed_once(tmp_path, capsys, monkeypatch):
    from dynres import morphism_space

    calls = []
    json_terms = morphism_space._json_terms

    def counting_json_terms(data):
        calls.append(1)
        return json_terms(data)

    monkeypatch.setattr(morphism_space, "_json_terms", counting_json_terms)
    monkeypatch.setattr(cli, "_json_terms", counting_json_terms)
    t8 = _write_model(tmp_path, "t8.json", twist(8))
    t2 = _write_model(tmp_path, "t2.json", twist(2))
    for argv, files in ((["resultant", t8], 1), (["reduce", t8], 1), (["invariants", t8], 1), (["twist-test", t8, t2], 2)):
        calls.clear()
        code, _ = _run(capsys, argv)
        assert code == 0
        assert len(calls) == files, argv


def test_schema_flag(capsys):
    code, out = _run(capsys, ["--schema"])
    assert code == 0
    payload = json.loads(out)
    assert {"morphism", "resultant", "reduce", "invariants", "twist-test", "census", "error"} <= set(payload)


def test_census_and_report_commands(tmp_path, capsys):
    prefix = str(tmp_path / "mini")
    code, out = _run(
        capsys,
        ["census", "--n", "1", "--d", "2", "--H", "1", "--B", "2", "--budget", "4,2,2", "--out", prefix],
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["total_models"] == 240
    assert (tmp_path / "mini.records.jsonl").exists()
    assert (tmp_path / "mini.summary.json").exists()
    assert (tmp_path / "mini.report.txt").exists()

    code, table = _run(
        capsys, ["report", "--records", prefix + ".records.jsonl", "--B", "2", "--budget", "4,2,2"]
    )
    assert code == 0
    assert "census" in table and "gamma" in table

    code, js = _run(
        capsys,
        ["report", "--records", prefix + ".records.jsonl", "--B", "2", "--budget", "4,2,2", "--format", "json"],
    )
    assert code == 0
    parsed = json.loads(js)
    by_b = {e["B"]: e for e in parsed["per_b"]}
    assert by_b[2]["gamma_definite"] == summary["per_b"][-1]["gamma_definite"]


def test_round_trip_through_cli(tmp_path, capsys):
    # a model emitted inside census records re-parses to a projectively equal model
    from dynres import MorphismModel

    prefix = str(tmp_path / "rt")
    _run(capsys, ["census", "--n", "1", "--d", "2", "--H", "1", "--B", "1", "--out", prefix])
    with open(prefix + ".records.jsonl") as fh:
        line = json.loads(fh.readline())
    model = MorphismModel.from_json(line["model"])
    assert json.dumps(model.to_json(), sort_keys=True) == json.dumps(line["model"], sort_keys=True)


def _h1_line(index: int) -> dict:
    """The census line of the H=1 model at this index of the enumeration."""
    from dynres import SearchBudget, enumerate_models
    from dynres.census import CensusConfig, compute_record, record_key

    config = CensusConfig(n=1, d=2, coeff_bound=1, B=8, budget=SearchBudget(4, 2, 2), output_prefix="unused")
    model = next(itertools.islice(enumerate_models(1, 2, 1), index, None))
    return compute_record(config, model, record_key(model)).to_json()


def _h1_record_line() -> dict:
    """The census line of the second H=1 model, [X^2+XY+Y^2 : X^2+XY-Y^2], which has a local entry at 2."""
    line = _h1_line(1)
    assert line["local"] and line["minimal_resultant"] == {"2": 2} and line["res"] == "4"
    assert line["sigma"] == ["3/2", "-5/4"] and not line["fully_certified"]
    return line


def test_report_rejects_malformed_records(tmp_path, capsys):
    missing = tmp_path / "missing.records.jsonl"
    not_json = tmp_path / "not_json.records.jsonl"
    not_json.write_text("{not json\n")
    not_record = tmp_path / "not_record.records.jsonl"
    not_record.write_text(json.dumps({"key": "x"}) + "\n")
    # the census writes no blank line, so a blank line is not skipped
    blank = tmp_path / "blank.records.jsonl"
    blank.write_text("\n")
    cases = [
        (missing, "schema-violation"),
        (not_json, "malformed-json"),
        (not_record, "schema-violation"),
        (blank, "malformed-json"),
    ]
    # mistyped fields are refused, not coerced: 9.9 is not read as 9, nor "no" as true
    good = _h1_record_line()
    mistyped = {
        "float_norm": {"norm": 9.9},
        "bool_norm": {"norm": True},
        "string_certified": {"fully_certified": "no"},
        "string_in_gamma": {"in_gamma": "yes"},
        "float_eps": {"local": [{**good["local"][0], "eps": 0.5}]},
        "infinite_eps": {"local": [{**good["local"][0], "eps": float("inf")}]},
        "float_exponent": {"minimal_resultant": {"2": 1.7}},
        # summarize_records looks classes up by key, which must be the model's
        "foreign_key": {"key": "1|2|1,1,1,1,1,1"},
        # a line from a census of another shape, which stores no sigma
        "null_sigma": {"sigma": None},
        # a field the census derives from model, res, local and sigma must be the one it derives
        "norm_not_of_ideal": {"norm": "1"},
        "mult_height_not_of_point": {"mult_height": "1"},
        "certified_with_uncertified_local": {"fully_certified": True},
        "not_upper_bound": {"norm_is_upper_bound": False},
        "empty_ideal": {"minimal_resultant": {}},
        "class_id": {"class_id": "C0001"},
        "extra_key": {"extra": 1},
        "decimal_res": {"res": "4.0"},
        "padded_sigma": {"sigma": [" 3/2", "-5/4"]},
        "moved_height": {"moduli_height": good["moduli_height"] + 1e-6},
        "raised_lower_bound": {"norm_lower_bound": "2"},
    }
    for name, fields in mistyped.items():
        path = tmp_path / f"{name}.records.jsonl"
        path.write_text(json.dumps({**good, **fields}) + "\n")
        cases.append((path, "schema-violation"))
    for path, error in cases:
        code, out = _run(capsys, ["report", "--records", str(path), "--B", "2"])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == error
        assert str(path) in payload["message"]
        assert path == missing or " line 1 " in payload["message"]

    path = tmp_path / "good.records.jsonl"
    path.write_text(json.dumps(good) + "\n")
    code, out = _run(capsys, ["report", "--records", str(path), "--B", "2"])
    assert code == 0


@pytest.mark.parametrize("probe", ["res_8_with_e_3", "local_entry_at_4", "sigma_of_another_record"])
def test_report_rejects_res_local_or_sigma_not_of_the_model(tmp_path, capsys, probe):
    # res, local and sigma are checked against the model: the model's resultant is 4 = 2^2
    good, other = _h1_record_line(), _h1_line(0)
    assert other["sigma"] != good["sigma"]
    fields = {
        "res_8_with_e_3": {"res": "8", "local": [{**good["local"][0], "e": 3}]},
        "local_entry_at_4": {"local": good["local"] + [{"p": "4", "e": 1, "eps": 0, "certified": True}]},
        # the first record's sigma, with the point and heights derived from it
        "sigma_of_another_record": {k: other[k] for k in ("sigma", "moduli_point", "mult_height", "moduli_height")},
    }[probe]
    path = tmp_path / f"{probe}.records.jsonl"
    path.write_text(json.dumps({**good, **fields}) + "\n")
    code, out = _run(capsys, ["report", "--records", str(path), "--B", "2"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "schema-violation"
    assert " line 1 " in payload["message"]
    assert ("sigma" if probe == "sigma_of_another_record" else "local") in payload["message"]


def test_census_refuses_other_shapes(tmp_path, capsys):
    prefix = str(tmp_path / "cubic")
    code, out = _run(capsys, ["census", "--n", "1", "--d", "3", "--H", "1", "--B", "2", "--out", prefix])
    assert code == 2
    assert json.loads(out)["error"] == "invalid-argument"
    assert not (tmp_path / "cubic.records.jsonl").exists()


def _huge(n, d):
    """A well-formed payload of degree d in n + 1 variables with two terms, a few dozen bytes."""
    forms = [[] for _ in range(n + 1)]
    forms[0].append([",".join([str(d)] + ["0"] * n), "1"])
    forms[n].append([",".join(["0"] * n + [str(d)]), "1"])
    return {"n": n, "d": d, "forms": forms}


def test_shape_refused_before_forms_are_expanded(tmp_path, capsys, monkeypatch):
    from dynres import morphism_space

    huge = {}
    for name, payload in (("d", _huge(1, 10**9)), ("n", _huge(2, 10**9))):
        huge[name] = tmp_path / f"{name}.json"
        huge[name].write_text(json.dumps(payload))
    good = _write_model(tmp_path, "t2.json", twist(2))
    expanded = []
    real = morphism_space.monomials

    def monomials(n, d):
        expanded.append((n, d))
        if d > 2:
            raise AssertionError(f"a form of degree {d} was expanded")
        return real(n, d)

    monkeypatch.setattr(morphism_space, "monomials", monomials)
    cases = [
        (["invariants", str(huge["d"])], "sigma invariants are implemented for n = 1, d = 2"),
        (["reduce", str(huge["n"])], "reduction is implemented for maps of P^1 (n = 1)"),
        (["twist-test", str(huge["d"]), good], "conjugacy testing is implemented for n = 1, d = 2"),
        (["twist-test", good, str(huge["d"])], "conjugacy testing is implemented for n = 1, d = 2"),
    ]
    for argv, message in cases:
        expanded.clear()
        code, out = _run(capsys, argv)
        assert code == 2
        assert json.loads(out) == {"error": "invalid-argument", "message": message}
        assert all(d == 2 for _, d in expanded)  # only z + 2/z, of the shape taken, was built
    # a payload that breaks the schema is still refused as such, whatever its shape
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"n": 1, "d": 10**9, "forms": [[["2,0", "1"]], []]}))
    for command in ("invariants", "twist-test"):
        code, out = _run(capsys, [command, str(broken)] + [good] * (command == "twist-test"))
        assert code == 2
        assert json.loads(out)["error"] == "schema-violation"


def test_census_line_shape_refused_before_forms_are_expanded(tmp_path, capsys, monkeypatch):
    from dynres import SchemaError, load_records, morphism_space

    good = _h1_record_line()
    real = morphism_space.monomials

    def monomials(n, d):
        if d > 2:
            raise AssertionError(f"a form of degree {d} was expanded")
        return real(n, d)

    monkeypatch.setattr(morphism_space, "monomials", monomials)
    for name, model in (("d", _huge(1, 10**9)), ("n", _huge(2, 2))):
        path = tmp_path / f"{name}.records.jsonl"
        path.write_text(json.dumps({**good, "model": model}) + "\n")
        with pytest.raises(SchemaError) as excinfo:
            load_records(path)
        assert "n = 1, d = 2" in str(excinfo.value)
        code, out = _run(capsys, ["report", "--records", str(path), "--B", "2"])
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "schema-violation"
        assert " line 1 " in payload["message"]


def test_shape_refusals_are_the_library_messages(tmp_path, capsys):
    from dynres import InvalidArgumentError, MorphismModel, conjugacy_test, default_budget, moduli_height, reduction_report

    cubic = binary(3, [1, 0, 0, 0], [0, 0, 0, 1])
    plane = MorphismModel.from_coeff_lists(2, 2, [[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]])
    good = _write_model(tmp_path, "t2.json", twist(2))
    for argv, call in (
        (["invariants", _write_model(tmp_path, "c.json", cubic)], lambda: moduli_height(cubic)),
        (["reduce", _write_model(tmp_path, "p.json", plane)], lambda: reduction_report(plane, default_budget(2))),
        (["twist-test", good, _write_model(tmp_path, "c.json", cubic)], lambda: conjugacy_test(twist(2), cubic, default_budget(2))),
    ):
        with pytest.raises(InvalidArgumentError) as excinfo:
            call()
        code, out = _run(capsys, argv)
        assert code == 2
        assert json.loads(out) == {"error": "invalid-argument", "message": str(excinfo.value)}


def test_witness_failing_reverification_is_an_internal_failure(tmp_path, capsys, monkeypatch):
    from dynres import conjugacy_twists

    first = _write_model(tmp_path, "t8.json", twist(8))
    second = _write_model(tmp_path, "t2.json", twist(2))
    # a kernel that conjugates wrongly: the witness found for z + 8/z no longer re-verifies
    monkeypatch.setattr(conjugacy_twists, "conjugate", lambda model, f: z_squared())
    code, out = _run(capsys, ["twist-test", first, second])
    assert code == 1
    assert out == ""
