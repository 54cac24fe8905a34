import itertools
import json

import pytest

from conftest import binary, bq, twist, z_squared
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
    bad.write_text("{not json")
    code, out = _run(capsys, ["resultant", str(bad)])
    assert code == 2
    assert json.loads(out)["error"] == "malformed-json"


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
