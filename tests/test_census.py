import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import random_morphism
from dynres import (
    CensusAssertionError,
    CensusConfigMismatchError,
    CensusConfig,
    InvalidArgumentError,
    MalformedJsonError,
    MorphismModel,
    SchemaError,
    SearchBudget,
    conjugacy_twists,
    enumerate_models,
    load_records,
    macaulay_resultant,
    moduli_height,
    run_census,
    sigma_invariants,
    stream_records,
    summarize_records,
)
from dynres.census import CensusRecord, b_grid, compute_record, record_key
from dynres.cli import main

BUDGET = SearchBudget(a_max=4, translation_depth=2, matrix_bound=2)


def _config(tmp_path, name, **kw):
    defaults = dict(n=1, d=2, coeff_bound=1, B=8, budget=BUDGET, output_prefix=str(tmp_path / name))
    defaults.update(kw)
    return CensusConfig(**defaults)


def test_enumerate_h0_empty():
    assert list(enumerate_models(1, 2, 0)) == []


def test_enumerate_linear_against_brute_force():
    # independent oracle: canonicalize all 3^4 integer 2x2 matrices directly
    seen = set()
    expected = 0
    for raw in itertools.product(range(-1, 2), repeat=4):
        if not any(raw):
            continue
        g = 0
        for v in raw:
            g = math.gcd(g, v)
        first = next(v for v in raw if v)
        if first < 0:
            g = -g
        key = tuple(v // g for v in raw)
        if key in seen:
            continue
        seen.add(key)
        a, b, c, d = key
        if a * d - b * c != 0:
            expected += 1
    models = list(enumerate_models(1, 1, 1))
    assert len(models) == expected == 24


def test_enumerate_quadratic_h1():
    models = list(enumerate_models(1, 2, 1))
    assert len(models) == 240  # regression fixture
    keys = [record_key(m) for m in models]
    assert len(set(keys)) == len(keys)
    for m in models[:40]:
        assert macaulay_resultant(m).value != 0
        ints = [int(c) for c in m.all_coeffs()]
        assert math.gcd(*ints) == 1 and next(v for v in ints if v) > 0
        assert max(abs(v) for v in ints) <= 1


def test_record_json_round_trip(tmp_path):
    config = _config(tmp_path, "rt")
    model = next(enumerate_models(1, 2, 1))
    record = compute_record(config, model, record_key(model))
    payload = json.loads(json.dumps(record.to_json()))
    again = CensusRecord.from_json(payload)
    assert again.to_json() == record.to_json()
    assert again.model.projectively_equal(record.model)


def test_record_moduli_point_is_moduli_height(tmp_path):
    # the census reads [P1 : P2 : Res] off the report's primitive model and resultant
    config = _config(tmp_path, "moduli")
    rng = random.Random(2403)
    models = list(enumerate_models(1, 2, 1)) + [random_morphism(rng, 1, 2, bound=3) for _ in range(60)]
    for model in models:
        record = compute_record(config, model, record_key(model))
        assert record.moduli == moduli_height(model)
        # and it is [sigma_1 : sigma_2 : 1], sigma read through the Fraction route
        x, y, z = record.moduli.point
        assert math.gcd(x, y, z) == 1 and z > 0
        assert (Fraction(x, z), Fraction(y, z)) == record.sigma == sigma_invariants(model)


def test_load_refuses_an_uncertified_zero_minimum(tmp_path):
    # Res = 28 = 2^2 * 7: e = 2 at p = 2 walks down to 0, which is certified; eps = 1 at p = 7 is not
    model = MorphismModel.from_coeff_lists(1, 2, [[2, 2, 2], [1, 2, -1]])
    line = compute_record(_config(tmp_path, "forged"), model, record_key(model)).to_json()
    assert line["local"][0] == {"p": "2", "e": 2, "eps": 0, "certified": True}
    assert line["fully_certified"] is False and line["norm_is_upper_bound"] is True
    path = tmp_path / "line.records.jsonl"
    path.write_text(json.dumps(line) + "\n")
    assert len(load_records(path)) == 1
    # the same line claiming that the zero minimum at p = 2 is unproven
    line["local"][0]["certified"] = False
    path.write_text(json.dumps(line) + "\n")
    with pytest.raises(SchemaError) as excinfo:
        load_records(path)
    assert "certified exactly when the minimum is zero" in str(excinfo.value)


def test_b_grid():
    assert b_grid(8) == [1, 2, 4, 8]
    assert b_grid(6) == [1, 2, 4, 6]
    assert b_grid(1) == [1]


def test_stream_and_resume_byte_identical(tmp_path):
    full = _config(tmp_path, "full")
    stream_records(full)
    reference = full.records_path.read_bytes()

    half = _config(tmp_path, "half")
    stream_records(half, limit=120)
    partial = half.records_path.read_bytes()
    assert 0 < len(partial) < len(reference)
    stream_records(half)
    assert half.records_path.read_bytes() == reference


def test_resume_truncates_partial_tail(tmp_path):
    full = _config(tmp_path, "full")
    stream_records(full)
    reference = full.records_path.read_bytes()

    broken = _config(tmp_path, "broken")
    stream_records(broken, limit=50)
    with open(broken.records_path, "ab") as fh:
        fh.write(b'{"key": "1|2|torn-off-mid-wri')
    stream_records(broken)
    assert broken.records_path.read_bytes() == reference


def test_resume_refuses_unreadable_complete_lines(tmp_path):
    # only a last line without its newline can come from a kill; any other bad line stops the resume
    # with the error that load_records (and so dynres report) gives for it
    config = _config(tmp_path, "garbled")
    stream_records(config, limit=20)
    lines = config.records_path.read_bytes().splitlines(keepends=True)
    cases = (
        (4, b'{"garbage\n', MalformedJsonError, "is not valid JSON"),
        (20, b"\n", MalformedJsonError, "is not valid JSON"),
        (1, b'["key"]\n', SchemaError, "is not a census record"),
    )
    for number, bad, error, why in cases:
        garbled = b"".join(lines[: number - 1] + [bad] + lines[number:])
        config.records_path.write_bytes(garbled)
        with pytest.raises(error) as excinfo:
            stream_records(config, limit=0)
        assert type(excinfo.value) is error
        assert f"{config.records_path} line {number} {why}" in str(excinfo.value)
        assert config.records_path.read_bytes() == garbled
    # the same bad line ahead of a torn tail: the file is still left as it is
    garbled = b"".join(lines[:3] + [b"{\n"] + lines[4:]) + b'{"key": "1|2|torn'
    config.records_path.write_bytes(garbled)
    with pytest.raises(MalformedJsonError) as excinfo:
        stream_records(config, limit=0)
    assert f"{config.records_path} line 4 is not valid JSON" in str(excinfo.value)
    assert config.records_path.read_bytes() == garbled


def test_resume_refuses_a_forged_prefix_line_before_appending(tmp_path):
    # line 3 keeps its key, so only reading the whole record shows the forgery
    config = _config(tmp_path, "forged")
    stream_records(config, limit=5)
    lines = config.records_path.read_bytes().splitlines(keepends=True)
    line = json.loads(lines[2])
    assert line["mult_height"] != "1"
    line["mult_height"] = "1"
    lines[2] = (json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n").encode()
    forged = b"".join(lines)
    config.records_path.write_bytes(forged)
    with pytest.raises(SchemaError) as excinfo:
        stream_records(config)
    assert f"{config.records_path} line 3 is not a census record" in str(excinfo.value)
    assert "mult_height" in str(excinfo.value)
    assert config.records_path.read_bytes() == forged


def test_resume_refuses_an_in_gamma_the_census_b_contradicts(tmp_path, capsys):
    # line 3 has norm 1 and mult_height 26, so it is outside Gamma_8; the line is otherwise what the census writes
    config = _config(tmp_path, "in_gamma")
    stream_records(config, limit=5)
    lines = config.records_path.read_bytes().splitlines(keepends=True)
    line = json.loads(lines[2])
    assert (line["norm"], line["mult_height"], line["in_gamma"]) == ("1", "26", False)
    line["in_gamma"] = True
    lines[2] = (json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n").encode()
    forged = b"".join(lines)
    config.records_path.write_bytes(forged)
    load_records(config.records_path)  # report takes in_gamma as written: it does not know the census B
    with pytest.raises(CensusAssertionError) as excinfo:
        stream_records(config)
    assert str(excinfo.value).startswith(f"{config.records_path} line 3 has in_gamma true")
    assert config.records_path.read_bytes() == forged
    argv = ["--n", "1", "--d", "2", "--H", "1", "--B", "8", "--budget", "4,2,2", "--out", config.output_prefix]
    assert main(["census", *argv]) == 2
    error = json.loads(capsys.readouterr().out)
    assert error["error"] == "census-assertion" and "line 3 has in_gamma true" in error["message"]
    assert config.records_path.read_bytes() == forged


def test_resume_rejects_foreign_records(tmp_path):
    # same settings and config file, but lines 3 and 4 are out of enumeration order
    foreign = _config(tmp_path, "foreign", coeff_bound=1)
    stream_records(foreign, limit=10)
    lines = foreign.records_path.read_bytes().splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    foreign.records_path.write_bytes(b"".join(lines))
    with pytest.raises(CensusAssertionError) as excinfo:
        stream_records(foreign)
    stored, enumerated = json.loads(lines[2])["key"], json.loads(lines[3])["key"]
    assert str(excinfo.value) == f"records file mismatches the enumeration at index 2: {stored!r} != {enumerated!r}"
    assert foreign.records_path.read_bytes() == b"".join(lines)


def test_streamed_records_are_the_records_on_disk(tmp_path):
    # stream_records returns what a reload would read, so run_census can summarize it directly
    config = _config(tmp_path, "resumed")
    stream_records(config, limit=50)
    with open(config.records_path, "ab") as fh:
        fh.write(b'{"key": "1|2|torn-off-mid-wri')
    records = stream_records(config)
    assert len(records) == 240
    assert records == load_records(config.records_path)

    interrupted = _config(tmp_path, "interrupted")
    stream_records(interrupted, limit=77)
    fresh = _config(tmp_path, "fresh")
    assert run_census(interrupted).to_json() == run_census(fresh).to_json()
    assert interrupted.records_path.read_bytes() == fresh.records_path.read_bytes()


def test_resume_refuses_other_settings(tmp_path):
    # an interrupted B=8 census resumed at B=2 without search would append
    # records whose in_gamma and exponents follow other settings
    first = _config(tmp_path, "mixed")
    stream_records(first, limit=100)
    written = first.records_path.read_bytes()
    assert json.loads(first.config_path.read_text()) == first.settings()
    resumed = _config(tmp_path, "mixed", B=2, budget=SearchBudget(0, 0, 0))
    with pytest.raises(CensusConfigMismatchError) as info:
        stream_records(resumed)
    assert info.value.code == "census-config-mismatch"
    assert first.records_path.read_bytes() == written

    # the same settings resume, and the config stays out of the records stream
    stream_records(first)
    fresh = _config(tmp_path, "fresh")
    stream_records(fresh)
    assert first.records_path.read_bytes() == fresh.records_path.read_bytes()


def test_resume_refuses_records_without_config(tmp_path):
    config = _config(tmp_path, "orphan")
    stream_records(config, limit=5)
    config.config_path.unlink()
    with pytest.raises(CensusConfigMismatchError):
        stream_records(config)


def test_threads_do_not_change_bytes(tmp_path):
    one = _config(tmp_path, "t1", threads=1)
    two = _config(tmp_path, "t2", threads=2)
    stream_records(one)
    stream_records(two)
    assert one.records_path.read_bytes() == two.records_path.read_bytes()


def test_threads_limit_then_resume_matches_one_thread(tmp_path):
    one = _config(tmp_path, "one", threads=1)
    assert len(stream_records(one)) == 240
    two = _config(tmp_path, "two", threads=2)
    assert len(stream_records(two, limit=37)) == 37
    assert len(two.records_path.read_bytes().splitlines()) == 37
    assert len(stream_records(two)) == 240
    assert two.records_path.read_bytes() == one.records_path.read_bytes()


def test_failed_record_leaves_a_resumable_file(tmp_path, monkeypatch):
    full = _config(tmp_path, "full")
    stream_records(full)
    reference = full.records_path.read_bytes()

    calls = [0]

    def fail_on_13th(config, model, key):
        calls[0] += 1
        if calls[0] == 13:
            raise RuntimeError("killed inside the second batch")
        return compute_record(config, model, key)

    broken = _config(tmp_path, "broken")
    monkeypatch.setattr("dynres.census.compute_record", fail_on_13th)
    with pytest.raises(RuntimeError):
        stream_records(broken)
    monkeypatch.undo()
    left = broken.records_path.read_bytes()
    # the batch's records before the failing one are on disk, whole
    assert reference.startswith(left) and len(left.splitlines()) == 12
    assert len(stream_records(broken)) == 240
    assert broken.records_path.read_bytes() == reference


def test_resume_rejects_records_beyond_the_enumeration(tmp_path):
    config = _config(tmp_path, "long")
    stream_records(config)
    lines = config.records_path.read_bytes().splitlines(keepends=True)
    with open(config.records_path, "ab") as fh:
        fh.write(lines[-1])
    with pytest.raises(CensusAssertionError) as excinfo:
        stream_records(config)
    assert str(excinfo.value) == "records file holds 241 records but the enumeration yields 240"


def test_config_validation(tmp_path):
    with pytest.raises(InvalidArgumentError):
        CensusConfig(n=0, d=2, coeff_bound=1, B=8, budget=BUDGET, output_prefix=str(tmp_path / "x"))
    with pytest.raises(InvalidArgumentError):
        CensusConfig(n=1, d=2, coeff_bound=1, B=0, budget=BUDGET, output_prefix=str(tmp_path / "x"))
    # the moduli height is a class invariant only for quadratic maps of P^1
    for n, d in ((1, 1), (2, 2), (1, 3)):
        with pytest.raises(InvalidArgumentError) as excinfo:
            CensusConfig(n=n, d=d, coeff_bound=1, B=8, budget=BUDGET, output_prefix=str(tmp_path / "x"))
        assert excinfo.value.code == "invalid-argument"


def test_run_census_h1_summary(tmp_path):
    config = _config(tmp_path, "summary")
    summary = run_census(config)
    assert summary.total_models == 240
    rows = {e["B"]: e for e in summary.per_b}
    assert rows[1]["gamma_definite"] == 0
    assert rows[2]["gamma_definite"] == 18
    assert rows[4]["gamma_definite"] == 50
    assert rows[8]["gamma_definite"] == 106
    assert [rows[8]["class_count_lower"], rows[8]["class_count_upper"]] == [20, 21]
    assert rows[8]["sb_primes"] == [2, 3, 5, 7]
    assert all(e["sb_check"] == "pass" for e in summary.per_b)
    assert summary.monic == {"count": 9, "all_unit_ideal": True}
    # gamma counts and class intervals never decrease along the grid
    for small, big in zip(summary.per_b, summary.per_b[1:]):
        assert small["gamma_definite"] <= big["gamma_definite"]
        assert small["class_count_lower"] <= big["class_count_lower"]
        assert small["class_count_upper"] <= big["class_count_upper"]
    assert config.summary_path.exists()
    report = config.report_path.read_text().splitlines()
    assert report[0] == "census n=1 d=2 H=1 B=8 (240 models)"
    # northcott counts the sigma keys of height <= B whatever the norm, so it reads 1 at B = 1
    assert report[2:8] == [
        "     B   gamma  possible      classes   northcott                      S_B",
        "-" * 74,
        "     1       0         4        [0,0]           1                        -",
        "     2      18         0        [3,3]           3                        2",
        "     4      50         0        [8,9]           8                      2,3",
        "     8     106         0      [20,21]          20                  2,3,5,7",
    ]

    # the norm-1 records are exactly those whose minimal resultant ideal is the unit ideal {}
    records = load_records(config.records_path)
    assert any(record.norm == 1 for record in records)
    for record in records:
        assert (record.norm == 1) == (record.report.minimal_resultant == {})

    # monic polynomial maps all carry the unit ideal, certified
    monic = [r for r in records if r.model.forms[1] == (0, 0, 1) and r.model.forms[0][0] == 1]
    assert len(monic) == 9
    assert all(r.norm == 1 and r.report.fully_certified for r in monic)


def test_empty_census_has_zero_classes(tmp_path, capsys):
    config = _config(tmp_path, "empty", coeff_bound=0)
    summary = run_census(config)
    assert config.records_path.read_bytes() == b""
    assert summary.total_models == 0
    assert summary.classes == ()
    assert summary.monic == {"count": 0, "all_unit_ideal": True}
    zero = {
        "gamma_definite": 0,
        "gamma_possible_extra": 0,
        "sb_check": "pass",
        "class_count_lower": 0,
        "class_count_upper": 0,
        "northcott_sigma_keys": 0,
    }
    assert list(summary.per_b) == [
        {"B": b, "sb_primes": primes, **zero} for b, primes in ((1, []), (2, [2]), (4, [2, 3]), (8, [2, 3, 5, 7]))
    ]
    written = json.loads(config.summary_path.read_text())
    assert written["classes"] == [] and written["monic"] == summary.monic
    report = config.report_path.read_text()
    assert "n/a" not in report
    assert report.splitlines()[-1] == "monic polynomial maps: 0 (all with unit minimal resultant ideal)"

    # dynres report recounts the empty records file to the same zero classes
    assert main(["report", "--records", str(config.records_path), "--B", "8", "--format", "json"]) == 0
    recounted = json.loads(capsys.readouterr().out)
    assert (recounted["per_b"], recounted["classes"], recounted["monic"]) == (written["per_b"], [], written["monic"])


def test_census_rerun_is_stable(tmp_path):
    config = _config(tmp_path, "stable")
    first = run_census(config)
    second = run_census(config)
    assert first.to_json() == second.to_json()


# sha256 of the sorted-key JSON of summarize_records on the H=1 records,
# recorded while bucket_twists still recomputed every sigma
H1_SUMMARY_SHA256 = "43d7144fe67cb41a9419f790d9d49b17e9825b35d43cd918cd88a909807172e2"


def test_summarize_reads_stored_sigma(tmp_path, monkeypatch):
    config = _config(tmp_path, "stored")
    stream_records(config)
    records = load_records(config.records_path)

    def recompute(model):
        raise AssertionError("summarize_records recomputed a sigma its records store")

    monkeypatch.setattr(conjugacy_twists, "sigma_invariants", recompute)
    summary = summarize_records(records, config.B, config.budget, config.settings())
    rows = {e["B"]: e for e in summary.per_b}
    assert [rows[b]["gamma_definite"] for b in (1, 2, 4, 8)] == [0, 18, 50, 106]
    assert [[rows[b]["class_count_lower"], rows[b]["class_count_upper"]] for b in (1, 2, 4, 8)] == [
        [0, 0],
        [3, 3],
        [8, 9],
        [20, 21],
    ]
    assert len(summary.classes) == 21
    blob = json.dumps(summary.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == H1_SUMMARY_SHA256
