import io
import json
from contextlib import redirect_stdout

import pytest

from tdlc_entropy import cli
from tdlc_entropy.backends.catalog import catalog_scenarios, find_scenario
from tdlc_entropy.scenario import (
    ScenarioError,
    build_system,
    emit_csv,
    emit_json,
    run_scenario,
    validate_scenario,
)


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_catalog_is_valid_and_large_enough():
    scenarios = catalog_scenarios()
    assert len(scenarios) >= 12
    backends = set()
    for s in scenarios:
        validate_scenario(s)
        build_system(s)
        backends.add(s["backend"])
    assert backends == {"finite", "padic", "shift", "product"}


def test_validation_rejects_unknown_fields():
    s = find_scenario("q2_half")
    s["surprise"] = 1
    with pytest.raises(ScenarioError):
        validate_scenario(s)


def test_validation_rejects_missing_schema():
    s = find_scenario("q2_half")
    del s["schema"]
    with pytest.raises(ScenarioError):
        validate_scenario(s)


def test_validation_rejects_bad_check():
    s = find_scenario("q2_half")
    s["checks"] = [{"type": "entropy", "bogus": 1}]
    with pytest.raises(ScenarioError):
        validate_scenario(s)
    s["checks"] = [{"type": "addition"}]  # missing subgroup
    with pytest.raises(ScenarioError):
        validate_scenario(s)


def test_run_scenario_q2_half_report():
    report, failures, unresolved = run_scenario(find_scenario("q2_half"), probe=4)
    assert failures == 0 and unresolved == 0
    by_type = {entry["check"]["type"]: entry["result"] for entry in report["results"]}
    assert by_type["entropy"]["alpha"] == "2"
    assert by_type["entropy"]["certified"] is True
    assert by_type["scale"]["scale"] == "2"
    assert by_type["nub"]["trivial"] is True
    assert by_type["scale_link"]["status"] == "PASS"


def test_run_scenario_shift_report():
    report, failures, unresolved = run_scenario(find_scenario("shift_z2_compact"), probe=4)
    assert failures == 0 and unresolved == 0
    by_type = {entry["check"]["type"]: entry["result"] for entry in report["results"]}
    assert by_type["entropy"]["alpha"] == "2"
    assert by_type["scale"]["scale"] == "1"
    assert by_type["nub"]["trivial"] is False and by_type["nub"]["certified"] is True


def test_emit_csv_shape():
    report, _, _ = run_scenario(find_scenario("q2_half"), probe=3)
    text = emit_csv(report)
    lines = text.strip().split("\n")
    assert lines[0] == "scenario,quantity,alpha,infinite,certified"
    assert "q2_half,entropy,2,false,true" in lines
    empty = dict(report)
    empty["results"] = []
    assert emit_csv(empty).strip() == "scenario,quantity,alpha,infinite,certified"


def test_emit_json_round_trips():
    report, _, _ = run_scenario(find_scenario("finite_s3"), probe=3)
    text = emit_json(report)
    assert json.loads(text) == report


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["entropy", str(bad)])
    assert code == cli.EXIT_INVALID

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"schema": 1, "backend": "nope"}))
    code, _ = run_cli(["entropy", str(invalid)])
    assert code == cli.EXIT_INVALID

    for prime in (4, 2**89 - 1):
        huge = tmp_path / "huge_prime.json"
        huge.write_text(json.dumps(dict(find_scenario("q2_half"), prime=prime)))
        code, _ = run_cli(["entropy", str(huge)])
        assert code == cli.EXIT_INVALID

    good = tmp_path / "good.json"
    good.write_text(json.dumps(find_scenario("q2_half")))
    code, out = run_cli(["entropy", str(good), "--probe", "3"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["results"][0]["result"]["alpha"] == "2"


def test_cli_honours_scenario_probe(tmp_path):
    path = tmp_path / "probe2.json"
    path.write_text(json.dumps(dict(find_scenario("q2_half"), probe=2)))
    code, out = run_cli(["entropy", str(path)])
    assert code == cli.EXIT_OK
    assert json.loads(out)["results"][0]["result"]["probed"] == 3
    code, out = run_cli(["entropy", str(path), "--probe", "4"])
    assert json.loads(out)["results"][0]["result"]["probed"] == 5


def test_cli_report_csv(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(find_scenario("q2_half")))
    code, out = run_cli(["report", str(good), "--probe", "3", "--format", "csv"])
    assert code == cli.EXIT_OK
    assert out.splitlines()[0] == "scenario,quantity,alpha,infinite,certified"


def test_cli_out_file(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(find_scenario("finite_trivial")))
    dest = tmp_path / "report.json"
    code, out = run_cli(["report", str(good), "--probe", "2", "--out", str(dest)])
    assert code == cli.EXIT_OK and out == ""
    assert json.loads(dest.read_text())["scenario"]["name"] == "finite_trivial"


def test_cli_determinism_of_reports(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(find_scenario("padic_mixed_2_half")))
    _, first = run_cli(["report", str(good), "--probe", "3"])
    _, second = run_cli(["report", str(good), "--probe", "3"])
    assert first == second


def test_cli_tidy_command(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(find_scenario("q2_half")))
    code, out = run_cli(["tidy", str(good), "--probe", "4"])
    assert code == cli.EXIT_OK
    results = {e["check"]["subgroup"]: e["result"] for e in json.loads(out)["results"]}
    assert results["Z2"]["tidy_above"] is True and results["Z2"]["tidy_below"] is True
    assert results["HG"]["status"] == "SKIPPED"


def test_cli_verify_exit_zero():
    code, out = run_cli(["verify", "indices"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["summary"]["FAIL"] == 0


def test_shipped_scenario_files_match_catalog():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(root.glob("*.json")):
        data = json.loads(path.read_text())
        validate_scenario(data)
        build_system(data)
