import argparse
import copy
import io
import json
import os
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from tdlc_entropy import cli, scenario, verify
from tdlc_entropy.core import ClosedSubgroupSpec
from tdlc_entropy.backends.catalog import catalog_scenarios, find_scenario
from tdlc_entropy.backends.product import make_product
from tdlc_entropy.scenario import (
    ScenarioError,
    build_subgroups,
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

    long_int = tmp_path / "long_int.json"  # past Python's integer parsing limit
    long_int.write_text('{"schema": 1, "backend": "padic", "prime": ' + "7" * 5000
                        + ', "dim": 1, "matrix": [["1/2"]]}')
    code, _ = run_cli(["entropy", str(long_int)])
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


@pytest.mark.parametrize("command", ["report", "verify"])
def test_cli_unwritable_out_exits_2(tmp_path, capsys, command):
    """An --out path that cannot be opened is invalid input, not a
    verification failure: one error line, exit 2, nothing on stdout."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps(find_scenario("finite_trivial")))
    argv = ["report", str(good), "--probe", "2"] if command == "report" else ["verify", "indices"]
    dest = tmp_path / "missing" / "x.json"
    code, out = run_cli([*argv, "--out", str(dest)])
    assert code == cli.EXIT_INVALID and out == ""
    err = capsys.readouterr().err
    assert err == f"error: cannot write {dest}: No such file or directory\n"


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
    """The CLI runs every suite ``run_suite`` knows (``all`` runs in the
    golden-output gate) and refuses any other name."""
    for name in verify.SUITE_NAMES[:-1]:
        code, out = run_cli(["verify", name])
        assert code == cli.EXIT_OK, name
        assert json.loads(out)["summary"]["FAIL"] == 0
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "no-such-suite"])
    assert exc.value.code == cli.EXIT_INVALID


def test_run_suite_looks_up_each_suite_when_it_runs_it(monkeypatch):
    """``run_suite("all")`` calls ``verify.suite_<name>`` as bound when it
    runs, once per suite, in ``SUITE_NAMES`` order, with one catalog; a
    timing harness relies on this by rebinding the suites.  ``indices``
    alone builds no catalog."""
    calls, builds = [], []
    catalog = object()
    monkeypatch.setattr(verify, "_catalog_systems", lambda: builds.append(1) or catalog)
    for name in verify.SUITE_NAMES[:-1]:
        monkeypatch.setattr(verify, f"suite_{name.replace('-', '_')}",
                            lambda catalog=None, _name=name: calls.append((_name, catalog)) or [])
    verify.run_suite("all")
    assert calls == [(name, catalog) for name in verify.SUITE_NAMES[:-1]]
    assert len(builds) == 1
    calls.clear()
    builds.clear()
    verify.run_suite("indices")
    assert (calls, builds) == ([("indices", None)], [])


def test_shipped_scenario_files_match_catalog():
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(root.glob("*.json")):
        data = json.loads(path.read_text())
        validate_scenario(data)
        build_system(data)


def run_report(tmp_path, capsys, data, *flags):
    """Exit code and stderr of ``report`` on ``data`` written to a file."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = cli.main(["report", str(path), *flags])
    return code, capsys.readouterr().err


def with_fields(name, **fields):
    return dict(find_scenario(name), **fields)


PADIC_3 = {"backend": "padic", "prime": 2, "dim": 1, "matrix": [["3"]]}


@pytest.mark.parametrize("system, subgroup", [
    (PADIC_3, {"full_lattice": True}),
    ({"backend": "shift", "alphabet": [2], "tail_mode": "compact", "shift": 0}, {"base": 1}),
    ({"backend": "product",
      "factors": [PADIC_3, {"backend": "finite", "group": "S3", "endo": "identity"}]},
     {"pair": [{"full_lattice": True}, {"trivial": True}]}),
], ids=["padic", "shift", "product"])
@pytest.mark.parametrize("flags", [(), ("--strict",)], ids=["default", "strict"])
def test_addition_over_an_unrestrictable_subgroup_is_skipped(tmp_path, system, subgroup, flags):
    """H is compact, phi-stable and contains the kernel, but the backend
    cannot restrict to it: the check is SKIPPED with the backend's reason."""
    data = dict(system, schema=1, name="h", subgroups={"H": subgroup},
                checks=[{"type": "addition", "subgroup": "H"}])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(["report", str(path), *flags])
    assert code == cli.EXIT_OK
    result = json.loads(out)["results"][0]["result"]
    assert result["status"] == "SKIPPED"
    assert result["reason"].startswith("can only restrict to")
    sys = build_system(data)
    spec = ClosedSubgroupSpec.verify(sys, build_subgroups(sys, data)["H"])
    assert spec.compact and spec.phi_stable and spec.contains_kernel


@pytest.mark.parametrize("data,flags", [
    (with_fields("q2_half", matrix=5), ()),
    (with_fields("laurent_z3", alphabet=5), ()),
    (with_fields("laurent_z3", sigma=5), ()),
    ({"schema": 1, "backend": "finite", "table": 5, "endo": "identity"}, ()),
    (with_fields("product_q2half_squared", factors=[5, 6]), ()),
    (with_fields("q2_half", checks=[{"type": "cotrajectory", "n_max": "x"}]), ()),
    (with_fields("q2_half", checks=[{"type": "cotrajectory", "n_max": 0}]), ()),
    (with_fields("q2_half"), ("--probe", "0")),
    (with_fields("q2_half", probe=True), ()),
    (with_fields("q2_half", dim=True), ()),
    (with_fields("finite_s3", subgroups={"A3": {"generated": 3}}), ()),
    (with_fields("q2_half", checks=[{"type": "phi_n", "candidates": 5}]), ()),
    (with_fields("finite_s3", endo=[0, 1, 2, 3, 4, -1]), ()),
    (with_fields("finite_s3", subgroups={"A3": {"generated": [99]}}), ()),
    (with_fields("shift_z4_compact", subgroups={"H2": {"constant_gens": [[1, 1]]}}), ()),
    (with_fields("padic_mixed_2_half", matrix=[[f"{10**3000}/3", "0"], ["0", "1/2"]]), ()),
    (with_fields("q2_half", matrix=[["1e1000000"]]), ()),
    (with_fields("q2_half", matrix=[[True]]), ()),
    (with_fields("q2_half", matrix=[[0.5]]), ()),
    (with_fields("q2_half", subgroups={"L": {"lattice": [[f"1/{10**20}"]]}}, checks=[]), ()),
    (with_fields("q2_half", subgroups={"V": {"subspace": [[10**20]]}}, checks=[]), ()),
], ids=[
    "padic-matrix", "shift-alphabet", "shift-sigma", "finite-table", "product-factors",
    "n_max-string", "n_max-zero", "probe-option-zero", "probe-true", "dim-true",
    "subgroup-generated", "phi_n-candidates", "finite-endo-negative",
    "subgroup-element-out-of-range", "subgroup-generator-not-in-alphabet",
    "padic-entry-3001-digits", "padic-entry-huge-exponent", "padic-entry-true",
    "padic-entry-float", "lattice-entry-denominator",
    "subspace-entry-integer",
])
def test_malformed_field_exits_2(tmp_path, capsys, data, flags):
    code, err = run_report(tmp_path, capsys, data, *flags)
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: ")


BOUNDS = [
    # (scenario, fields at the limit, fields one past it, CLI flags at/past it)
    ("finite_trivial", {"probe": 64}, {"probe": 65}, None),
    ("finite_trivial", {"tidy_probe": 64}, {"tidy_probe": 65}, None),
    ("finite_trivial", {"resolution": 64}, {"resolution": 65}, None),
    ("finite_trivial", {}, {}, ("--probe", "64", "65")),
    ("finite_trivial", {}, {}, ("--tidy-probe", "64", "65")),
    ("finite_trivial", {}, {}, ("--resolution", "64", "65")),
    ("finite_trivial", {"checks": [{"type": "cotrajectory", "n_max": 64}]},
     {"checks": [{"type": "cotrajectory", "n_max": 65}]}, None),
    ("laurent_z3", {"alphabet": [16]}, {"alphabet": [17]}, None),
    ("laurent_z3", {"alphabet": [2, 8]}, {"alphabet": [2, 2, 2, 2, 2]}, None),
    ("laurent_z3", {"shift": 16}, {"shift": 17}, None),
    ("laurent_z3", {"shift": -16}, {"shift": -17}, None),
    ("q2_half", {"dim": 8, "matrix": [[int(i == j) for j in range(8)] for i in range(8)]},
     {"dim": 9, "matrix": [[int(i == j) for j in range(9)] for i in range(9)]}, None),
    ("q2_half", {"matrix": [[f"{10**20 - 1}/{10**20 - 3}"]]},
     {"matrix": [[f"{10**20}/{10**20 - 3}"]]}, None),
    ("q2_half", {"matrix": [[f"-1/{10**20 - 1}"]]}, {"matrix": [[f"-1/{10**20}"]]}, None),
    ("q2_half", {"matrix": [[-(10**20) + 1]]}, {"matrix": [[-(10**20)]]}, None),
]


@pytest.mark.parametrize("name,at_limit,past_limit,flag", BOUNDS, ids=[
    "probe", "tidy_probe", "resolution", "option-probe", "option-tidy-probe",
    "option-resolution", "n_max", "alphabet-order", "alphabet-product-order", "shift",
    "negative-shift", "dim", "entry-numerator", "entry-denominator", "entry-integer",
])
def test_declared_bounds(tmp_path, capsys, monkeypatch, name, at_limit, past_limit, flag):
    """The limit is accepted; one past it exits 2 before anything is built."""
    base = with_fields(name, subgroups={}, checks=[])
    flags_at, flags_past = ((flag[0], flag[1]), (flag[0], flag[2])) if flag else ((), ())
    code, err = run_report(tmp_path, capsys, dict(base, **at_limit), *flags_at)
    assert code == cli.EXIT_OK, err

    def no_build(data):
        raise AssertionError("built a system from out-of-bounds input")

    monkeypatch.setattr(scenario, "build_system", no_build)
    code, err = run_report(tmp_path, capsys, dict(base, **past_limit), *flags_past)
    assert code == cli.EXIT_INVALID
    assert err.startswith("error: ")


@pytest.mark.parametrize("command", ["report", "tidy", "entropy"])
def test_cli_validates_each_scenario_once(tmp_path, monkeypatch, command):
    calls = []
    validate = scenario.validate_scenario
    monkeypatch.setattr(scenario, "validate_scenario", lambda data: calls.append(1) or validate(data))
    path = tmp_path / "q2_half.json"
    path.write_text(json.dumps(find_scenario("q2_half")))
    code, _ = run_cli([command, str(path), "--probe", "3"])
    assert code == cli.EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("endo", [[0, 1, 2, 3, 4, 256], [-1, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5.0]],
                         ids=["above-255", "negative", "float"])
def test_validation_bounds_every_entry_of_an_index_list(endo):
    validate_scenario(with_fields("finite_s3", endo=[0, 1, 2, 3, 4, 255]))
    with pytest.raises(ScenarioError, match="element indices"):
        validate_scenario(with_fields("finite_s3", endo=endo))


def test_validation_does_not_rewrite_the_scenario():
    for data in catalog_scenarios():
        before = copy.deepcopy(data)
        validate_scenario(data)
        sys = build_system(data)
        build_subgroups(sys, data)
        assert data == before


def json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


def field_paths(node, path=()):
    """Paths of every field of the scenario tree (keys of nested objects)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from field_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from field_paths(value, path + (i,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_wrongly_typed_field_fails_only_with_scenario_error(data):
    """A field of a catalog scenario replaced by a value of another JSON type
    either still builds or is refused with ScenarioError, never anything else."""
    scenario_data = copy.deepcopy(data.draw(st.sampled_from(catalog_scenarios())))
    path = data.draw(st.sampled_from(list(field_paths(scenario_data))))
    parent = scenario_data
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    new = data.draw(JSON_VALUES.filter(lambda v: json_type(v) != json_type(old)))
    parent[path[-1]] = new
    try:
        validate_scenario(scenario_data)
        sys = build_system(scenario_data)
        build_subgroups(sys, scenario_data)
    except ScenarioError:
        pass


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    path = tmp_path / "finite_s3.json"
    path.write_text(json.dumps(find_scenario("finite_s3")))
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kw: built.append(1) or add_subparsers(self, **kw))
    cli._parser.cache_clear()
    for _ in range(3):
        code, _ = run_cli(["entropy", str(path), "--probe", "2"])
        assert code == cli.EXIT_OK
    assert len(built) == 1


def test_equal_product_factors_share_one_system(monkeypatch):
    """A product scenario whose two factor fragments are equal builds one
    factor system, and reports the bytes that two factor systems give."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "product_square.json")
    data = scenario.load_scenario_file(path)
    options = ([], ["--probe", "3", "--tidy-probe", "4", "--resolution", "4"], ["--format", "csv"])

    def reports():
        out = [run_cli(["report", path, *opts]) for opts in options]
        out.append(run_cli(["tidy", path, "--tidy-probe", "1"]))
        assert all(code == cli.EXIT_OK for code, _ in out)
        return [text for _, text in out]

    left, right = build_system(data).model.systems
    assert left is right
    shared = reports()
    monkeypatch.setattr(scenario, "_product_system", lambda factors, name: make_product(
        *(scenario.SPECS[f["backend"]].system(f) for f in factors), name=name))
    left, right = build_system(data).model.systems
    assert left is not right
    assert reports() == shared
