"""Honest resource outcomes: a matrix whose characteristic polynomial is
irreducible over Q with mixed root valuations has no rational slope split,
so the forward core is UNRESOLVED, never guessed.  The limit route still
certifies through the Newton polygon, and the CLI maps the situation to the
documented exit codes."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from tdlc_entropy import cli, cotraj, dynamics, verify
from tdlc_entropy.backends.padic import PadicModel
from tdlc_entropy.core import TdlcSystem, UnresolvedError
from tdlc_entropy.exact import ExactEntropy

F = Fraction


def mixed_slope_system():
    # companion matrix of x^2 + x/2 + 3: irreducible over Q, root valuations +1 and -1
    m = PadicModel(2, 2)
    return TdlcSystem(m, m.endo([[0, -3], [1, F(-1, 2)]]), name="mixed_slope")


def test_plus_group_unresolved():
    sys = mixed_slope_system()
    with pytest.raises(UnresolvedError):
        cotraj.plus_group(sys, sys.model.full_lattice())


def test_limit_route_still_certified_by_oracle():
    sys = mixed_slope_system()
    assert sys.model.entropy_exponent(sys.endo) == 1
    value = cotraj.htop_limit_estimate(sys, sys.model.full_lattice(), 12)
    assert value == ExactEntropy(2)


def test_entropy_reports_unresolved():
    sys = mixed_slope_system()
    with pytest.raises(UnresolvedError):
        dynamics.topological_entropy(sys, probe=2)


SCENARIO = {
    "schema": 1,
    "name": "mixed_slope",
    "backend": "padic",
    "prime": 2,
    "dim": 2,
    "matrix": [["0", "-3"], ["1", "-1/2"]],
    "probe": 4,
    "checks": [{"type": "entropy"}, {"type": "cotrajectory", "n_max": 12}],
}


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_cli_exit_codes_for_unresolved(tmp_path):
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(SCENARIO))
    code, out = run_cli(["report", str(path)])
    assert code == cli.EXIT_OK
    report = json.loads(out)
    results = {e["check"]["type"]: e["result"] for e in report["results"]}
    assert results["entropy"]["status"] == "UNRESOLVED"
    assert results["cotrajectory"]["n_star"] is not None  # oracle-certified
    code, _ = run_cli(["report", str(path), "--strict"])
    assert code == cli.EXIT_RESOURCE


@pytest.mark.parametrize("outcome", ["raises", "uncertified"])
def test_cotrajectory_suite_is_inconclusive_when_alpha_is_unresolved(monkeypatch, outcome):
    def unresolved_alpha(sys, U, n_max):
        if outcome == "raises":
            raise UnresolvedError("alpha did not stabilize")
        return cotraj.CotrajectoryTable(subgroup=U, rows=(), n_star=None, certificate={})

    monkeypatch.setattr(cotraj, "alpha_sequence", unresolved_alpha)
    monkeypatch.setattr(verify, "COTRAJECTORY_DEPTH", 4)
    entries = verify.suite_cotrajectory()
    assert entries
    assert {e["status"] for e in entries} == {dynamics.INCONCLUSIVE}
    assert all(e["n_star"] is None and e["reason"] for e in entries)
    code, out = run_cli(["verify", "cotrajectory"])
    assert code == cli.EXIT_OK
    assert json.loads(out)["summary"].get("INCONCLUSIVE")
    code, _ = run_cli(["verify", "cotrajectory", "--strict"])
    assert code == cli.EXIT_RESOURCE
