"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import random
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tdlc_entropy import cli, cotraj, linalg  # noqa: E402
from tdlc_entropy.backends import padic  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _files(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("workload", ["padic_report", "shift_finite_report", "cotraj_tables"])
def test_seed_gives_identical_inputs(tmp_path, workload):
    dirs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for d, seed in zip(dirs, (7, 7, 8)):
        d.mkdir()
        stream = workloads.InputStream(workload, seed, str(d))
        stream.warmup()
        for k in range(3):
            stream.deck(k)
        stream.known_failures()
    first, again, other = (_files(str(d)) for d in dirs)
    assert first == again
    assert first.keys() == other.keys() and first != other
    scenarios = [json.loads(b) for b in first.values()]
    keys = {json.dumps({k: v for k, v in s.items() if k != "name"}, sort_keys=True)
            for s in scenarios}
    assert len(keys) == len(scenarios), "inputs of one run must be distinct"


def test_verify_all_has_one_deck_and_a_catalog_free_warmup(tmp_path):
    stream = workloads.InputStream("verify_all", 1, str(tmp_path))
    assert [op.argv for op in stream.deck(0)] == [["verify", "all"]]
    assert stream.deck(1) == []
    assert stream.warmup().argv[0] == "report"


def test_reference_seconds_follow_the_nearby_probes():
    speed = hostspeed.HostSpeed()
    loop, other = hostspeed.REF_PROBE_S
    speed.at.extend([0.0, 1.0, 9.95, 10.05, 10.15, 10.25, 30.0, 31.0])
    speed.took.extend([loop, other, 2 * loop, 2 * other, 2 * loop, 2 * other, loop, other])
    speed.kind.extend([0, 1, 0, 1, 0, 1, 0, 1])
    # only the probes within WINDOW_S of the interval count: the host ran at half speed
    assert hostspeed.WINDOW_S == 0.1
    assert speed.reference_seconds((10.0, 10.2, 0.2)) == pytest.approx(0.1)
    with pytest.raises(RuntimeError):
        speed.reference_seconds((20.0, 20.1, 0.1))
    # time spent in probes during a call is not part of its wall seconds
    interval, result = speed.timed(lambda: (speed.sample(), 7)[1])
    assert result == 7 and 0 <= interval[2] < interval[1] - interval[0]


def _run(op, tmp_path):
    op.write_input(str(tmp_path))
    out = tmp_path / "out.json"
    code = cli.main(op.argv + ["--out", str(out)])
    return code, out.read_text()


def test_oracle_rejects_wrong_alpha(tmp_path):
    make = workloads._padic_report(3, [-1])
    op = make(random.Random(1), "oracle_probe")
    assert op.expect["alpha"] == 3
    code, text = _run(op, tmp_path)
    assert op.check(code, text) == []
    report = json.loads(text)
    for entry in report["results"]:
        if entry["check"]["type"] == "entropy":
            entry["result"]["alpha"] = "9"
    problems = op.check(code, json.dumps(report))
    assert problems == ["entropy alpha 9 != 3"]
    assert op.check(0, text.replace('"PASS"', '"INCONCLUSIVE"'))


def test_finite_oracle_and_verify_verdicts():
    op = workloads.Op("f", [], scenario={}, expect={"checks": {"entropy"}, "alpha": 1})
    good = {"results": [{"check": {"type": "entropy"}, "result": {"alpha": "1"}}]}
    bad = {"results": [{"check": {"type": "entropy"}, "result": {"alpha": "2"}}]}
    assert op.check(0, json.dumps(good)) == []
    assert op.check(0, json.dumps(bad)) == ["entropy alpha 2 != 1"]
    verify = workloads.Op("v", ["verify", "all"])
    entries = {"entries": [{"name": "oracle/x", "status": "FAIL"}]}
    assert "verify entry not PASS: oracle/x" in verify.check(1, json.dumps(entries))


def _profile_counts(op, tmp_path):
    prof = cProfile.Profile()
    prof.enable()
    _run(op, tmp_path)
    prof.disable()
    stats = pstats.Stats(prof).stats
    out = {}
    for name, fn in (("padic.intersect", padic.PadicModel.intersect),
                     ("linalg.rref", linalg.rref),
                     ("cotraj.plus_group", cotraj.plus_group)):
        code = fn.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        out[name] = stats[key][1]
    return out


def test_tracer_calls_match_cprofile(tmp_path):
    op = workloads._padic_report(2, [-1])(random.Random(3), "profile_probe")
    expected = _profile_counts(op, tmp_path)
    tr = tracer.Tracer()
    tr.install()
    try:
        tr.start_op(0)
        _run(op, tmp_path)
    finally:
        tr.uninstall()
    summary = tr.summary()
    assert {n: summary[n]["calls"] for n in expected} == expected
    assert all(v > 0 for v in expected.values())
    # uninstall restored every binding
    assert padic.rref is linalg.rref and not hasattr(linalg.rref, "__wrapped__")


def test_metric_names_and_counts():
    per_layer = tracer.metric_names()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    assert [m["name"] for m in bench["per_layer"]] == per_layer
    assert len(end_to_end) <= 16 and len(per_layer) <= 128
    assert len(set(per_layer + end_to_end)) == len(per_layer) + len(end_to_end)
    assert all(NAME.match(n) for n in per_layer + end_to_end)
    summary = {"cotraj.plus_group": {"calls": 4, "time_s": 1.0, "self_s": 0.5,
                                     "raised": 0, "repeats": 1}}
    metrics = tracer.layer_metrics(summary, 0.25)
    assert list(metrics) == per_layer
    assert metrics["cotraj.plus_group.repeat_share"]["value"] == 0.25
