#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for tdlc-entropy.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in this single fresh process as a closed loop with one
client: each operation is an in-process call of ``tdlc_entropy.cli.main``
that starts only after the previous one returned, with ``--out`` pointing
at a file under ``.perfbench_tmp/``.  Every output is checked (see
``workloads.py``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
carry the run's facts (outputs digest, failed ops, known failures, the
p90 when at least 100 operations completed).

Times are *reference seconds*: wall seconds scaled to a fixed host speed
by ``hostspeed.py``, because the speed of the host drifts by a third and
more over seconds to minutes.  The wall figures are printed too.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (import, input
generation and one warm-up operation on a separate stream; the median of
this process and four fresh ``--role setup`` child processes),
``ops_per_s``, ``op_p50_s`` and ``peak_rss_mb``.  The measured phase runs
whole decks until ``--seconds`` have passed.

``--trace 1`` runs a fixed number of decks under the outside-in tracer
(``tracer.py``), then the same decks again untraced for
``trace.overhead_share``, and reports the per-layer metrics; the spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (the benchmark's own modules, next to this file)
from hostspeed import HostSpeed  # noqa: E402

SETUP_CHILDREN = 4
# decks per pass of a traced run; fixed so that traced call counts repeat exactly
TRACE_DECKS = {"padic_report": 1, "shift_finite_report": 4, "cotraj_tables": 4, "verify_all": 1}
# a measured phase stops early, mid-deck, once it has run this many times --seconds
OVERRUN_FACTOR = 4
P90_MIN_OPS = 100


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("run", "setup"), default="run",
                    help="'setup' only times the set-up (used for the setup_s median)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _import_cli():
    """Import the library from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "tdlc_entropy")):
        raise SystemExit(f"error: no library source at {SRC}")
    sys.path.insert(0, SRC)
    from tdlc_entropy import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's source")
    return cli


class SuiteTimer:
    """Times each ``verify`` suite: on ``verify_all`` an operation is a suite.

    Only the eight ``verify.suite_*`` functions are wrapped, eight calls per
    ``verify all``, so the untraced run is not slowed measurably.
    """

    def __init__(self, verify_module, speed: HostSpeed):
        self.module = verify_module
        self.speed = speed
        self.times: list = []  # (suite, interval)
        self._originals = {}

    def install(self):
        for name in workloads.VERIFY_SUITES:
            attr = f"suite_{name}"
            original = getattr(self.module, attr)
            self._originals[attr] = original

            def timed(*args, _fn=original, _name=name, **kwargs):
                interval, result = self.speed.timed(_fn, *args, **kwargs)
                self.times.append((_name, interval))
                return result

            setattr(self.module, attr, timed)

    def uninstall(self):
        for attr, original in self._originals.items():
            setattr(self.module, attr, original)


class Session:
    """One workload in one process: set-up, operations and their checks."""

    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.out_path = os.path.join(scratch, "out.json")
        self.speed = HostSpeed()
        self.cli = None
        self.stream = None
        self.decks: dict = {}
        self.problems: list = []  # (label, problems) of every failed op
        self.warmup_problems: list = []
        self.attempted = 0
        self.intervals: list = []  # (start, end, wall seconds) of every op
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def setup(self):
        """Import, generate the first deck, run one warm-up op.

        Starts the host-speed probes, which run until ``finish``; returns
        the set-up's (reference seconds, wall seconds).
        """
        self.speed.start_ticks()
        try:
            self.speed.settle()
            interval, _ = self.speed.timed(self._setup_work)
            self.speed.settle()
        except BaseException:
            self.speed.stop_ticks()
            raise
        return self.speed.reference_seconds(interval), interval[2]

    def _setup_work(self):
        self.cli = _import_cli()
        self.stream = workloads.InputStream(self.workload, self.seed, self.scratch)
        self.deck(0)
        _, self.warmup_problems, _ = self._call(self.stream.warmup())

    def _call(self, op):
        """(interval, problems, output bytes) of one CLI call."""
        argv = op.argv + ["--out", self.out_path]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)

        def call():
            try:
                return self.cli.main(argv), None
            except (Exception, SystemExit) as exc:  # a failed op, not a failed run
                return None, exc

        interval, (code, exc) = self.speed.timed(call)
        if exc is not None:
            return interval, [f"exception {type(exc).__name__}: {exc}"], b""
        try:
            with open(self.out_path, "rb") as fh:
                data = fh.read()
        except OSError:
            return interval, [f"exit code {code}, no output written"], b""
        return interval, op.check(code, data.decode("utf-8", errors="replace")), data

    def deck(self, index: int) -> list:
        """Deck ``index``, generated once; running it again repeats its inputs."""
        if index not in self.decks:
            self.decks[index] = self.stream.deck(index)
        return self.decks[index]

    def run_deck(self, index: int, suite_timer=None, on_op=None, deadline=None) -> bool:
        """Run one deck, recording intervals and problems; False if cut short."""
        ops = self.deck(index)
        for pos, op in enumerate(ops):
            if on_op is not None:
                on_op(self.attempted)
            if suite_timer is not None:
                suite_timer.times.clear()
            interval, problems, data = self._call(op)
            if index == 0 and self.digest_ops < len(ops):
                self.digest.update(data)
                self.digest_ops += 1
            if suite_timer is None:
                self.attempted += 1
                self.intervals.append(interval)
                if problems:
                    self.problems.append((op.label, problems))
            else:
                self._record_suites(op, suite_timer.times, problems)
            if deadline is not None and time.perf_counter() > deadline:
                return pos == len(ops) - 1
        return True

    def _record_suites(self, op, times, problems):
        """On ``verify_all`` each suite is one op; a bad entry fails its suite.

        Entry names start with the suite name (``scale-link/...``).  A problem
        no suite can be named for (output not JSON, too few suites) fails the
        call as a whole.
        """
        by_suite = {}
        for p in problems:
            name = p.rsplit(": ", 1)[-1].split("/", 1)[0].replace("-", "_")
            if p.startswith("verify entry") and name in workloads.VERIFY_SUITES:
                by_suite.setdefault(name, []).append(p)
        for name, interval in times:
            self.attempted += 1
            self.intervals.append(interval)
            if name in by_suite:
                self.problems.append((f"{op.label}/{name}", by_suite[name]))
        if [name for name, _ in times] != list(workloads.VERIFY_SUITES):
            self.problems.append((op.label, [f"suites ran: {[n for n, _ in times]}"]))
        elif problems and not by_suite:
            self.problems.append((op.label, problems))

    def finish(self):
        """Stop the probes after a last window; (reference, wall) seconds of the ops."""
        self.speed.settle()
        self.speed.stop_ticks()
        return ([self.speed.reference_seconds(iv) for iv in self.intervals],
                [iv[2] for iv in self.intervals])


def _scratch_dir() -> str:
    base = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=base)


def _remove_scratch(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(path))
    except OSError:
        pass


def _child_setup_times(args) -> list:
    """(reference, wall) set-up seconds measured in fresh child processes."""
    times = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--role", "setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"error: set-up child exited with {proc.returncode}")
        child = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((child["setup_s"], child["wall_s"]))
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _fmt(values) -> str:
    return "[" + ", ".join(f"{v:.4g}" for v in values) + "]"


def measure(args, session: Session) -> dict:
    """The untraced run: end-to-end metrics."""
    setup_times = _child_setup_times(args)
    setup_times.append(session.setup())
    timer = None
    if args.workload == "verify_all":
        timer = SuiteTimer(sys.modules["tdlc_entropy.verify"], session.speed)
        timer.install()
    start = time.perf_counter()
    deadline = start + OVERRUN_FACTOR * args.seconds
    decks = 0
    try:
        while session.deck(decks):
            whole = session.run_deck(decks, suite_timer=timer, deadline=deadline)
            # a run keeps no finished deck, so its memory does not grow with its length
            session.decks.pop(decks)
            decks += 1
            if not whole or time.perf_counter() - start >= args.seconds:
                break
    finally:
        if timer is not None:
            timer.uninstall()
    for op in session.stream.known_failures():
        _, problems, _ = session._call(op)
        print(f"known_failure {op.label} {json.dumps(op.scenario, sort_keys=True)}: "
              f"{'; '.join(problems) or 'now passes'}")
    lat, wall = session.finish()
    speed = session.speed
    print(f"measured: {session.attempted} ops in {decks} decks; reference seconds "
          f"{sum(lat):.4f}, wall seconds {sum(wall):.4f}; {len(speed.took)} probes took "
          f"{speed.probe_s:.3f} s of the run's {time.perf_counter() - speed.at[0]:.3f} s")
    print(f"setup samples (reference s): {_fmt(t for t, _ in setup_times)}; "
          f"wall s: {_fmt(w for _, w in setup_times)}")
    print(f"wall figures: ops_per_s {len(wall) / sum(wall)}, "
          f"op_p50_s {statistics.median(wall)}")
    if len(lat) >= P90_MIN_OPS:
        print(f"op_p90_s: {statistics.quantiles(lat, n=10)[8]} (n={len(lat)})")
    else:
        print(f"op_p90_s: not reported (n={len(lat)} < {P90_MIN_OPS})")
    return {
        "setup_s": _metric(statistics.median(t for t, _ in setup_times), "s"),
        "ops_per_s": _metric(session.attempted / sum(lat), "1/s"),
        "op_p50_s": _metric(statistics.median(lat), "s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def trace(args, session: Session) -> dict:
    """The traced run: fixed decks traced, then the same decks untraced."""
    import tracer as tracer_mod

    session.setup()
    n = TRACE_DECKS[args.workload]
    tr = tracer_mod.Tracer(clock=session.speed.clock)
    tr.install()
    try:
        for d in range(n):
            session.run_deck(d, on_op=tr.start_op)
    finally:
        tr.uninstall()
    traced_ops = len(session.intervals)
    for d in range(n):
        session.run_deck(d)
    lat, wall = session.finish()
    traced_s, untraced_s = sum(lat[:traced_ops]), sum(lat[traced_ops:])
    summary = tr.summary()
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tr.write(spans_path)
    calls = {name: rec["calls"] for name, rec in sorted(summary.items())}
    fingerprint = hashlib.sha256(json.dumps(calls, sort_keys=True).encode()).hexdigest()
    print(f"traced: {len(tr.span_name)} spans written to "
          f"{os.path.relpath(spans_path, ROOT)}; calls fingerprint {fingerprint}")
    print(f"trace passes (reference s): traced {traced_s:.4f}, untraced {untraced_s:.4f}")
    return tracer_mod.layer_metrics(summary, traced_s / untraced_s - 1,
                                    traced_s / sum(wall[:traced_ops]))


def _setup_only(args) -> int:
    scratch = _scratch_dir()
    try:
        session = Session(args.workload, args.seed, scratch)
        setup_s, wall_s = session.setup()
        session.finish()
    finally:
        _remove_scratch(scratch)
    if session.warmup_problems:
        print(f"warm-up failed: {session.warmup_problems}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role == "setup":
        return _setup_only(args)
    scratch = _scratch_dir()
    session = Session(args.workload, args.seed, scratch)
    try:
        metrics = trace(args, session) if args.trace else measure(args, session)
    finally:
        session.speed.stop_ticks()
        _remove_scratch(scratch)
    if args.workload == "verify_all":
        print("verify_all: the built-in catalog is fixed, so --seed is ignored")
    print(f"outputs_digest: {session.digest.hexdigest()} (deck 0, {session.digest_ops} calls)")
    failed = len(session.problems)
    for label, problems in session.problems:
        print(f"failed_op {label}: {'; '.join(problems)}")
    if session.warmup_problems:
        print(f"failed warm-up: {'; '.join(session.warmup_problems)}")
    print(f"failed_ops_share: {failed / max(session.attempted, 1)}")
    result = {
        "correct": not session.problems and not session.warmup_problems,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
