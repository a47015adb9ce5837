"""Command line interface.

Subcommands: entropy, scale, nub, tidy, cotraj, report, verify.  Scenario
subcommands read a JSON scenario file and emit a deterministic report to
stdout or --out.  Exit codes: 0 success, 1 verification failure, 2 invalid
input or an --out that cannot be written, 3 resource limit under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
import time

from . import __version__
from .core import UnresolvedError
from .scenario import (
    ScenarioError,
    emit_csv,
    emit_json,
    load_scenario_file,
    run_validated,
)
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tdlc-entropy",
        description="Exact entropy, scale, tidy subgroups and nub for "
                    "endomorphisms of t.d.l.c. groups",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("scenario", help="path to a scenario JSON file")
        # None defers to the scenario's own field, then to the library default
        p.add_argument("--probe", type=int, default=None)
        p.add_argument("--tidy-probe", type=int, default=None)
        p.add_argument("--resolution", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--strict", action="store_true")
        p.add_argument("--timing", action="store_true",
                       help="include wall time (breaks byte-stability)")
        return p

    for name, help_text in (
        ("entropy", "topological entropy of the scenario's system"),
        ("scale", "scale of the scenario's system"),
        ("nub", "nub of the scenario's system"),
        ("tidy", "tidiness of the scenario's named subgroups"),
        ("cotraj", "cotrajectory index table at the base subgroup"),
        ("report", "run every check the scenario requests"),
    ):
        scenario_command(name, help_text)

    v = sub.add_parser("verify", help="run a verification suite over the built-in catalog")
    v.add_argument("suite", choices=SUITE_NAMES)
    v.add_argument("--out", default=None)
    v.add_argument("--strict", action="store_true")
    v.add_argument("--timing", action="store_true")
    return parser


_COMMAND_CHECKS = {
    "entropy": [{"type": "entropy"}],
    "scale": [{"type": "scale"}],
    "nub": [{"type": "nub"}],
    "cotraj": [{"type": "cotrajectory"}],
}


def _write(text: str, out_path) -> bool:
    """Write ``text`` to ``out_path`` or stdout; False, with an error line,
    when ``out_path`` cannot be written."""
    if not out_path:
        _sys.stdout.write(text)
        return True
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out_path}: {exc.strerror or exc}", file=_sys.stderr)
        return False
    return True


def _run_scenario_command(args) -> int:
    started = time.monotonic()
    try:
        data = load_scenario_file(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    if args.command == "report":
        checks = data.get("checks", [])
    elif args.command == "tidy":
        checks = [{"type": "tidy", "subgroup": name} for name in sorted(data.get("subgroups", {}))]
        if not checks:
            print("error: tidy needs named subgroups in the scenario", file=_sys.stderr)
            return EXIT_INVALID
    else:
        checks = _COMMAND_CHECKS[args.command]
    # the file passed validation; the checks put in its place are well formed
    data = dict(data, checks=checks)
    try:
        report, failures, unresolved = run_validated(data, args.probe, args.tidy_probe,
                                                     args.resolution)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except UnresolvedError as exc:
        print(f"unresolved: {exc}", file=_sys.stderr)
        return EXIT_RESOURCE if args.strict else EXIT_OK
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    if not _write(emit_json(report) if args.format == "json" else emit_csv(report), args.out):
        return EXIT_INVALID
    if failures:
        return EXIT_FAIL
    if unresolved and args.strict:
        return EXIT_RESOURCE
    return EXIT_OK


def _run_verify_command(args) -> int:
    started = time.monotonic()
    result = run_suite(args.suite)
    if args.timing:
        result["timing_seconds"] = round(time.monotonic() - started, 3)
    if not _write(json.dumps(result, sort_keys=True, indent=2) + "\n", args.out):
        return EXIT_INVALID
    summary = result["summary"]
    if summary.get("FAIL"):
        return EXIT_FAIL
    if summary.get("INCONCLUSIVE") and args.strict:
        return EXIT_RESOURCE
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify_command(args)
    return _run_scenario_command(args)


if __name__ == "__main__":
    raise SystemExit(main())
