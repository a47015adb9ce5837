"""Scenario files: strict schema validation, system construction, check
execution and deterministic report emission.

A scenario is a JSON object with ``"schema": 1``; unknown fields are rejected
anywhere in the tree before any computation runs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from . import __version__, core, cotraj, dynamics
from .backends import finite as finite_backend
from .backends import padic as padic_backend
from .backends import product as product_backend
from .backends import shift as shift_backend
from .core import ClosedSubgroupSpec, TdlcSystem, UnresolvedError


class ScenarioError(ValueError):
    """Invalid scenario input; maps to exit code 2."""


SCHEMA_VERSION = 1
BACKENDS = ("finite", "padic", "shift", "product")
CHECK_TYPES = ("entropy", "scale", "nub", "scale_link", "tidy", "cotrajectory", "addition", "phi_n")

_TOP_FIELDS = {
    "schema", "name", "backend", "subgroups", "checks", "probe", "tidy_probe", "resolution",
}
_BACKEND_FIELDS = {
    "finite": {"group", "table", "names", "endo"},
    "padic": {"prime", "dim", "matrix"},
    "shift": {"alphabet", "tail_mode", "shift", "sigma"},
    "product": {"factors"},
}
_CHECK_FIELDS = {
    "entropy": set(),
    "scale": set(),
    "nub": set(),
    "scale_link": set(),
    "tidy": {"subgroup"},
    "cotrajectory": {"n_max"},
    "addition": {"subgroup"},
    "phi_n": {"candidates"},
}


def _reject_unknown(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)} in {where}")


def _parse_fraction(x) -> Fraction:
    if isinstance(x, bool):
        raise ScenarioError(f"not a number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ScenarioError(f"bad rational {x!r}: {exc}") from None
    raise ScenarioError(f"bad rational entry {x!r}")


def validate_scenario(data: dict) -> dict:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(f'scenario must declare "schema": {SCHEMA_VERSION}')
    backend = data.get("backend")
    if backend not in BACKENDS:
        raise ScenarioError(f"backend must be one of {BACKENDS}")
    allowed = _TOP_FIELDS | _BACKEND_FIELDS[backend]
    _reject_unknown(data, allowed, "scenario")
    if not isinstance(data.get("name", ""), str):
        raise ScenarioError("name must be a string")
    for key in ("probe", "tidy_probe", "resolution"):
        if key in data and (not isinstance(data[key], int) or data[key] < 1):
            raise ScenarioError(f"{key} must be a positive integer")
    if backend == "finite":
        if ("group" in data) == ("table" in data):
            raise ScenarioError("finite scenarios take exactly one of 'group' or 'table'")
        if "group" in data and data["group"] not in finite_backend.NAMED_GROUPS:
            raise ScenarioError(f"unknown named group {data['group']!r}")
        if "endo" not in data:
            raise ScenarioError("finite scenarios need 'endo'")
    elif backend == "padic":
        for key in ("prime", "dim", "matrix"):
            if key not in data:
                raise ScenarioError(f"padic scenarios need '{key}'")
    elif backend == "shift":
        for key in ("alphabet", "tail_mode", "shift"):
            if key not in data:
                raise ScenarioError(f"shift scenarios need '{key}'")
        if data["tail_mode"] not in shift_backend.TAIL_MODES:
            raise ScenarioError(f"tail_mode must be one of {shift_backend.TAIL_MODES}")
    else:
        factors = data.get("factors")
        if not isinstance(factors, list) or len(factors) != 2:
            raise ScenarioError("product scenarios need exactly two 'factors'")
        for i, frag in enumerate(factors):
            sub = dict(frag)
            sub.setdefault("schema", SCHEMA_VERSION)
            sub.setdefault("name", f"factor{i}")
            if sub.get("backend") == "product":
                raise ScenarioError("nested products are not supported")
            validate_scenario(sub)
            if "subgroups" in frag or "checks" in frag:
                raise ScenarioError("factors carry only backend parameters")
    subgroups = data.get("subgroups", {})
    if not isinstance(subgroups, dict):
        raise ScenarioError("subgroups must be an object")
    for name, ctor in subgroups.items():
        if not isinstance(ctor, dict):
            raise ScenarioError(f"subgroup {name!r} must be an object")
    checks = data.get("checks", [])
    if not isinstance(checks, list):
        raise ScenarioError("checks must be a list")
    for chk in checks:
        if not isinstance(chk, dict) or chk.get("type") not in CHECK_TYPES:
            raise ScenarioError(f"bad check {chk!r}")
        _reject_unknown(chk, {"type"} | _CHECK_FIELDS[chk["type"]], f"check {chk.get('type')}")
        for field in _CHECK_FIELDS[chk["type"]] - {"n_max"}:
            if field not in chk:
                raise ScenarioError(f"check {chk['type']!r} needs {field!r}")
    return data


def _build_finite(data) -> TdlcSystem:
    if "group" in data:
        model = finite_backend.NAMED_GROUPS[data["group"]]()
    else:
        model = finite_backend.FiniteGroupModel(data["table"], names=data.get("names"))
    endo_spec = data["endo"]
    if endo_spec == "identity":
        endo = model.identity_endo()
    else:
        try:
            endo = model.endo(tuple(int(x) for x in endo_spec))
        except (ValueError, TypeError) as exc:
            raise ScenarioError(f"bad finite endomorphism: {exc}") from None
    return TdlcSystem(model, endo, name=data.get("name", model.name))


def _build_padic(data) -> TdlcSystem:
    try:
        model = padic_backend.PadicModel(int(data["prime"]), int(data["dim"]))
        matrix = [[_parse_fraction(x) for x in row] for row in data["matrix"]]
        endo = model.endo(matrix)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return TdlcSystem(model, endo, name=data.get("name", model.name))


def _build_shift(data) -> TdlcSystem:
    try:
        orders = tuple(int(n) for n in data["alphabet"])
        alphabet = shift_backend.cyclic_alphabet(orders)
        model = shift_backend.ShiftProfileModel(alphabet, data["tail_mode"])
        sigma = None
        if "sigma" in data:
            sigma = shift_backend.matrix_hom(alphabet, orders, data["sigma"])
        endo = model.endo(int(data["shift"]), sigma)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    return TdlcSystem(model, endo, name=data.get("name", model.name))


def build_system(data: dict) -> TdlcSystem:
    backend = data["backend"]
    if backend == "finite":
        return _build_finite(data)
    if backend == "padic":
        return _build_padic(data)
    if backend == "shift":
        return _build_shift(data)
    fragments = []
    for i, frag in enumerate(data["factors"]):
        sub = dict(frag)
        sub.setdefault("schema", SCHEMA_VERSION)
        sub.setdefault("name", f"{data.get('name', 'product')}[{i}]")
        fragments.append(build_system(sub))
    return product_backend.make_product(fragments[0], fragments[1], name=data.get("name", ""))


def build_subgroup(sys: TdlcSystem, ctor: dict, where: str):
    model = sys.model
    kind = model.kind
    try:
        if kind == "finite":
            _reject_unknown(ctor, {"members", "generated", "full", "trivial"}, where)
            if "members" in ctor:
                return model.subgroup(int(x) for x in ctor["members"])
            if "generated" in ctor:
                return model.generated_subgroup(int(x) for x in ctor["generated"])
            if ctor.get("full"):
                return model.full_group()
            if ctor.get("trivial"):
                return model.trivial_subgroup()
        elif kind == "padic":
            _reject_unknown(
                ctor, {"lattice", "subspace", "zero", "full_lattice", "whole", "scaled"}, where
            )
            if "lattice" in ctor:
                cols = [[_parse_fraction(x) for x in col] for col in ctor["lattice"]]
                return model.lattice(cols)
            if "subspace" in ctor:
                rows = [[_parse_fraction(x) for x in row] for row in ctor["subspace"]]
                return model.closed_subgroup(rows, [])
            if ctor.get("zero"):
                return model.zero_subgroup()
            if ctor.get("full_lattice"):
                return model.full_lattice()
            if ctor.get("whole"):
                return model.whole_space()
            if "scaled" in ctor:
                return model.base_element(int(ctor["scaled"]))
        elif kind == "shift":
            _reject_unknown(
                ctor, {"constant", "constant_gens", "window", "left", "right", "base", "step"}, where
            )
            alpha = model.alphabet
            if "constant" in ctor:
                sid = alpha.full_id if ctor["constant"] == "full" else alpha.trivial_id
                return model.constant_profile(sid)
            if "constant_gens" in ctor:
                gens = [tuple(int(v) for v in g) for g in ctor["constant_gens"]]
                sid = alpha.subgroup_id(alpha._closure(gens))
                return model.constant_profile(sid)
            if "base" in ctor:
                return model.base_element(int(ctor["base"]))
            if "step" in ctor:
                k = int(ctor["step"])
                return model.make_profile((alpha.trivial_id,), k, (), (alpha.full_id,))
            if "window" in ctor:
                tail = {"full": alpha.full_id, "trivial": alpha.trivial_id}
                left = tail[ctor.get("left", "full")]
                right = tail[ctor.get("right", "full")]
                values = {}
                for pos, gens in ctor["window"].items():
                    gset = alpha._closure([tuple(int(v) for v in g) for g in gens])
                    values[int(pos)] = alpha.subgroup_id(gset)
                return model.window_profile(values, left, right, fill=alpha.full_id)
        else:
            _reject_unknown(ctor, {"pair"}, where)
            if "pair" in ctor:
                left_sys = TdlcSystem(model.factors[0], sys.endo.parts[0])
                right_sys = TdlcSystem(model.factors[1], sys.endo.parts[1])
                return model.pair(
                    build_subgroup(left_sys, ctor["pair"][0], where + "[0]"),
                    build_subgroup(right_sys, ctor["pair"][1], where + "[1]"),
                )
    except ScenarioError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ScenarioError(f"bad subgroup {where}: {exc}") from None
    raise ScenarioError(f"empty subgroup constructor in {where}")


def _verdict_result(v: dynamics.Verdict) -> dict:
    return v.to_jsonable()


def run_checks(sys: TdlcSystem, data: dict, probe: int, tidy_probe: int, resolution: int):
    """Execute the scenario's requested computations in order."""
    subgroups = {
        name: build_subgroup(sys, ctor, f"subgroups.{name}")
        for name, ctor in sorted(data.get("subgroups", {}).items())
    }
    results = []
    unresolved = 0
    failures = 0
    for chk in data.get("checks", []):
        kind = chk["type"]
        entry = {"check": dict(chk)}
        try:
            if kind == "entropy":
                entry["result"] = dynamics.topological_entropy(sys, probe).to_jsonable()
            elif kind == "scale":
                entry["result"] = dynamics.scale(sys, probe=probe, tidy_probe=tidy_probe).to_jsonable()
            elif kind == "nub":
                rep = dynamics.nub(sys, resolution=resolution, probe=probe)
                entry["result"] = rep.to_jsonable()
                if not rep.certified:
                    unresolved += 1
            elif kind == "scale_link":
                v = dynamics.verify_scale_entropy_link(sys, probe=probe, resolution=resolution)
                entry["result"] = _verdict_result(v)
                failures += v.status == dynamics.FAIL
                unresolved += v.status == dynamics.INCONCLUSIVE
            elif kind == "addition":
                handle = subgroups[chk["subgroup"]]
                spec = ClosedSubgroupSpec.verify(sys, handle)
                v = dynamics.verify_addition_theorem(sys, spec, probe)
                entry["result"] = _verdict_result(v)
                failures += v.status == dynamics.FAIL
                unresolved += v.status == dynamics.INCONCLUSIVE
            elif kind == "tidy":
                handle = subgroups[chk["subgroup"]]
                if not (handle.is_compact and handle.is_open):
                    entry["result"] = {"status": "SKIPPED", "reason": "subgroup is not compact open"}
                else:
                    above = cotraj.is_tidy_above(sys, handle)
                    below = cotraj.is_tidy_below(sys, handle, probe=tidy_probe)
                    entry["result"] = {
                        "tidy_above": above,
                        "tidy_below": below.value,
                        "indirect": False,  # no indirect route; kept for report byte-stability
                    }
            elif kind == "cotrajectory":
                n_max = chk.get("n_max", min(probe, 8))
                table = cotraj.alpha_sequence(sys, core.base_family(sys, 0), n_max)
                entry["result"] = {
                    "c": [str(r.c) for r in table.rows],
                    "alpha": [str(r.alpha) for r in table.rows if r.alpha is not None],
                    "n_star": table.n_star,
                }
                if table.n_star is None:
                    unresolved += 1
            elif kind == "phi_n":
                cands = [subgroups[name] for name in chk["candidates"]]
                best, accepted, rejected = dynamics.entropy_lower_bound_phiN(sys, cands, probe)
                total = dynamics.topological_entropy(sys, probe).value
                if not best <= total:
                    raise core.InvariantViolation("lower bound exceeded the entropy")
                entry["result"] = {
                    "bound_alpha": None if best.is_infinite else str(best.alpha),
                    "accepted": len(accepted),
                    "rejected": [reason for _, reason in rejected],
                    "attains_entropy": best == total,
                }
        except KeyError as exc:
            raise ScenarioError(f"check references unknown subgroup {exc}") from None
        except UnresolvedError as exc:
            entry["result"] = {"status": "UNRESOLVED", "reason": str(exc)}
            unresolved += 1
        results.append(entry)
    return results, failures, unresolved


def run_scenario(data: dict, probe: Optional[int] = None, tidy_probe: Optional[int] = None,
                 resolution: Optional[int] = None) -> tuple[dict, int, int]:
    """Full report for one scenario; returns (report, failures, unresolved)."""
    data = validate_scenario(data)
    sys = build_system(data)
    probe = probe if probe is not None else data.get("probe", 8)
    tidy_probe = tidy_probe if tidy_probe is not None else data.get("tidy_probe", 16)
    resolution = resolution if resolution is not None else data.get("resolution", 8)
    results, failures, unresolved = run_checks(sys, data, probe, tidy_probe, resolution)
    report = {
        "schema": SCHEMA_VERSION,
        "version": __version__,
        "scenario": data,
        "results": results,
    }
    return report, failures, unresolved


def load_scenario_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return validate_scenario(data)


def emit_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit_csv(report: dict) -> str:
    """Flat rows: scenario id, quantity, alpha, infinite?, certified?."""
    lines = ["scenario,quantity,alpha,infinite,certified"]
    name = report["scenario"].get("name", "")
    for entry in report.get("results", []):
        kind = entry["check"]["type"]
        res = entry.get("result", {})
        if res.get("status") == "UNRESOLVED":
            lines.append(f"{name},{kind},,,false")
            continue
        if kind == "entropy":
            lines.append(
                f"{name},entropy,{res['alpha']},{str(res['infinite']).lower()},"
                f"{str(res['certified']).lower()}"
            )
        elif kind == "scale":
            lines.append(f"{name},scale,{res['scale']},false,true")
        elif kind == "nub":
            lines.append(f"{name},nub,,false,{str(res['certified']).lower()}")
        elif kind in ("scale_link", "addition"):
            ok = res.get("status") == "PASS"
            lines.append(f"{name},{kind},{res.get('status')},,{str(ok).lower()}")
        elif kind == "tidy":
            lines.append(f"{name},tidy,,,{str(bool(res.get('tidy_above'))).lower()}")
        elif kind == "cotrajectory":
            certified = res.get("n_star") is not None
            lines.append(f"{name},cotrajectory,,,{str(certified).lower()}")
        elif kind == "phi_n":
            lines.append(f"{name},phi_n,{res.get('bound_alpha')},false,true")
    return "\n".join(lines) + "\n"
