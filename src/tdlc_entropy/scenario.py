"""Scenario files: schema validation, system construction, check execution
and deterministic report emission.

``backend_spec`` gives one spec per backend: the JSON type and bound of each
field, how to build the system and the subgroup constructors.  Each spec is
built on first use and imports its backend module then, so a command loads
only the backends its scenario names.  Nothing is built from a scenario, or a
subgroup from its constructor, before their fields pass these checks; the
data, which reports echo, is never rewritten.
"""

from __future__ import annotations

import functools
import json
import re
from collections import namedtuple
from contextlib import contextmanager
from fractions import Fraction
from math import prod
from typing import Optional

from . import __version__, core, cotraj, dynamics
from .core import ClosedSubgroupSpec, TdlcSystem, UnresolvedError


class ScenarioError(ValueError):
    """Invalid scenario input; maps to exit code 2."""


SCHEMA_VERSION = 1
# the defaults of probe, tidy_probe and resolution, which like n_max lie in 1..PARAM_BOUND
PARAMS = {"probe": 8, "tidy_probe": cotraj.DEFAULT_TIDY_PROBE, "resolution": 8}
PARAM_BOUND = 64
# the most decimal digits of the numerator and of the denominator of a p-adic entry
ENTRY_DIGITS = 20


# a field type with its own test ``ok(value)``; ``text`` describes the valid values
Check = namedtuple("Check", "text ok")


def _conforms(value, kind) -> bool:
    """Whether a JSON value has a field type: ``int``, ``str``, a ``range`` of
    integers, a tuple of allowed strings, ``[t]`` (a list of values of type t)
    or a ``Check``."""
    if isinstance(kind, list):
        ints = isinstance(value, list) and set(map(type, value)) <= {int}
        if ints and (kind[0] is int or isinstance(kind[0], range)):  # long integer rows
            return kind[0] is int or not value or min(value) in kind[0] and max(value) in kind[0]
        return isinstance(value, list) and all(_conforms(x, kind[0]) for x in value)
    if isinstance(kind, Check):
        return kind.ok(value)
    if isinstance(kind, range):
        return type(value) is int and value in kind
    if isinstance(kind, tuple):
        return isinstance(value, str) and value in kind
    return type(value) is kind  # JSON true is not an int


def _describe(kind) -> str:
    if isinstance(kind, list):
        return f"a list of ({_describe(kind[0])})"
    if isinstance(kind, range):
        return f"an integer in {kind.start}..{kind.stop - 1}"
    if isinstance(kind, Check):
        return kind.text
    if isinstance(kind, tuple):
        return f"one of {list(kind)}"
    return {int: "an integer", str: "a string"}[kind]


def _check_fields(obj, fields: dict, required, where: str) -> None:
    """Reject unknown fields and values of the wrong type.  Each entry of
    ``required`` is a field, or a tuple of fields exactly one of which is given."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object")
    for need in required:
        options = need if isinstance(need, tuple) else (need,)
        if sum(key in obj for key in options) != 1:
            raise ScenarioError(f"{where} needs exactly one of the fields {list(options)}")
    for key, value in obj.items():
        if key not in fields:
            raise ScenarioError(f"unknown field {key!r} in {where}")
        if not _conforms(value, fields[key]):
            raise ScenarioError(f"{key!r} in {where} must be {_describe(fields[key])}")


def _valid_fragment(frag, common: dict, where: str, required=()) -> bool:
    """True for a backend and its fields that pass their spec; raises otherwise."""
    backend = frag.get("backend") if isinstance(frag, dict) else None
    if not _conforms(backend, common["backend"]):
        raise ScenarioError(f"{where} needs a 'backend' in {list(common['backend'])}")
    spec = backend_spec(backend)
    _check_fields(frag, {**common, **spec.fields}, spec.required + required, where)
    return True


# One backend's scenario format: the type of each field, the required ones,
# ``system(data, built)`` (see ``build_system``), and the subgroup constructor
# fields, each with its type and ``build(model, ctor)`` in precedence order (a
# field whose build is None only modifies another).
BackendSpec = namedtuple("BackendSpec", "fields required system subgroups")


def _from_model(model, endo):
    """``system(data, built)`` from ``model(data)`` and ``endo(model, data)``."""
    def build(data, built):
        m = model(data)
        return TdlcSystem(m, endo(m, data), name=data.get("name", m.name))
    return build


def _checked(values, field: str, ok, need: str):
    """``values``, each of which passes ``ok``: the first that does not is
    refused with the constructor field that holds it."""
    for x in values:
        if not ok(x):
            raise ScenarioError(f"{x!r} in {field!r} is not {need}")
    return values


def _alphabet_elements(model, gens, field: str):
    alpha = model.alphabet
    return _checked(gens, field, lambda g: tuple(g) in alpha.elements,
                    f"an element of the alphabet {alpha.name}")


def _window_profile(model, ctor):
    alpha = model.alphabet
    values = {int(pos): alpha.generated_id(map(tuple, _alphabet_elements(model, gens, "window")))
              for pos, gens in ctor["window"].items()}
    left, right = (getattr(alpha, ctor.get(side, "full") + "_id") for side in ("left", "right"))
    return model.window_profile(values, left, right)


_PARAM = range(1, PARAM_BOUND + 1)
_BASE_INDEX = range(-PARAM_BOUND, PARAM_BOUND + 1)
_POSITIONS = {str(i) for i in _BASE_INDEX}
_TRUE = Check("true", lambda v: v is True)
_TAIL = ("full", "trivial")
_PAIR = Check("a list of two subgroup constructors", lambda v: isinstance(v, list) and len(v) == 2)
_ENTRY_LIMIT = 10**ENTRY_DIGITS
# Fraction("1e<n>") builds 10**n before any bound can be checked, so a string
# whose exponent is beyond 4 * ENTRY_DIGITS is refused unparsed
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*$")


def _bounded_rational(value) -> bool:
    """An integer, or a string that Fraction parses, whose numerator and
    denominator in lowest terms have at most ENTRY_DIGITS digits."""
    if isinstance(value, str):
        try:
            exponent = _EXPONENT.search(value)
            if exponent and abs(int(exponent[1])) > 4 * ENTRY_DIGITS:
                return False
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            return False
    elif type(value) is not int:
        return False
    return abs(value.numerator) < _ENTRY_LIMIT and value.denominator < _ENTRY_LIMIT


_RATIONAL = Check(f'a rational such as 3 or "1/2" with numerator and denominator of at most '
                  f'{ENTRY_DIGITS} digits', _bounded_rational)


def _finite_spec() -> BackendSpec:
    from .backends import finite

    elements = [range(finite.DEFAULT_ORDER_BOUND)]

    def members(m, c, field):
        return _checked(c[field], field, lambda x: x < m.order,
                        f"an element of the group (0..{m.order - 1})")

    return BackendSpec(
        fields={
            "group": tuple(finite.NAMED_GROUPS),
            "table": [elements],
            "names": [str],
            "endo": Check('"identity" or a list of element indices',
                          lambda v: v == "identity" or _conforms(v, elements)),
        },
        required=(("group", "table"), "endo"),
        system=_from_model(
            model=lambda d: finite.NAMED_GROUPS[d["group"]]() if "group" in d
            else finite.FiniteGroupModel(d["table"], names=d.get("names")),
            endo=lambda m, d: m.identity_endo() if d["endo"] == "identity" else m.endo(d["endo"]),
        ),
        subgroups={
            "members": (elements, lambda m, c: m.subgroup(members(m, c, "members"))),
            "generated": (elements, lambda m, c: m.generated_subgroup(members(m, c, "generated"))),
            "full": (_TRUE, lambda m, c: m.full_group()),
            "trivial": (_TRUE, lambda m, c: m.trivial_subgroup()),
        },
    )


def _padic_spec() -> BackendSpec:
    from .backends import padic

    def vectors(m, c, field):
        return _checked(c[field], field, lambda v: len(v) == m.dim,
                        f"a vector of length dim = {m.dim}")

    return BackendSpec(
        fields={"prime": int, "dim": range(padic.MAX_DIM + 1), "matrix": [[_RATIONAL]]},
        required=("prime", "dim", "matrix"),
        system=_from_model(
            model=lambda d: padic.PadicModel(d["prime"], d["dim"]),
            endo=lambda m, d: m.endo(d["matrix"]),
        ),
        subgroups={
            "lattice": ([[_RATIONAL]], lambda m, c: m.lattice(vectors(m, c, "lattice"))),
            "subspace": ([[_RATIONAL]],
                         lambda m, c: m.closed_subgroup(vectors(m, c, "subspace"))),
            "zero": (_TRUE, lambda m, c: m.trivial_subgroup()),
            "full_lattice": (_TRUE, lambda m, c: m.full_lattice()),
            "whole": (_TRUE, lambda m, c: m.full_group()),
            "scaled": (_BASE_INDEX, lambda m, c: m.base_element(c["scaled"])),
        },
    )


def _shift_spec() -> BackendSpec:
    from .backends import shift

    order = shift.MAX_ALPHABET_ORDER
    return BackendSpec(
        fields={
            "alphabet": Check(f"a non-empty list of cyclic orders with product <= {order}",
                              lambda v: _conforms(v, [range(1, order + 1)]) and 0 < len(v)
                              and prod(v) <= order),
            "tail_mode": shift.TAIL_MODES,
            "shift": range(-shift.MAX_SHIFT, shift.MAX_SHIFT + 1),
            "sigma": [[int]],
        },
        required=("alphabet", "tail_mode", "shift"),
        system=_from_model(
            model=lambda d: shift.ShiftProfileModel(
                shift.cyclic_alphabet(d["alphabet"]), d["tail_mode"]),
            endo=lambda m, d: m.endo(d["shift"], shift.matrix_hom(
                m.alphabet, d["alphabet"], d["sigma"]) if "sigma" in d else None),
        ),
        subgroups={
            "constant": (_TAIL, lambda m, c: m.constant_profile(
                getattr(m.alphabet, c["constant"] + "_id"))),
            "constant_gens": ([[int]], lambda m, c: m.constant_profile(m.alphabet.generated_id(
                map(tuple, _alphabet_elements(m, c["constant_gens"], "constant_gens"))))),
            "base": (_BASE_INDEX, lambda m, c: m.base_element(c["base"])),
            "step": (int, lambda m, c: m.make_profile(
                (m.alphabet.trivial_id,), c["step"], (), (m.alphabet.full_id,))),
            "window": (Check(f"an object from positions in -{PARAM_BOUND}..{PARAM_BOUND} to "
                             "lists of alphabet elements", lambda v: isinstance(v, dict) and all(
                                 pos in _POSITIONS and _conforms(gens, [[int]])
                                 for pos, gens in v.items())), _window_profile),
            "left": (_TAIL, None),
            "right": (_TAIL, None),
        },
    )


def _product_spec() -> BackendSpec:
    from .backends import product

    return BackendSpec(
        fields={"factors": Check(
            "a list of two backend fragments (no product among them)",
            lambda v: isinstance(v, list) and len(v) == 2 and all(
                _valid_fragment(f, {"backend": BACKENDS[:-1]}, "a factor") for f in v),
        )},
        required=("factors",),
        system=lambda d, built: product.make_product(
            *(_system(f, built) for f in d["factors"]), name=d.get("name", "")),
        subgroups={"pair": (_PAIR, lambda m, c: m.pair(*map(_construct, m.factors, c["pair"])))},
    )


_SPEC_OF = {
    "finite": _finite_spec,
    "padic": _padic_spec,
    "shift": _shift_spec,
    "product": _product_spec,
}
BACKENDS = tuple(_SPEC_OF)


@functools.cache
def backend_spec(backend: str) -> BackendSpec:
    """The spec of ``backend``, built (and its backend module imported) once,
    when a scenario first names the backend."""
    return _SPEC_OF[backend]()


_TOP_FIELDS = {
    "schema": range(SCHEMA_VERSION, SCHEMA_VERSION + 1),
    "name": str,
    "backend": BACKENDS,
    "subgroups": Check("an object", lambda v: isinstance(v, dict)),
    "checks": Check("a list", lambda v: isinstance(v, list)),
    **dict.fromkeys(PARAMS, _PARAM),
}
_CHECK_FIELDS = {
    **dict.fromkeys(("entropy", "scale", "nub", "scale_link"), {}),
    "tidy": {"subgroup": str},
    "cotrajectory": {"n_max": _PARAM},
    "addition": {"subgroup": str},
    "phi_n": {"candidates": [str]},
}


def validate_scenario(data: dict) -> dict:
    """Check ``data`` against its backend's spec, and every subgroup name a
    check uses against ``subgroups``; returns it unchanged.  Subgroup
    constructors are checked when they are built."""
    _valid_fragment(data, _TOP_FIELDS, "scenario", required=("schema",))
    for i, chk in enumerate(data.get("checks", [])):
        if not isinstance(chk, dict) or not _conforms(chk.get("type"), tuple(_CHECK_FIELDS)):
            raise ScenarioError(f"checks[{i}] needs a 'type' in {list(_CHECK_FIELDS)}")
        fields = _CHECK_FIELDS[chk["type"]]
        _check_fields(chk, {"type": str, **fields}, set(fields) - {"n_max"}, f"checks[{i}]")
        for name in chk.get("candidates", [chk["subgroup"]] if "subgroup" in chk else []):
            if name not in data.get("subgroups", {}):
                raise ScenarioError(f"check references unknown subgroup {name!r}")
    return data


@contextmanager
def _error_boundary(what: str):
    """A constructor's complaint about its input, as ``ScenarioError`` (exit 2)."""
    try:
        yield
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ScenarioError(f"{what}: {exc}") from None


def build_system(data: dict, built: Optional[dict] = None) -> TdlcSystem:
    """The system of a scenario.  ``built`` maps each fragment built so far
    to its system, so that equal fragments build one system and share its
    cache: a product's two equal factors and, across the calls that pass one
    ``built``, a system and a product factor equal to it."""
    with _error_boundary(f"bad {data['backend']} system"):
        return _system(data, {} if built is None else built)


def _system(frag: dict, built: dict) -> TdlcSystem:
    """The system of a backend fragment, built once per ``built``.  The key is
    the backend and its fields; the name only labels the system that the
    first fragment of that key built."""
    spec = backend_spec(frag["backend"])
    key = json.dumps([frag["backend"], {k: frag[k] for k in spec.fields if k in frag}],
                     sort_keys=True)
    if key not in built:
        built[key] = spec.system(frag, built)
    return built[key]


def _construct(model, ctor):
    """The handle of a subgroup constructor, after checking its fields."""
    subgroups = backend_spec(model.kind).subgroups
    _check_fields(ctor, {key: kind for key, (kind, _) in subgroups.items()}, (), "the constructor")
    for key, (_, build) in subgroups.items():
        if build is not None and key in ctor:
            return build(model, ctor)
    raise ScenarioError("the constructor names no subgroup")


def build_subgroup(sys: TdlcSystem, ctor: dict, where: str):
    with _error_boundary(f"bad subgroup {where}"):
        return _construct(sys.model, ctor)


def build_subgroups(sys: TdlcSystem, data: dict) -> dict:
    """The scenario's named subgroups, in name order."""
    return {
        name: build_subgroup(sys, ctor, f"{data.get('name', '')}.{name}")
        for name, ctor in sorted(data.get("subgroups", {}).items())
    }


def run_checks(sys: TdlcSystem, data: dict, probe: int, tidy_probe: int, resolution: int):
    """Execute the scenario's requested computations in order."""
    subgroups = build_subgroups(sys, data)
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
                unresolved += not rep.certified
            elif kind in ("scale_link", "addition"):
                if kind == "scale_link":
                    v = dynamics.verify_scale_entropy_link(sys, probe, resolution)
                else:
                    spec = ClosedSubgroupSpec.verify(sys, subgroups[chk["subgroup"]])
                    v = dynamics.verify_addition_theorem(sys, spec, probe)
                entry["result"] = v.to_jsonable()
                failures += v.status == dynamics.FAIL
                unresolved += v.status == dynamics.INCONCLUSIVE
            elif kind == "tidy":
                handle = subgroups[chk["subgroup"]]
                if not (handle.is_compact and handle.is_open):
                    entry["result"] = {"status": "SKIPPED", "reason": "subgroup is not compact open"}
                else:
                    above = cotraj.is_tidy_above(sys, handle)
                    below = cotraj.is_tidy_below(sys, handle, tidy_probe)
                    entry["result"] = {
                        "tidy_above": above,
                        "tidy_below": below.value,
                        "indirect": False,  # no indirect route; kept for report byte-stability
                    }
            elif kind == "cotrajectory":
                n_max = chk.get("n_max", min(probe, 8))
                table = cotraj.alpha_sequence(sys, sys.model.base_element(0), n_max)
                entry["result"] = {
                    "c": [str(r.c) for r in table.rows],
                    "alpha": [str(r.alpha) for r in table.rows],
                    "n_star": table.n_star,
                }
                unresolved += table.n_star is None
            elif kind == "phi_n":
                cands = [subgroups[name] for name in chk["candidates"]]
                best, accepted, rejected = dynamics.entropy_lower_bound_phiN(sys, cands)
                total = dynamics.topological_entropy(sys, probe).value
                if not best <= total:
                    raise core.InvariantViolation("lower bound exceeded the entropy")
                entry["result"] = {
                    "bound_alpha": None if best.is_infinite else str(best.alpha),
                    "accepted": len(accepted),
                    "rejected": [reason for _, reason in rejected],
                    "attains_entropy": best == total,
                }
        except UnresolvedError as exc:
            entry["result"] = {"status": "UNRESOLVED", "reason": str(exc)}
            unresolved += 1
        results.append(entry)
    return results, failures, unresolved


def run_scenario(data: dict, probe: Optional[int] = None, tidy_probe: Optional[int] = None,
                 resolution: Optional[int] = None) -> tuple[dict, int, int]:
    """Full report for one scenario; returns (report, failures, unresolved).
    An option that is not None overrides the scenario field of its name."""
    return run_validated(validate_scenario(data), probe, tidy_probe, resolution)


def run_validated(data: dict, probe: Optional[int], tidy_probe: Optional[int],
                  resolution: Optional[int]) -> tuple[dict, int, int]:
    """``run_scenario`` on data that has passed ``validate_scenario``."""
    options = {"probe": probe, "tidy_probe": tidy_probe, "resolution": resolution}
    params = {key: data.get(key, default) if options[key] is None else options[key]
              for key, default in PARAMS.items()}
    _check_fields(params, _TOP_FIELDS, (), "the options")
    sys = build_system(data)
    results, failures, unresolved = run_checks(sys, data, **params)
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
    except ValueError as exc:  # not JSON, or an integer too long to parse
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from None
    return validate_scenario(data)


def emit_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


# the alpha, infinite and certified columns of a result, per check type
_CSV_COLUMNS = {
    "entropy": lambda res: (res["alpha"], str(res["infinite"]).lower(), res["certified"]),
    "scale": lambda res: (res["scale"], "false", True),
    "nub": lambda res: ("", "false", res["certified"]),
    **dict.fromkeys(("scale_link", "addition"),
                    lambda res: (res.get("status"), "", res.get("status") == "PASS")),
    "tidy": lambda res: ("", "", bool(res.get("tidy_above"))),
    "cotrajectory": lambda res: ("", "", res.get("n_star") is not None),
    "phi_n": lambda res: (res.get("bound_alpha"), "false", True),
}


def _csv_field(text: str) -> str:
    """``text`` as one CSV field (RFC 4180): quoted, with each quote doubled,
    when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def emit_csv(report: dict) -> str:
    """Flat rows: scenario id, quantity, alpha, infinite?, certified?."""
    lines = ["scenario,quantity,alpha,infinite,certified"]
    name = _csv_field(report["scenario"].get("name", ""))
    for entry in report.get("results", []):
        kind = entry["check"]["type"]
        res = entry.get("result", {})
        unresolved = res.get("status") == "UNRESOLVED"
        alpha, infinite, certified = ("", "", False) if unresolved else _CSV_COLUMNS[kind](res)
        lines.append(f"{name},{kind},{alpha},{infinite},{str(certified).lower()}")
    return "\n".join(lines) + "\n"
