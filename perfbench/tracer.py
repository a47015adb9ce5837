"""Outside-in tracer: wraps the library's public functions from the benchmark.

The tracer replaces each traced function in *every* namespace that binds it:
module globals (``backends.padic`` does ``from ..linalg import rref``; ``cli``
and ``verify`` bind names from ``scenario`` directly) and the backend model
classes (so ``self.intersect`` inside a backend is counted).  Nothing inside
the library changes; ``uninstall`` puts every original object back.

Each call becomes a span (name, start, end, parent span, op id) kept in
compact arrays in memory and written out when the run ends.  Self time,
inclusive time, repeat shares and call counts are derived from the spans.
The metric name of a span is ``<layer>.<function>`` where the layer is the
module name (``padic``, ``linalg``, ``cotraj`` ...); ``exact`` and the
``core`` dispatchers are not traced, so their time counts as the caller's
self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

from workloads import VERIFY_SUITES

PKG = "tdlc_entropy"

# layer -> (module under the package, traced module-level functions)
_MODULE_FUNCS = {
    "cli": ("cli", ["main"]),
    "scenario": ("scenario", [
        "validate_scenario", "load_scenario_file", "build_system", "build_subgroup",
        "run_scenario", "run_checks", "emit_json", "emit_csv",
    ]),
    "verify": ("verify", ["run_suite", "_catalog_systems"]
               + [f"suite_{name}" for name in VERIFY_SUITES]),
    "dynamics": ("dynamics", [
        "topological_entropy", "scale_candidates", "scale", "nub", "_quotient_entropy",
        "verify_addition_theorem", "verify_scale_entropy_link", "entropy_lower_bound_phiN",
        "restriction_monotonicity", "quotient_table_equality", "verify_product_formula",
    ]),
    "cotraj": ("cotraj", [
        "minus_chain", "plus_chain", "alpha_sequence", "plus_group", "minus_group",
        "htop_local", "htop_limit_estimate", "is_tidy_above", "tidy_above_transform",
        "is_tidy_below", "is_minimizing", "displacement_index",
    ]),
    "linalg": ("linalg", [
        "rref", "rational_kernel", "solve_right", "det", "charpoly", "integer_kernel",
        "zp_column_hnf", "mat_mul", "mat_pow",
    ]),
}

# metric names that differ from the attribute name (``suite_x`` becomes ``x``)
_RENAME = {
    ("scenario", "validate_scenario"): "validate",
    ("scenario", "emit_json"): "emit",
    ("scenario", "emit_csv"): "emit",
    ("verify", "_catalog_systems"): "catalog_build",
}

_PROTOCOL = [
    "intersect", "image", "preimage", "index", "contains", "set_product",
    "base_element", "endo_power", "kernel_handle", "subgroup_flags", "quotient",
    "restriction", "plus_group_impl", "minus_group_impl", "alpha_stabilization",
    "plus_plus_analysis", "entropy_base_certificate", "scale_candidates", "nub_analysis",
]
# layer -> (module, backend model class, traced methods)
_CLASSES = {
    "finite": ("backends.finite", "FiniteGroupModel", _PROTOCOL + [
        "__init__", "check_index_identities", "endomorphisms",
    ]),
    "padic": ("backends.padic", "PadicModel", _PROTOCOL + [
        "__init__", "constraint_form", "from_constraints", "closed_subgroup", "member",
        "_slope_split", "newton_polygon", "entropy_exponent",
    ]),
    "shift": ("backends.shift", "ShiftProfileModel", _PROTOCOL + [
        "__init__", "limit_profile",
    ]),
    "product": ("backends.product", "ProductModel", _PROTOCOL + ["__init__"]),
}

# the sympy call site: rational factorisation in the p-adic backend
_SYMPY = ("backends.padic", "_rational_factor_list", "sympy.factor")

# functions whose calls are checked for repeated arguments within one op
REPEAT_TRACKED = (
    "cotraj.plus_group", "cotraj.minus_group", "cotraj.is_tidy_above",
    "dynamics.scale_candidates", "padic.constraint_form", "sympy.factor",
)


def _targets():
    """(metric name, owner object, attribute) for every traced function."""
    out = []
    for layer, (mod, names) in _MODULE_FUNCS.items():
        module = importlib.import_module(f"{PKG}.{mod}")
        for attr in names:
            fn_name = _RENAME.get((layer, attr), attr[6:] if attr.startswith("suite_") else attr)
            out.append((f"{layer}.{fn_name}", module, attr))
    for layer, (mod, cls_name, names) in _CLASSES.items():
        cls = getattr(importlib.import_module(f"{PKG}.{mod}"), cls_name)
        for attr in names:
            if attr in cls.__dict__:
                out.append((f"{layer}.{'init' if attr == '__init__' else attr}", cls, attr))
    mod, attr, metric = _SYMPY
    out.append((metric, importlib.import_module(f"{PKG}.{mod}"), attr))
    return out


class Tracer:
    """Spans of every traced call, recorded while installed.

    ``clock`` gives the span times; the benchmark passes one that leaves out
    the time spent in its host-speed probes.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_flags = array("b")  # 1 raised, 2 outermost of its name, 4 repeat
        self.op = -1
        self._stack: list = []
        self._active: list = []
        self._seen: set = set()
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Patch every traced function in every namespace that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PKG or n.startswith(PKG + ".")]
        for metric, owner, attr in _targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(original, metric)
            self._patch(owner, attr, wrapper)
            if isinstance(owner, type):
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _name_id(self, metric: str) -> int:
        if metric not in self._name_ids:
            self._name_ids[metric] = len(self.names)
            self.names.append(metric)
            self._active.append(0)
        return self._name_ids[metric]

    def _wrap(self, fn, metric: str):
        nid = self._name_id(metric)
        tracer = self
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, flags = self.span_start, self.span_end, self.span_flags
        stack, active = self._stack, self._active
        clock = self.clock
        signature = inspect.signature(fn) if metric in REPEAT_TRACKED else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            flag = 0 if active[nid] else 2
            if signature is not None and tracer._is_repeat(nid, signature, args, kwargs):
                flag |= 4
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            flags.append(flag)
            stack.append(idx)
            active[nid] += 1
            starts[idx] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                flags[idx] |= 1
                raise
            finally:
                ends[idx] = clock()
                active[nid] -= 1
                stack.pop()

        return wrapper

    def _is_repeat(self, nid, signature, args, kwargs) -> bool:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        try:
            key = (nid, tuple(bound.arguments.values()))
            hash(key)
        except TypeError:
            return False
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    def start_op(self, op_id: int) -> None:
        """Spans recorded from now on belong to ``op_id``; repeats reset."""
        self.op = op_id
        self._seen.clear()

    # -- derived metrics ----------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, inclusive time, self time, raised and repeat counts."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "raised": 0, "repeats": 0}
               for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            f = self.span_flags[i]
            rec["calls"] += 1
            rec["self_s"] += dur[i] - child[i]
            if f & 2:
                rec["time_s"] += dur[i]
            if f & 1:
                rec["raised"] += 1
            if f & 4:
                rec["repeats"] += 1
        return out

    def write(self, path: str) -> None:
        """All spans as tab-separated lines: name, start, end, parent, op, flags."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\tflags\n")
            for i in range(len(self.span_name)):
                fh.write(f"{i}\t{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                         f"{self.span_flags[i]}\n")


# -- the per-layer metrics reported by a traced run ----------------------------

LAYERS = ("cli", "scenario", "verify", "dynamics", "cotraj",
          "finite", "padic", "shift", "product", "linalg", "sympy")
_PRIMITIVES = ("intersect", "image", "preimage", "index", "contains", "set_product")
_LINALG = ("rref", "rational_kernel", "solve_right", "det", "charpoly", "integer_kernel",
           "zp_column_hnf", "mat_mul")
_COTRAJ = ("plus_group", "minus_group", "alpha_sequence", "tidy_above_transform",
           "is_tidy_above", "is_tidy_below", "htop_local", "displacement_index")

CALLS = (
    [f"dynamics.{f}" for f in ("topological_entropy", "scale", "scale_candidates", "nub",
                               "_quotient_entropy", "verify_scale_entropy_link",
                               "verify_addition_theorem")]
    + [f"cotraj.{f}" for f in _COTRAJ]
    + [f"{b}.{p}" for b in ("finite", "padic", "shift", "product") for p in _PRIMITIVES]
    + [f"padic.{f}" for f in ("constraint_form", "from_constraints", "closed_subgroup",
                              "plus_group_impl", "minus_group_impl", "_slope_split")]
    + [f"shift.{f}" for f in ("plus_group_impl", "minus_group_impl", "plus_plus_analysis")]
    + [f"linalg.{f}" for f in _LINALG]
    + ["sympy.factor", "verify.catalog_build", "cli.main"]
)
TIMES = (
    [f"dynamics.{f}" for f in ("scale_candidates", "topological_entropy", "nub")]
    + [f"cotraj.{f}" for f in _COTRAJ]
    + [f"{b}.{p}" for b in ("padic", "shift") for p in _PRIMITIVES]
    + [f"padic.{f}" for f in ("constraint_form", "from_constraints", "_slope_split")]
    + [f"linalg.{f}" for f in _LINALG]
    + ["sympy.factor", "verify.catalog_build"]
    + [f"verify.{s}" for s in VERIFY_SUITES]
    + [f"scenario.{f}" for f in ("validate", "build_system", "emit")]
)


def metric_names() -> list:
    """Every per-layer metric name, in report order."""
    return (
        [f"{layer}.self_s" for layer in LAYERS]
        + [f"{n}.calls" for n in CALLS]
        + [f"{n}.time_s" for n in TIMES]
        + ["cotraj.tidy_above_transform.found_share"]
        + [f"{n}.repeat_share" for n in REPEAT_TRACKED]
        + ["trace.overhead_share"]
    )


def layer_metrics(summary: dict, overhead_share: float, time_scale: float = 1.0) -> dict:
    """The per-layer metrics from a tracer summary, each with its unit.

    Every time is multiplied by ``time_scale`` (reference seconds per wall
    second of the traced pass).
    """
    empty = {"calls": 0, "time_s": 0.0, "self_s": 0.0, "raised": 0, "repeats": 0}
    out = {}
    for layer in LAYERS:
        value = sum(rec["self_s"] for name, rec in summary.items()
                    if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = {"value": value * time_scale, "unit": "s"}
    for name in CALLS:
        out[f"{name}.calls"] = {"value": summary.get(name, empty)["calls"], "unit": "count"}
    for name in TIMES:
        out[f"{name}.time_s"] = {"value": summary.get(name, empty)["time_s"] * time_scale,
                                 "unit": "s"}
    tidy = summary.get("cotraj.tidy_above_transform", empty)
    found = (tidy["calls"] - tidy["raised"]) / tidy["calls"] if tidy["calls"] else 0.0
    out["cotraj.tidy_above_transform.found_share"] = {"value": found, "unit": "ratio"}
    for name in REPEAT_TRACKED:
        rec = summary.get(name, empty)
        share = rec["repeats"] / rec["calls"] if rec["calls"] else 0.0
        out[f"{name}.repeat_share"] = {"value": share, "unit": "ratio"}
    out["trace.overhead_share"] = {"value": overhead_share, "unit": "ratio"}
    return out
