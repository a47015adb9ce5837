"""Verification suites over the built-in catalog.

Each suite returns a list of entries {"name", "status", ...}; a run summary
counts PASS/FAIL/SKIPPED/INCONCLUSIVE.  Ordering is deterministic so reports
are byte-stable.

``run_suite`` builds the catalog once and hands it to every suite, so the
suites of one run share each system and its cache.  A suite called on its
own builds a fresh catalog.
"""

from __future__ import annotations

from . import core, cotraj, dynamics
from .backends import finite as finite_backend
from .backends.catalog import catalog_scenarios
from .backends.product import make_product
from .core import ClosedSubgroupSpec, TdlcSystem, UnresolvedError
from .dynamics import FAIL, INCONCLUSIVE, PASS, SKIPPED
from .scenario import build_subgroup, build_system

SUITE_NAMES = ("indices", "cotrajectory", "addition", "scale-link", "all")
_EXTRA_SUITES = ("limit-free", "products", "oracle", "monotonicity")

INDEX_GROUPS = ("S3", "D4", "Q8", "Z12", "A4")


def _catalog_systems() -> list:
    """(scenario data, system, named subgroups) for every catalog entry."""
    out = []
    for data in catalog_scenarios():
        sys = build_system(data)
        subgroups = {
            name: build_subgroup(sys, ctor, f"{data['name']}.{name}")
            for name, ctor in sorted(data.get("subgroups", {}).items())
        }
        out.append((data, sys, subgroups))
    return out


def suite_indices() -> list:
    """Exhaustive index-identity checks over the finite group catalog."""
    entries = []
    for name in INDEX_GROUPS:
        model = finite_backend.NAMED_GROUPS[name]()
        counts = model.check_index_identities()
        entries.append({
            "name": f"indices/{name}",
            "status": PASS,
            "counts": counts,
            "endomorphisms": len(model.endomorphisms()),
        })
    return entries


def _forward_backward_identities(sys: TdlcSystem, U, n_max: int):
    minus = cotraj.minus_chain(sys, U, n_max + 1)
    plus = cotraj.plus_chain(sys, U, n_max + 1)
    checked = 0
    for n in range(n_max + 1):
        phin = sys.model.endo_power(sys.endo, n)
        if core.image(phin, minus[n]) != plus[n]:
            return False, f"U_n != phi^n(U_-n) at n={n}", checked
        for k in range(0, n + 1, max(1, n // 3) if n else 1):
            phik = sys.model.endo_power(sys.endo, k)
            if core.image(phik, minus[n]) != core.intersect(plus[k], minus[n - k]):
                return False, f"phi^k(U_-n) != U_k n U_-(n-k) at n={n},k={k}", checked
            checked += 1
    for n in range(n_max):
        lhs = core.index(plus[n + 1], core.image(sys.endo, plus[n]))
        rhs = core.index(minus[n + 1], minus[n])
        if lhs != rhs:
            return False, f"[phi(U_n):U_n+1] != [U_-n:U_-n-1] at n={n}", checked
        checked += 1
    return True, "", checked


def suite_cotrajectory(n_max: int = 16, catalog=None) -> list:
    """Forward/backward identities and index laws at every probed depth.

    A table whose stabilization is unresolved or uncertified makes the entry
    INCONCLUSIVE, never PASS.
    """
    entries = []
    for data, sys, _ in catalog or _catalog_systems():
        u = core.base_family(sys, 0)
        pg = cotraj.plus_group(sys, u)
        fixed = core.intersect(u, core.image(sys.endo, pg.handle)) == pg.handle
        ok, reason, checked = _forward_backward_identities(sys, u, n_max)
        n_star = None
        try:
            n_star = cotraj.alpha_sequence(sys, u, min(n_max, 12)).n_star
            unresolved = "alpha did not certifiably stabilize"
        except UnresolvedError as exc:
            unresolved = str(exc)
        if not (ok and fixed):
            status = FAIL
        elif n_star is None:
            status, reason = INCONCLUSIVE, unresolved
        else:
            status = PASS
        entries.append({
            "name": f"cotrajectory/{data['name']}",
            "status": status,
            "reason": reason,
            "identities_checked": checked,
            "n_star": n_star,
        })
    return entries


def suite_addition(probe: int = 4, catalog=None) -> list:
    """Every additivity instance declared in the catalog, plus degenerates."""
    entries = []
    for data, sys, subgroups in catalog or _catalog_systems():
        for chk in data.get("checks", []):
            if chk["type"] != "addition":
                continue
            handle = subgroups[chk["subgroup"]]
            spec = ClosedSubgroupSpec.verify(sys, handle)
            v = dynamics.verify_addition_theorem(sys, spec, probe)
            entries.append({
                "name": f"addition/{data['name']}/{chk['subgroup']}",
                "status": v.status,
                "reason": v.reason,
                "details": v.details,
            })
    return entries


def suite_scale_link(probe: int = 4, resolution: int = 6, catalog=None) -> list:
    """Scale-entropy link and the equality-case matrix on every system."""
    entries = []
    for data, sys, _ in catalog or _catalog_systems():
        v = dynamics.verify_scale_entropy_link(sys, probe=probe, resolution=resolution)
        entries.append({
            "name": f"scale-link/{data['name']}",
            "status": v.status,
            "reason": v.reason,
            "details": v.details,
        })
    return entries


def suite_limit_free(probe: int = 3, n_max: int = 12, catalog=None) -> list:
    """The central cross-check: both entropy routes agree at every resolved
    base element of every catalog system."""
    entries = []
    instances = 0
    for data, sys, _ in catalog or _catalog_systems():
        agree = True
        reason = ""
        for k in range(probe + 1):
            u = core.base_family(sys, k)
            try:
                local = cotraj.htop_local(sys, u)
                limit = cotraj.htop_limit_estimate(sys, u, n_max)
            except UnresolvedError as exc:
                reason = f"unresolved at base {k}: {exc}"
                continue
            instances += 1
            if local != limit:
                agree = False
                reason = f"disagreement at base {k}: {local} vs {limit}"
                break
        entries.append({
            "name": f"limit-free/{data['name']}",
            "status": PASS if agree else FAIL,
            "reason": reason,
        })
    entries.append({
        "name": "limit-free/instance-count",
        "status": PASS if instances >= 40 else FAIL,
        "instances": instances,
    })
    return entries


def suite_products(probe: int = 3, catalog=None) -> list:
    """Product formula over cross-backend pairs, and the diagonal agreement."""
    built = {data["name"]: sys for data, sys, _ in catalog or _catalog_systems()}
    pairs = [
        ("q2_half", "laurent_z3"),
        ("q2_half", "q2_half"),
        ("shift_z2_compact", "laurent_z2"),
        ("finite_s3", "q2_half"),
        ("finite_z12_times5", "shift_z2_compact"),
        ("q2_double", "shift_z4_compact"),
        ("finite_trivial", "shift_z2_compact"),
    ]
    entries = []
    for a, b in pairs:
        v = dynamics.verify_product_formula(built[a], built[b], probe)
        entries.append({
            "name": f"products/{a}*{b}",
            "status": v.status,
            "details": v.details,
        })
    prod = make_product(built["q2_half"], built["q2_half"])
    diag = built["padic_diag_half_half"]
    hp = dynamics.topological_entropy(prod, probe).value
    hd = dynamics.topological_entropy(diag, probe).value
    sp = dynamics.scale(prod, probe=probe).value
    sd = dynamics.scale(diag, probe=probe).value
    entries.append({
        "name": "products/diagonal-agreement",
        "status": PASS if (hp == hd and sp == sd) else FAIL,
        "details": {"h_product": str(hp), "h_matrix": str(hd), "s_product": str(sp), "s_matrix": str(sd)},
    })
    return entries


def suite_oracle(probe: int = 3, n_max: int = 12, catalog=None) -> list:
    """Newton polygon prediction vs stabilized alpha vs the scale search."""
    entries = []
    for data, sys, _ in catalog or _catalog_systems():
        if sys.model.kind != "padic":
            continue
        e = sys.model.entropy_exponent(sys.endo)
        predicted = sys.model.p ** e
        table = cotraj.alpha_sequence(sys, core.base_family(sys, 0), n_max)
        s = dynamics.scale(sys, probe=probe)
        ok = (
            table.n_star is not None
            and table.stable_alpha.value == predicted
            and s.value == predicted
        )
        entries.append({
            "name": f"oracle/{data['name']}",
            "status": PASS if ok else FAIL,
            "details": {
                "predicted": predicted,
                "stable_alpha": None if table.n_star is None else table.stable_alpha.value,
                "scale": s.value,
            },
        })
    return entries


def suite_monotonicity(probe: int = 3, catalog=None) -> list:
    """Restriction monotonicity and the projected entropy table equality."""
    entries = []
    for data, sys, subgroups in catalog or _catalog_systems():
        for name, handle in subgroups.items():
            spec = ClosedSubgroupSpec.verify(sys, handle)
            if not spec.phi_invariant:
                continue
            if sys.supports("restriction"):
                try:
                    v = dynamics.restriction_monotonicity(sys, spec, probe)
                except core.UnsupportedSubgroupError:
                    v = dynamics.Verdict(SKIPPED, "restriction unsupported for this shape")
                entries.append({
                    "name": f"monotonicity/restrict/{data['name']}/{name}",
                    "status": v.status,
                    "reason": v.reason,
                })
            if spec.compact:
                v = dynamics.quotient_table_equality(sys, spec, probe)
                entries.append({
                    "name": f"monotonicity/quotient-table/{data['name']}/{name}",
                    "status": v.status,
                    "reason": v.reason,
                })
    return entries


# each entry looks its suite up at call time, so a rebinding of
# ``verify.suite_<name>`` (as a timing harness does) is honoured
_SUITES = {
    "indices": lambda catalog: suite_indices(),
    "cotrajectory": lambda catalog: suite_cotrajectory(catalog=catalog),
    "addition": lambda catalog: suite_addition(catalog=catalog),
    "scale-link": lambda catalog: suite_scale_link(catalog=catalog),
    "limit-free": lambda catalog: suite_limit_free(catalog=catalog),
    "products": lambda catalog: suite_products(catalog=catalog),
    "oracle": lambda catalog: suite_oracle(catalog=catalog),
    "monotonicity": lambda catalog: suite_monotonicity(catalog=catalog),
}


def run_suite(name: str) -> dict:
    """Run one named suite (or 'all'); returns a deterministic summary."""
    if name == "all":
        names = list(_SUITES)
    elif name in _SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    catalog = None if names == ["indices"] else _catalog_systems()
    entries = []
    for n in names:
        entries.extend(_SUITES[n](catalog))
    summary = {status: 0 for status in (PASS, FAIL, SKIPPED, INCONCLUSIVE)}
    for e in entries:
        summary[e["status"]] = summary.get(e["status"], 0) + 1
    return {"suite": name, "entries": entries, "summary": summary}
