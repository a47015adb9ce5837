"""Verification suites over the built-in catalog.

Each suite returns a list of entries {"name", "status", ...}; a run summary
counts PASS/FAIL/SKIPPED/INCONCLUSIVE.  Ordering is deterministic so reports
are byte-stable.

Every suite runs at the fixed depths below and takes only the catalog.
``run_suite`` builds the catalog once and hands it to every suite, so the
suites of one run share each system and its cache, one cotrajectory table
per system included; equal system fragments build one system, so a catalog
product reads its factors' chains and limits from the standalone systems.
A suite called on its own builds a fresh catalog.  The catalog and the
backends it names are imported when a suite first runs, not with this
module, which the command line imports for ``SUITE_NAMES``.
``run_suite`` looks up ``suite_<name>`` as it runs it, so a rebinding of
that attribute (as a timing harness does) takes effect.
"""

from __future__ import annotations

from . import cotraj, dynamics
from .core import ClosedSubgroupSpec, TdlcSystem, UnresolvedError
from .dynamics import FAIL, INCONCLUSIVE, PASS, SKIPPED
from .scenario import build_subgroups, build_system

INDEX_GROUPS = ("S3", "D4", "Q8", "Z12", "A4")

PROBE = 3  # limit-free, products, oracle, monotonicity
IDENTITY_PROBE = 4  # addition, scale-link
SCALE_LINK_RESOLUTION = 6
COTRAJECTORY_DEPTH = 16  # the forward/backward identities
TABLE_N_MAX = 12  # the one table that cotrajectory, limit-free and oracle read

SUITE_NAMES = ("indices", "cotrajectory", "addition", "scale-link", "limit-free",
               "products", "oracle", "monotonicity", "all")


def _catalog_systems() -> list:
    """(scenario data, system, named subgroups) for every catalog entry."""
    from .backends.catalog import catalog_scenarios

    built = {}
    out = []
    for data in catalog_scenarios():
        sys = build_system(data, built)
        out.append((data, sys, build_subgroups(sys, data)))
    return out


def suite_indices(catalog=None) -> list:
    """Exhaustive index-identity checks over the finite group catalog
    (``catalog`` is unused: ``run_suite`` calls every suite alike)."""
    from .backends.finite import NAMED_GROUPS

    entries = []
    for name in INDEX_GROUPS:
        model = NAMED_GROUPS[name]()
        counts = model.check_index_identities()
        entries.append({
            "name": f"indices/{name}",
            "status": PASS,
            "counts": counts,
            "endomorphisms": len(model.endomorphisms()),
        })
    return entries


def _forward_backward_identities(sys: TdlcSystem, U, n_max: int):
    model = sys.model
    minus = cotraj.minus_chain(sys, U, n_max + 1)
    plus, plus_images = cotraj.plus_chain(sys, U, n_max + 1)
    powers = [model.endo_power(sys.endo, k) for k in range(n_max + 1)]
    checked = 0
    for n in range(n_max + 1):
        # phi^n(U_-n) serves both identities at k = n; phi^0 is the identity
        top = model.image(powers[n], minus[n]) if n else minus[0]
        if top != plus[n]:
            return False, f"U_n != phi^n(U_-n) at n={n}", checked
        for k in range(0, n + 1, max(1, n // 3)):
            image = top if k == n else model.image(powers[k], minus[n]) if k else minus[n]
            if image != model.intersect(plus[k], minus[n - k]):
                return False, f"phi^k(U_-n) != U_k n U_-(n-k) at n={n},k={k}", checked
            checked += 1
    for n in range(n_max):
        lhs = model.index(plus[n + 1], plus_images[n])
        rhs = model.index(minus[n + 1], minus[n])
        if lhs != rhs:
            return False, f"[phi(U_n):U_n+1] != [U_-n:U_-n-1] at n={n}", checked
        checked += 1
    return True, "", checked


def suite_cotrajectory(catalog=None) -> list:
    """Forward/backward identities to ``COTRAJECTORY_DEPTH`` and the index
    laws of the table to ``TABLE_N_MAX``.

    A table whose stabilization is unresolved or uncertified makes the entry
    INCONCLUSIVE, never PASS.
    """
    entries = []
    for data, sys, _ in catalog or _catalog_systems():
        u = sys.model.base_element(0)
        ok, reason, checked = _forward_backward_identities(sys, u, COTRAJECTORY_DEPTH)
        n_star = None
        try:
            n_star = cotraj.alpha_sequence(sys, u, TABLE_N_MAX).n_star
            unresolved = "alpha did not certifiably stabilize"
        except UnresolvedError as exc:
            unresolved = str(exc)
        if not ok:
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


def suite_addition(catalog=None) -> list:
    """Every additivity instance declared in the catalog, plus degenerates."""
    entries = []
    for data, sys, subgroups in catalog or _catalog_systems():
        for chk in data.get("checks", []):
            if chk["type"] != "addition":
                continue
            handle = subgroups[chk["subgroup"]]
            spec = ClosedSubgroupSpec.verify(sys, handle)
            v = dynamics.verify_addition_theorem(sys, spec, IDENTITY_PROBE)
            entries.append({
                "name": f"addition/{data['name']}/{chk['subgroup']}",
                "status": v.status,
                "reason": v.reason,
                "details": v.details,
            })
    return entries


def suite_scale_link(catalog=None) -> list:
    """Scale-entropy link and the equality-case matrix on every system."""
    entries = []
    for data, sys, _ in catalog or _catalog_systems():
        v = dynamics.verify_scale_entropy_link(sys, probe=IDENTITY_PROBE,
                                               resolution=SCALE_LINK_RESOLUTION)
        entries.append({
            "name": f"scale-link/{data['name']}",
            "status": v.status,
            "reason": v.reason,
            "details": v.details,
        })
    return entries


def suite_limit_free(catalog=None) -> list:
    """The central cross-check: both entropy routes agree at every resolved
    base element of every catalog system."""
    entries = []
    instances = 0
    for data, sys, _ in catalog or _catalog_systems():
        agree = True
        reason = ""
        for k in range(PROBE + 1):
            u = sys.model.base_element(k)
            try:
                local = cotraj.htop_local(sys, u)
                limit = cotraj.htop_limit_estimate(sys, u, TABLE_N_MAX)
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


# the catalog pairs whose product formula ``suite_products`` checks
PRODUCT_PAIRS = (
    ("q2_half", "laurent_z3"),
    ("q2_half", "q2_half"),
    ("shift_z2_compact", "laurent_z2"),
    ("finite_s3", "q2_half"),
    ("finite_z12_times5", "shift_z2_compact"),
    ("q2_double", "shift_z4_compact"),
    ("finite_trivial", "shift_z2_compact"),
)


def suite_products(catalog=None) -> list:
    """Product formula over cross-backend pairs, and the diagonal agreement,
    which reads the entropy and scale of the checked q2_half square."""
    from .backends.product import make_product

    built = {data["name"]: sys for data, sys, _ in catalog or _catalog_systems()}
    entries = []
    products = {}
    for a, b in PRODUCT_PAIRS:
        products[a, b] = make_product(built[a], built[b])
        v = dynamics.verify_product_formula(products[a, b], PROBE)
        entries.append({
            "name": f"products/{a}*{b}",
            "status": v.status,
            "details": v.details,
        })
    prod = products["q2_half", "q2_half"]
    diag = built["padic_diag_half_half"]
    hp = dynamics.topological_entropy(prod, PROBE).value
    hd = dynamics.topological_entropy(diag, PROBE).value
    sp = dynamics.scale(prod, probe=PROBE).value
    sd = dynamics.scale(diag, probe=PROBE).value
    entries.append({
        "name": "products/diagonal-agreement",
        "status": PASS if (hp == hd and sp == sd) else FAIL,
        "details": {"h_product": str(hp), "h_matrix": str(hd), "s_product": str(sp), "s_matrix": str(sd)},
    })
    return entries


def suite_oracle(catalog=None) -> list:
    """Newton polygon prediction vs stabilized alpha vs the scale search."""
    entries = []
    for data, sys, _ in catalog or _catalog_systems():
        if sys.model.kind != "padic":
            continue
        predicted = sys.model.scale_oracle(sys.endo)
        table = cotraj.alpha_sequence(sys, sys.model.base_element(0), TABLE_N_MAX)
        s = dynamics.scale(sys, probe=PROBE)
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


def suite_monotonicity(catalog=None) -> list:
    """Restriction monotonicity and the projected entropy table equality."""
    entries = []
    for data, sys, subgroups in catalog or _catalog_systems():
        for name, handle in subgroups.items():
            spec = ClosedSubgroupSpec.verify(sys, handle)
            if not spec.phi_invariant:
                continue
            v = dynamics.restriction_monotonicity(sys, spec, PROBE)
            entries.append({
                "name": f"monotonicity/restrict/{data['name']}/{name}",
                "status": v.status,
                "reason": v.reason,
            })
            if spec.compact:
                v = dynamics.quotient_table_equality(sys, spec, PROBE)
                entries.append({
                    "name": f"monotonicity/quotient-table/{data['name']}/{name}",
                    "status": v.status,
                    "reason": v.reason,
                })
    return entries


def run_suite(name: str) -> dict:
    """Run one named suite (or 'all'); returns a deterministic summary."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    names = SUITE_NAMES[:-1] if name == "all" else (name,)
    catalog = None if names == ("indices",) else _catalog_systems()
    entries = []
    for n in names:
        entries.extend(globals()[f"suite_{n.replace('-', '_')}"](catalog))
    summary = {status: 0 for status in (PASS, FAIL, SKIPPED, INCONCLUSIVE)}
    for e in entries:
        summary[e["status"]] = summary.get(e["status"], 0) + 1
    return {"suite": name, "entries": entries, "summary": summary}
