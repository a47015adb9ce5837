"""Product backend: the direct product of two systems from any backends.

Handles are pairs of factor handles, every operation is componentwise and
indices multiply, so the factor backends certify their own parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import (
    InvariantViolation,
    QuotientConstruction,
    RestrictionConstruction,
    TdlcSystem,
    check_model,
)
from ..exact import IndexValue


@dataclass(frozen=True)
class ProductSubgroup:
    model: "ProductModel"
    parts: tuple

    @property
    def is_open(self) -> bool:
        return all(p.is_open for p in self.parts)

    @property
    def is_compact(self) -> bool:
        return all(p.is_compact for p in self.parts)

    @property
    def is_normal(self) -> bool:
        return all(p.is_normal for p in self.parts)

    def describe(self) -> str:
        return " x ".join(p.describe() for p in self.parts)


@dataclass(frozen=True)
class ProductEndo:
    model: "ProductModel"
    parts: tuple


class ProductModel:
    kind = "product"

    def __init__(self, left, right, name=""):
        self.factors = (left, right)
        self.name = name or f"{left.name} x {right.name}"

    def pair(self, h1, h2) -> ProductSubgroup:
        return ProductSubgroup(self, (h1, h2))

    def _zip(self, method, *handles, extra=()):
        return ProductSubgroup(
            self,
            tuple(
                getattr(f, method)(*[h.parts[i] for h in handles], *extra)
                for i, f in enumerate(self.factors)
            ),
        )

    def intersect(self, U, V):
        check_model(self, U, V)
        return self._zip("intersect", U, V)

    def set_product(self, U, V):
        check_model(self, U, V)
        return self._zip("set_product", U, V)

    def image(self, phi, U):
        check_model(self, U)
        return ProductSubgroup(
            self, tuple(f.image(phi.parts[i], U.parts[i]) for i, f in enumerate(self.factors))
        )

    def preimage(self, phi, U):
        check_model(self, U)
        return ProductSubgroup(
            self, tuple(f.preimage(phi.parts[i], U.parts[i]) for i, f in enumerate(self.factors))
        )

    def contains(self, U, V) -> bool:
        check_model(self, U, V)
        return all(f.contains(U.parts[i], V.parts[i]) for i, f in enumerate(self.factors))

    def index(self, V, U) -> IndexValue:
        check_model(self, U, V)
        out = IndexValue(1)
        for i, f in enumerate(self.factors):
            out = out * f.index(V.parts[i], U.parts[i])
        return out

    def base_element(self, k: int) -> ProductSubgroup:
        return ProductSubgroup(self, tuple(f.base_element(k) for f in self.factors))

    def full_group(self) -> ProductSubgroup:
        return ProductSubgroup(self, tuple(f.full_group() for f in self.factors))

    def trivial_subgroup(self) -> ProductSubgroup:
        return ProductSubgroup(self, tuple(f.trivial_subgroup() for f in self.factors))

    def endo_power(self, phi: ProductEndo, n: int) -> ProductEndo:
        return ProductEndo(
            self, tuple(f.endo_power(phi.parts[i], n) for i, f in enumerate(self.factors))
        )

    def kernel_handle(self, phi: ProductEndo) -> ProductSubgroup:
        return ProductSubgroup(
            self, tuple(f.kernel_handle(phi.parts[i]) for i, f in enumerate(self.factors))
        )

    def quotient(self, phi: ProductEndo, H: ProductSubgroup) -> QuotientConstruction:
        check_model(self, H)
        qs = [f.quotient(phi.parts[i], H.parts[i]) for i, f in enumerate(self.factors)]
        qmodel = ProductModel(qs[0].system.model, qs[1].system.model, name=f"{self.name}/H")
        qendo = ProductEndo(qmodel, (qs[0].system.endo, qs[1].system.endo))
        system = TdlcSystem(qmodel, qendo, name=f"{self.name}/H")

        def project(U: ProductSubgroup) -> ProductSubgroup:
            return ProductSubgroup(qmodel, (qs[0].project(U.parts[0]), qs[1].project(U.parts[1])))

        return QuotientConstruction(system=system, project=project)

    def restriction(self, phi: ProductEndo, H: ProductSubgroup) -> RestrictionConstruction:
        check_model(self, H)
        rs = [f.restriction(phi.parts[i], H.parts[i]) for i, f in enumerate(self.factors)]
        rmodel = ProductModel(rs[0].system.model, rs[1].system.model, name=f"{self.name}|H")
        rendo = ProductEndo(rmodel, (rs[0].system.endo, rs[1].system.endo))
        system = TdlcSystem(rmodel, rendo, name=f"{self.name}|H")

        def embed(U: ProductSubgroup) -> ProductSubgroup:
            return ProductSubgroup(self, (rs[0].embed(U.parts[0]), rs[1].embed(U.parts[1])))

        def restrict_handle(U: ProductSubgroup) -> ProductSubgroup:
            return ProductSubgroup(
                rmodel, (rs[0].restrict_handle(U.parts[0]), rs[1].restrict_handle(U.parts[1]))
            )

        return RestrictionConstruction(system=system, embed=embed, restrict_handle=restrict_handle)

    # -- dynamics hooks --------------------------------------------------------

    def plus_group_impl(self, phi, U):
        results = [f.plus_group_impl(phi.parts[i], U.parts[i]) for i, f in enumerate(self.factors)]
        handle = ProductSubgroup(self, tuple(r[0] for r in results))
        method = "fixpoint" if all(r[1] == "fixpoint" for r in results) else "structural"
        steps = max(r[2] for r in results)
        return handle, method, steps, {"factors": [r[3] for r in results]}

    def minus_group_impl(self, phi, U):
        results = [f.minus_group_impl(phi.parts[i], U.parts[i]) for i, f in enumerate(self.factors)]
        handle = ProductSubgroup(self, tuple(r[0] for r in results))
        return handle, {"factors": [r[1] for r in results]}

    def alpha_stabilization(self, phi, U, minus_handles, alphas):
        certs = []
        n_star = 0
        for i, f in enumerate(self.factors):
            handles = [h.parts[i] for h in minus_handles]
            f_alphas = []
            for n in range(len(handles) - 1):
                ix = f.index(handles[n + 1], handles[n])
                if not ix.is_finite:
                    raise InvariantViolation("factor cotrajectory index is infinite")
                f_alphas.append(ix.value)
            ns, cert = f.alpha_stabilization(phi.parts[i], U.parts[i], handles, f_alphas)
            certs.append(cert)
            if ns is None:
                return None, {"factors": certs}
            n_star = max(n_star, ns)
        return n_star, {"factors": certs}

    def plus_plus_analysis(self, phi, u_plus, tidy_probe):
        per = [
            f.plus_plus_analysis(phi.parts[i], u_plus.parts[i], tidy_probe)
            for i, f in enumerate(self.factors)
        ]
        indices = []
        for n in range(min(len(p["indices"]) for p in per)):
            indices.append(per[0]["indices"][n] * per[1]["indices"][n])
        handle = None
        if all(p["handle"] is not None for p in per):
            handle = ProductSubgroup(self, tuple(p["handle"] for p in per))
        return {
            "closed": all(p["closed"] for p in per),
            "handle": handle,
            "indices": indices,
            "certificate": {"factors": [p["certificate"] for p in per]},
        }

    def entropy_base_certificate(self, probed):
        values = {entry[2] for entry in probed}
        if len(values) == 1:
            return True, "both factor bases certify eventual constancy"
        return False, "local entropy varied along the product base probe"

    def scale_candidates(self, phi):
        left = self.factors[0].scale_candidates(phi.parts[0])
        right = self.factors[1].scale_candidates(phi.parts[1])
        left = left[:4] or [self.factors[0].base_element(0)]
        right = right[:4] or [self.factors[1].base_element(0)]
        return [ProductSubgroup(self, (a, b)) for a in left for b in right]

    def nub_analysis(self, phi, minimizing, resolution, scale_value=None):
        results = []
        for i, f in enumerate(self.factors):
            parts = []
            for m in minimizing:
                if m.parts[i] not in parts:
                    parts.append(m.parts[i])
            results.append(f.nub_analysis(phi.parts[i], parts, resolution, scale_value=None))
        handle = ProductSubgroup(self, tuple(r[0] for r in results))
        certified = all(r[1] for r in results)
        reason = "; ".join(r[2] for r in results)
        return handle, certified, reason


def make_product(sys1: TdlcSystem, sys2: TdlcSystem, name="") -> TdlcSystem:
    """The componentwise product system; handles are pairs and indices multiply."""
    model = ProductModel(sys1.model, sys2.model, name=name)
    endo = ProductEndo(model, (sys1.endo, sys2.endo))
    return TdlcSystem(model, endo, name=name or model.name)
