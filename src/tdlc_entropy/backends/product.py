"""Product backend: the direct product of two systems from any backends.

Handles are pairs of factor handles, every operation is componentwise and
indices multiply, so the factor backends certify their own parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from ..core import (
    InvariantViolation,
    QuotientConstruction,
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

    def pair(self, *parts) -> ProductSubgroup:
        return ProductSubgroup(self, parts)

    def _zip(self, method, *shares):
        """Lazily, per factor: ``method`` (a factor method's name, or a function
        taking the factor first) on the factor's entry of each share.  A share
        holds one entry per factor, as the ``parts`` of a handle do."""
        return (getattr(f, method)(*a) if isinstance(method, str) else method(f, *a)
                for f, *a in zip(self.factors, *shares))

    def _columns(self, handles) -> list:
        """The share of a list of handles: per factor, the list of its parts."""
        return [[h.parts[i] for h in handles] for i in range(len(self.factors))]

    def intersect(self, U, V):
        check_model(self, U, V)
        return self.pair(*self._zip("intersect", U.parts, V.parts))

    def set_product(self, U, V):
        check_model(self, U, V)
        return self.pair(*self._zip("set_product", U.parts, V.parts))

    def image(self, phi, U):
        check_model(self, U)
        return self.pair(*self._zip("image", phi.parts, U.parts))

    def preimage(self, phi, U):
        check_model(self, U)
        return self.pair(*self._zip("preimage", phi.parts, U.parts))

    def contains(self, U, V) -> bool:
        check_model(self, U, V)
        return all(self._zip("contains", U.parts, V.parts))

    def index(self, V, U) -> IndexValue:
        check_model(self, U, V)
        left, right = self._zip("index", V.parts, U.parts)
        return left * right

    def base_element(self, k: int) -> ProductSubgroup:
        return self.pair(*self._zip("base_element", repeat(k)))

    def full_group(self) -> ProductSubgroup:
        return self.pair(*self._zip("full_group"))

    def trivial_subgroup(self) -> ProductSubgroup:
        return self.pair(*self._zip("trivial_subgroup"))

    def endo_power(self, phi: ProductEndo, n: int) -> ProductEndo:
        return ProductEndo(self, tuple(self._zip("endo_power", phi.parts, repeat(n))))

    def kernel_handle(self, phi: ProductEndo) -> ProductSubgroup:
        return self.pair(*self._zip("kernel_handle", phi.parts))

    def quotient(self, phi: ProductEndo, H: ProductSubgroup) -> QuotientConstruction:
        check_model(self, H)
        qs = tuple(self._zip("quotient", phi.parts, H.parts))
        system = make_product(*(q.system for q in qs), name=f"{self.name}/H")
        return QuotientConstruction(
            system=system,
            project=lambda U: system.model.pair(*(q.project(u) for q, u in zip(qs, U.parts))),
        )

    def restriction(self, phi: ProductEndo, H: ProductSubgroup) -> TdlcSystem:
        check_model(self, H)
        return make_product(*self._zip("restriction", phi.parts, H.parts), name=f"{self.name}|H")

    # -- dynamics hooks --------------------------------------------------------

    def plus_group_impl(self, phi, U):
        return self._limit("plus_group_impl", phi, U)

    def minus_group_impl(self, phi, U):
        return self._limit("minus_group_impl", phi, U)

    def _limit(self, hook, phi, U):
        """U_+ or U_- factorwise; a fixpoint only when each factor's is."""
        handles, methods, steps, certs = zip(*self._zip(hook, phi.parts, U.parts))
        method = "fixpoint" if set(methods) == {"fixpoint"} else "structural"
        return self.pair(*handles), method, max(steps), {"factors": list(certs)}

    def alpha_stabilization(self, phi, U, minus_handles, alphas):
        certs = []
        n_star = 0
        for ns, cert in self._zip(_factor_alpha_stabilization, phi.parts, U.parts,
                                  self._columns(minus_handles)):
            certs.append(cert)
            if ns is None:
                return None, {"factors": certs}
            n_star = max(n_star, ns)
        return n_star, {"factors": certs}

    def plus_plus_closure(self, phi, u_plus, last, tidy_probe):
        """Closed when each factor's union is."""
        per = tuple(self._zip(_factor_plus_plus_closure, phi.parts, u_plus.parts, last.parts,
                              repeat(tidy_probe)))
        return all(closed for closed, _ in per), {"factors": [cert for _, cert in per]}

    def entropy_base_certificate(self, probed):
        values = {entry[2] for entry in probed}
        if len(values) == 1:
            return True, "both factor bases certify eventual constancy"
        return False, "local entropy varied along the product base probe"

    def scale_candidates(self, phi):
        left, right = self._zip(
            lambda f, phi: f.scale_candidates(phi)[:4] or [f.base_element(0)], phi.parts
        )
        return [self.pair(a, b) for a in left for b in right]

    def scale_oracle(self, phi):
        """The scale of a product is the product of the factor scales."""
        out = 1
        for s in self._zip("scale_oracle", phi.parts):
            if s is None:
                return None
            out *= s
        return out

    def nub_analysis(self, phi, minimizing, resolution, scale_value=None):
        results = tuple(self._zip(
            # each factor sees its distinct parts, in order; it gets no scale value
            lambda f, phi, parts, res: f.nub_analysis(phi, list(dict.fromkeys(parts)), res),
            phi.parts, self._columns(minimizing), repeat(resolution),
        ))
        handle = self.pair(*(r[0] for r in results))
        return handle, all(r[1] for r in results), "; ".join(r[2] for r in results)


def _factor_alpha_stabilization(model, phi, U, handles):
    """A factor's plateau, read off the indices along its part of the chain."""
    alphas = []
    for n in range(len(handles) - 1):
        ix = model.index(handles[n + 1], handles[n])
        if not ix.is_finite:
            raise InvariantViolation("factor cotrajectory index is infinite")
        alphas.append(ix.value)
    return model.alpha_stabilization(phi, U, handles, alphas)


def _factor_plus_plus_closure(model, phi, u_plus, last, tidy_probe):
    """A factor's union is its ``last`` image when that is fixed; otherwise
    its own backend judges it."""
    if model.image(phi, last) == last:
        return True, {"method": "image chain stabilized"}
    return model.plus_plus_closure(phi, u_plus, last, tidy_probe)


def make_product(sys1: TdlcSystem, sys2: TdlcSystem, name: str = "") -> TdlcSystem:
    """The componentwise product system; handles are pairs and indices multiply."""
    model = ProductModel(sys1.model, sys2.model, name)
    endo = ProductEndo(model, (sys1.endo, sys2.endo))
    return TdlcSystem(model, endo, name=model.name)
