"""Backend-independent contract: systems, subgroup specs, and the operations
every backend implements.

A backend supplies a *model* (the ambient group), *endomorphism* objects and
immutable, canonical *subgroup handles*.  Handles compare equal exactly when
they denote the same subgroup.  The free functions here dispatch to the
model carried by each handle and check that operands share a backend.

Model protocol (duck-typed; see the backends package):

    base_element(k)          k-th member of the canonical neighborhood base
    intersect(U, V)          U n V
    set_product(U, V)        the subgroup UV (abelian backends: U + V)
    image(phi, U)            phi(U)
    preimage(phi, U)         phi^{-1}(U), possibly non-compact
    index(V, U)              exact [U:V], infinite when V is not open in U
    contains(U, V)           V <= U
    full_group(), trivial_subgroup()
    endo_power(phi, n)
    kernel_handle(phi)
    subgroup_flags(phi, H)   recomputed flags for ClosedSubgroupSpec
    quotient(phi, H)         QuotientConstruction, or raises
    restriction(phi, H)      RestrictionConstruction, or raises

plus the dynamics hooks used by the cotrajectory module (``plus_group_impl``,
``minus_group_impl``, ``alpha_stabilization``, ``plus_plus_analysis``,
``entropy_base_certificate``, ``scale_candidates``, ``nub_family``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .exact import IndexValue


class BackendMismatchError(TypeError):
    """Operands come from different backends or ambient groups."""


class CapabilityError(RuntimeError):
    """The backend does not support the requested construction."""


class UnsupportedSubgroupError(ValueError):
    """A subgroup shape the backend cannot quotient by or restrict to."""


class InvariantViolation(AssertionError):
    """An internal identity failed; signals a backend bug, always fatal."""


class UnresolvedError(RuntimeError):
    """A resource bound was hit before a certified answer existed.

    Never a wrong answer: callers either retry with a larger probe or report
    the computation as UNRESOLVED.
    """


def _same_backend(*handles):
    models = {id(h.model) for h in handles}
    if len(models) != 1:
        raise BackendMismatchError("handles belong to different ambient groups")
    return handles[0].model


_MISSING = object()


@dataclass(frozen=True)
class TdlcSystem:
    """A concretely represented group together with a continuous endomorphism.

    The system owns the cache behind ``memo``: derived quantities (forward
    cores, tidy transforms, entropy, scale) are computed once per system and
    live exactly as long as it does.  The cache takes no part in equality.
    """

    model: Any
    endo: Any
    name: str = ""
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def memo(self, key, compute: Callable, *args):
        """``compute(*args)``, computed once per ``key`` on this system.

        Handles are canonical, so a key of handles and integers identifies
        the quantity.  Cached values must be immutable.  An exception is not
        cached: it propagates and the next call computes again.
        """
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            value = self._cache[key] = compute(*args)
        return value

    @property
    def capabilities(self) -> frozenset:
        return self.model.capabilities

    def supports(self, capability: str) -> bool:
        return capability in self.model.capabilities


@dataclass(frozen=True)
class ClosedSubgroupSpec:
    """A closed subgroup with flags recomputed by the backend.

    User-supplied flags are advisory only; ``verify`` derives every flag from
    the handle itself so the additivity-check preconditions are sound.
    """

    handle: Any
    normal: bool
    compact: bool
    phi_invariant: bool
    phi_stable: bool
    contains_kernel: bool

    @classmethod
    def verify(cls, sys: TdlcSystem, handle) -> "ClosedSubgroupSpec":
        flags = sys.model.subgroup_flags(sys.endo, handle)
        return cls(handle=handle, **flags)


@dataclass(frozen=True)
class QuotientConstruction:
    system: TdlcSystem
    project: Callable[[Any], Any]          # handle in G  ->  handle in G/H


@dataclass(frozen=True)
class RestrictionConstruction:
    system: TdlcSystem
    embed: Callable[[Any], Any]            # handle in H  ->  handle in G
    restrict_handle: Callable[[Any], Any]  # handle in G  ->  handle in H (meet with H)


def intersect(U, V):
    """Canonical handle for U n V; open iff both operands are open."""
    model = _same_backend(U, V)
    return model.intersect(U, V)


def image(phi, U):
    """Compact handle phi(U); openness of the result is never asserted."""
    return U.model.image(phi, U)


def preimage(phi, U):
    """Handle for phi^{-1}(U); may be non-compact and is flagged as such.

    Downstream code always meets the result with a compact open handle
    before taking an index.
    """
    return U.model.preimage(phi, U)


def index(V, U) -> IndexValue:
    """Exact index [U:V].  Requires V <= U; infinite when V is not open in U."""
    model = _same_backend(U, V)
    return model.index(V, U)


def set_product(U, V):
    """The subgroup UV.  Requires UV = VU, which the finite backend checks."""
    model = _same_backend(U, V)
    return model.set_product(U, V)


def base_family(sys: TdlcSystem, k: int):
    """k-th element of the backend's downward-directed compact open base of 1."""
    if k < 0:
        raise ValueError("base index must be >= 0")
    return sys.model.base_element(k)


def quotient_system(sys: TdlcSystem, H: ClosedSubgroupSpec) -> TdlcSystem:
    """The system (G/H, induced endomorphism), in the same backend family."""
    return quotient_construction(sys, H).system


def quotient_construction(sys: TdlcSystem, H: ClosedSubgroupSpec) -> QuotientConstruction:
    if not sys.supports("quotient"):
        raise CapabilityError("backend does not support quotients")
    if not H.phi_invariant:
        raise UnsupportedSubgroupError("quotient requires a phi-invariant subgroup")
    if not (H.normal or H.compact):
        raise UnsupportedSubgroupError("quotient requires H normal or compact")
    return sys.model.quotient(sys.endo, H.handle)


def restrict_system(sys: TdlcSystem, H: ClosedSubgroupSpec) -> TdlcSystem:
    """The system (H, phi restricted to H); its base is {base(k) n H}."""
    return restrict_construction(sys, H).system


def restrict_construction(sys: TdlcSystem, H: ClosedSubgroupSpec) -> RestrictionConstruction:
    if not sys.supports("restriction"):
        raise CapabilityError("backend does not support restriction")
    if not H.phi_invariant:
        raise UnsupportedSubgroupError("restriction requires a phi-invariant subgroup")
    return sys.model.restriction(sys.endo, H.handle)
