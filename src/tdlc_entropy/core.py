"""Backend-independent contract: systems, subgroup specs, the operations
every backend implements, and the algorithms written once on top of them.

A backend supplies a *model* (the ambient group), *endomorphism* objects and
immutable, canonical *subgroup handles*.  Handles compare equal exactly when
they denote the same subgroup.  Callers reach the operations through
the system's model; every model checks with ``check_model`` that its
operands are its own.

The protocol every backend model implements is ``Backend``, the one list
of its names.  Models match it structurally; none inherits from it.  Each
backend bounds its own chains (``CHAIN_STEP_CAP``); no hook takes a chain
depth.  Every handle has ``describe()``, ``is_open``, ``is_compact`` and
``is_normal``.  What follows from these primitives alone is written here
once: the subgroup flags (``ClosedSubgroupSpec.verify``), the fixpoint
chain, the limit chain behind U_+ and U_- and the cotrajectory fixpoint
plateau.  The image chain of U_+ lives in ``cotraj.is_tidy_below``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol

from .exact import IndexValue


class BackendMismatchError(TypeError):
    """Operands come from different backends or ambient groups."""


class UnsupportedSubgroupError(ValueError):
    """A subgroup shape the backend cannot quotient by or restrict to."""


class InvariantViolation(AssertionError):
    """An internal identity failed; signals a backend bug, always fatal."""


class UnresolvedError(RuntimeError):
    """A resource bound was hit before a certified answer existed.

    Never a wrong answer: callers either retry with a larger probe or report
    the computation as UNRESOLVED.
    """


def check_model(model, *handles):
    """Raise ``BackendMismatchError`` unless every handle belongs to ``model``."""
    for h in handles:
        if h.model is not model:
            raise BackendMismatchError("handle belongs to a different ambient group")


class Backend(Protocol):
    """The ambient group of a system: its primitives, then its dynamics hooks."""

    name: str  # display name
    kind: str  # backend tag

    def base_element(self, k):
        """k-th member of the canonical compact open neighborhood base of 1."""
    def intersect(self, U, V):
        """U n V, open iff both operands are open."""
    def set_product(self, U, V):
        """UV (U + V if abelian); ``UnsupportedSubgroupError`` unless UV = VU."""
    def image(self, phi, U):
        """phi(U), compact when U is; its openness is never asserted."""
    def preimage(self, phi, U):
        """phi^{-1}(U), possibly non-compact: meet it with a compact open U first."""
    def index(self, V, U) -> IndexValue:
        """Exact [U:V] for V <= U, infinite when V is not open in U."""
    def contains(self, U, V) -> bool:
        """Whether V <= U."""
    def full_group(self):
        """The whole group G."""
    def trivial_subgroup(self):
        """The trivial subgroup {1}."""
    def endo_power(self, phi, n):
        """phi^n."""
    def kernel_handle(self, phi):
        """ker phi."""
    def quotient(self, phi, H) -> QuotientConstruction:
        """The induced system on G/H; ``UnsupportedSubgroupError`` when phi
        does not carry H into itself or the backend cannot quotient by H."""
    def restriction(self, phi, H) -> TdlcSystem:
        """The system (H, phi|_H) itself; ``UnsupportedSubgroupError`` when
        phi does not carry H into itself or the backend cannot model H."""

    # dynamics hooks, called by ``cotraj`` and ``dynamics``; the two limits
    # return ``limit_chain``'s (handle, method, steps, certificate)
    def plus_group_impl(self, phi, U) -> tuple:
        """U_+, the limit of U_{n+1} = U n phi(U_n)."""
    def minus_group_impl(self, phi, U) -> tuple:
        """U_-, the limit of U_{-n-1} = U n phi^{-1}(U_{-n})."""
    def alpha_stabilization(self, phi, U, minus_handles, alphas) -> tuple:
        """(certified plateau start or None, certificate) of the alpha table."""
    def plus_plus_closure(self, phi, u_plus, last, tidy_probe) -> tuple:
        """(closed, certificate) for U_++, the union of the images of U_+,
        when none of them up to ``last`` = phi^(tidy_probe+1)(U_+) is fixed."""
    def entropy_base_certificate(self, probed) -> tuple:
        """(certified, reason): whether the probed base saturates h_top."""
    def scale_candidates(self, phi) -> list:
        """Backend-specific subgroups added to the scale search."""
    def scale_oracle(self, phi) -> Optional[int]:
        """The scale predicted without a search, or None when there is none."""
    def nub_analysis(self, phi, minimizing, resolution, scale_value) -> tuple:
        """(nub handle, certified, reason) from the minimizing subgroups found."""


_MISSING = object()


@dataclass(frozen=True)
class TdlcSystem:
    """A concretely represented group together with a continuous endomorphism.

    The system owns the cache behind ``memo``: derived quantities (forward
    cores, tidy transforms, entropy, scale) are computed once per system and
    live exactly as long as it does.  The cache takes no part in equality.
    """

    model: Backend
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


@dataclass(frozen=True)
class ClosedSubgroupSpec:
    """A closed subgroup with flags recomputed from the model's primitives.

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
        model, phi = sys.model, sys.endo
        img = model.image(phi, handle)
        return cls(
            handle=handle,
            normal=handle.is_normal,
            compact=handle.is_compact,
            phi_invariant=model.contains(handle, img),
            phi_stable=img == handle,
            contains_kernel=model.contains(handle, model.kernel_handle(phi)),
        )


@dataclass(frozen=True)
class QuotientConstruction:
    system: TdlcSystem
    project: Callable[[Any], Any]          # handle in G  ->  handle in G/H


def chain_fixpoint(step: Callable, start, max_steps: int):
    """Iterate h -> step(h) from ``start`` until a fixpoint, at most
    ``max_steps`` times.

    Returns ``(n, chain)``: ``chain`` holds ``start`` and every new iterate,
    and ``n`` is the first index with ``step(chain[n]) == chain[n]`` (then
    ``chain[n]`` is the last entry), or None when no step met a fixpoint.
    """
    chain = [start]
    for n in range(max_steps):
        nxt = step(chain[-1])
        if nxt == chain[-1]:
            return n, chain
        chain.append(nxt)
    return None, chain


def limit_chain(model, phi, U, forward: bool, max_steps: int, closed_form: Callable):
    """The limit of h -> U n phi(h) (``forward``, U_+) or h -> U n phi^{-1}(h)
    (U_-) from U, as (handle, method, steps, certificate).

    At a fixpoint within ``max_steps`` steps the method is "fixpoint".
    Otherwise ``closed_form(chain)`` solves the limit as (handle, steps,
    certificate), the method is "structural", and the handle must lie in
    every computed iterate.  The chain decreases (its first step lands in U
    and the step is monotone), so the last iterate is the one to check.
    """
    move = model.image if forward else model.preimage
    n, chain = chain_fixpoint(lambda h: model.intersect(U, move(phi, h)), U, max_steps)
    if n is not None:
        return chain[n], "fixpoint", n, {"fixpoint_at": n}
    handle, steps, certificate = closed_form(chain)
    if not model.contains(chain[-1], handle):
        raise InvariantViolation("closed-form limit escaped an iterate")
    return handle, "structural", steps, certificate


def cotrajectory_fixpoint(minus_handles, alphas):
    """``alpha_stabilization`` by an exact fixpoint of the cotrajectory chain.

    Returns ``(n, certificate)`` with n the first index where U_{-n-1} =
    U_{-n}, after which every alpha is 1, or ``(None, certificate)`` when the
    computed chain has no fixpoint.
    """
    for n in range(len(minus_handles) - 1):
        if minus_handles[n + 1] == minus_handles[n]:
            if all(a == 1 for a in alphas[n:]):
                return n, {"criterion": "cotrajectory fixpoint", "fixpoint_at": n}
            raise InvariantViolation("alpha is not 1 beyond a cotrajectory fixpoint")
    return None, {"criterion": "cotrajectory fixpoint", "fixpoint_at": None}
