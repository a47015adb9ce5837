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
chain and the cotrajectory fixpoint plateau.  The limits U_+ and U_- and
the cached chains (the cotrajectory U_{-n} and the image chain phi^n(U_+))
live in ``cotraj``, which reads a product's limits and chains from its
factor systems; a backend gives only the step bound of the literal limit
chain and its closed form past it (``limit_route``).

The package's immutable records (systems, specs, reports, handles and
endomorphisms) are plain classes made by ``record`` here, for import cost:
each command is a fresh process, a frozen dataclass compiles five or six
generated methods per class at import, and the module that makes them loads
``inspect``.  ``record`` compiles one small piece of code per class and
imports nothing.
"""

from __future__ import annotations

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
        """phi^{-1}(U), possibly non-compact: meet it with a compact open U first.
        Only the backward limit (``cotraj.limit`` with ``forward`` false, behind
        ``cotraj.minus_group``) still calls it; it leaves the protocol when
        tidiness above is read off one index instead of U_-."""
    def meet_preimage(self, U, phi, V):
        """U n phi^{-1}(V), the cotrajectory step U_{-n-1} = U n phi^{-1}(U_{-n});
        equal to ``intersect(U, preimage(phi, V))``, in one step where the
        backend has one."""
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

    # dynamics hooks, called by ``cotraj`` and ``dynamics``
    def limit_route(self, phi, U, forward) -> tuple:
        """(step bound, closed form or None) of the limit that ``cotraj.limit``
        takes from U: U_+ of U_{n+1} = U n phi(U_n) (``forward``) or U_- of
        U_{-n-1} = U n phi^{-1}(U_{-n}).  The literal chain takes at most the
        bound's steps; when none is a fixpoint, ``closed_form(chain)`` gives
        (handle, steps, certificate), and None says the chain always stops.
        A product gives none: ``cotraj`` pairs its factor systems' limits."""
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


class _Field:
    __slots__ = ("default", "default_factory", "init", "compare", "repr")

    def __init__(self, default, default_factory, init, compare, repr):
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.compare = compare
        self.repr = repr


def field(*, default_factory=None, init=True, compare=True, repr=True):
    """A record field's options, given as its default in the class body: a
    ``default_factory`` called per instance (and, with ``init=False``,
    left out of ``__init__``), and whether the field takes part in ``==``
    and ``hash`` (``compare``) and in ``repr``."""
    return _Field(_MISSING, default_factory, init, compare, repr)


def _record_repr(self):
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__repr_fields__)
    return f"{self.__class__.__qualname__}({fields})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def record(cls):
    """Make ``cls`` an immutable record of its own annotated fields, in order.

    Behaves as a frozen dataclass: ``__init__`` takes the fields (a field
    without a default before any with one); ``==`` holds only between
    instances of the same class and compares the compared fields as one
    tuple; ``hash`` is the hash of that tuple; ``repr`` reads
    ``Name(field=value, ...)``; assigning or deleting an attribute raises
    ``AttributeError``.  A field's default is a plain class attribute or a
    ``field(...)``.  ``__init__``, ``__eq__`` and ``__hash__`` are compiled
    together, once per class.  Instances keep a ``__dict__``, so
    ``functools.cached_property`` works on them.
    """
    scope = {"_set": object.__setattr__, "_MISSING": _MISSING}
    params, sets, compared, shown = [], [], [], []
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if isinstance(spec, _Field):
            delattr(cls, name)
        else:
            spec = _Field(spec, None, True, True, True)
        value = name
        if spec.default_factory is not None:
            scope[f"_f_{name}"] = spec.default_factory
            value = f"_f_{name}()"
            if spec.init:
                params.append(f"{name}=_MISSING")
                value = f"{value} if {name} is _MISSING else {name}"
        elif spec.default is not _MISSING:
            scope[f"_d_{name}"] = spec.default
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
        sets.append(f"    _set(self, {name!r}, {value})\n")
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    mine = "(" + "".join(f"self.{name}," for name in compared) + ")"
    theirs = "(" + "".join(f"other.{name}," for name in compared) + ")"
    exec(
        f"def __init__(self, {', '.join(params)}):\n{''.join(sets)}"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {theirs}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({mine})\n",
        scope,
    )
    for method in ("__init__", "__eq__", "__hash__"):
        fn = scope[method]
        fn.__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, fn)
    cls.__repr_fields__ = tuple(shown)
    cls.__repr__ = _record_repr
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls


@record
class TdlcSystem:
    """A concretely represented group together with a continuous endomorphism.

    The system owns the cache behind ``memo``: derived quantities (the
    limits U_+ and U_-, forward cores, tidy transforms, entropy, scale) are
    computed once per system and live exactly as long as it does; chains
    (the cotrajectory and the image chain) are cached as prefixes that grow
    on demand (``memo_prefix``).  The cache takes no part in equality.
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

    def memo_prefix(self, key, length: int, extend: Callable) -> tuple:
        """The first ``length`` entries of a sequence cached under ``key``,
        or all of it when it ends sooner.

        When fewer are cached and the sequence has not ended,
        ``extend(cached)`` returns a tuple that starts with them and replaces
        the cached one, so the cached value stays immutable.  It holds at
        least ``length`` entries, or fewer when the sequence ends there, and
        an ended sequence is never extended again.
        """
        seq, ended = self._cache.get(key, ((), False))
        if len(seq) < length and not ended:
            seq = extend(seq)
            self._cache[key] = seq, len(seq) < length
        return seq[:length]


@record
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


@record
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
