"""The combinatorial engine along an endomorphism: cotrajectories, forward
cores, index sequences and tidiness predicates.

For a compact open U the cotrajectory U_{-n} meets the first n preimages of
U, and the forward subgroups satisfy U_0 = U, U_{n+1} = U n phi(U_n).  The
index sequence c_n = [U : U_{-n}] has exact successive quotients alpha_n
which are non-increasing and eventually constant; the stabilized value is the
local entropy, and it must coincide with the index [phi(U_+) : U_+] of the
forward core U_+.  This module computes all of these with per-backend
stabilization certificates and never reports a value from an uncertified
plateau.

The forward-core route (``plus_group``, ``minus_group``, ``is_tidy_above``,
``tidy_above_transform``) is cached on the system, and so are two chains,
each a prefix that grows when a longer one is asked for: the cotrajectory
U_0, ..., U_{-n} of ``minus_chain`` and the image chain V, phi(V), ... of
``image_chain``, which ends at its first fixed image.  A product system
reads both chains from its factor systems (``_cached_chain``), so a chain
that a factor system holds is never built again.  The cotrajectory table
(``alpha_sequence``, read by ``htop_limit_estimate``) is cached per (U,
n_max).  The limit route must stay independent of the forward core,
because their agreement is the library's central cross-check; it does,
since the cotrajectory is built from U by intersections and preimages
alone and never reads U_+ or U_-.  Only the forward chain U_n
(``plus_chain``), which serves the forward/backward identities that
``verify`` checks, is not cached.

Tidiness below reads the increasing image chain U_+ <= phi(U_+) <= ... of
``image_chain``, whose first step ``plus_group`` has already taken for its
fixed-point check; ``is_tidy_below`` checks it here for every backend, and
a backend only judges, through ``plus_plus_closure``, whether the union
U_++ is closed when no image within the probe is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import InvariantViolation, TdlcSystem, UnresolvedError
from .exact import ExactEntropy, IndexValue, entropy_from_index

DEFAULT_N_MAX = 64
DEFAULT_TIDY_PROBE = 16


@dataclass(frozen=True)
class CotrajectoryRow:
    """Row n of the table: U_{-n}, c_n = [U : U_{-n}] and alpha_n = [U_{-n} : U_{-n-1}]."""

    n: int
    minus_handle: object
    c: IndexValue
    alpha: IndexValue


@dataclass(frozen=True)
class CotrajectoryTable:
    """Indices along the cotrajectory, with the certified stabilization point.

    ``n_star`` is None exactly when the backend could not certify that the
    observed plateau is final (UNRESOLVED).
    """

    subgroup: object
    rows: tuple
    n_star: Optional[int]
    certificate: dict

    @property
    def stable_alpha(self) -> Optional[IndexValue]:
        if self.n_star is None:
            return None
        return self.rows[self.n_star].alpha


@dataclass(frozen=True)
class PlusGroupResult:
    """The forward core U_+ with the method that produced it.

    ``fixpoint`` means the decreasing chain U_n literally stabilized;
    ``structural`` means the backend solved the limit in closed form, and it
    is verified as a fixed point of U n phi(.) by ``_plus_group``; the
    computed prefix of the chain may be just U.  ``image_index`` is the
    finite index [phi(U_+) : U_+], whose log is the local entropy at U.
    """

    handle: object
    method: str
    steps: int
    certificate: dict
    image_index: IndexValue


@dataclass(frozen=True)
class TidyBelowResult:
    value: bool
    certificate: dict


def _chain_prefix(sys: TdlcSystem, U, n: int, move, chain=()):
    """U and the first n iterates of h -> U n move(phi, h), extending
    ``chain``, a prefix of them."""
    out = list(chain) or [U]
    while len(out) <= n:
        out.append(sys.model.intersect(U, move(sys.endo, out[-1])))
    return out


def _cached_chain(sys: TdlcSystem, key: str, grow, U, n: int) -> tuple:
    """The first n + 1 entries of the chain ``key`` from U, or all of them
    when it ends sooner, cached on the system as one growing prefix.

    A product's chain is the pair of its factors' chains, each read (and
    cached) on its factor system, so a chain that a factor system holds is
    never built again; a factor chain that ended sooner is padded with its
    last entry.  Any other system grows its own chain with
    ``grow(sys, U, n, cached)``.
    """
    model = sys.model
    if model.kind == "product":
        def extend(cached):
            parts = [_cached_chain(s, key, grow, u, n)
                     for s, u in zip(model.factor_systems(sys.endo), U.parts)]
            return cached + tuple(model.pair(*(p[min(i, len(p) - 1)] for p in parts))
                                  for i in range(len(cached), max(map(len, parts))))
    else:
        def extend(cached):
            return grow(sys, U, n, cached)
    return sys.memo_prefix((key, U), n + 1, extend)


def _preimage_steps(sys: TdlcSystem, U, n: int, cached) -> tuple:
    return tuple(_chain_prefix(sys, U, n, sys.model.preimage, cached))


def _image_steps(sys: TdlcSystem, V, n: int, cached) -> tuple:
    out = list(cached) or [V]
    while len(out) <= n:
        nxt = sys.model.image(sys.endo, out[-1])
        if nxt == out[-1]:
            break
        out.append(nxt)
    return tuple(out)


def minus_chain(sys: TdlcSystem, U, n: int) -> tuple:
    """U_0, ..., U_{-n}: U_{-j-1} = U n phi^{-1}(U_{-j}) is U_{-j} n phi^{-j-1}(U).

    The system keeps the longest prefix built so far and extends it.
    """
    return _cached_chain(sys, "minus_chain", _preimage_steps, U, n)


def image_chain(sys: TdlcSystem, V, n: int) -> tuple:
    """V, phi(V), ..., phi^n(V), ending at the first fixed image when one
    comes sooner: then phi(chain[-1]) == chain[-1].

    The system keeps the longest prefix built so far and extends it.
    """
    return _cached_chain(sys, "image_chain", _image_steps, V, n)


def plus_chain(sys: TdlcSystem, U, n: int):
    """U_0, ..., U_n: U_{j+1} = U n phi(U_j)."""
    return _chain_prefix(sys, U, n, sys.model.image)


def alpha_sequence(sys: TdlcSystem, U, n_max: int = DEFAULT_N_MAX) -> CotrajectoryTable:
    """The table of c_n and alpha_n for n <= n_max with inline invariants,
    computed once per (system, U, n_max): a certificate may depend on n_max.

    Any violation of divisibility, monotonicity or the nested-chain structure
    is a backend bug and is fatal.  The stabilization index is certified by
    the backend criterion; a bare plateau is never trusted.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return sys.memo(("alpha_sequence", U, n_max), _alpha_sequence, sys, U, n_max)


def _alpha_sequence(sys: TdlcSystem, U, n_max: int) -> CotrajectoryTable:
    minus = minus_chain(sys, U, n_max + 1)
    model = sys.model
    cs = []
    for handle in minus:
        c = model.index(handle, U)
        if not c.is_finite:
            raise InvariantViolation("cotrajectory index must be finite for compact open U")
        cs.append(c)
    alphas = []
    for n in range(n_max + 1):
        if not cs[n].divides(cs[n + 1]):
            raise InvariantViolation("c_n does not divide c_{n+1}")
        ratio = cs[n + 1].divide_exact(cs[n])
        try:
            direct = model.index(minus[n + 1], minus[n])
        except ValueError:
            raise InvariantViolation("cotrajectory chain is not decreasing") from None
        if direct != ratio:
            raise InvariantViolation("alpha_n disagrees with the index quotient")
        if alphas and ratio.value > alphas[-1].value:
            raise InvariantViolation("alpha_n increased")
        alphas.append(ratio)
    n_star, certificate = model.alpha_stabilization(sys.endo, U, minus, [a.value for a in alphas])
    if n_star is not None:
        if any(alphas[m] != alphas[n_star] for m in range(n_star, len(alphas))):
            raise InvariantViolation("certified plateau is not constant")
    rows = tuple(
        CotrajectoryRow(
            n=n,
            minus_handle=minus[n],
            c=cs[n],
            alpha=alphas[n],
        )
        for n in range(n_max + 1)
    )
    return CotrajectoryTable(subgroup=U, rows=rows, n_star=n_star, certificate=certificate)


def plus_group(sys: TdlcSystem, U) -> PlusGroupResult:
    """The forward core U_+ = the intersection of all U_n, exactly."""
    return sys.memo(("plus_group", U), _plus_group, sys, U)


def _plus_group(sys: TdlcSystem, U) -> PlusGroupResult:
    handle, method, steps, certificate = sys.limit(True, sys.endo, U)
    img = image_chain(sys, handle, 1)[-1]
    if sys.model.intersect(U, img) != handle:
        raise InvariantViolation("U_+ is not a fixed point of U n phi(.)")
    image_index = sys.model.index(handle, img)
    if not image_index.is_finite:
        raise InvariantViolation("[phi(U_+) : U_+] must be finite")
    return PlusGroupResult(handle=handle, method=method, steps=steps, certificate=certificate,
                           image_index=image_index)


def minus_group(sys: TdlcSystem, U):
    """The full cotrajectory U_-, from closed-form tails or finiteness."""
    return sys.memo(("minus_group", U), _minus_group, sys, U)


def _minus_group(sys: TdlcSystem, U):
    handle, *_ = sys.limit(False, sys.endo, U)
    check = sys.model.intersect(U, sys.model.preimage(sys.endo, handle))
    if check != handle:
        raise InvariantViolation("U_- is not a fixed point of U n phi^{-1}(.)")
    return handle


def htop_local(sys: TdlcSystem, U) -> ExactEntropy:
    """Local entropy at U through the forward core: log [phi(U_+) : U_+]."""
    return entropy_from_index(plus_group(sys, U).image_index)


def htop_limit_estimate(sys: TdlcSystem, U, n_max: int = DEFAULT_N_MAX) -> ExactEntropy:
    """Local entropy at U as the certified stabilized alpha.

    This is the limit route; it must agree with ``htop_local`` on every
    resolved instance, which is the central cross-check of the library.
    """
    table = alpha_sequence(sys, U, n_max)
    if table.n_star is None:
        raise UnresolvedError(f"alpha did not certifiably stabilize within {n_max} steps")
    return entropy_from_index(table.stable_alpha)


def is_tidy_above(sys: TdlcSystem, U) -> bool:
    """U is tidy above when U = U_+ U_-."""
    return sys.memo(("is_tidy_above", U), _is_tidy_above, sys, U)


def _is_tidy_above(sys: TdlcSystem, U) -> bool:
    plus = plus_group(sys, U).handle
    minus = minus_group(sys, U)
    return sys.model.set_product(plus, minus) == U


def tidy_above_transform(sys: TdlcSystem, U, tidy_probe: int = DEFAULT_TIDY_PROBE):
    """The first cotrajectory subgroup U_{-n} that is tidy above."""
    return sys.memo(("tidy_above_transform", U, tidy_probe),
                    _tidy_above_transform, sys, U, tidy_probe)


def _tidy_above_transform(sys: TdlcSystem, U, tidy_probe: int):
    chain = minus_chain(sys, U, tidy_probe)
    for handle in chain:
        if is_tidy_above(sys, handle):
            return handle
    raise UnresolvedError(f"no tidy-above cotrajectory subgroup within {tidy_probe} steps")


def is_tidy_below(sys: TdlcSystem, U, tidy_probe: int = DEFAULT_TIDY_PROBE) -> TidyBelowResult:
    """U is tidy below when the images phi^n(U_+) have constant index
    [phi^{n+1}(U_+) : phi^n(U_+)] for n <= ``tidy_probe`` and their union
    U_++ is closed.

    The images increase; they are read off the cached ``image_chain``.  At
    the first fixed image U_++ is that image, so it is closed and every
    later index is 1.  When none of the ``tidy_probe + 1`` images is fixed,
    the backend's ``plus_plus_closure`` judges U_++ from the last one.
    """
    model = sys.model
    u_plus = plus_group(sys, U).handle
    chain = image_chain(sys, u_plus, tidy_probe + 1)
    indices = []
    for current, nxt in zip(chain, chain[1:]):
        if not model.contains(nxt, current):
            raise InvariantViolation("phi^n U+ is not increasing")
        indices.append(model.index(current, nxt))
    if len(chain) <= tidy_probe + 1:
        indices.append(IndexValue(1))
        closed, certificate = True, {"method": "image chain stabilized", "steps": len(chain) - 1}
    else:
        closed, certificate = model.plus_plus_closure(sys.endo, u_plus, chain[-1], tidy_probe)
    constant = len(set(indices)) == 1
    return TidyBelowResult(
        value=closed and constant,
        certificate={"closed": closed, "index_constant": constant, **certificate},
    )


def is_minimizing(sys: TdlcSystem, U, scale_value: int) -> bool:
    """U attains the scale: its displacement index equals the given value."""
    return displacement_index(sys, U) == IndexValue(scale_value)


def displacement_index(sys: TdlcSystem, U) -> IndexValue:
    """[phi(U) : U n phi(U)], the quantity the scale minimizes."""
    img = sys.model.image(sys.endo, U)
    return sys.model.index(sys.model.intersect(U, img), img)
