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
``tidy_above_transform``) is cached on the system.  The limit route
(``alpha_sequence`` and the chains under it) is never cached: it must stay
independent of the forward core, because their agreement is the library's
central cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import core
from .core import InvariantViolation, TdlcSystem, UnresolvedError
from .exact import ExactEntropy, IndexValue, entropy_from_index

DEFAULT_PROBE = 64
DEFAULT_TIDY_PROBE = 16


@dataclass(frozen=True)
class CotrajectoryRow:
    n: int
    minus_handle: object
    plus_handle: object
    c: IndexValue
    alpha: Optional[IndexValue]


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
    ``structural`` means the backend solved the limit in closed form and
    verified it against the computed prefix of the chain.
    """

    handle: object
    method: str
    steps: int
    certificate: dict


@dataclass(frozen=True)
class TidyBelowResult:
    value: bool
    indirect: bool
    certificate: dict


def _preimage_chain(sys: TdlcSystem, U, n: int):
    """The preimages phi^{-j}(U) for j = 0..n, each from the previous one."""
    out = [U]
    for _ in range(n):
        out.append(core.preimage(sys.endo, out[-1]))
    return out


def minus_n(sys: TdlcSystem, U, n: int):
    """The cotrajectory subgroup U_{-n}, computed incrementally."""
    return minus_chain(sys, U, n)[n]


def minus_chain(sys: TdlcSystem, U, n: int):
    pre = _preimage_chain(sys, U, n)
    out = [U]
    for j in range(1, n + 1):
        out.append(core.intersect(out[-1], pre[j]))
    return out


def plus_n(sys: TdlcSystem, U, n: int):
    """The forward subgroup U_n: U_0 = U and U_{j+1} = U n phi(U_j)."""
    return plus_chain(sys, U, n)[n]


def plus_chain(sys: TdlcSystem, U, n: int):
    out = [U]
    for _ in range(n):
        out.append(core.intersect(U, core.image(sys.endo, out[-1])))
    return out


def alpha_sequence(sys: TdlcSystem, U, n_max: int = DEFAULT_PROBE) -> CotrajectoryTable:
    """The table of c_n and alpha_n for n <= n_max with inline invariants.

    Any violation of divisibility, monotonicity or the nested-chain structure
    is a backend bug and is fatal.  The stabilization index is certified by
    the backend criterion; a bare plateau is never trusted.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    minus = minus_chain(sys, U, n_max + 1)
    plus = plus_chain(sys, U, n_max + 1)
    model = sys.model
    cs = []
    for n, handle in enumerate(minus):
        if n > 0 and not model.contains(minus[n - 1], handle):
            raise InvariantViolation("cotrajectory chain is not decreasing")
        c = core.index(handle, U)
        if not c.is_finite:
            raise InvariantViolation("cotrajectory index must be finite for compact open U")
        cs.append(c)
    alphas = []
    for n in range(n_max + 1):
        if not cs[n].divides(cs[n + 1]):
            raise InvariantViolation("c_n does not divide c_{n+1}")
        ratio = cs[n + 1].divide_exact(cs[n])
        direct = core.index(minus[n + 1], minus[n])
        if direct != ratio:
            raise InvariantViolation("alpha_n disagrees with the index quotient")
        if alphas and ratio.value > alphas[-1].value:
            raise InvariantViolation("alpha_n increased")
        alphas.append(ratio)
    n_star, certificate = model.alpha_stabilization(
        sys.endo, U, minus, [a.value for a in alphas], n_max
    )
    if n_star is not None:
        if any(alphas[m] != alphas[n_star] for m in range(n_star, len(alphas))):
            raise InvariantViolation("certified plateau is not constant")
    rows = tuple(
        CotrajectoryRow(
            n=n,
            minus_handle=minus[n],
            plus_handle=plus[n],
            c=cs[n],
            alpha=alphas[n] if n < len(alphas) else None,
        )
        for n in range(n_max + 1)
    )
    return CotrajectoryTable(subgroup=U, rows=rows, n_star=n_star, certificate=certificate)


def plus_group(sys: TdlcSystem, U, probe: int = DEFAULT_PROBE) -> PlusGroupResult:
    """The forward core U_+ = the intersection of all U_n, exactly."""
    return sys.memo(("plus_group", U, probe), _plus_group, sys, U, probe)


def _plus_group(sys: TdlcSystem, U, probe: int) -> PlusGroupResult:
    handle, method, steps, certificate = sys.model.plus_group_impl(sys.endo, U, probe)
    check = core.intersect(U, core.image(sys.endo, handle))
    if check != handle:
        raise InvariantViolation("U_+ is not a fixed point of U n phi(.)")
    if not core.index(handle, core.image(sys.endo, handle)).is_finite:
        raise InvariantViolation("[phi(U_+) : U_+] must be finite")
    return PlusGroupResult(handle=handle, method=method, steps=steps, certificate=certificate)


def minus_group(sys: TdlcSystem, U, probe: int = DEFAULT_PROBE):
    """The full cotrajectory U_-, from closed-form tails or finiteness."""
    return sys.memo(("minus_group", U, probe), _minus_group, sys, U, probe)


def _minus_group(sys: TdlcSystem, U, probe: int):
    handle, _ = sys.model.minus_group_impl(sys.endo, U, probe)
    check = core.intersect(U, core.preimage(sys.endo, handle))
    if check != handle:
        raise InvariantViolation("U_- is not a fixed point of U n phi^{-1}(.)")
    return handle


def htop_local(sys: TdlcSystem, U, probe: int = DEFAULT_PROBE) -> ExactEntropy:
    """Local entropy at U through the forward core: log [phi(U_+) : U_+]."""
    pg = plus_group(sys, U, probe)
    img = core.image(sys.endo, pg.handle)
    return entropy_from_index(core.index(pg.handle, img))


def htop_limit_estimate(sys: TdlcSystem, U, n_max: int = DEFAULT_PROBE) -> ExactEntropy:
    """Local entropy at U as the certified stabilized alpha.

    This is the limit route; it must agree with ``htop_local`` on every
    resolved instance, which is the central cross-check of the library.
    """
    table = alpha_sequence(sys, U, n_max)
    if table.n_star is None:
        raise UnresolvedError(f"alpha did not certifiably stabilize within {n_max} steps")
    return entropy_from_index(table.stable_alpha)


def is_tidy_above(sys: TdlcSystem, U, probe: int = DEFAULT_PROBE) -> bool:
    """U is tidy above when U = U_+ U_-."""
    return sys.memo(("is_tidy_above", U, probe), _is_tidy_above, sys, U, probe)


def _is_tidy_above(sys: TdlcSystem, U, probe: int) -> bool:
    if not sys.supports("set_product"):
        raise core.CapabilityError("tidy-above needs the set product")
    plus = plus_group(sys, U, probe).handle
    minus = minus_group(sys, U, probe)
    return core.set_product(plus, minus) == U


def tidy_above_transform(sys: TdlcSystem, U, tidy_probe: int = DEFAULT_TIDY_PROBE,
                         probe: int = DEFAULT_PROBE):
    """The first cotrajectory subgroup U_{-n} that is tidy above."""
    return sys.memo(("tidy_above_transform", U, tidy_probe, probe),
                    _tidy_above_transform, sys, U, tidy_probe, probe)


def _tidy_above_transform(sys: TdlcSystem, U, tidy_probe: int, probe: int):
    chain = minus_chain(sys, U, tidy_probe)
    for handle in chain:
        if is_tidy_above(sys, handle, probe):
            return handle
    raise UnresolvedError(f"no tidy-above cotrajectory subgroup within {tidy_probe} steps")


def is_tidy_below(sys: TdlcSystem, U, probe: int = DEFAULT_TIDY_PROBE,
                  scale_value: Optional[int] = None) -> TidyBelowResult:
    """U is tidy below when the forward images of U_+ have constant index and
    their union is closed; the backend certifies closedness.

    Without the certificate capability this falls back to the minimizing
    cross-check (tidiness is equivalent to minimizing), flagged indirect.
    """
    pg = plus_group(sys, U, probe=max(probe, DEFAULT_PROBE))
    if sys.supports("tidy_below_certificate"):
        analysis = sys.model.plus_plus_analysis(sys.endo, pg.handle, probe)
        constant = len(set(analysis["indices"][: probe + 1])) == 1
        return TidyBelowResult(
            value=bool(analysis["closed"]) and constant,
            indirect=False,
            certificate={
                "closed": analysis["closed"],
                "index_constant": constant,
                **analysis["certificate"],
            },
        )
    if scale_value is None:
        raise core.CapabilityError(
            "no closedness certificate and no scale value for the indirect route"
        )
    mini = is_minimizing(sys, U, scale_value)
    above = is_tidy_above(sys, U)
    return TidyBelowResult(
        value=mini and above,
        indirect=True,
        certificate={"route": "minimizing cross-check"},
    )


def is_minimizing(sys: TdlcSystem, U, scale_value: int) -> bool:
    """U attains the scale: [phi(U) : U n phi(U)] equals the given value."""
    img = core.image(sys.endo, U)
    meet = core.intersect(U, img)
    return core.index(meet, img) == IndexValue(scale_value)


def displacement_index(sys: TdlcSystem, U) -> IndexValue:
    """[phi(U) : U n phi(U)], the quantity the scale minimizes."""
    img = core.image(sys.endo, U)
    return core.index(core.intersect(U, img), img)
