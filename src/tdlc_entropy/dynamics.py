"""Top-level quantities and identity verifiers: entropy, scale, nub, the
additivity check over a closed invariant subgroup, and the scale-entropy link.

Everything is exact.  Suprema and minima over infinite families are probed
over declared finite families and reported together with a certificate of
whether the probe is known to saturate; an uncertified value is an honest
bound, never silently an answer.
"""

from __future__ import annotations

from typing import Optional

from . import cotraj
from .core import (
    ClosedSubgroupSpec,
    InvariantViolation,
    TdlcSystem,
    UnresolvedError,
    UnsupportedSubgroupError,
    field,
    record,
)
from .exact import ExactEntropy, ZERO_ENTROPY, entropy_add, entropy_from_index

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
INCONCLUSIVE = "INCONCLUSIVE"


@record
class EntropyReport:
    """Entropy as the supremum over the probed base, with its witness.

    ``saturated`` is True only when the backend certifies that the base
    family is eventually constant, so the supremum is exact rather than a
    lower bound.
    """

    value: ExactEntropy
    witness: object
    probed: int
    saturated: bool
    table: tuple
    unresolved: tuple
    reason: str

    def to_jsonable(self) -> dict:
        return {
            "alpha": None if self.value.is_infinite else str(self.value.alpha),
            "infinite": self.value.is_infinite,
            "display_ln": self.value.ln_display(),
            "certified": self.saturated,
            "probed": self.probed,
            "unresolved": list(self.unresolved),
            "table": [
                {"k": k, "alpha": None if v.is_infinite else str(v.alpha)} for k, v in self.table
            ],
            "reason": self.reason,
        }


@record
class ScaleReport:
    value: int
    witness: object
    candidates_probed: int
    oracle_agreement: Optional[bool]
    witness_tidy_above: Optional[bool]
    witness_tidy_below: Optional[bool]
    minimizing: tuple  # the candidates attaining the minimum, in order; not emitted

    def to_jsonable(self) -> dict:
        return {
            "scale": str(self.value),
            "candidates_probed": self.candidates_probed,
            "oracle_agreement": self.oracle_agreement,
            "witness_tidy_above": self.witness_tidy_above,
            "witness_tidy_below": self.witness_tidy_below,
        }


@record
class NubReport:
    handle: object
    resolution: int
    certified: bool
    reason: str
    minimizing_probed: int

    def to_jsonable(self) -> dict:
        return {
            "certified": self.certified,
            "reason": self.reason,
            "resolution": self.resolution,
            "minimizing_probed": self.minimizing_probed,
            "trivial": is_trivial_handle(self.handle),
        }


@record
class Verdict:
    status: str
    reason: str
    details: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {"status": self.status, "reason": self.reason, "details": self.details}


def is_trivial_handle(handle) -> bool:
    return handle == handle.model.trivial_subgroup()


def topological_entropy(sys: TdlcSystem, probe: int = 8) -> EntropyReport:
    """sup of the local entropies over the canonical base, with certificate.

    Per-element values are non-decreasing along the shrinking base; a
    violation is a backend bug.  Elements whose stabilization cannot be
    certified are excluded and reported, and they void saturation.
    """
    return sys.memo(("topological_entropy", probe), _topological_entropy, sys, probe)


def _topological_entropy(sys: TdlcSystem, probe: int) -> EntropyReport:
    probed = []
    unresolved = []
    witness = None
    best = None
    for k in range(probe + 1):
        u = sys.model.base_element(k)
        try:
            value = cotraj.htop_local(sys, u)
        except UnresolvedError:
            unresolved.append(k)
            continue
        if probed and value < probed[-1][2]:
            raise InvariantViolation("local entropy decreased along the shrinking base")
        probed.append((k, u, value))
        if best is None or best < value:
            best = value
            witness = u
    if best is None:
        raise UnresolvedError("no base element resolved")
    saturated, reason = sys.model.entropy_base_certificate(probed)
    if unresolved:
        saturated = False
        reason += "; some base elements were unresolved"
    return EntropyReport(
        value=best,
        witness=witness,
        probed=probe + 1,
        saturated=saturated,
        table=tuple((k, v) for k, _, v in probed),
        unresolved=tuple(unresolved),
        reason=reason,
    )


def scale_candidates(sys: TdlcSystem, probe: int, tidy_probe: int) -> tuple:
    """The declared finite probe family: the base, its tidy-above transforms,
    and backend extras; compact open handles only, deduplicated in order."""
    return sys.memo(("scale_candidates", probe, tidy_probe),
                    _scale_candidates, sys, probe, tidy_probe)


def _scale_candidates(sys: TdlcSystem, probe: int, tidy_probe: int) -> tuple:
    seen = []
    for k in range(probe + 1):
        u = sys.model.base_element(k)
        if u not in seen:
            seen.append(u)
    for u in list(seen):
        try:
            t = cotraj.tidy_above_transform(sys, u, tidy_probe)
        except (UnresolvedError, UnsupportedSubgroupError):
            continue
        if t not in seen:
            seen.append(t)
    for u in sys.model.scale_candidates(sys.endo):
        if u not in seen:
            seen.append(u)
    return tuple(u for u in seen if u.is_compact and u.is_open)


def scale(sys: TdlcSystem, probe: int = 8,
          tidy_probe: int = cotraj.DEFAULT_TIDY_PROBE) -> ScaleReport:
    """Minimum displacement index over the probe family, with tidy witness.

    The reported value is certified optimal through the witness's tidiness
    (minimizing and tidy coincide) or through backend oracle agreement.
    """
    return sys.memo(("scale", probe, tidy_probe), _scale, sys, probe, tidy_probe)


def _scale(sys: TdlcSystem, probe: int, tidy_probe: int) -> ScaleReport:
    candidates = scale_candidates(sys, probe, tidy_probe)
    if not candidates:
        raise InvariantViolation("the scale probe family is empty")
    values = []
    for u in candidates:
        v = cotraj.displacement_index(sys, u)
        if not v.is_finite:
            raise InvariantViolation("displacement index of a compact open subgroup is finite")
        values.append(v.value)
    best = min(values)
    minimizing = tuple(u for u, v in zip(candidates, values) if v == best)
    witness = minimizing[0]
    predicted = sys.model.scale_oracle(sys.endo)
    oracle = None if predicted is None else predicted == best
    tidy_above = None
    tidy_below = None
    try:
        tidy_above = cotraj.is_tidy_above(sys, witness)
    except (UnsupportedSubgroupError, UnresolvedError):
        pass
    try:
        tidy_below = cotraj.is_tidy_below(sys, witness, tidy_probe).value
    except (UnsupportedSubgroupError, UnresolvedError):
        pass
    return ScaleReport(
        value=best,
        witness=witness,
        candidates_probed=len(candidates),
        oracle_agreement=oracle,
        witness_tidy_above=tidy_above,
        witness_tidy_below=tidy_below,
        minimizing=minimizing,
    )


def nub(sys: TdlcSystem, resolution: int = 8, probe: int = 8) -> NubReport:
    """Intersection of the minimizing subgroups found within the resolution.

    Certified only when the backend can verify the family is downward
    directed and extends to a family with the stated intersection; otherwise
    the result is an upper approximation and is flagged as such.
    """
    s = scale(sys, probe=probe)
    minimizing = list(s.minimizing)
    handle, certified, reason = sys.model.nub_analysis(
        sys.endo, minimizing, resolution, scale_value=s.value
    )
    for u in minimizing:
        if not sys.model.contains(u, handle):
            raise InvariantViolation("nub is not inside a minimizing subgroup")
    return NubReport(
        handle=handle,
        resolution=resolution,
        certified=certified,
        reason=reason,
        minimizing_probed=len(minimizing),
    )


def _open_subgroups_containing(sys: TdlcSystem, H: ClosedSubgroupSpec, probe: int) -> list:
    """Compact open subgroups containing the compact subgroup H, in order: the
    products base(k) H, k <= probe (in a finite group, G and H itself)."""
    family = []
    for k in range(probe + 1):
        k_h = sys.model.set_product(sys.model.base_element(k), H.handle)
        if k_h.is_compact and k_h.is_open and k_h not in family:
            family.append(k_h)
    return family


def _quotient_entropy(sys: TdlcSystem, H: ClosedSubgroupSpec, probe: int) -> ExactEntropy:
    """Entropy of the induced map on G/H.

    Normal H goes through the actual quotient system when the backend can
    build it.  Compact H uses the neighborhoods-of-H base instead: the local
    entropies at compact open subgroups containing H compute the quotient
    entropy without materializing a coset space.
    """
    if H.normal:
        try:
            return topological_entropy(sys.model.quotient(sys.endo, H.handle).system, probe).value
        except UnsupportedSubgroupError:
            if not H.compact:
                raise
    if not H.compact:
        raise UnsupportedSubgroupError("no quotient route for a non-compact non-normal subgroup")
    family = _open_subgroups_containing(sys, H, probe)
    if not family:
        raise UnresolvedError("no compact open subgroup containing H was found")
    best = ZERO_ENTROPY
    for k_h in family:
        v = cotraj.htop_local(sys, k_h)
        if best < v:
            best = v
    return best


def verify_addition_theorem(sys: TdlcSystem, H: ClosedSubgroupSpec, probe: int = 8) -> Verdict:
    """Exact additivity check h(phi) = h(phi|_H) + h(induced map on G/H).

    Preconditions (H closed, phi-stable, containing the kernel, normal or
    compact) are verified by the backend; a violated precondition, or an H
    the backend cannot restrict to or quotient by, yields SKIPPED with the
    reason, never a failure.  The three entropies are
    computed independently; nothing is derived from the other two.
    """
    if not H.phi_stable:
        return Verdict(SKIPPED, "H is not phi-stable")
    if not H.contains_kernel:
        return Verdict(SKIPPED, "H does not contain the kernel")
    if not (H.normal or H.compact):
        return Verdict(SKIPPED, "H is neither normal nor compact")
    try:
        total = topological_entropy(sys, probe)
        h_sub = topological_entropy(sys.model.restriction(sys.endo, H.handle), probe)
        h_quot = _quotient_entropy(sys, H, probe)
    except UnresolvedError as exc:
        return Verdict(INCONCLUSIVE, str(exc))
    except UnsupportedSubgroupError as exc:
        return Verdict(SKIPPED, str(exc))
    expected = entropy_add(h_sub.value, h_quot)
    details = {
        "h_total": str(total.value),
        "h_subgroup": str(h_sub.value),
        "h_quotient": str(h_quot),
    }
    if total.value == expected:
        return Verdict(PASS, "additivity holds exactly", details)
    return Verdict(FAIL, "additivity failed", details)


def verify_scale_entropy_link(sys: TdlcSystem, probe: int = 8, resolution: int = 8) -> Verdict:
    """Checks the three identities linking entropy and scale.

    (i) the entropy of the induced map on G/nub equals log of the scale;
    (ii) total entropy = log scale + entropy on nub; (iii) the three-way
    equivalence (entropy = log scale, nub trivial, entropy on nub zero) is
    internally consistent.
    """
    s = scale(sys, probe=probe)
    n = nub(sys, resolution=resolution, probe=probe)
    if not n.certified:
        return Verdict(INCONCLUSIVE, f"nub not certified: {n.reason}")
    try:
        spec = ClosedSubgroupSpec.verify(sys, n.handle)
        h_total = topological_entropy(sys, probe).value
        h_quot = _quotient_entropy(sys, spec, probe)
        h_nub = topological_entropy(sys.model.restriction(sys.endo, n.handle), probe).value
    except (UnresolvedError, UnsupportedSubgroupError) as exc:
        return Verdict(INCONCLUSIVE, str(exc))
    log_s = entropy_from_index(s.value)
    ok_i = h_quot == log_s
    ok_ii = h_total == entropy_add(log_s, h_nub)
    eq_a = h_total == log_s
    eq_b = is_trivial_handle(n.handle)
    eq_c = h_nub == ZERO_ENTROPY
    ok_iii = eq_a == eq_b == eq_c
    details = {
        "scale": str(s.value),
        "h_total": str(h_total),
        "h_on_quotient_by_nub": str(h_quot),
        "h_on_nub": str(h_nub),
        "equality_case": eq_a,
        "nub_trivial": eq_b,
        "nub_entropy_zero": eq_c,
    }
    if ok_i and ok_ii and ok_iii:
        return Verdict(PASS, "scale-entropy link holds", details)
    return Verdict(FAIL, "scale-entropy link failed", details)


def entropy_lower_bound_phiN(sys: TdlcSystem, candidates):
    """max log [phi(M) : M] over verified compact M with M <= phi(M).

    Candidates violating the precondition are rejected individually.  The
    result is a lower bound for the entropy; equality along the canonical
    family is probed in the verification suites.
    """
    best = ZERO_ENTROPY
    accepted = []
    rejected = []
    for m in candidates:
        if not m.is_compact:
            rejected.append((m, "not compact"))
            continue
        img = sys.model.image(sys.endo, m)
        if not sys.model.contains(img, m):
            rejected.append((m, "M is not inside phi(M)"))
            continue
        ix = sys.model.index(m, img)
        if not ix.is_finite:
            rejected.append((m, "[phi(M):M] is infinite"))
            continue
        accepted.append(m)
        v = entropy_from_index(ix)
        if best < v:
            best = v
    return best, accepted, rejected


def restriction_monotonicity(sys: TdlcSystem, H: ClosedSubgroupSpec, probe: int = 6) -> Verdict:
    """Entropy can only drop when passing to a closed invariant subgroup; an
    H the backend cannot restrict to yields SKIPPED with the reason."""
    if not H.phi_invariant:
        return Verdict(SKIPPED, "H is not phi-invariant")
    try:
        h_sub = topological_entropy(sys.model.restriction(sys.endo, H.handle), probe).value
        h_total = topological_entropy(sys, probe).value
    except UnresolvedError as exc:
        return Verdict(INCONCLUSIVE, str(exc))
    except UnsupportedSubgroupError as exc:
        return Verdict(SKIPPED, str(exc))
    if h_sub <= h_total:
        return Verdict(PASS, "restriction monotonicity holds",
                       {"h_sub": str(h_sub), "h_total": str(h_total)})
    return Verdict(FAIL, "restriction gained entropy",
                   {"h_sub": str(h_sub), "h_total": str(h_total)})


def quotient_table_equality(sys: TdlcSystem, H: ClosedSubgroupSpec, probe: int = 6) -> Verdict:
    """For compact invariant H, the local entropy at K containing H equals
    the local entropy of the induced map at the projected subgroup."""
    if not (H.compact and H.phi_invariant):
        return Verdict(SKIPPED, "needs a compact phi-invariant subgroup")
    if not H.normal:
        return Verdict(SKIPPED, "no quotient system for the projected table")
    try:
        q = sys.model.quotient(sys.endo, H.handle)
    except UnsupportedSubgroupError as exc:
        return Verdict(SKIPPED, str(exc))
    family = _open_subgroups_containing(sys, H, probe)
    checked = 0
    try:
        for k_h in family:
            lhs = cotraj.htop_local(sys, k_h)
            rhs = cotraj.htop_local(q.system, q.project(k_h))
            if lhs != rhs:
                return Verdict(FAIL, "projected local entropy differs",
                               {"at": k_h.describe()})
            checked += 1
    except UnresolvedError as exc:
        return Verdict(INCONCLUSIVE, str(exc))
    return Verdict(PASS, "projected entropy table matches", {"checked": checked})


def verify_product_formula(prod: TdlcSystem, probe: int = 6) -> Verdict:
    """Entropy adds and scale multiplies over a direct product, built by
    ``make_product`` from the two factor systems it keeps."""
    sys1, sys2 = prod.model.systems
    try:
        h1 = topological_entropy(sys1, probe).value
        h2 = topological_entropy(sys2, probe).value
        hp = topological_entropy(prod, probe).value
        s1 = scale(sys1, probe=probe).value
        s2 = scale(sys2, probe=probe).value
        sp = scale(prod, probe=probe).value
    except UnresolvedError as exc:
        return Verdict(INCONCLUSIVE, str(exc))
    details = {
        "h_product": str(hp), "h_sum": str(entropy_add(h1, h2)),
        "s_product": str(sp), "s_expected": str(s1 * s2),
    }
    if hp == entropy_add(h1, h2) and sp == s1 * s2:
        return Verdict(PASS, "product formula holds", details)
    return Verdict(FAIL, "product formula failed", details)
