"""p-adic linear backend: G = Q_p^d with a rational matrix endomorphism.

Closed subgroups are represented exactly as V + L with V a rational subspace
(the divisible, non-compact part) and L a finitely generated Z_(p)-module.
Only the valuation at p matters, so vectors are exact rationals (Fraction)
and the canonical form is a reduced-row-echelon basis for V plus a p-local
column Hermite form for L projected mod V; the eliminations behind both run
on Python ints in ``linalg``.  Every index is a pure p-power read off the
Hermite pivots: [U:V] = p^(sum a_t(V) - sum a_t(U)) when the first nonzero
entry of module column t is p^a_t.  ``zp_column_hnf`` returns those pivots
with the columns, and each handle carries them (``pivots``), so ``index``
reads them and takes no valuation.

Each handle also carries its dual description by constraints, ``dual`` =
(N, D): x lies in the subgroup iff N x = 0 and D x is p-integral, as in the
double-description method (Motzkin et al. 1953; Fukuda and Prodon 1996).
That set is the annihilator of the dual subgroup span(N) + Z_(p) D, and the
constraints of a canonical handle are exactly its annihilator, so one
elimination, ``_annihilator``, serves both directions.  A handle built from
generators runs it once, when it is made; ``from_constraints`` builds the
canonical handle W of span(N) + Z_(p) D, runs it once on W, and keeps W as
the result's dual.  Intersections and preimages stack the carried duals and
take their annihilator, which is exact, needs no iteration and converts no
operand again; the cotrajectory step U n phi^{-1}(V) (``meet_preimage``)
stacks U's dual with V's times the matrix and takes one annihilator.  The elimination is one rref of an augmented matrix
(``linalg.kernel_and_solutions``) that yields the kernel split and every
particular solution at once.  Membership and containment read the dual and
eliminate nothing: N and D are cleared to ints once per handle, and each
tested vector once.

The contracting and expanding parts of Q_p^d under the matrix come from the
Newton polygon of each irreducible factor over Q of its characteristic
polynomial; ``polyfactor`` finds those factors exactly in pure Python.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul
from typing import Optional

from ..core import (
    InvariantViolation,
    QuotientConstruction,
    TdlcSystem,
    UnresolvedError,
    UnsupportedSubgroupError,
    chain_fixpoint,
    check_model,
    field,
    record,
)
from ..exact import INFINITE_INDEX, IndexValue
from ..linalg import (
    _clear_denominators,
    _vp_int,
    charpoly,
    det,
    frac,
    frac_matrix,
    identity_matrix,
    kernel_and_solutions,
    mat_mul,
    mat_pow,
    mat_vec,
    pval,
    rational_kernel,
    rref,
    transpose,
    zp_column_hnf,
)
from ..polyfactor import factor_rational as _rational_factor_list

F = Fraction

# At most this many literal steps of the U_n and U_{-n} chains; a chain that
# has not stopped by then goes to the structural route.
CHAIN_STEP_CAP = 64

# Largest dimension a scenario may ask for; it bounds charpoly and the
# factorization behind the slope split.
MAX_DIM = 8


@record
class PadicSubgroup:
    """Canonical closed subgroup V + L of Q_p^d.

    ``subspace`` holds rref basis rows of V; ``module`` holds the p-local
    Hermite columns of L projected mod V, and ``pivots`` their (row, a_t)
    pairs as the Hermite form returned them: column t's first nonzero entry
    is p^a_t at that row.  ``dual`` is a constraint pair
    (N, D): x lies in the subgroup iff N x = 0 and D x is p-integral.  It is
    built with the handle and read by every intersection and preimage, which
    never convert an operand again, and by every membership and containment
    test.  Different handles of one subgroup may carry different duals, so
    ``dual`` takes no part in equality or hashing: handles are equal iff the
    subgroups are equal.  ``pivots`` follow from ``module`` and stay out of
    both too.
    """

    model: "PadicModel"
    subspace: tuple
    module: tuple
    dual: tuple = field(compare=False, repr=False)
    pivots: tuple = field(compare=False, repr=False)

    @property
    def is_compact(self) -> bool:
        return not self.subspace

    @property
    def is_open(self) -> bool:
        return len(self.subspace) + len(self.module) == self.model.dim

    @property
    def is_normal(self) -> bool:
        return True

    @cached_property
    def int_dual(self) -> tuple:
        """``dual`` cleared to ints: N's rows, and each row of D as (ints,
        v_p of its denominator)."""
        n_rows, d_rows = self.dual
        p = self.model.p
        return ([_clear_denominators(r)[0] for r in n_rows],
                [(r, _vp_int(den, p)) for r, den in map(_clear_denominators, d_rows)])

    def describe(self) -> str:
        if not self.subspace and not self.module:
            return "0"
        parts = []
        if self.subspace:
            rows = ";".join(",".join(str(x) for x in r) for r in self.subspace)
            parts.append(f"span({rows})")
        if self.module:
            cols = ";".join(",".join(str(x) for x in c) for c in self.module)
            parts.append(f"lattice({cols})")
        return "+".join(parts)


@record
class PadicEndo:
    """A continuous endomorphism of Q_p^d: multiplication by a rational matrix.

    Its spectral data are computed on first use and kept on the instance,
    outside equality and hashing, since they depend on the matrix alone.
    """

    model: "PadicModel"
    matrix: tuple

    @cached_property
    def kernel_trivial(self) -> bool:
        return self.model.dim == 0 or det(self.matrix) != 0

    @cached_property
    def char_poly(self) -> tuple:
        return charpoly(self.matrix)

    @cached_property
    def int_columns(self) -> tuple:
        """The matrix cleared to ints: the columns of den * matrix for the
        lcm den of its denominators, and v_p(den)."""
        den = lcm(*(x.denominator for row in self.matrix for x in row))
        cols = zip(*((x.numerator * (den // x.denominator) for x in row) for row in self.matrix))
        return tuple(cols), _vp_int(den, self.model.p)

    @cached_property
    def rational_factors(self) -> tuple:
        """The irreducible factors over Q of the characteristic polynomial,
        with multiplicity."""
        return tuple(_rational_factor_list(self.char_poly))

    @cached_property
    def newton_polygon(self) -> tuple:
        """Sorted (root valuation, multiplicity) pairs of the characteristic
        polynomial; the valuation of the zero roots is None."""
        return _root_valuations(self.char_poly, self.model.p)


class PadicModel:
    """The group Q_p^d together with exact lattice arithmetic."""

    kind = "padic"

    def __init__(self, p: int, dim: int, base_lattice=None, name=""):
        if p >= _MILLER_RABIN_BOUND:
            raise ValueError(f"prime {p} is too large (limit {_MILLER_RABIN_BOUND - 1})")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if dim < 0:
            raise ValueError("dimension must be >= 0")
        self.p = p
        self.dim = dim
        self.name = name or f"Q{p}^{dim}"
        if base_lattice is None:
            base_lattice = tuple(
                tuple(F(1) if i == j else F(0) for i in range(dim)) for j in range(dim)
            )
        self._base_cols = frac_matrix(base_lattice)

    # -- handle construction --------------------------------------------------

    def _canonical(self, subspace_rows, module_cols) -> tuple:
        """The rref rows of V, the Hermite columns of L projected mod V and
        their pivots."""
        rows = rref(frac_matrix(subspace_rows))[0] if subspace_rows else ()
        cols = [_reduce_mod_rows(rows, c) for c in module_cols]
        return (rows, *zp_column_hnf(cols, self.dim, self.p))

    def closed_subgroup(self, subspace_rows=(), module_cols=()) -> PadicSubgroup:
        rows, module, pivots = self._canonical(subspace_rows, module_cols)
        return PadicSubgroup(self, rows, module, _annihilator(rows, module, self.dim), pivots)

    def lattice(self, cols) -> PadicSubgroup:
        return self.closed_subgroup((), cols)

    def full_lattice(self) -> PadicSubgroup:
        return self.closed_subgroup((), self._base_cols)

    def trivial_subgroup(self) -> PadicSubgroup:
        return self.closed_subgroup((), ())

    def full_group(self) -> PadicSubgroup:
        return self.closed_subgroup(identity_matrix(self.dim), ())

    def scale_handle(self, U: PadicSubgroup, c: Fraction) -> PadicSubgroup:
        return self.closed_subgroup(U.subspace, [[frac(c) * x for x in col] for col in U.module])

    def base_element(self, k: int) -> PadicSubgroup:
        return self.scale_handle(self.full_lattice(), F(self.p) ** k)

    def endo(self, matrix) -> PadicEndo:
        m = frac_matrix(matrix)
        if len(m) != self.dim or any(len(r) != self.dim for r in m):
            raise ValueError("endomorphism matrix has wrong shape")
        return PadicEndo(self, m)

    def identity_endo(self) -> PadicEndo:
        return PadicEndo(self, identity_matrix(self.dim))

    def endo_power(self, phi: PadicEndo, n: int) -> PadicEndo:
        return PadicEndo(self, mat_pow(phi.matrix, n))

    def kernel_handle(self, phi: PadicEndo) -> PadicSubgroup:
        return self.closed_subgroup(rational_kernel(phi.matrix), ())

    # -- constraint form -------------------------------------------------------

    def from_constraints(self, n_rows, d_rows) -> PadicSubgroup:
        """The closed subgroup {x : N x = 0, D x p-integral}: the annihilator
        of the canonical handle W of span(N) + Z_(p) D, carrying W's rows and
        module as its dual."""
        w = self._canonical(n_rows, d_rows)[:2]
        rows, module, pivots = self._canonical(*_annihilator(*w, self.dim))
        return PadicSubgroup(self, rows, module, w, pivots)

    # -- membership, containment, index ---------------------------------------

    def member(self, U: PadicSubgroup, x, line: bool = False) -> bool:
        """x lies in U (N x = 0, D x p-integral), or with ``line`` the whole
        line Q_p x does (N x = 0, D x = 0).  With x = X / den and a row R /
        den_R of D, R x is p-integral iff v_p(R X) >= v_p(den_R) + v_p(den)."""
        n_rows, d_rows = U.int_dual
        xs, den = _clear_denominators(x)
        if any(sum(map(mul, r, xs)) for r in n_rows):
            return False
        e = _vp_int(den, self.p)
        for r, v in d_rows:
            y = sum(map(mul, r, xs))
            if y and (line or _vp_int(y, self.p) < v + e):
                return False
        return True

    def contains(self, U: PadicSubgroup, V: PadicSubgroup) -> bool:
        """V <= U"""
        check_model(self, U, V)
        return (all(self.member(U, row, True) for row in V.subspace)
                and all(self.member(U, col) for col in V.module))

    def index(self, V: PadicSubgroup, U: PadicSubgroup) -> IndexValue:
        """Exact [U:V]; requires V <= U; infinite when V is not open in U.

        Both modules are in column Hermite form over the same span, so they
        share pivot rows and the transition matrix is triangular with
        diagonal p**(a_t(V) - a_t(U)): [U:V] = p**(sum a(V) - sum a(U)),
        read off the carried pivots.
        """
        check_model(self, U, V)
        if not self.contains(U, V):
            raise ValueError("index requires V <= U")
        if V.subspace != U.subspace or len(V.module) < len(U.module):
            return INFINITE_INDEX
        if [i for i, _ in U.pivots] != [i for i, _ in V.pivots]:
            raise InvariantViolation("contained module has different Hermite pivot rows")
        v = sum(a for _, a in V.pivots) - sum(a for _, a in U.pivots)
        if v < 0:
            raise InvariantViolation("transition matrix is not p-integral")
        return IndexValue(self.p**v)

    # -- subgroup operations ----------------------------------------------------

    def intersect(self, U: PadicSubgroup, V: PadicSubgroup) -> PadicSubgroup:
        check_model(self, U, V)
        (nu, du), (nv, dv) = U.dual, V.dual
        return self.from_constraints(nu + nv, du + dv)

    def set_product(self, U: PadicSubgroup, V: PadicSubgroup) -> PadicSubgroup:
        check_model(self, U, V)
        return self.closed_subgroup(U.subspace + V.subspace, U.module + V.module)

    def image(self, phi: PadicEndo, U: PadicSubgroup) -> PadicSubgroup:
        check_model(self, U)
        a = phi.matrix
        return self.closed_subgroup(
            [mat_vec(a, row) for row in U.subspace],
            [mat_vec(a, col) for col in U.module],
        )

    def preimage(self, phi: PadicEndo, U: PadicSubgroup) -> PadicSubgroup:
        check_model(self, U)
        n, d = U.dual
        a = phi.matrix
        return self.from_constraints(mat_mul(n, a), mat_mul(d, a))

    def meet_preimage(self, U: PadicSubgroup, phi: PadicEndo, V: PadicSubgroup) -> PadicSubgroup:
        """U n phi^{-1}(V) in one ``from_constraints``: x lies in it iff U's
        constraints hold at x and V's at A x, so its dual is U's stacked with
        V's times A.  The product is taken on ints: with A = a / den and a row
        R / den_R of V's D, the row R a / p^(v_p(den_R) + v_p(den)) spans the
        same Z_(p)-line as R A."""
        check_model(self, U, V)
        (nu, du), (nv, dv) = U.dual, V.int_dual
        cols, e = phi.int_columns
        return self.from_constraints(
            nu + tuple(_row_times(r, cols) for r in nv),
            du + tuple(_row_times(r, cols, self.p ** (v + e)) for r, v in dv),
        )

    # -- specs, quotient, restriction -------------------------------------------

    def quotient(self, phi: PadicEndo, H: PadicSubgroup) -> QuotientConstruction:
        check_model(self, H)
        if H.module:
            raise UnsupportedSubgroupError(
                "can only quotient by a rational subspace in this backend"
            )
        a = phi.matrix
        _carried_images(a, H.subspace)
        piv = set(_pivot_columns(H.subspace))
        nonpiv = [j for j in range(self.dim) if j not in piv]
        dprime = len(nonpiv)

        def project_vec(x):
            rem = _reduce_mod_rows(H.subspace, x)
            return tuple(rem[j] for j in nonpiv)

        cols = []
        for j in nonpiv:
            unit = [F(1) if i == j else F(0) for i in range(self.dim)]
            cols.append(project_vec(mat_vec(a, unit)))
        qmatrix = transpose(cols) if cols else ()
        projected = tuple(c for c in map(project_vec, self._base_cols) if any(c))
        qmodel = PadicModel(self.p, dprime, projected, name=f"{self.name}/H")
        qendo = qmodel.endo(qmatrix)
        system = TdlcSystem(qmodel, qendo, name=f"{self.name}/H")

        def project(U: PadicSubgroup) -> PadicSubgroup:
            return qmodel.closed_subgroup(
                [project_vec(r) for r in U.subspace],
                [project_vec(c) for c in U.module],
            )

        return QuotientConstruction(system=system, project=project)

    def restriction(self, phi: PadicEndo, H: PadicSubgroup) -> TdlcSystem:
        check_model(self, H)
        if H.module:
            raise UnsupportedSubgroupError(
                "can only restrict to a rational subspace in this backend"
            )
        rows = H.subspace
        piv = _pivot_columns(rows)

        def coords(x) -> tuple:
            return tuple(frac(x[pc]) for pc in piv)

        cols = [coords(img) for img in _carried_images(phi.matrix, rows)]
        smatrix = transpose(cols) if cols else ()
        base_meet = self.intersect(self.full_lattice(), H)
        submodel = PadicModel(self.p, len(rows), tuple(coords(c) for c in base_meet.module),
                              name=f"{self.name}|H")
        return TdlcSystem(submodel, submodel.endo(smatrix), name=f"{self.name}|H")

    # -- Newton polygon oracle ---------------------------------------------------

    def entropy_exponent(self, phi: PadicEndo) -> int:
        """e with predicted local entropy log p^e: sum of -v over roots with v < 0."""
        e = F(0)
        for v, mult in phi.newton_polygon:
            if v is not None and v < 0:
                e += -v * mult
        if e.denominator != 1:
            raise InvariantViolation("total expanding valuation must be an integer")
        return int(e)

    # -- structural limits ---------------------------------------------------------

    def _slope_split(self, phi: PadicEndo, keep) -> Optional[tuple]:
        """Rows of the A-invariant rational subspace spanned by the generalized
        eigenspaces whose root valuations satisfy ``keep``; None if some
        rational factor mixes kept and dropped valuations."""
        poly = (F(1),)
        dim_kept = 0
        for coeffs, mult in phi.rational_factors:
            vals = _root_valuations(coeffs, self.p)
            flags = {keep(v) for v, _ in vals}
            if len(flags) > 1:
                return None
            if flags == {True}:
                for _ in range(mult):
                    poly = _poly_mul(poly, coeffs)
                dim_kept += (len(coeffs) - 1) * mult
        if dim_kept == 0:
            return ()
        if dim_kept == self.dim:
            return identity_matrix(self.dim)
        mat = _poly_eval_matrix(poly, phi.matrix)
        rows = rational_kernel(mat)
        if len(rows) != dim_kept:
            raise InvariantViolation("generalized eigenspace has unexpected dimension")
        return rows

    def limit_route(self, phi: PadicEndo, U: PadicSubgroup, forward: bool):
        """At most ``CHAIN_STEP_CAP`` literal steps, then ``_structural_core``.
        The forward chain is skipped (a bound of 0), and the certificate says
        why, when U is compact open, phi is invertible and some root has
        valuation > 0: then no step can be a fixpoint.
        """
        # Proof of the skip: with U compact open and phi invertible every U_n
        # is a full-rank lattice, and a fixpoint L = U n phi(L) has
        # phi^-1(L) <= L, so phi^-1 is integral on L and no root of phi has
        # valuation > 0.
        skip = forward and (
            U.is_compact and U.is_open and phi.kernel_trivial
            and any(v is not None and v > 0 for v, _ in phi.newton_polygon)
        )
        skipped = {"chain_skipped": "contracting root, no lattice fixpoint"} if skip else {}
        return (0 if skip else CHAIN_STEP_CAP,
                lambda chain: self._structural_core(phi, U, chain, forward, **skipped))

    def _structural_core(self, phi: PadicEndo, U: PadicSubgroup, chain, forward: bool,
                         **certificate):
        """The limit of the forward chain of U (U_+) or of its backward chain
        (U_-), solved where that chain stops: on the rational subspace of
        root valuations <= 0, or >= 0 with the zero roots.

        Returns (handle, steps, certificate): steps is where the restricted
        chain stopped, or the length of ``chain`` when the subspace is 0.
        """
        if forward:
            rows = self._slope_split(phi, lambda v: v is not None and v <= 0)
            mixed = "expanding and contracting root valuations"
        else:
            rows = self._slope_split(phi, lambda v: v is None or v >= 0)
            mixed = "bounded and unbounded forward directions"
        if rows is None:
            raise UnresolvedError(
                f"a rational factor of the characteristic polynomial mixes {mixed}"
            )
        certificate["invariant_subspace_dim"] = len(rows)
        if not rows:
            return self.trivial_subgroup(), len(chain), certificate
        # The rows span a phi-invariant subspace V, so the chain from U n V in
        # Q_p^d is the chain of phi restricted to V.
        start = self.intersect(U, self.closed_subgroup(rows, ()))
        move = self.image if forward else self.preimage
        n, restricted = chain_fixpoint(lambda h: self.intersect(start, move(phi, h)), start,
                                       4 * CHAIN_STEP_CAP + 16)
        if n is None:
            direction = "forward" if forward else "backward"
            raise UnresolvedError(f"restricted {direction} iteration did not stabilize in bound")
        certificate["restricted_fixpoint_at"] = n
        return restricted[n], n, certificate

    def alpha_stabilization(self, phi, U, minus_handles, alphas):
        """Certified once alpha reaches the Newton polygon prediction p^e:
        alpha is non-increasing and bounded below by its limit, so equality
        with the predicted limit pins the tail."""
        predicted = self.scale_oracle(phi)
        for n, a in enumerate(alphas):
            if a == predicted:
                return n, {"criterion": "newton polygon", "predicted_alpha": predicted}
            if a < predicted:
                raise InvariantViolation("alpha fell below the Newton polygon prediction")
        return None, {"criterion": "newton polygon", "predicted_alpha": predicted}

    def plus_plus_closure(self, phi, u_plus: PadicSubgroup, last, tidy_probe: int):
        """Closed when U_++ is U_+ with its expanding subspace filled: that
        span is forward invariant, and a power of phi up to ``tidy_probe``
        carries U_+'s expanding part over its 1/p-scaling."""
        v_neg = self._slope_split(phi, lambda v: v is not None and v < 0)
        if v_neg is None:
            raise UnresolvedError("no rational split between unit and expanding directions")
        neg_handle = self.closed_subgroup(v_neg, ())
        l_neg = self.intersect(u_plus, neg_handle)
        if len(l_neg.module) != len(v_neg):
            raise UnresolvedError("U+ does not meet the expanding subspace in full rank")
        candidate = self.closed_subgroup(
            tuple(u_plus.subspace) + tuple(v_neg), u_plus.module
        )
        if not self.contains(candidate, self.image(phi, candidate)):
            raise UnresolvedError("expanding-span candidate is not forward invariant")
        shrunk = self.scale_handle(l_neg, F(1, self.p))
        img = l_neg
        for k in range(1, tidy_probe + 1):
            img = self.image(phi, img)
            if self.contains(img, shrunk):
                break
        else:
            raise UnresolvedError("expanding directions were not covered within the probe")
        return True, {
            "method": "unit part frozen, expanding subspace filled",
            "expanding_dim": len(v_neg),
            "cover_power": k,
        }

    # -- dynamics hooks -------------------------------------------------------------

    def entropy_base_certificate(self, probed):
        values = {entry[2] for entry in probed}
        if len(values) == 1:
            return True, "scaling a lattice by p commutes with the endomorphism"
        raise InvariantViolation("local entropy varied across commensurable lattices")

    def scale_candidates(self, phi):
        """The full lattice and, when every slope has a rational eigenspace,
        the lattice cut into its pieces, one per root valuation."""
        out = [self.full_lattice()]
        vals = dict.fromkeys(v for v, _ in phi.newton_polygon)
        splits = [self._slope_split(phi, lambda w, v=v: w == v) for v in vals]
        if len(splits) > 1 and None not in splits:
            pieces = []
            for rows in splits:
                pieces.extend(self.intersect(out[0], self.closed_subgroup(rows, ())).module)
            out.append(self.lattice(pieces))
        return out

    def scale_oracle(self, phi):
        """The Newton-polygon scale p^e, the product of the roots' |lambda|_p > 1
        (Gloeckner 1998)."""
        return self.p ** self.entropy_exponent(phi)

    def nub_analysis(self, phi, minimizing, resolution, scale_value=None):
        witness = minimizing[0]
        # p-power scalings of a minimizing subgroup are minimizing with the
        # same index (scaling commutes with the matrix), and they intersect
        # down to 0.
        for k in range(1, resolution + 1):
            scaled = self.scale_handle(witness, F(self.p) ** k)
            a = self.image(phi, scaled)
            v = self.intersect(scaled, a)
            if scale_value is not None and self.index(v, a) != IndexValue(scale_value):
                raise InvariantViolation("scaled witness stopped being minimizing")
        return (
            self.trivial_subgroup(),
            True,
            "p-power scaling chain of the witness is minimizing and intersects to 0",
        )


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < _MILLER_RABIN_BOUND."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _annihilator(subspace, module, dim: int) -> tuple:
    """(N, D) for the canonical V + L: x lies in it iff N x = 0 and every
    entry of D x is p-integral.

    N spans the annihilator of V + span(L); D is the dual basis to the
    module columns (zero on V).  Both come from one elimination of the span
    rows against the unit vectors of the module columns.
    """
    span_rows = subspace + module
    if not span_rows:
        return identity_matrix(dim), ()
    k = len(span_rows)
    targets = [tuple(int(i == t) for i in range(k)) for t in range(len(subspace), k)]
    n_rows, d_rows = kernel_and_solutions(span_rows, targets)
    if None in d_rows:
        raise InvariantViolation("span basis lost full column rank")
    return n_rows, d_rows


def _row_times(row, cols, den: int = 1) -> tuple:
    """The int row times the matrix of int ``cols``, over ``den``."""
    out = [sum(map(mul, row, c)) for c in cols]
    return tuple(out) if den == 1 else tuple(F(x, den) for x in out)


def _first_nonzero(v) -> int:
    return next(i for i, x in enumerate(v) if x)


def _pivot_columns(rows) -> tuple:
    """Pivot columns of rows already in reduced row echelon form."""
    return tuple(_first_nonzero(row) for row in rows)


def _reduce_mod_rows(rows, x) -> list:
    """x minus its part along the rref ``rows``: zero at each of their pivots."""
    x = list(map(frac, x))
    for r in rows:
        f = x[_first_nonzero(r)]
        if f:
            x = [a - f * b for a, b in zip(x, r)]
    return x


def _carried_images(a, rows) -> list:
    """The images a.row of the rref ``rows``; ``UnsupportedSubgroupError``
    unless each lies in their span, that is unless a carries it into itself."""
    images = [mat_vec(a, row) for row in rows]
    # rows are in rref: the remainder vanishes iff the image lies in their span
    if any(any(_reduce_mod_rows(rows, img)) for img in images):
        raise UnsupportedSubgroupError("H is not carried into itself")
    return images


# -- polynomial helpers -------------------------------------------------------------


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _poly_eval_matrix(coeffs, a):
    d = len(a)
    ident = identity_matrix(d)
    out = tuple(tuple(coeffs[-1] * ident[i][j] for j in range(d)) for i in range(d))
    for c in reversed(coeffs[:-1]):
        out = mat_mul(out, a)
        out = tuple(
            tuple(out[i][j] + (c if i == j else 0) for j in range(d)) for i in range(d)
        )
    return out


def _root_valuations(coeffs, p: int):
    """Root valuations from the lower Newton polygon of (i, v_p(c_i)).

    Zero roots (infinite valuation) come from vanishing low coefficients and
    are reported as (None, multiplicity); finite valuations are the negatives
    of the hull slopes, each with the segment width as multiplicity.
    """
    d = len(coeffs) - 1
    points = [(i, pval(coeffs[i], p)) for i in range(d + 1) if coeffs[i] != 0]
    out = []
    first = points[0][0]
    if first > 0:
        out.append((None, first))
    hull = [points[0]]
    for pt in points[1:]:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = F(y2 - y1, x2 - x1)
        out.append((-slope, x2 - x1))
    return tuple(sorted(out, key=lambda t: (t[0] is None, t[0])))
