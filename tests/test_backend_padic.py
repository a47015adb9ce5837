import functools
import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from tdlc_entropy import cotraj
from tdlc_entropy.backends import padic
from tdlc_entropy.backends.catalog import catalog_scenarios
from tdlc_entropy.backends.finite import FiniteGroupModel
from tdlc_entropy.backends.padic import (
    PadicModel,
    PadicSubgroup,
    _poly_eval_matrix,
    _root_valuations,
)
from tdlc_entropy.core import TdlcSystem, UnresolvedError, UnsupportedSubgroupError, chain_fixpoint
from tdlc_entropy.linalg import (
    _clear_denominators,
    _vp_int,
    charpoly,
    det,
    identity_matrix,
    integer_kernel,
    kernel_and_solutions,
    mat_mul,
    mat_vec,
    pval,
    rational_kernel,
    transpose,
)
from tdlc_entropy.polyfactor import factor_rational
from tdlc_entropy.scenario import build_system
from tdlc_entropy.exact import INFINITE_INDEX, IndexValue

F = Fraction


def limit(model, phi, U, forward=True):
    """``cotraj.limit`` at (phi, U) on a new system, so nothing is read from a cache."""
    return cotraj.limit(TdlcSystem(model, phi), U, forward)


@pytest.fixture
def q2():
    return PadicModel(2, 1)


@pytest.fixture
def q2_2():
    return PadicModel(2, 2)


def brute_force_lattice_index(sub_scale, sup_scale):
    """[p^a Z_p : p^b Z_p] by counting residues, p = 2, b >= a."""
    return 2 ** (sub_scale - sup_scale)


def test_lattice_canonical_form(q2):
    a = q2.lattice([[4]])
    b = q2.lattice([[12]])  # 12 = 4 * 3, and 3 is a 2-adic unit
    assert a == b
    assert a != q2.lattice([[2]])


def test_intersect_containment_case(q2):
    z2 = q2.full_lattice()
    four = q2.lattice([[4]])
    assert q2.intersect(z2, four) == four


def test_index_examples(q2):
    z2 = q2.full_lattice()
    four = q2.lattice([[4]])
    assert q2.index(four, z2) == IndexValue(4)
    assert q2.index(four, z2) == IndexValue(brute_force_lattice_index(2, 0))
    assert q2.index(z2, z2) == IndexValue(1)
    with pytest.raises(ValueError):
        q2.index(z2, four)


def test_index_det_valuation_oracle(q2_2):
    # Smith elementary divisors of [[2,0],[1,4]] over Z_(2): index = 2^v(det) = 8
    lat = q2_2.lattice([[2, 1], [0, 4]])
    assert q2_2.index(lat, q2_2.full_lattice()) == IndexValue(8)


def test_infinite_index_for_lower_rank(q2_2):
    line = q2_2.lattice([[1, 0]])
    assert q2_2.index(line, q2_2.full_lattice()) == INFINITE_INDEX


def test_image_preimage_halving(q2):
    half = q2.endo([[F(1, 2)]])
    z2 = q2.full_lattice()
    assert q2.image(half, z2) == q2.lattice([[F(1, 2)]])
    assert q2.preimage(half, z2) == q2.lattice([[2]])
    ident = q2.identity_endo()
    assert q2.image(ident, z2) == z2
    assert q2.preimage(ident, z2) == z2


def test_preimage_of_singular_map_is_noncompact(q2_2):
    proj = q2_2.endo([[1, 0], [0, 0]])
    pre = q2_2.preimage(proj, q2_2.full_lattice())
    # {(x, y) : x integral} = Z_2 x Q_2
    assert not pre.is_compact
    assert pre.is_open
    assert q2_2.member(pre, (F(1), F(1, 64)))
    assert not q2_2.member(pre, (F(1, 2), F(0)))


def test_base_family_scaling(q2):
    assert q2.base_element(3) == q2.lattice([[8]])
    assert q2.contains(q2.base_element(1), q2.base_element(2))


def test_set_product_containment(q2):
    two = q2.lattice([[2]])
    z2 = q2.full_lattice()
    assert q2.set_product(two, z2) == z2


def test_member_and_contains(q2_2):
    lat = q2_2.lattice([[2, 0], [0, 1]])
    assert q2_2.member(lat, (F(2), F(5)))
    assert not q2_2.member(lat, (F(1), F(0)))
    assert q2_2.contains(q2_2.full_lattice(), lat)
    assert not q2_2.contains(lat, q2_2.full_lattice())


def test_whole_space_and_zero(q2_2):
    whole = q2_2.full_group()
    zero = q2_2.trivial_subgroup()
    assert whole.is_open and not whole.is_compact
    assert zero.is_compact and not zero.is_open
    assert q2_2.intersect(whole, q2_2.full_lattice()) == q2_2.full_lattice()
    assert q2_2.intersect(zero, q2_2.full_lattice()) == zero


def test_constraint_roundtrip_mixed(q2_2):
    # V + L with V the y-axis and L = 4Z_2 on the x-axis
    h = q2_2.closed_subgroup([[0, 1]], [[4, 0]])
    n, d = h.dual
    assert q2_2.from_constraints(n, d) == h


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_constraint_roundtrip_random(data):
    dim = data.draw(st.integers(1, 3))
    model = PadicModel(2, dim)
    n_sub = data.draw(st.integers(0, dim - 1)) if dim > 1 else 0
    n_mod = data.draw(st.integers(0, dim - n_sub))
    rnd = lambda: F(data.draw(st.integers(-4, 4)), 2 ** data.draw(st.integers(0, 2)))
    sub = [[rnd() for _ in range(dim)] for _ in range(n_sub)]
    mod = [[rnd() for _ in range(dim)] for _ in range(n_mod)]
    h = model.closed_subgroup(sub, mod)
    n, d = h.dual
    assert model.from_constraints(n, d) == h


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_intersect_agrees_with_membership(data):
    model = PadicModel(2, 2)
    rnd = lambda: F(data.draw(st.integers(-4, 4)), 2 ** data.draw(st.integers(0, 1)))
    u = model.lattice([[rnd(), rnd()], [rnd(), rnd()]])
    v = model.lattice([[rnd(), rnd()], [rnd(), rnd()]])
    w = model.intersect(u, v)
    assert model.contains(u, w) and model.contains(v, w)
    # spot membership: dyadic sample points agree
    for x in itertools.product([F(0), F(1), F(2), F(1, 2)], repeat=2):
        assert (model.member(u, x) and model.member(v, x)) == model.member(w, x)


def test_quotient_of_diag_by_axis():
    model = PadicModel(2, 2)
    phi = model.endo([[F(1, 2), 0], [0, F(1, 2)]])
    h = model.closed_subgroup([[1, 0]], [])
    q = model.quotient(phi, h)
    assert q.system.model.dim == 1
    assert q.system.endo.matrix == ((F(1, 2),),)
    assert q.project(model.full_lattice()) == q.system.model.full_lattice()


def test_quotient_by_compact_module_unsupported():
    model = PadicModel(2, 1)
    with pytest.raises(UnsupportedSubgroupError):
        model.quotient(model.identity_endo(), model.full_lattice())


# A restricted system (H, phi|H) works in coordinates on the rref rows of H:
# a vector x of H has coordinates x at the pivot columns, and coordinates t
# stand for sum t_i row_i.


def _restrict_to(model, H, sub, U):
    """U n H as a handle of the restricted model ``sub``."""
    piv = padic._pivot_columns(H.subspace)
    met = model.intersect(U, H)
    return sub.closed_subgroup([[r[c] for c in piv] for r in met.subspace],
                               [[v[c] for c in piv] for v in met.module])


def _embed(model, H, U):
    """A handle of the model restricted to H, as a handle of ``model``."""
    def vec(t):
        return [sum((c * row[i] for c, row in zip(t, H.subspace)), F(0))
                for i in range(model.dim)]
    return model.closed_subgroup([vec(r) for r in U.subspace], [vec(v) for v in U.module])


def test_restriction_to_axis():
    model = PadicModel(2, 2)
    phi = model.endo([[F(1, 2), 0], [0, 2]])
    h = model.closed_subgroup([[1, 0]], [])
    r = model.restriction(phi, h)
    assert r.model.dim == 1
    assert r.endo.matrix == ((F(1, 2),),)
    inside = _restrict_to(model, h, r.model, model.full_lattice())
    assert inside == r.model.full_lattice()
    assert _embed(model, h, inside) == model.lattice([[1, 0]])


@pytest.mark.parametrize("matrix, rows", [
    ([[F(1, 2), 0], [1, 2]], [[1, 0]]),  # (1, 0) |-> (1/2, 1)
    ([[0, 0, 1], [1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 1, 0]]),
])
def test_restriction_refuses_a_subspace_not_carried_into_itself(matrix, rows):
    model = PadicModel(3, len(matrix))
    with pytest.raises(UnsupportedSubgroupError, match="carried into itself"):
        model.restriction(model.endo(matrix), model.closed_subgroup(rows, []))


def test_newton_polygon_examples():
    q2 = PadicModel(2, 1)
    assert q2.endo([[F(1, 2)]]).newton_polygon == ((F(-1), 1),)
    assert q2.entropy_exponent(q2.endo([[F(1, 2)]])) == 1

    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    assert mixed.newton_polygon == ((F(-1), 1), (F(1), 1))
    assert m.entropy_exponent(mixed) == 1

    ident = m.identity_endo()
    assert ident.newton_polygon == ((F(0), 2),)
    assert m.entropy_exponent(ident) == 0

    jordan = m.endo([[F(1, 2), 1], [0, F(1, 2)]])
    assert m.entropy_exponent(jordan) == 2

    singular = m.endo([[F(1, 2), 0], [0, 0]])
    assert singular.newton_polygon == ((F(-1), 1), (None, 1))
    assert m.entropy_exponent(singular) == 1


def test_endo_computes_its_spectral_data_once(monkeypatch):
    """Op-count gate: one characteristic polynomial, one factorization and
    one determinant per endomorphism, however often its Newton polygon,
    slope split and forward core are asked for.  Recomputed on each call,
    one ``verify all`` made 432 charpoly calls on 8 matrices and 143
    factorizations."""
    calls = []
    for name in ("charpoly", "_rational_factor_list", "det"):
        def counted(*args, name=name, original=getattr(padic, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(padic, name, counted)
    m = PadicModel(2, 2)
    phi = m.endo([[2, 0], [0, F(1, 2)]])
    for _ in range(3):
        phi.newton_polygon
        m.scale_candidates(phi)
        limit(m, phi, m.full_lattice())
    assert sorted(calls) == ["_rational_factor_list", "charpoly", "det"]
    twin = m.endo([[2, 0], [0, F(1, 2)]])
    assert twin == phi and hash(twin) == hash(phi) and twin.newton_polygon == phi.newton_polygon


def test_plus_group_fixpoint_and_structural():
    q2 = PadicModel(2, 1)
    half = q2.endo([[F(1, 2)]])
    u = q2.full_lattice()
    handle, method, steps, cert = limit(q2, half, u)
    assert handle == u and method == "fixpoint"

    double = q2.endo([[2]])
    handle, method, steps, cert = limit(q2, double, u)
    assert handle == q2.trivial_subgroup() and method == "structural"

    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    handle, method, steps, cert = limit(m, mixed, m.full_lattice())
    assert handle == m.lattice([[0, 1]])
    assert method == "structural"


def test_minus_group_examples():
    q2 = PadicModel(2, 1)
    half = q2.endo([[F(1, 2)]])
    handle, method, _, _ = limit(q2, half, q2.full_lattice(), False)
    assert handle == q2.trivial_subgroup() and method == "structural"

    ident = q2.identity_endo()
    handle, method, _, _ = limit(q2, ident, q2.full_lattice(), False)
    assert handle == q2.full_lattice() and method == "fixpoint"

    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    handle, method, _, _ = limit(m, mixed, m.full_lattice(), False)
    assert handle == m.lattice([[1, 0]]) and method == "structural"


class NoPolygonEndo(padic.PadicEndo):
    newton_polygon = ()


class FullChainModel(PadicModel):
    """Reference: endomorphisms with an empty Newton polygon, so the forward
    chain is never skipped."""

    def endo(self, matrix):
        return NoPolygonEndo(self, super().endo(matrix).matrix)


def _forward_core(model, matrix, make_u):
    """U_+ of make_u(model) as (subspace, module, method), or "unresolved"."""
    try:
        handle, method, _, _ = limit(model, model.endo(matrix), make_u(model))
    except UnresolvedError:
        return "unresolved"
    return handle.subspace, handle.module, method


def assert_chain_skip_changes_nothing(p, matrix, make_u):
    dim = len(matrix)
    assert _forward_core(PadicModel(p, dim), matrix, make_u) == _forward_core(
        FullChainModel(p, dim), matrix, make_u
    )


def _base(k):
    return lambda model: model.base_element(k)


CHAIN_ENTRIES = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(1, 3), F(4),
                 F(5), F(1, 5)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_chain_skip_agrees_with_full_chain(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    dim = data.draw(st.integers(1, 3))
    matrix = [[data.draw(st.sampled_from(CHAIN_ENTRIES)) for _ in range(dim)]
              for _ in range(dim)]
    assert_chain_skip_changes_nothing(p, matrix, _base(data.draw(st.sampled_from([-1, 0, 1]))))


@pytest.mark.parametrize("p, matrix", [
    (2, [[2, 0], [0, 0]]),  # singular, contracting root: the forward chain still runs
    (2, [[F(1, 2), 0], [0, 0]]),  # singular, expanding root
    (2, [[0, 1], [0, 0]]),  # nilpotent
    (2, [[2, 0], [0, F(1, 2)]]),  # mixed slopes, rational split
    (2, [[0, -3], [1, F(-1, 2)]]),  # mixed slopes, irreducible: unresolved
    (2, [[0, 2], [1, 0]]),  # x^2 - 2: both roots of valuation 1/2
    (3, [[3, 1], [0, F(1, 3)]]),
    (2, [[F(1, 2), 1], [0, F(1, 2)]]),  # Jordan block
    (5, [[F(1, 5), 1, 0], [0, 5, 0], [0, 0, 1]]),
])
def test_chain_skip_agrees_on_singular_and_mixed_maps(p, matrix):
    for k in (-1, 0, 1):
        assert_chain_skip_changes_nothing(p, matrix, _base(k))


def closed_forms_agree_with_fixpoints(module, model, phi, U):
    """Where a limit's literal chain reaches a fixpoint, its closed form,
    forced by a ``CHAIN_STEP_CAP`` of 0, gives the same subgroup.  Returns the
    directions compared, True for U_+; a closed form that is unresolved is not
    compared."""
    compared = []
    for forward in (True, False):
        try:
            handle, method, _, _ = limit(model, phi, U, forward)
        except UnresolvedError:
            continue
        if method != "fixpoint":
            continue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, "CHAIN_STEP_CAP", 0)
            try:
                forced, method, _, _ = limit(model, phi, U, forward)
            except UnresolvedError:
                continue
        assert (forced, method) == (handle, "structural"), forward
        compared.append(forward)
    return compared


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_closed_forms_agree_with_literal_chains(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    dim = data.draw(st.integers(1, 3))
    matrix = [[data.draw(st.sampled_from(CHAIN_ENTRIES)) for _ in range(dim)]
              for _ in range(dim)]
    m = PadicModel(p, dim)
    u = m.base_element(data.draw(st.sampled_from([-1, 0, 1])))
    closed_forms_agree_with_fixpoints(padic, m, m.endo(matrix), u)


@pytest.mark.parametrize("make_u", [
    lambda m: m.full_group(),
    lambda m: m.closed_subgroup([[1, 0]], [[0, 1]]),
    lambda m: m.lattice([[1, 0]]),
    lambda m: m.lattice([[0, 1]]),
])
def test_chain_skip_needs_a_compact_open_subgroup(make_u):
    """The chain of a non-compact or non-open U can stop despite a contracting root."""
    assert_chain_skip_changes_nothing(2, [[2, 0], [0, F(1, 2)]], make_u)


FILLED = "unit part frozen, expanding subspace filled"


def test_plus_plus_closure_expanding():
    q2 = PadicModel(2, 1)
    half = q2.endo([[F(1, 2)]])
    u_plus = q2.full_lattice()
    last = q2.image(q2.endo_power(half, 9), u_plus)
    closed, cert = q2.plus_plus_closure(half, u_plus, last, 8)
    assert closed is True
    assert cert == {"method": FILLED, "expanding_dim": 1, "cover_power": 1}

    # the identity fixes U+, so the image chain stops before the hook is asked
    res = cotraj.is_tidy_below(TdlcSystem(q2, q2.identity_endo()), q2.full_lattice(), 8)
    assert res.certificate["closed"] is True
    assert res.certificate["method"] == "image chain stabilized"


def test_plus_plus_mixed_unit_directions():
    m = PadicModel(2, 2)
    phi = m.endo([[1, 0], [0, F(1, 2)]])
    u_plus, *_ = limit(m, phi, m.full_lattice())
    assert u_plus == m.full_lattice()
    # Z_2 x Q_2: frozen unit axis plus a filled expanding axis
    last = m.image(m.endo_power(phi, 9), u_plus)
    closed, cert = m.plus_plus_closure(phi, u_plus, last, 8)
    assert closed is True
    assert cert == {"method": FILLED, "expanding_dim": 1, "cover_power": 1}


def test_scale_candidates_adapted():
    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    cands = m.scale_candidates(mixed)
    assert m.full_lattice() in cands


def _draw_mixed_handle(data, model):
    """A random V + L: a few subspace rows and module columns with p-power denominators."""
    p, dim = model.p, model.dim
    rnd = lambda: F(data.draw(st.integers(-6, 6)), p ** data.draw(st.integers(0, 2)))
    n_sub = data.draw(st.integers(0, dim - 1))
    n_mod = data.draw(st.integers(0, dim))
    sub = [[rnd() for _ in range(dim)] for _ in range(n_sub)]
    mod = [[rnd() for _ in range(dim)] for _ in range(n_mod)]
    return model.closed_subgroup(sub, mod)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_constraint_roundtrip_random_primes(data):
    model = PadicModel(data.draw(st.sampled_from([2, 3, 5, 7])), data.draw(st.integers(1, 3)))
    h = _draw_mixed_handle(data, model)
    assert model.from_constraints(*h.dual) == h


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_intersect_of_mixed_handles_agrees_with_membership(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    model = PadicModel(p, 2)
    u = _draw_mixed_handle(data, model)
    v = _draw_mixed_handle(data, model)
    w = model.intersect(u, v)
    assert model.contains(u, w) and model.contains(v, w)
    samples = [F(0), F(1), F(p), F(1, p), F(-3, p * p), F(5)]
    for x in itertools.product(samples, repeat=2):
        assert (model.member(u, x) and model.member(v, x)) == model.member(w, x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_meet_preimage_agrees_with_intersect_of_the_preimage(data):
    """U n phi^{-1}(V) in one constraint solve is the meet of U with the
    preimage, dual included, for non-integral and singular matrices and
    handles with a subspace part."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    dim = data.draw(st.integers(1, 4))
    model = PadicModel(p, dim)
    entries = st.sampled_from([F(0), F(1), F(-1), F(p), F(1, p), F(-3, p * p), F(2, 3), F(7, 5)])
    matrix = [[data.draw(entries) for _ in range(dim)] for _ in range(dim)]
    if data.draw(st.booleans()):
        # singular: the last row is a multiple of the first (or zero in dim 1)
        c = data.draw(entries)
        matrix[-1] = [c * x for x in matrix[0]] if dim > 1 else [F(0)]
    phi = model.endo(matrix)
    u, v = _draw_mixed_handle(data, model), _draw_mixed_handle(data, model)
    got = model.meet_preimage(u, phi, v)
    expected = model.intersect(u, model.preimage(phi, v))
    assert got == expected
    assert got.dual == expected.dual


# Fraction references for membership, containment and index: coefficients by
# back-substitution over the module columns, and the index as the p-adic
# valuation of the transition determinant.


def _ref_reduce_mod_subspace(U, x):
    x = [F(v) for v in x]
    for row in U.subspace:
        pc = next(i for i, v in enumerate(row) if v)
        f = x[pc]
        if f:
            x = [a - f * b for a, b in zip(x, row)]
    return x


def _ref_module_coefficients(U, x):
    """Coefficients of x over U.module, or None if x is outside its span."""
    x = list(x)
    coeffs = []
    for col in U.module:
        i = next(i for i, v in enumerate(col) if v)
        c = x[i] / col[i]
        coeffs.append(c)
        x = [a - c * b for a, b in zip(x, col)]
    return None if any(x) else coeffs


def ref_member(U, x):
    coeffs = _ref_module_coefficients(U, _ref_reduce_mod_subspace(U, x))
    return coeffs is not None and all(c == 0 or pval(c, U.model.p) >= 0 for c in coeffs)


def ref_contains(U, V):
    return (all(not any(_ref_reduce_mod_subspace(U, row)) for row in V.subspace)
            and all(ref_member(U, col) for col in V.module))


def ref_index(V, U):
    if not ref_contains(U, V):
        raise ValueError("index requires V <= U")
    if V.subspace != U.subspace or len(V.module) < len(U.module):
        return INFINITE_INDEX
    if not U.module:
        return IndexValue(1)
    x_cols = [_ref_module_coefficients(U, col) for col in V.module]
    return IndexValue(U.model.p ** pval(det(transpose(x_cols)), U.model.p))


def assert_index_agrees(model, V, U):
    try:
        expected = ref_index(V, U)
    except ValueError:
        with pytest.raises(ValueError):
            model.index(V, U)
        return False
    assert model.index(V, U) == expected
    return True


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_contains_and_index_agree_with_fraction_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    model = PadicModel(p, data.draw(st.integers(1, 4)))
    u = _draw_mixed_handle(data, model)
    w = _draw_mixed_handle(data, model)
    scaled = model.scale_handle(u, F(p) ** data.draw(st.integers(1, 2)))
    pairs = [(u, model.intersect(u, w)), (model.set_product(u, w), w),
             (u, scaled), (scaled, u), (u, w), (w, u)]
    for big, small in pairs:
        assert model.contains(big, small) == ref_contains(big, small)
        assert_index_agrees(model, small, big)
    samples = [F(0), F(1), F(p), F(1, p), F(-3, p * p), F(5)]
    for _ in range(4):
        x = [data.draw(st.sampled_from(samples)) for _ in range(model.dim)]
        assert model.member(u, x) == ref_member(u, x)
        assert model.member(w, x) == ref_member(w, x)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_index_reference_cases(p):
    """Finite, infinite and refused indices on fixed handles, against the reference."""
    model = PadicModel(p, 3)
    lat = model.lattice([[1, 2, 0], [0, p, 1], [F(1, p), 0, 3]])
    plane = model.closed_subgroup([[1, 0, 1]], [[0, F(1, p), 0]])
    cases = [
        (model.scale_handle(lat, F(p) ** 2), lat, True),
        (model.intersect(lat, plane), lat, True),
        (model.intersect(lat, model.lattice([[p, 0, 0], [0, 1, 0]])), lat, True),
        (lat, model.set_product(lat, plane), True),
        (model.scale_handle(plane, F(p)), plane, True),
        (lat, model.scale_handle(lat, F(p)), False),
        (plane, lat, False),
    ]
    for small, big, contained in cases:
        assert model.contains(big, small) == ref_contains(big, small) == contained
        assert assert_index_agrees(model, small, big) == contained
    assert model.index(model.intersect(lat, plane), lat) == INFINITE_INDEX
    assert model.index(lat, model.set_product(lat, plane)) == INFINITE_INDEX
    assert model.index(model.scale_handle(lat, F(p) ** 2), lat) == IndexValue(p**6)
    assert model.index(model.scale_handle(plane, F(p)), plane) == IndexValue(p)


def test_primality_check_without_trial_division():
    assert PadicModel(2**61 - 1, 1).p == 2**61 - 1
    # 561 and 56052361 = 211 * 421 * 631 are Carmichael numbers (Fermat
    # pseudoprimes to every base prime to them); 3215031751 is a strong
    # pseudoprime to the bases 2, 3, 5, 7 and 318665857834031151167461 to the
    # first 12 primes.
    for composite in (561, 56052361, 3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            PadicModel(composite, 1)
    # Beyond the bound where the fixed Miller-Rabin bases are exact; the
    # product is composite and 2**89 - 1 is prime, and both are refused.
    for large in ((2**31 - 1) * (2**61 - 1), 2**89 - 1):
        with pytest.raises(ValueError, match="too large"):
            PadicModel(large, 1)


# from_constraints and scale_candidates checked without the round trip: once
# against the definition of the constraint set, once against the earlier
# implementations kept here as references.


def _draw_rows(data, p, dim, max_rows):
    """Rows with p-power denominators; some are zero or combinations of earlier rows."""
    rnd = lambda: F(data.draw(st.integers(-6, 6)), p ** data.draw(st.integers(0, 2)))
    rows = []
    for _ in range(data.draw(st.integers(0, max_rows))):
        kind = data.draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero":
            rows.append([F(0)] * dim)
        elif kind == "combination" and rows:
            a, b = data.draw(st.sampled_from(rows)), data.draw(st.sampled_from(rows))
            c = rnd()
            rows.append([x + c * y for x, y in zip(a, b)])
        else:
            rows.append([rnd() for _ in range(dim)])
    return rows


def _dot(row, x):
    return sum(a * b for a, b in zip(row, x))


def _integral(y, p):
    return y == 0 or pval(y, p) >= 0


def test_from_constraints_matches_the_definition():
    """x lies in from_constraints(N, D) iff N x = 0 and D x is p-integral."""
    outcomes = set()

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        dim = data.draw(st.integers(1, 3))
        model = PadicModel(p, dim)
        n_rows = _draw_rows(data, p, dim, dim)
        d_rows = _draw_rows(data, p, dim, dim + 1)
        h = model.from_constraints(n_rows, d_rows)
        coeff = st.sampled_from([F(0), F(1), F(-2), F(p), F(1, p), F(3, p * p)])
        gens = list(h.subspace) + list(h.module)
        for _ in range(6):
            x = [F(0)] * dim
            for g in gens:
                c = data.draw(coeff)
                x = [a + c * b for a, b in zip(x, g)]
            i = data.draw(st.integers(0, dim - 1))
            x[i] += data.draw(st.sampled_from([F(0), F(0), F(1), F(1, p)]))
            expected = (all(_dot(r, x) == 0 for r in n_rows)
                        and all(_integral(_dot(r, x), p) for r in d_rows))
            assert model.member(h, x) == expected
            outcomes.add(expected)

    check()
    assert outcomes == {True, False}


def _ref_from_constraints(model, n_rows, d_rows):
    """The closed subgroup {x : N x = 0, D x p-integral}, built from two
    rational kernels, an integer kernel and one solve."""
    v0 = rational_kernel(n_rows) if n_rows else identity_matrix(model.dim)
    if not v0:
        return model.trivial_subgroup()
    if not d_rows:
        return model.closed_subgroup(v0, ())
    if n_rows:
        v0t = transpose(v0)
        e = mat_mul(d_rows, v0t)
    else:
        e = d_rows
    m = len(e)
    cuts = rational_kernel(transpose(e))
    if len(cuts) == m:
        gens = []
    elif cuts:
        gens = integer_kernel(cuts)
    else:
        gens = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    kern, sols = kernel_and_solutions(e, gens)
    assert None not in sols
    if n_rows:
        kern = [mat_vec(v0t, t) for t in kern]
        sols = [mat_vec(v0t, t) for t in sols]
    return model.closed_subgroup(kern, sols)


def _ref_poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _ref_scale_candidates(model, phi):
    """The full lattice and, when every rational factor of the characteristic
    polynomial has a single root valuation and there are at least two, the
    lattice cut along the generalized eigenspaces grouped by valuation."""
    full = model.full_lattice()
    groups = {}
    for coeffs, mult in factor_rational(charpoly(phi.matrix)):
        vals = _root_valuations(coeffs, model.p)
        if len({v for v, _ in vals}) != 1:
            return [full]
        poly = groups.get(vals[0][0], (F(1),))
        for _ in range(mult):
            poly = _ref_poly_mul(poly, coeffs)
        groups[vals[0][0]] = poly
    if len(groups) < 2:
        return [full]
    pieces = []
    for v, poly in sorted(groups.items(), key=lambda kv: (kv[0] is None, kv[0])):
        rows = rational_kernel(_poly_eval_matrix(poly, phi.matrix))
        nf, df = full.dual
        nv, dv = model.closed_subgroup(rows, ()).dual
        pieces.extend(_ref_from_constraints(model, nf + nv, df + dv).module)
    return [full, model.lattice(pieces)]


_ENTRIES = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-1, 2), F(3), F(1, 3), F(4),
            F(1, 4), F(5), F(1, 5)]


def _draw_matrix(data, p, dim):
    """A random matrix, or P diag(p^k) P^-1 with P unipotent so slopes split."""
    if data.draw(st.booleans()):
        return [[data.draw(st.sampled_from(_ENTRIES)) for _ in range(dim)] for _ in range(dim)]
    diag = [F(p) ** data.draw(st.integers(-1, 1)) * data.draw(st.sampled_from([1, -1, 3]))
            for _ in range(dim)]
    upper = [[F(int(i == j)) if i >= j else data.draw(st.sampled_from(_ENTRIES))
              for j in range(dim)] for i in range(dim)]
    inv = [[F(int(i == j)) for j in range(dim)] for i in range(dim)]
    for i in reversed(range(dim)):  # back substitution: upper @ inv = I
        for j in range(dim):
            inv[i][j] = F(int(i == j)) - sum(upper[i][k] * inv[k][j] for k in range(i + 1, dim))
    return mat_mul(mat_mul(upper, [[diag[i] if i == j else F(0) for j in range(dim)]
                                   for i in range(dim)]), inv)


def test_from_constraints_and_scale_candidates_match_references():
    split = []

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        dim = data.draw(st.integers(1, 4))
        model = PadicModel(p, dim)
        n_rows = _draw_rows(data, p, dim, dim)
        d_rows = _draw_rows(data, p, dim, dim + 1)
        assert model.from_constraints(n_rows, d_rows) == _ref_from_constraints(
            model, n_rows, d_rows)
        phi = model.endo(_draw_matrix(data, p, dim))
        expected = _ref_scale_candidates(model, phi)
        assert model.scale_candidates(phi) == expected
        split.append(len(expected) == 2)

    check()
    assert any(split)


# Every handle carries its dual (N, D): from_constraints(N, D) rebuilds the
# handle, and membership follows the definition N x = 0, D x p-integral.


def _handles_by_route(data, model):
    """(route, model, handle) for every way a p-adic handle is made."""
    p, dim = model.p, model.dim
    phi = model.endo(_draw_matrix(data, p, dim))
    u, v = _draw_mixed_handle(data, model), _draw_mixed_handle(data, model)
    out = [
        ("closed_subgroup", model, u),
        ("lattice", model, model.lattice(_draw_rows(data, p, dim, dim + 1))),
        ("from_constraints", model, model.from_constraints(
            _draw_rows(data, p, dim, dim), _draw_rows(data, p, dim, dim + 1))),
        ("intersect", model, model.intersect(u, v)),
        ("preimage", model, model.preimage(phi, u)),
        ("image", model, model.image(phi, u)),
        ("set_product", model, model.set_product(u, v)),
        ("scale_handle", model, model.scale_handle(
            u, data.draw(st.sampled_from([F(p), F(1, p), F(3), F(-p * p)])))),
    ]
    # Subspaces carried into themselves: the kernel, the whole space and the
    # slope subspaces that split over Q.
    invariant = [model.kernel_handle(phi), model.full_group()]
    for keep in (lambda w: w is not None and w <= 0, lambda w: w is None or w >= 0):
        rows = model._slope_split(phi, keep)
        if rows is not None:
            invariant.append(model.closed_subgroup(rows, ()))
    h = data.draw(st.sampled_from(invariant))
    rest = model.restriction(phi, h)
    sub, sub_endo = rest.model, rest.endo
    restricted = _restrict_to(model, h, sub, u)
    out += [
        ("restriction", sub, restricted),
        ("restriction preimage", sub, sub.preimage(sub_endo, restricted)),
        ("restriction intersect", sub, sub.intersect(restricted, sub.base_element(1))),
        ("embed", model, _embed(model, h, restricted)),
    ]
    q = model.quotient(phi, h)
    quo, quo_endo = q.system.model, q.system.endo
    projected = q.project(u)
    out += [
        ("quotient", quo, projected),
        ("quotient preimage", quo, quo.preimage(quo_endo, projected)),
        ("quotient intersect", quo, quo.intersect(projected, quo.base_element(-1))),
    ]
    return out


def test_every_handle_carries_its_dual():
    outcomes = set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        model = PadicModel(p, data.draw(st.integers(1, 3)))
        coeff = st.sampled_from([F(0), F(1), F(-2), F(p), F(1, p), F(3, p * p)])
        for route, m, h in _handles_by_route(data, model):
            assert h.model is m
            n_rows, d_rows = h.dual
            assert m.from_constraints(n_rows, d_rows) == h, route
            gens = list(h.subspace) + list(h.module)
            for _ in range(3 if m.dim else 0):
                x = [F(0)] * m.dim
                for g in gens:
                    c = data.draw(coeff)
                    x = [a + c * b for a, b in zip(x, g)]
                x[data.draw(st.integers(0, m.dim - 1))] += data.draw(
                    st.sampled_from([F(0), F(1), F(1, p)]))
                expected = (all(_dot(r, x) == 0 for r in n_rows)
                            and all(_integral(_dot(r, x), p) for r in d_rows))
                assert m.member(h, x) == expected, route
                outcomes.add(expected)

    check()
    assert outcomes == {True, False}


def test_dual_takes_no_part_in_equality():
    model = PadicModel(3, 2)
    h = model.closed_subgroup([[1, 3]], [[F(1, 3), 0]])
    rebuilt = model.from_constraints(*h.dual)
    assert rebuilt.dual != h.dual
    n_rows, d_rows = h.dual
    reordered = PadicSubgroup(model, h.subspace, h.module,
                              (n_rows, tuple(reversed(d_rows)) + (d_rows[0],)), h.pivots)
    for other in (rebuilt, reordered):
        assert other == h and hash(other) == hash(h)
    assert len({h, rebuilt, reordered}) == 1


# Each handle carries the Hermite pivots that ``zp_column_hnf`` returned; the
# pass that read them off the module columns again is kept here as a reference.


def ref_hermite_pivots(module, p):
    """Pivot rows of a column Hermite form and the sum of their exponents a_t,
    where the first nonzero entry of column t is p**a_t."""
    rows = tuple(next(i for i, x in enumerate(col) if x) for col in module)
    return rows, sum(pval(col[i], p) for col, i in zip(module, rows))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_carried_pivots_are_the_hermite_pivots(data):
    """Every route that makes a handle stores the pivots the reference reads
    off its module, and ``index`` reads p**(sum a(V) - sum a(U)) from them,
    for p in {2, 3, 5}, dim 0 to 4 and handles with a subspace part."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    dim = data.draw(st.integers(0, 4))
    model = PadicModel(p, dim)
    phi = model.endo(_draw_matrix(data, p, dim))
    u = model.closed_subgroup(_draw_rows(data, p, dim, max(dim - 1, 0)),
                              _draw_rows(data, p, dim, dim + 1))
    v = model.from_constraints(_draw_rows(data, p, dim, dim), _draw_rows(data, p, dim, dim + 1))
    handles = {
        "closed_subgroup": u,
        "from_constraints": v,
        "intersect": model.intersect(u, v),
        "image": model.image(phi, u),
        "meet_preimage": model.meet_preimage(u, phi, v),
        "scale_handle": model.scale_handle(u, data.draw(st.sampled_from([F(p), F(1, p), F(-3)]))),
        "base_element": model.base_element(data.draw(st.integers(-2, 2))),
    }
    for route, h in handles.items():
        rows, total = ref_hermite_pivots(h.module, p)
        assert tuple(i for i, _ in h.pivots) == rows, route
        assert sum(a for _, a in h.pivots) == total, route
        assert all(h.module[t][i] == F(p) ** a for t, (i, a) in enumerate(h.pivots)), route
    for big, small in ((u, handles["intersect"]), (v, handles["intersect"]),
                       (u, handles["meet_preimage"])):
        if small.subspace == big.subspace and len(small.module) == len(big.module):
            exponent = ref_hermite_pivots(small.module, p)[1] - ref_hermite_pivots(big.module, p)[1]
            assert model.index(small, big) == IndexValue(p ** exponent)


def test_index_takes_no_valuation(monkeypatch):
    """Op-count gate: ``index`` reads the carried pivots and calls no
    ``pval``.  Re-reading them made 11,740 ``pval`` calls over ten
    cotraj_tables decks."""
    calls = []
    monkeypatch.setattr(padic, "pval", lambda *a: calls.append(a) or pval(*a))
    model = PadicModel(3, 3)
    phi = model.endo([[F(1, 3), 1, 0], [0, 3, F(2, 9)], [1, 0, 9]])
    u = model.full_lattice()
    chain = cotraj.minus_chain(TdlcSystem(model, phi), u, 6)
    indices = [model.index(h, u) for h in chain]
    assert indices[-1].value > 1 and calls == []


# Membership and containment read the dual; the fraction-free elimination
# against the primal basis that they used before is kept here as a reference.


def _ref_int_basis(U):
    """U's basis cleared to ints, as elimination steps (ints, pivot, shift):
    subspace rows first with shift None, then module columns with shift
    v_p(den) - v_p(ints[pivot])."""
    p = U.model.p
    steps = []
    for row in U.subspace:
        r, _ = _clear_denominators(row)
        steps.append((r, next(i for i, x in enumerate(r) if x), None))
    for col in U.module:
        c, den = _clear_denominators(col)
        i = next(i for i, x in enumerate(c) if x)
        steps.append((c, i, _vp_int(den, p) - _vp_int(c[i], p)))
    return steps


def _ref_reduce(steps, x, p):
    """Eliminate x against the steps fraction-free: None if x is outside
    V + span(L), else whether its module coefficients are p-integral."""
    xs, den = _clear_denominators(x)
    e = _vp_int(den, p)
    integral = True
    for b, i, shift in steps:
        f = xs[i]
        if not f:
            continue
        if shift is not None and _vp_int(f, p) + shift < e:
            integral = False
        g = gcd(b[i], f)
        a, m = b[i] // g, f // g
        xs = [a * u - m * w for u, w in zip(xs, b)]
        e += _vp_int(a, p)
        g = gcd(*xs)
        if g > 1:
            xs = [u // g for u in xs]
            e -= _vp_int(g, p)
    if any(xs):
        return None
    return integral


def elimination_member(U, x):
    return bool(_ref_reduce(_ref_int_basis(U), x, U.model.p))


def elimination_contains(U, V):
    steps = _ref_int_basis(U)
    rows = steps[: len(U.subspace)]  # a line lies in V + L only if it lies in V
    return (all(_ref_reduce(rows, row, U.model.p) is not None for row in V.subspace)
            and all(_ref_reduce(steps, col, U.model.p) for col in V.module))


def test_membership_agrees_with_elimination_reference():
    outcomes = {"member": set(), "contains": set()}

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def check(data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        dim = data.draw(st.integers(1, 4))
        model = PadicModel(p, dim)
        phi = model.endo(_draw_matrix(data, p, dim))
        u = _draw_mixed_handle(data, model)
        lat = model.lattice(_draw_rows(data, p, dim, dim + 1))
        handles = [
            u, lat,
            model.closed_subgroup(lat.module, ()),  # the span of a lattice: lines, not points
            model.intersect(u, lat),
            model.preimage(phi, u),
            model.scale_handle(lat, data.draw(st.sampled_from([F(p), F(1, p), F(-p * p)]))),
            model.kernel_handle(phi),
            model.from_constraints(_draw_rows(data, p, dim, dim), _draw_rows(data, p, dim, dim + 1)),
        ]
        coeff = st.sampled_from([F(0), F(1), F(-2), F(p), F(1, p), F(3, p * p)])
        for h in handles:
            for v in handles:
                expected = elimination_contains(h, v)
                assert model.contains(h, v) == expected
                outcomes["contains"].add(expected)
            vectors = [[F(0)] * dim]
            for _ in range(3):
                x = [F(0)] * dim
                for g in h.subspace + h.module:
                    c = data.draw(coeff)
                    x = [a + c * b for a, b in zip(x, g)]
                x[data.draw(st.integers(0, dim - 1))] += data.draw(
                    st.sampled_from([F(0), F(1), F(1, p), F(2, p ** 3)]))
                vectors.append(x)
            for x in vectors:
                expected = elimination_member(h, x)
                assert model.member(h, x) == expected
                outcomes["member"].add(expected)

    check()
    assert outcomes == {"member": {True, False}, "contains": {True, False}}


# The structural limit iterates U n V in Q_p^d; the route it replaced ran the
# chain in coordinates on V through ``restriction`` and embedded the result.


def ref_structural_core(model, phi, U, chain, forward):
    if forward:
        rows = model._slope_split(phi, lambda v: v is not None and v <= 0)
    else:
        rows = model._slope_split(phi, lambda v: v is None or v >= 0)
    if rows is None:
        raise UnresolvedError("a rational factor mixes slopes")
    certificate = {"invariant_subspace_dim": len(rows)}
    if not rows:
        return model.trivial_subgroup(), len(chain), certificate
    H = model.closed_subgroup(rows, ())
    rest = model.restriction(phi, H)
    sub, endo = rest.model, rest.endo
    move = sub.image if forward else sub.preimage
    u_sub = _restrict_to(model, H, sub, U)
    n, restricted = chain_fixpoint(lambda h: sub.intersect(u_sub, move(endo, h)), u_sub,
                                   4 * padic.CHAIN_STEP_CAP + 16)
    if n is None:
        raise UnresolvedError("restricted iteration did not stabilize in bound")
    certificate["restricted_fixpoint_at"] = n
    return _embed(model, H, restricted[n]), n, certificate


def _structural_outcomes(model, phi, U, forward):
    """The structural limit by both routes, or "unresolved" for each that raised."""
    out = []
    for route in (ref_structural_core, type(model)._structural_core):
        try:
            out.append(route(model, phi, U, [U], forward))
        except UnresolvedError:
            out.append("unresolved")
    return out


def test_structural_limit_agrees_with_restriction_route_on_the_catalog():
    restricted = set()
    for data in catalog_scenarios():
        if data["backend"] != "padic":
            continue
        sys = build_system(data)
        for k in range(4):
            for forward in (True, False):
                ref, new = _structural_outcomes(sys.model, sys.endo, sys.model.base_element(k),
                                                forward)
                assert new == ref, (data["name"], k, forward)
                if ref != "unresolved":
                    restricted.add(ref[2]["invariant_subspace_dim"])
    assert restricted >= {0, 1, 2}


@pytest.mark.parametrize("p, matrix", [
    (2, [[0, -3], [1, F(-1, 2)]]),
    (3, [[0, -1], [1, F(-1, 3)]]),
    (3, [[0, -1, 0], [1, F(-1, 3), 0], [0, 0, 1]]),
])
def test_structural_limit_of_mixed_slopes_is_unresolved_by_both_routes(p, matrix):
    model = PadicModel(p, len(matrix))
    for k in range(4):
        for forward in (True, False):
            assert _structural_outcomes(model, model.endo(matrix), model.base_element(k),
                                        forward) == ["unresolved"] * 2


# -- finite sections: L / p^N L as an independent oracle --------------------------------
#
# A lattice M with p^N L <= M <= L (L = Z_p^d) is determined by its image in
# L / p^N L = (Z/p^N)^d, a finite group small enough for the finite backend.
# Its subgroup arithmetic shares no code with the p-adic Hermite forms.

SECTION_SHAPES = [(p, n, d) for p in (2, 3, 5) for d in (1, 2, 3) for n in range(1, 9)
                  if p ** (n * d) <= 256]


@functools.lru_cache(maxsize=None)
def _section_group(q: int, d: int):
    """(Z/q)^d as a finite group, and the index of each element vector."""
    index = {x: i for i, x in enumerate(itertools.product(range(q), repeat=d))}
    table = [[index[tuple((a + b) % q for a, b in zip(x, y))] for y in index] for x in index]
    return FiniteGroupModel(table, name=f"(Z/{q})^{d}"), index


def _mod(x, q: int) -> int:
    """A p-integral rational reduced mod q = p^N."""
    x = F(x)
    return x.numerator * pow(x.denominator, -1, q) % q


def _section(group, index, q: int, M):
    """M / qL as a subgroup of L / qL, for qL <= M <= L."""
    return group.generated_subgroup(index[tuple(_mod(x, q) for x in col)] for col in M.module)


def _draw_section_shape(data):
    p, n, d = data.draw(st.sampled_from(SECTION_SHAPES))
    q = p**n
    group, index = _section_group(q, d)
    return PadicModel(p, d), n, q, group, index


def _draw_p_integral(data, p: int, bound: int):
    return F(data.draw(st.integers(-bound, bound)), data.draw(st.sampled_from([1, p + 1])))


def _draw_section_lattice(data, model, q: int):
    """qL plus up to three drawn p-integral vectors."""
    d = model.dim
    gens = [[_draw_p_integral(data, model.p, q) for _ in range(d)]
            for _ in range(data.draw(st.integers(0, 3)))]
    return model.lattice(gens + [[q * (i == j) for i in range(d)] for j in range(d)])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lattice_primitives_agree_with_the_finite_section(data):
    model, _, q, group, index = _draw_section_shape(data)
    u, v = _draw_section_lattice(data, model, q), _draw_section_lattice(data, model, q)
    su, sv = _section(group, index, q, u), _section(group, index, q, v)
    meet = model.intersect(u, v)
    assert _section(group, index, q, meet) == group.intersect(su, sv)
    assert _section(group, index, q, model.set_product(u, v)) == group.set_product(su, sv)
    assert model.contains(u, v) == group.contains(su, sv)
    assert model.contains(v, u) == group.contains(sv, su)
    assert model.index(meet, u) == group.index(group.intersect(su, sv), su)
    assert model.index(u, model.full_lattice()) == group.index(su, group.full_group())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integral_image_and_preimage_agree_with_the_finite_section(data):
    """For p-integral phi: phi(M) + qL, phi^{-1}(M) n L and the cotrajectory
    step V n phi^{-1}(M) against the finite image, preimage and meet with the
    preimage under phi mod q."""
    model, n, q, group, index = _draw_section_shape(data)
    d = model.dim
    a = [[_draw_p_integral(data, model.p, q) for _ in range(d)] for _ in range(d)]
    phi = model.endo(a)
    sigma = group.endo(index[tuple(_mod(sum(r * x for r, x in zip(row, e)), q) for row in a)]
                       for e in index)
    u = _draw_section_lattice(data, model, q)
    su = _section(group, index, q, u)
    image = model.set_product(model.image(phi, u), model.base_element(n))
    assert _section(group, index, q, image) == group.image(sigma, su)
    preimage = model.intersect(model.preimage(phi, u), model.full_lattice())
    assert _section(group, index, q, preimage) == group.preimage(sigma, su)
    assert model.meet_preimage(model.full_lattice(), phi, u) == preimage
    v = _draw_section_lattice(data, model, q)
    meet = model.meet_preimage(v, phi, u)
    sv = _section(group, index, q, v)
    assert _section(group, index, q, meet) == group.intersect(sv, group.preimage(sigma, su))



@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cotrajectory_table_agrees_with_the_finite_section(data):
    """The table of U = L under phi = p^-k A, A p-integral, against the chain
    of the finite section L / qL, q = p^N.  U_-n = {x in L : A^j x in p^(kj) L
    for j <= n} contains p^(kn) L, so while kn <= N every U_-n lies in the
    section, and there U_-n = sigma^-1(p^k U_-(n-1)) with sigma = A mod q."""
    p, n, d = data.draw(st.sampled_from([shape for shape in SECTION_SHAPES if shape[1] >= 2]))
    k = data.draw(st.integers(1, n // 2))
    q = p**n
    group, index = _section_group(q, d)
    model = PadicModel(p, d)
    a = [[_draw_p_integral(data, p, q) for _ in range(d)] for _ in range(d)]
    sys = TdlcSystem(model, model.endo([[x / p**k for x in row] for row in a]))
    sigma = group.endo(index[tuple(_mod(sum(r * x for r, x in zip(row, e)), q) for row in a)]
                       for e in index)
    times_pk = group.endo(index[tuple(p**k * x % q for x in e)] for e in index)
    n_max = n // k - 1
    table = cotraj.alpha_sequence(sys, model.full_lattice(), n_max)
    chain = [group.full_group()]
    for _ in range(n_max + 1):
        chain.append(group.preimage(sigma, group.image(times_pk, chain[-1])))
    for row in table.rows:
        assert model.contains(row.minus_handle, model.base_element(k * row.n))
        assert _section(group, index, q, row.minus_handle) == chain[row.n]
        assert row.c == group.index(chain[row.n], chain[0])
        assert row.alpha == group.index(chain[row.n + 1], chain[row.n])
