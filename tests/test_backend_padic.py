import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tdlc_entropy.backends.padic import PadicModel, _poly_eval_matrix, _root_valuations
from tdlc_entropy.core import UnresolvedError, UnsupportedSubgroupError
from tdlc_entropy.linalg import (
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
from tdlc_entropy.exact import INFINITE_INDEX, IndexValue

F = Fraction


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
    n, d = q2_2.constraint_form(h)
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
    n, d = model.constraint_form(h)
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


def test_restriction_to_axis():
    model = PadicModel(2, 2)
    phi = model.endo([[F(1, 2), 0], [0, 2]])
    h = model.closed_subgroup([[1, 0]], [])
    r = model.restriction(phi, h)
    assert r.system.model.dim == 1
    assert r.system.endo.matrix == ((F(1, 2),),)
    inside = r.restrict_handle(model.full_lattice())
    assert inside == r.system.model.full_lattice()
    assert r.embed(inside) == model.lattice([[1, 0]])


def test_newton_polygon_examples():
    q2 = PadicModel(2, 1)
    assert q2.newton_polygon(q2.endo([[F(1, 2)]])) == ((F(-1), 1),)
    assert q2.entropy_exponent(q2.endo([[F(1, 2)]])) == 1

    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    assert m.newton_polygon(mixed) == ((F(-1), 1), (F(1), 1))
    assert m.entropy_exponent(mixed) == 1

    ident = m.identity_endo()
    assert m.newton_polygon(ident) == ((F(0), 2),)
    assert m.entropy_exponent(ident) == 0

    jordan = m.endo([[F(1, 2), 1], [0, F(1, 2)]])
    assert m.entropy_exponent(jordan) == 2

    singular = m.endo([[F(1, 2), 0], [0, 0]])
    assert m.newton_polygon(singular) == ((F(-1), 1), (None, 1))
    assert m.entropy_exponent(singular) == 1


def test_plus_group_fixpoint_and_structural():
    q2 = PadicModel(2, 1)
    half = q2.endo([[F(1, 2)]])
    u = q2.full_lattice()
    handle, method, steps, cert = q2.plus_group_impl(half, u)
    assert handle == u and method == "fixpoint"

    double = q2.endo([[2]])
    handle, method, steps, cert = q2.plus_group_impl(double, u)
    assert handle == q2.trivial_subgroup() and method == "structural"

    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    handle, method, steps, cert = m.plus_group_impl(mixed, m.full_lattice())
    assert handle == m.lattice([[0, 1]])
    assert method == "structural"


def test_minus_group_examples():
    q2 = PadicModel(2, 1)
    half = q2.endo([[F(1, 2)]])
    handle, cert = q2.minus_group_impl(half, q2.full_lattice())
    assert handle == q2.trivial_subgroup()

    ident = q2.identity_endo()
    handle, cert = q2.minus_group_impl(ident, q2.full_lattice())
    assert handle == q2.full_lattice()

    m = PadicModel(2, 2)
    mixed = m.endo([[2, 0], [0, F(1, 2)]])
    handle, cert = m.minus_group_impl(mixed, m.full_lattice())
    assert handle == m.lattice([[1, 0]])


class FullChainModel(PadicModel):
    """Reference: an empty Newton polygon, so the forward chain is never skipped."""

    def newton_polygon(self, phi):
        return ()


def _forward_core(model, matrix, make_u):
    """U_+ of make_u(model) as (subspace, module, method), or "unresolved"."""
    try:
        handle, method, _, _ = model.plus_group_impl(model.endo(matrix), make_u(model))
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


@pytest.mark.parametrize("make_u", [
    lambda m: m.full_group(),
    lambda m: m.closed_subgroup([[1, 0]], [[0, 1]]),
    lambda m: m.lattice([[1, 0]]),
    lambda m: m.lattice([[0, 1]]),
])
def test_chain_skip_needs_a_compact_open_subgroup(make_u):
    """The chain of a non-compact or non-open U can stop despite a contracting root."""
    assert_chain_skip_changes_nothing(2, [[2, 0], [0, F(1, 2)]], make_u)


def test_plus_plus_analysis_expanding():
    q2 = PadicModel(2, 1)
    half = q2.endo([[F(1, 2)]])
    res = q2.plus_plus_analysis(half, q2.full_lattice(), 8)
    assert res["closed"] is True
    assert res["handle"] == q2.full_group()
    assert all(ix == IndexValue(2) for ix in res["indices"])

    ident = q2.identity_endo()
    res = q2.plus_plus_analysis(ident, q2.full_lattice(), 8)
    assert res["closed"] is True and res["handle"] == q2.full_lattice()


def test_plus_plus_mixed_unit_directions():
    m = PadicModel(2, 2)
    phi = m.endo([[1, 0], [0, F(1, 2)]])
    u_plus, *_ = m.plus_group_impl(phi, m.full_lattice())
    assert u_plus == m.full_lattice()
    res = m.plus_plus_analysis(phi, u_plus, 8)
    assert res["closed"] is True
    # Z_2 x Q_2: frozen unit axis plus a filled expanding axis
    assert res["handle"] == m.closed_subgroup([[0, 1]], [[1, 0]])


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
    assert model.from_constraints(*model.constraint_form(h)) == h


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
        nf, df = model.constraint_form(full)
        nv, dv = model.constraint_form(model.closed_subgroup(rows, ()))
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
