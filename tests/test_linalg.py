from fractions import Fraction

from hypothesis import given, settings, strategies as st

from tdlc_entropy.linalg import (
    charpoly,
    det,
    frac,
    frac_matrix,
    integer_kernel,
    kernel_and_solutions,
    mat_mul,
    mat_vec,
    pval,
    rational_kernel,
    rref,
    solve_right,
    zp_column_hnf,
)

F = Fraction


# -- reference implementations: Gauss-Jordan and Hermite reduction in Fraction ----


def reference_rref(rows):
    m = [list(map(frac, row)) for row in rows]
    if not m:
        return (), ()
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m[:r]), tuple(pivots)


def reference_kernel(a):
    red, pivots = reference_rref(a)
    ncols = len(a[0])
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def reference_solve(a, b):
    ncols = len(a[0])
    red, pivots = reference_rref([tuple(row) + (bv,) for row, bv in zip(a, b)])
    if ncols in pivots:
        return None
    x = [F(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][ncols]
    return tuple(x)


def _reference_reduce_mod_p_power(x, a, p):
    v = pval(x, p)
    if v is None:
        return F(0), F(0)
    pa = F(p) ** a
    if v >= a:
        return F(0), x / pa
    unit = x / F(p) ** v
    mod = p ** (a - v)
    num = unit.numerator % mod
    deninv = pow(unit.denominator % mod, -1, mod)
    r = F((num * deninv) % mod) * F(p) ** v
    return r, (x - r) / pa


def reference_zp_column_hnf(cols, d, p):
    work = [list(map(frac, c)) for c in cols if any(x != 0 for x in c)]
    pivots = []
    k = 0
    for i in range(d):
        cand = [j for j in range(k, len(work)) if work[j][i] != 0]
        if not cand:
            continue
        j0 = min(cand, key=lambda j: (pval(work[j][i], p), j))
        work[k], work[j0] = work[j0], work[k]
        a = pval(work[k][i], p)
        unit = work[k][i] / F(p) ** a
        work[k] = [x / unit for x in work[k]]
        for j in range(k + 1, len(work)):
            if work[j][i] != 0:
                q = work[j][i] / (F(p) ** a)
                work[j] = [x - q * y for x, y in zip(work[j], work[k])]
        pivots.append((i, a))
        k += 1
    work = work[:k]
    for t in range(len(pivots)):
        it, at = pivots[t]
        for s in range(t):
            x = work[s][it]
            if x != 0:
                _, q = _reference_reduce_mod_p_power(x, at, p)
                if q != 0:
                    work[s] = [u - q * v for u, v in zip(work[s], work[t])]
    return tuple(tuple(c) for c in work), tuple(pivots)


def draw_entry(data, p):
    """An int or a Fraction, often 0, with denominators that include powers of p."""
    kind = data.draw(st.integers(0, 3))
    if kind == 0:
        return 0
    if kind == 1:
        return data.draw(st.integers(-9, 9))
    den = data.draw(st.sampled_from([1, p, p * p, p**3, 3, 7, 2 * p, 9 * p]))
    return F(data.draw(st.integers(-30, 30)), den)


def draw_matrix(data, p, max_rows=4, max_cols=5, min_cols=0):
    """Rows of entries; some rows are zero or combinations of earlier rows."""
    ncols = data.draw(st.integers(min_cols, max_cols))
    rows = []
    for _ in range(data.draw(st.integers(0, max_rows))):
        kind = data.draw(st.integers(0, 4))
        if kind == 0:
            rows.append([0] * ncols)
        elif kind == 1 and rows:
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(rows) - 1))
            c = F(data.draw(st.integers(-5, 5)), data.draw(st.sampled_from([1, p, 3])))
            rows.append([frac(x) + c * frac(y) for x, y in zip(rows[i], rows[j])])
        else:
            rows.append([draw_entry(data, p) for _ in range(ncols)])
    return rows


def all_fractions(mat):
    return all(type(x) is F for row in mat for x in row)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rref_matches_reference(data):
    rows = draw_matrix(data, data.draw(st.sampled_from([2, 3, 5, 7])))
    red, pivots = rref(rows)
    assert (red, pivots) == reference_rref(rows)
    assert all_fractions(red)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_kernel_and_solutions_match_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    rows = draw_matrix(data, p, min_cols=1)
    if not rows:
        rows = [[draw_entry(data, p)]]
    rhs = [
        tuple(draw_entry(data, p) for _ in rows)
        for _ in range(data.draw(st.integers(0, 3)))
    ]
    kernel, solutions = kernel_and_solutions(rows, rhs)
    assert kernel == reference_kernel(rows) == rational_kernel(rows)
    assert solutions == tuple(reference_solve(rows, b) for b in rhs)
    assert solutions == tuple(solve_right(rows, b) for b in rhs)
    assert all_fractions(kernel) and all_fractions(s for s in solutions if s is not None)


def test_empty_inputs():
    assert rref([]) == reference_rref([]) == ((), ())
    assert rref([[]]) == reference_rref([[]]) == ((), ())
    assert rational_kernel([]) == ()
    assert solve_right([], []) == () and solve_right([], [1]) is None
    assert zp_column_hnf([], 2, 3) == ((), ())
    assert zp_column_hnf([(0, 0)], 2, 3) == reference_zp_column_hnf([(0, 0)], 2, 3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_zp_column_hnf_matches_reference(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    cols = draw_matrix(data, p, max_cols=4)
    d = len(cols[0]) if cols else data.draw(st.integers(0, 3))
    out, pivots = zp_column_hnf(cols, d, p)
    assert (out, pivots) == reference_zp_column_hnf(cols, d, p)
    assert all_fractions(out)


def test_rref_canonical():
    red, piv = rref([[2, 4], [1, 2]])
    assert red == ((F(1), F(2)),)
    assert piv == (0,)


def test_rational_kernel_matches_definition():
    a = frac_matrix([[1, 2, 3], [0, 1, 1]])
    for v in rational_kernel(a):
        assert all(x == 0 for x in mat_vec(a, v))
    assert len(rational_kernel(a)) == 1


def test_solve_right():
    a = [[1, 1], [0, 1]]
    x = solve_right(a, [3, 2])
    assert x == (F(1), F(2))
    assert solve_right([[1, 0], [1, 0]], [1, 2]) is None


def test_det_and_charpoly():
    assert det([[F(1, 2), 1], [0, F(1, 2)]]) == F(1, 4)
    # det(xI - A) for the shear [[1/2, 1], [0, 1/2]] is (x - 1/2)^2.
    assert charpoly([[F(1, 2), 1], [0, F(1, 2)]]) == (F(1, 4), F(-1), F(1))
    assert charpoly([[2, 0], [0, F(1, 2)]]) == (F(1), F(-5, 2), F(1))


def reference_charpoly(a):
    """Faddeev-LeVerrier on Fractions, the route ``charpoly`` took before it
    cleared denominators."""
    a = frac_matrix(a)
    d = len(a)
    coeffs = [F(0)] * d + [F(1)]
    m = [[F(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        am = mat_mul(a, m)
        c = -sum(am[i][i] for i in range(d)) / k
        coeffs[d - k] = c
        m = [[am[i][j] + (c if i == j else 0) for j in range(d)] for i in range(d)]
    return tuple(coeffs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_charpoly_agrees_with_fraction_reference(data):
    """The integer recursion equals the Fraction one on rational matrices of
    dim 0 to 8 (``MAX_DIM``): zero, singular, nilpotent and with large
    denominators."""
    d = data.draw(st.integers(0, 8))
    den = st.sampled_from([1, 2, 3, 7, 12, 2**61 - 1, 10**12 + 39])
    entry = st.builds(F, st.integers(-10**6, 10**6), den)
    kind = data.draw(st.sampled_from(["random", "zero", "singular", "nilpotent"]))
    if kind == "zero":
        a = [[F(0)] * d for _ in range(d)]
    elif kind == "nilpotent":  # strictly upper triangular, conjugated by a shear
        n = [[data.draw(entry) if j > i else F(0) for j in range(d)] for i in range(d)]
        c = data.draw(entry)
        s = [[F(int(i == j)) + (c if j == i + 1 else 0) for j in range(d)] for i in range(d)]
        s_inv = [[F(int(i == j)) for j in range(d)] for i in range(d)]
        for i in reversed(range(d - 1)):  # back substitution: s @ s_inv = I
            s_inv[i] = [x - c * y for x, y in zip(s_inv[i], s_inv[i + 1])]
        a = mat_mul(mat_mul(s, n), s_inv)
    else:
        a = [[data.draw(entry) for _ in range(d)] for _ in range(d)]
        if kind == "singular" and d:
            c = data.draw(entry) if d > 1 else F(0)
            a[-1] = [c * x for x in a[0]]
    got = charpoly(a)
    assert got == reference_charpoly(a)
    assert all(type(c) is F for c in got)
    if kind in ("zero", "nilpotent"):
        assert got == tuple([F(0)] * d + [F(1)])
    if kind == "singular" and d:
        assert got[0] == 0 and det(a) == 0


def test_integer_kernel_exact_and_saturated():
    basis = integer_kernel([[1, 2, 3]])
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    # (1, 1, -1) is in the kernel and must be an integer combination of the basis.
    sol = solve_right([[b[i] for b in basis] for i in range(3)], [1, 1, -1])
    assert sol is not None and all(x.denominator == 1 for x in sol)


def test_pval():
    assert pval(12, 2) == 2
    assert pval(F(1, 2), 2) == -1
    assert pval(F(3, 4), 2) == -2
    assert pval(0, 2) is None
    assert pval(F(3, 5), 2) == 0


def test_zp_hnf_examples():
    # 4 Z_2 inside Q_2: single column (4) -> pivot exponent 2.
    cols, piv = zp_column_hnf([(4,)], 1, 2)
    assert cols == ((F(4),),) and piv == ((0, 2),)
    # Prime-to-p content is a unit and disappears: span{3} = Z_(2).
    cols, piv = zp_column_hnf([(3,)], 1, 2)
    assert cols == ((F(1),),) and piv == ((0, 0),)
    # Redundant generators collapse.
    cols, piv = zp_column_hnf([(2, 0), (0, 1), (2, 1)], 2, 2)
    assert piv == ((0, 1), (1, 0))
    assert cols == ((F(2), F(0)), (F(0), F(1)))


def _random_unimodular_ops(cols, d, p, rnd):
    cols = [list(c) for c in cols]
    n = len(cols)
    for _ in range(6):
        op = rnd.draw(st.integers(0, 2))
        i = rnd.draw(st.integers(0, n - 1))
        j = rnd.draw(st.integers(0, n - 1))
        if op == 0 and i != j:
            # add a Z_(p) multiple of column j to column i
            num = rnd.draw(st.integers(-6, 6))
            den = rnd.draw(st.sampled_from([1, 3, 5, 7]))  # prime to p=2
            r = F(num, den)
            cols[i] = [a + r * b for a, b in zip(cols[i], cols[j])]
        elif op == 1:
            # scale by a unit of Z_(2)
            u = F(rnd.draw(st.sampled_from([1, -1, 3, 5])), rnd.draw(st.sampled_from([1, 3, 7])))
            cols[i] = [u * a for a in cols[i]]
        else:
            cols[i], cols[j] = cols[j], cols[i]
    return cols


@settings(max_examples=60)
@given(st.data())
def test_zp_hnf_canonical_under_unimodular_column_ops(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 3))
    cols = [
        tuple(
            F(data.draw(st.integers(-8, 8)), 2 ** data.draw(st.integers(0, 2)))
            for _ in range(d)
        )
        for _ in range(n)
    ]
    base = zp_column_hnf(cols, d, 2)
    alt = _random_unimodular_ops(cols, d, 2, data)
    assert zp_column_hnf(alt, d, 2) == base


def test_mat_mul_assoc_spot():
    a = frac_matrix([[1, 2], [3, 4]])
    b = frac_matrix([[0, 1], [1, 0]])
    c = frac_matrix([[F(1, 2), 0], [0, 2]])
    assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
