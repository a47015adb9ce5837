"""Exact rational and integer linear algebra.

Everything here works over Fraction or int; there is no floating point.
Matrices are tuples of row tuples unless a function says otherwise.

Inputs and outputs are Fractions (ints are accepted), but the eliminations
clear denominators once and run on Python ints: ``rref`` is fraction-free
Gauss-Jordan with content division, ``zp_column_hnf`` carries each column as
(integer vector, denominator), and ``integer_kernel`` is Euclidean
elimination.  ``kernel_and_solutions`` reads a kernel basis and any number of
particular solutions off a single ``rref``.

The library no longer calls ``integer_kernel``; it stays only because
``perfbench/tracer.py`` wraps it by name.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

Vec = tuple
Mat = tuple

_ZERO = Fraction(0)
_ONE = Fraction(1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def frac_matrix(rows) -> Mat:
    return tuple(tuple(frac(x) for x in row) for row in rows)


def identity_matrix(d: int) -> Mat:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(d)) for i in range(d))


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in a)


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_pow(a: Mat, n: int) -> Mat:
    d = len(a)
    out = identity_matrix(d)
    base = a
    while n > 0:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        n >>= 1
    return out


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a)) if a else ()


def _clear_denominators(row) -> tuple[list[int], int]:
    """(ints, den) with ``row == ints / den`` and ``den`` the lcm of the denominators."""
    try:
        dens = [x.denominator for x in row]
    except AttributeError:
        row = [frac(x) for x in row]
        dens = [x.denominator for x in row]
    den = lcm(*dens)
    if den == 1:
        return [x.numerator for x in row], 1
    return [x.numerator * (den // d) for x, d in zip(row, dens)], den


def rref(rows) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form over Q; returns (nonzero rows, pivot columns).

    The output is the canonical basis of the row space: leading ones, zeros
    above and below each pivot, pivot columns strictly increasing.  Each row
    is scaled to integers once; the elimination is fraction-free Gauss-Jordan
    on ints, each updated row divided by its content, and the Fractions are
    built only when a pivot row is divided by its pivot at the end.
    """
    m = [_clear_denominators(row)[0] for row in rows]
    if not m:
        return (), ()
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(len(m[0])):
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(nrows):
            f = m[i][c]
            if f and i != r:
                g = gcd(pv, f)
                a, b = pv // g, f // g
                row = [a * x - b * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = row if g <= 1 else [x // g for x in row]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = []
    for row, c in zip(m, pivots):
        pv = row[c]
        out.append(tuple([
            (_ONE if x == pv else Fraction(x, pv)) if x else _ZERO for x in row
        ]))
    return tuple(out), tuple(pivots)


def kernel_and_solutions(a, rhs=()) -> tuple[Mat, tuple[Optional[Vec], ...]]:
    """Kernel basis of ``a`` and one solution of ``a @ x = b`` per ``b`` in ``rhs``.

    Both come from one rref of ``[a | b_1 ... b_m]``: its left block is the
    rref of ``a``.  The kernel rows are the canonical free-variable basis
    (free variable 1, the others 0).  A solution sets the free variables to 0;
    it is None when a row of the rref is zero on the left and not on ``b``.
    """
    ncols = len(a[0])
    if rhs:
        a = [list(row) + [b[i] for b in rhs] for i, row in enumerate(a)]
    red, pivots = rref(a)
    rank = bisect_left(pivots, ncols)
    lead = list(zip(red, pivots[:rank]))
    kernel = []
    if rank < ncols:
        pivset = set(pivots[:rank])
        for f in range(ncols):
            if f not in pivset:
                v = [_ZERO] * ncols
                v[f] = _ONE
                for row, c in lead:
                    if row[f]:
                        v[c] = -row[f]
                kernel.append(tuple(v))
    solutions = []
    for j in range(ncols, ncols + len(rhs)):
        if rank < len(red) and any(row[j] for row in red[rank:]):
            solutions.append(None)
            continue
        x = [_ZERO] * ncols
        for row, c in lead:
            x[c] = row[j]
        solutions.append(tuple(x))
    return tuple(kernel), tuple(solutions)


def rational_kernel(a) -> Mat:
    """Canonical basis rows of {x : a @ x = 0}, via the rref free-variable split."""
    if not a:
        return ()
    return kernel_and_solutions(a)[0]


def solve_right(a, b) -> Optional[Vec]:
    """One exact solution x of a @ x = b, or None if inconsistent."""
    if not a:
        return None if any(map(frac, b)) else ()
    return kernel_and_solutions(a, [b])[1][0]


def det(a) -> Fraction:
    a = [list(row) for row in frac_matrix(a)]
    n = len(a)
    d = Fraction(1)
    for c in range(n):
        piv = None
        for r in range(c, n):
            if a[r][c] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def charpoly(a) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_d) of det(x*I - A), monic, by Faddeev-LeVerrier."""
    a = frac_matrix(a)
    d = len(a)
    coeffs = [Fraction(0)] * (d + 1)
    coeffs[d] = Fraction(1)
    m = identity_matrix(d)
    c = Fraction(1)
    for k in range(1, d + 1):
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(d))
        c = -tr / k
        coeffs[d - k] = c
        m = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(d)) for i in range(d)
        )
    return tuple(coeffs)


def integer_kernel(a) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {x in Z^n : a @ x = 0} of a rational matrix.

    Rows are scaled to integers first (kernel unchanged); the returned basis
    spans the full saturated kernel lattice, so it is also a basis of the
    kernel over any localization of Z.
    """
    if not a:
        return []
    n = len(a[0])
    m = len(a)
    int_rows = [_clear_denominators(row)[0] for row in a]
    # Work on [A^T | I]; rows whose A^T block is zeroed give kernel vectors.
    work = []
    for c in range(n):
        left = [int_rows[r][c] for r in range(m)]
        right = [1 if j == c else 0 for j in range(n)]
        work.append(left + right)
    row_at = 0
    for col in range(m):
        # Euclidean elimination on this column among rows row_at..end.
        while True:
            nz = [i for i in range(row_at, len(work)) if work[i][col] != 0]
            if not nz:
                break
            piv = min(nz, key=lambda i: (abs(work[i][col]), i))
            work[row_at], work[piv] = work[piv], work[row_at]
            done = True
            pval = work[row_at][col]
            for i in range(row_at + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // pval
                    work[i] = [x - q * y for x, y in zip(work[i], work[row_at])]
                    if work[i][col] != 0:
                        done = False
            if done:
                row_at += 1
                break
    return [tuple(r[m:]) for r in work[row_at:]]


def _vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero int."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def pval(x, p: int) -> Optional[int]:
    """p-adic valuation of a rational; None means +infinity (x == 0)."""
    x = frac(x)
    if x == 0:
        return None
    return _vp_int(x.numerator, p) - _vp_int(x.denominator, p)


def _reduce_mod_p_power(x: Fraction, a: int, p: int) -> tuple[Fraction, Fraction]:
    """Split x = r + q * p**a with q in Z_(p) and r a canonical residue.

    For v_p(x) >= a the residue is 0.  Otherwise r = p**v * (unit mod p**(a-v))
    with v = v_p(x), which is the canonical transversal of p**a Z_(p).
    """
    v = pval(x, p)
    if v is None:
        return Fraction(0), Fraction(0)
    pa = Fraction(p) ** a
    if v >= a:
        return Fraction(0), x / pa
    unit = x / Fraction(p) ** v
    mod = p ** (a - v)
    num = unit.numerator % mod
    deninv = pow(unit.denominator % mod, -1, mod)
    r = Fraction((num * deninv) % mod) * Fraction(p) ** v
    q = (x - r) / pa
    return r, q


def _lowest_terms(x: list[int], den: int) -> tuple[list[int], int]:
    """The column ``x / den`` with ``den > 0`` and no factor common to all of x and den."""
    if den < 0:
        x, den = [-v for v in x], -den
    g = gcd(den, *x)
    if g == 1:
        return x, den
    return [v // g for v in x], den // g


def zp_column_hnf(cols, d: int, p: int) -> tuple[Mat, tuple[tuple[int, int], ...]]:
    """Canonical column Hermite form of a Z_(p)-module spanned by ``cols``.

    Returns (columns, pivots) where pivots is a tuple of (row, exponent):
    column t has entry p**a_t at row i_t, zeros above, zeros at pivot rows of
    later columns, and canonical residues mod p**a_t at pivot rows of earlier
    columns.  Two generating sets of the same module yield identical output.

    Each column is carried as (integer vector, positive denominator) in lowest
    terms, so valuations are read off ints; Fractions are built at the end.
    """
    work = []
    for c in cols:
        x, den = _clear_denominators(c)
        if any(x):
            work.append(_lowest_terms(x, den))
    pivots = []
    k = 0
    for i in range(d):
        j0 = None
        for j in range(k, len(work)):
            xj, dj = work[j]
            if xj[i]:
                v = _vp_int(xj[i], p) - _vp_int(dj, p)
                if j0 is None or v < a:
                    j0, a = j, v
        if j0 is None:
            continue
        work[k], work[j0] = work[j0], work[k]
        xk, dk = work[k]
        # Divide by the unit part u of the pivot entry x[i] / den, where
        # x[i] = p**v * u: the column becomes x / (p**v_p(den) * u) and its
        # pivot entry p**a.
        v = a + _vp_int(dk, p)
        xk, dk = _lowest_terms(xk, (xk[i] // p**v) * p ** (v - a))
        work[k] = (xk, dk)
        piv = xk[i]  # p**a * dk > 0
        for j in range(k + 1, len(work)):
            xj, dj = work[j]
            f = xj[i]
            if f:
                g = gcd(f, piv)
                a_j, b_j = piv // g, f // g
                work[j] = _lowest_terms([a_j * u - b_j * w for u, w in zip(xj, xk)], dj * a_j)
        pivots.append((i, a))
        k += 1
    work = work[:k]
    for t in range(len(pivots)):
        it, at = pivots[t]
        xt, dt = work[t]
        for s in range(t):
            xs, ds = work[s]
            if xs[it]:
                _, q = _reduce_mod_p_power(Fraction(xs[it], ds), at, p)
                if q != 0:
                    qn, qd = q.numerator, q.denominator
                    work[s] = _lowest_terms(
                        [u * qd * dt - qn * ds * w for u, w in zip(xs, xt)], ds * qd * dt
                    )
    out = tuple([
        tuple([Fraction(v, den) if v else _ZERO for v in x]) for x, den in work
    ])
    return out, tuple(pivots)
