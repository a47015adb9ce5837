"""Exact factorization over Q, checked against sympy.

The p-adic slope split multiplies together the irreducible factors of a
characteristic polynomial whose roots share a valuation; a factor that is
reducible but reported irreducible can mix valuations and turn a resolved
split into UNRESOLVED.  So the factor list has to be exactly sympy's.
"""

from fractions import Fraction as F

import sympy
from hypothesis import given, settings, strategies as st

from tdlc_entropy.backends.padic import _rational_factor_list

X = sympy.symbols("x")
# n with Euler phi(n) <= 8
CYCLOTOMIC_N = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 24, 30)


def sympy_factor_list(coeffs):
    """The monic irreducible factors sympy finds, in the same form and order."""
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(coeffs))
    _, factors = sympy.Poly(expr, X, domain="QQ").factor_list()
    out = []
    for poly, mult in factors:
        cs = [F(int(c.p), int(c.q)) for c in reversed(poly.monic().all_coeffs())]
        out.append((tuple(cs), int(mult)))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


def poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cyclotomic(n):
    return [F(int(c)) for c in reversed(sympy.cyclotomic_poly(n, X, polys=True).all_coeffs())]


def check(coeffs):
    got = _rational_factor_list(tuple(coeffs))
    assert got == sympy_factor_list(coeffs)
    return got


SMALL = st.integers(-12, 12)
HUGE = st.builds(int.__mul__, st.sampled_from((1, -1)), st.integers(10**29, 10**40))
RATIONALS = st.builds(F, st.one_of(SMALL, SMALL, HUGE), st.integers(1, 12) | st.just(1))


@st.composite
def factor_pieces(draw):
    """(monic factor, multiplicity): x, a cyclotomic polynomial or a random
    monic rational polynomial of degree 1 to 4."""
    kind = draw(st.sampled_from(("x", "cyclotomic", "random", "random")))
    if kind == "x":
        poly = [F(0), F(1)]
    elif kind == "cyclotomic":
        poly = cyclotomic(draw(st.sampled_from(CYCLOTOMIC_N)))
    else:
        poly = draw(st.lists(RATIONALS, min_size=draw(st.sampled_from((1, 2, 2, 3))),
                             max_size=4)) + [F(1)]
    return poly, draw(st.integers(1, 3))


@st.composite
def products(draw):
    """A monic polynomial of degree 1 to 8: a product of factor pieces."""
    coeffs = [F(1)]
    for poly, mult in draw(st.lists(factor_pieces(), min_size=1, max_size=5)):
        for _ in range(mult):
            if len(coeffs) + len(poly) - 2 <= 8:
                coeffs = poly_mul(coeffs, poly)
    if len(coeffs) == 1:
        coeffs = [F(-2), F(1)]
    return coeffs


@settings(max_examples=300, deadline=None)
@given(products())
def test_factor_list_matches_sympy(coeffs):
    check(coeffs)


def test_irreducible_but_split_modulo_every_prime():
    # x^4 - 10x^2 + 1, the minimal polynomial of sqrt2 + sqrt3: every modular
    # factorization has two or four factors, so only recombination proves it
    # irreducible
    coeffs = [F(1), F(0), F(-10), F(0), F(1)]
    assert check(coeffs) == [(tuple(coeffs), 1)]


def test_degree_8_minimal_polynomial():
    # sqrt2 + sqrt3 + sqrt5
    coeffs = [F(c) for c in (576, 0, -960, 0, 352, 0, -40, 0, 1)]
    assert check(coeffs) == [(tuple(coeffs), 1)]


def test_large_coefficients_need_a_deep_hensel_lift():
    # two irreducible quadratics with 31-digit coefficients and a rational
    # linear factor, squared: the modular factors must be lifted past 10^70
    a = [F(10**31 + 7), F(3), F(1)]
    b = [F(-(10**30) - 1), F(10**30 + 3, 7), F(1)]
    c = [F(-(10**35), 3), F(1)]
    coeffs = poly_mul(poly_mul(a, b), poly_mul(c, c))
    got = check(coeffs)
    assert got == sorted([(tuple(a), 1), (tuple(b), 1), (tuple(c), 2)],
                         key=lambda fm: (len(fm[0]), fm[0]))


def test_powers_of_x_constants_and_cyclotomic_products():
    assert _rational_factor_list((F(1),)) == []
    assert check([F(0), F(0), F(0), F(1)]) == [((F(0), F(1)), 3)]
    coeffs = [F(0), F(0), F(1)]
    for n in (7, 1, 1):
        coeffs = poly_mul(coeffs, cyclotomic(n))
    check(coeffs)
