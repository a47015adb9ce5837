"""Exact factorization of rational polynomials into irreducibles over Q.

Polynomials are lists of Python ints from the constant coefficient up, with
no trailing zeros; there is no floating point.  ``factor_rational`` clears
denominators, strips the power of x, splits the rest into square-free parts
(Yun) and factors each part over Z.  Degrees 1 and 2 are read off directly:
a quadratic splits exactly when its discriminant is a square.  Higher
degrees use Zassenhaus's method:

* factor the part modulo a small odd prime that keeps it square-free, by
  distinct-degree and then Cantor-Zassenhaus equal-degree splitting (the
  random choices come from a fixed seed and never change the factors);
* Hensel-lift the modular factors modulo p^k past twice the Mignotte bound,
  so every factor over Z is determined by its image mod p^k;
* recombine subsets of the lifted factors, smallest first, keeping each
  product that divides the part exactly over Z.

References: Cohen, GTM 138, 3.4-3.5; Knuth, TAOCP vol. 2, 4.6.2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count
from math import gcd, isqrt, lcm

# seeds the equal-degree splitting; the factors do not depend on it
_SEED = 0


def factor_rational(coeffs) -> list[tuple[tuple[Fraction, ...], int]]:
    """Irreducible monic factors over Q of a nonzero polynomial, with multiplicity.

    ``coeffs`` run from the constant term up (Fractions or ints); each factor
    comes back the same way as a tuple of Fractions.  The list is sorted by
    degree, then coefficients; the constant leading factor is dropped.
    """
    den = lcm(*(c.denominator for c in coeffs))
    f = _trim([c.numerator * (den // c.denominator) for c in coeffs])
    if len(f) <= 1:
        return []
    k = next(i for i, c in enumerate(f) if c)
    out = [((Fraction(0), Fraction(1)), k)] if k else []
    if len(f) - k > 1:
        for part, mult in _square_free_parts(_primitive(f[k:])):
            for h in _irreducible_factors(part):
                out.append((tuple(Fraction(c, h[-1]) for c in h), mult))
    return sorted(out, key=lambda fm: (len(fm[0]), fm[0]))


# -- integer polynomials ------------------------------------------------------------


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: list) -> list:
    """``a`` divided by its content, with a positive leading coefficient."""
    c = 0
    for x in a:
        c = gcd(c, x)
    if a[-1] < 0:
        c = -c
    return [x // c for x in a]


def _derivative(a: list) -> list:
    return [i * a[i] for i in range(1, len(a))]


def _add(a: list, b: list, sign: int = 1) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([x + sign * y for x, y in zip(a, b)])


def _sub(a: list, b: list) -> list:
    return _add(a, b, -1)


def _divide(a: list, b: list):
    """The quotient a / b in Z[x], or None when b does not divide a there."""
    if not a:
        return []
    a = list(a)
    lc, db = b[-1], len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(q) - 1, -1, -1):
        c, r = divmod(a[i + db], lc)
        if r:
            return None
        q[i] = c
        if c:
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return None if any(a[:db]) else q


def _pseudo_remainder(a: list, b: list) -> list:
    r = list(a)
    lc, db = b[-1], len(b) - 1
    while len(r) > db:
        c, shift = r[-1], len(r) - 1 - db
        r = [x * lc for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= c * y
        _trim(r)
    return r


def _gcd(a: list, b: list) -> list:
    """Primitive gcd of integer polynomials, ``a`` nonzero, by primitive remainders."""
    a = _primitive(a)
    if not b:
        return a
    b = _primitive(b)
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _square_free_parts(f: list) -> list:
    """Yun's decomposition of a primitive f of degree >= 1: [(a_i, i)] with f
    = +-prod a_i**i, each a_i primitive, square-free and of degree >= 1.

    Every gcd is only fixed up to a constant, but b and c are always divided
    by the same one, so d = c - b' stays consistent.
    """
    df = _derivative(f)
    a0 = _gcd(f, df)
    b, c = _divide(f, a0), _divide(df, a0)
    d = _sub(c, _derivative(b))
    out = []
    for i in count(1):
        if len(b) == 1:
            return out
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, c = _divide(b, a), _divide(d, a)
        d = _sub(c, _derivative(b))


def _irreducible_factors(g: list) -> list:
    """Primitive irreducible factors over Z of a primitive square-free g."""
    if len(g) == 2:
        return [g]
    if len(g) == 3:
        c0, c1, c2 = g
        disc = c1 * c1 - 4 * c2 * c0
        s = isqrt(disc) if disc > 0 else 0
        if s * s != disc:
            return [g]
        return [_primitive([c1 - s, 2 * c2]), _primitive([c1 + s, 2 * c2])]
    return _zassenhaus(g)


# -- polynomials modulo m -----------------------------------------------------------
# Coefficients lie in 0..m-1; a divisor is always monic, so m need not be prime.


def _reduce(a: list, m: int) -> list:
    return _trim([x % m for x in a])


def _mul_mod(a: list, b: list, m: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def _divmod_mod(a: list, b: list, m: int) -> tuple[list, list]:
    """Quotient and remainder of a by a monic b modulo m."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(r) - db, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + db] % m
        q[i] = c
        if c:
            for j, y in enumerate(b):
                r[i + j] -= c * y
    return _trim(q), _reduce(r[:db], m)


def _monic_mod(a: list, p: int) -> list:
    inv = pow(a[-1], -1, p)
    return _reduce([x * inv for x in a], p)


def _gcd_mod(a: list, b: list, p: int) -> list:
    """Monic gcd modulo a prime p; ``a`` nonzero."""
    a = _monic_mod(a, p)
    while b:
        b = _monic_mod(b, p)
        a, b = b, _divmod_mod(a, b, p)[1]
    return a


def _bezout_mod(a: list, b: list, p: int) -> tuple[list, list]:
    """(s, t) with s a + t b = 1 modulo a prime p, for coprime a and b."""
    r0, r1 = a, b
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        monic = _reduce([x * inv for x in r1], p)
        q, r = _divmod_mod(r0, monic, p)
        q = _reduce([x * inv for x in q], p)
        r0, r1 = r1, r
        s0, s1 = s1, _reduce(_sub(s0, _mul_mod(q, s1, p)), p)
        t0, t1 = t1, _reduce(_sub(t0, _mul_mod(q, t1, p)), p)
    inv = pow(r0[0], -1, p)  # r0 is the nonzero constant gcd
    return _reduce([x * inv for x in s0], p), _reduce([x * inv for x in t0], p)


def _pow_mod(a: list, e: int, f: list, p: int) -> list:
    """a**e modulo the monic f and the prime p."""
    out, base = [1], _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, base, p), f, p)[1]
        base = _divmod_mod(_mul_mod(base, base, p), f, p)[1]
        e >>= 1
    return out


def _factor_mod(f: list, p: int, rng: random.Random) -> list:
    """Monic irreducible factors of a monic square-free f modulo an odd prime
    p: distinct-degree factorization, then equal-degree splitting."""
    out = []
    x = [0, 1]
    h = x
    d = 1
    while 2 * d <= len(f) - 1:
        h = _pow_mod(h, p, f, p)
        g = _gcd_mod(f, _reduce(_sub(h, x), p), p)
        if len(g) > 1:
            out.extend(_split_equal_degree(g, d, p, rng))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
        d += 1
    if len(f) > 1:
        out.append(f)
    return out


def _split_equal_degree(f: list, d: int, p: int, rng: random.Random) -> list:
    """Cantor-Zassenhaus: the monic factors, all of degree d, of f mod p."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd_mod(f, a, p)
        if len(g) == 1:
            g = _gcd_mod(f, _reduce(_sub(_pow_mod(a, e, f, p), [1]), p), p)
        if 1 < len(g) < len(f):
            rest = _divmod_mod(f, g, p)[0]
            return _split_equal_degree(g, d, p, rng) + _split_equal_degree(rest, d, p, rng)


# -- Zassenhaus ---------------------------------------------------------------------


def _odd_primes():
    for n in count(3, 2):
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n


def _modular_factors(g: list) -> tuple[int, list]:
    """The smallest odd prime p that keeps g square-free, with g's monic factors mod p."""
    for p in _odd_primes():
        if g[-1] % p:
            gp = _monic_mod(g, p)
            if len(_gcd_mod(gp, _reduce(_derivative(gp), p), p)) == 1:
                return p, _factor_mod(gp, p, random.Random(_SEED))


def _hensel_pair(target: list, a: list, b: list, p: int, m: int) -> tuple[list, list]:
    """Monic a, b modulo m = p^k with a b = target there, lifted one power of p
    at a time from coprime monic a, b with a b = target mod p."""
    s, t = _bezout_mod(a, b, p)
    q = p
    while q < m:
        ab = _mul_mod(a, b, m)
        e = _reduce([(x // q) for x in _sub(target, ab)], p)
        quot, sigma = _divmod_mod(_mul_mod(t, e, p), a, p)
        tau = _reduce(_add(_mul_mod(s, e, p), _mul_mod(quot, b, p)), p)
        a = _reduce(_add(a, [q * x for x in sigma]), m)
        b = _reduce(_add(b, [q * x for x in tau]), m)
        q *= p
    return a, b


def _hensel_lift(target: list, factors: list, p: int, m: int) -> list:
    """Lifts modulo m of the monic factors mod p of the monic target, by
    splitting the factor list in halves and lifting each pair of products."""
    if len(factors) == 1:
        return [target]
    half = len(factors) // 2
    a, b = ([1], [1])
    for f in factors[:half]:
        a = _mul_mod(a, f, p)
    for f in factors[half:]:
        b = _mul_mod(b, f, p)
    a, b = _hensel_pair(target, a, b, p, m)
    return _hensel_lift(a, factors[:half], p, m) + _hensel_lift(b, factors[half:], p, m)


def _zassenhaus(g: list) -> list:
    """Primitive irreducible factors over Z of a primitive square-free g."""
    p, modular = _modular_factors(g)
    if len(modular) == 1:
        return [g]
    # Mignotte: a factor h of g, scaled to leading coefficient lc(g), has
    # coefficients of size at most 2^deg(g) * |g|_2 (lc(g) is a further
    # margin); m exceeds twice the bound, so h is its symmetric residue mod m
    bound = 2 ** (len(g) - 1) * (isqrt(sum(x * x for x in g)) + 1) * g[-1]
    m = p
    while m <= 2 * bound:
        m *= p
    lifted = _hensel_lift(_reduce([x * pow(g[-1], -1, m) for x in g], m), modular, p, m)
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            h = [g[-1]]
            for i in subset:
                h = _mul_mod(h, lifted[i], m)
            h = _primitive([x - m if 2 * x > m else x for x in h])
            quotient = _divide(g, h)
            if quotient is not None:
                out.append(h)
                g = quotient
                lifted = [f for i, f in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    out.append(g)
    return out
