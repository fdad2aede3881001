"""Factoring over Z, as far as the spectral layer needs it.

`small_factors` splits a monic integer polynomial into its irreducible
factors of degree <= 2 (Cohen, GTM 138, §3.4-3.5): a squarefree split over
Z (Yun), then for each part the linear and quadratic factors modulo a small
prime p (distinct- and equal-degree splitting), Hensel-lifted by Newton's
iteration past a bound on the coefficients of such factors and confirmed by
exact division over Z.  `factorint` factors a positive integer by trial
division, Miller-Rabin and Pollard's rho (GTM 138, §8.5).

Polynomials are lists of int coefficients, lowest degree first, with no
trailing zeros; [] is the zero polynomial.  A modulus m > 0 reduces
coefficients to [0, m); m = 0 keeps them in Z.
"""

from __future__ import annotations

import itertools
import math
import random

from .eisenstein import is_prime


def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _mod(f, m):
    return _trim([c % m for c in f])


def _sub(f, g):
    n = max(len(f), len(g))
    return _trim([(f[k] if k < len(f) else 0) - (g[k] if k < len(g) else 0)
                  for k in range(n)])


def _deriv(f):
    return [k * c for k, c in enumerate(f)][1:]


def _mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _divmod(f, q, m=0):
    """Quotient and remainder of f by the monic q, reduced mod m if m."""
    r = list(f)
    dq = len(q) - 1
    quot = [0] * max(len(r) - dq, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = r[k + dq] % m if m else r[k + dq]
        quot[k] = c
        if c:
            for i in range(dq):
                r[k + i] -= c * q[i]
    rem = r[:dq]
    return quot, (_mod(rem, m) if m else _trim(rem))


def _mulmod(f, g, q, m):
    return _divmod(_mul(f, g), q, m)[1]


def _powmod(f, e, q, m):
    out, f = [1], _divmod(f, q, m)[1]
    while e:
        if e & 1:
            out = _mulmod(out, f, q, m)
        e >>= 1
        if e:
            f = _mulmod(f, f, q, m)
    return out


def _monic(f, p):
    inv = pow(f[-1], -1, p)
    return [c * inv % p for c in f]


def _gcd_mod(f, g, p):
    """Monic gcd of f != 0 and g modulo the prime p."""
    while g:
        g = _monic(g, p)
        f, g = g, _divmod(f, g, p)[1]
    return _monic(f, p)


def _primitive(f):
    g = math.gcd(*f)
    return [c // g for c in f]


def _gcd_z(f, g):
    """Monic gcd of integer polynomials f and g, f monic, by the primitive
    PRS.  A monic divisor of a monic integer polynomial is integral (Gauss),
    so the primitive gcd is monic up to sign."""
    while g:
        r, lc, dg = list(f), g[-1], len(g) - 1
        while len(r) > dg:  # pseudo-remainder of f by g
            c, shift = r[-1], len(r) - 1 - dg
            r = [lc * x for x in r]
            for i, b in enumerate(g):
                r[shift + i] -= c * b
            _trim(r)
        f, g = g, _primitive(r) if r else []
    f = _primitive(f)
    return f if f[-1] > 0 else [-c for c in f]


def _squarefree_parts(f):
    """[(g, i)] with f = prod g^i, the g monic, squarefree, pairwise coprime
    and of positive degree (Yun).  f is monic; every division below is by a
    monic integer polynomial, so it stays in Z."""
    df = _deriv(f)
    a = _gcd_z(f, df)
    b, c = _divmod(f, a)[0], _divmod(df, a)[0]
    parts = []
    for i in itertools.count(1):
        if len(b) < 2:
            return parts
        d = _sub(c, _deriv(b))
        a = _gcd_z(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b, c = _divmod(b, a)[0], _divmod(d, a)[0]


def _equal_degree(h, d, p, rng):
    """Monic irreducible factors of h, a squarefree product of irreducible
    factors of degree d modulo the odd prime p (Cantor-Zassenhaus)."""
    if len(h) - 1 <= d:
        return [h] if len(h) > 1 else []
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(h) - 1)])
        if len(a) < 2:
            continue
        u = _gcd_mod(h, _mod(_sub(_powmod(a, e, h, p), [1]), p), p)
        if 1 < len(u) < len(h):
            return (_equal_degree(u, d, p, rng)
                    + _equal_degree(_divmod(h, u, p)[0], d, p, rng))


def _inverse_mod(a, q, m):
    """Inverse of a mod the monic q of degree 1 or 2, coefficients mod m.
    For q = x^2 + c1 x + c0 with root t, 1/(a0 + a1 t) is
    (a0 - a1 c1 - a1 t)/N, N = a0^2 - a0 a1 c1 + a1^2 c0 the norm."""
    a0, a1 = (a + [0, 0])[:2]
    if len(q) == 2:
        return [pow(a0, -1, m)]
    c0, c1 = q[0], q[1]
    inv = pow(a0 * a0 - a0 * a1 * c1 + a1 * a1 * c0, -1, m)
    return _mod([(a0 - a1 * c1) * inv, -a1 * inv], m)


def _lift(g, q, p, modulus):
    """Newton-lift the monic factor q of g mod p to the modulus p^(2^j):
    with g = q h + r, q becomes q + r h^-1 mod q, doubling the precision.
    h is a unit mod (q, p) because g is squarefree mod p."""
    m = p
    while m < modulus:
        m *= m
        h, r = _divmod(g, q, m)
        delta = _mulmod(r, _inverse_mod(_divmod(h, q, m)[1], q, m), q, m)
        q = [(c + (delta[k] if k < len(delta) else 0)) % m for k, c in enumerate(q)]
    return q


def _split_squarefree(g):
    """The irreducible factors of degree <= 2 of the monic squarefree g and,
    if anything is left, the product of its other factors, which then has
    no factor of degree <= 2.

    p is the least odd prime modulo which g stays squarefree.  An integer
    factor of degree <= 2 is, modulo p, one root, two roots or one
    irreducible quadratic, so lifting those and testing each root, each
    pair of roots and each quadratic by exact division finds all of them
    (Zassenhaus's recombination, cut at degree 2)."""
    if len(g) < 3:
        return [g]
    n = len(g) - 1
    dg = _deriv(g)
    p = next(p for p in itertools.count(3, 2)
             if is_prime(p) and len(_gcd_mod(_mod(g, p), _mod(dg, p), p)) == 1)
    rng = random.Random(p)
    gp = _mod(g, p)
    xp = _powmod([0, 1], p, gp, p)
    linear = _gcd_mod(gp, _mod(_sub(xp, [0, 1]), p), p)
    rest = _divmod(gp, linear, p)[0]
    quadratic = [1]
    if len(rest) > 2:
        xpp = _powmod(_divmod(xp, rest, p)[1], p, rest, p)
        quadratic = _gcd_mod(rest, _mod(_sub(xpp, [0, 1]), p), p)
    # Fujiwara: every root has |z| <= 2 max |g_(n-i)|^(1/i) <= radius, so a
    # factor of degree <= 2 has coefficients of absolute value <= radius^2
    radius = 2 ** (1 + max(-(-abs(c).bit_length() // (n - k))
                           for k, c in enumerate(g[:-1])))
    m = p
    while m <= 2 * radius * radius:
        m *= m
    roots = [_lift(g, q, p, m)[0] for q in _equal_degree(linear, 1, p, rng)]
    quads = [_lift(g, q, p, m) for q in _equal_degree(quadratic, 2, p, rng)]

    def sym(c):
        return c - m if 2 * c > m else c

    found, left = [], g

    def take(cand):  # keep cand if it divides what is left
        nonlocal left
        quot, rem = _divmod(left, cand)
        if not rem:
            found.append(cand)
            left = quot
        return not rem

    unpaired = [r for r in roots if not take([sym(r), 1])]  # q = x + r
    while unpaired:
        r = unpaired.pop()
        s = next((s for s in unpaired if take([sym(r * s % m), sym((r + s) % m), 1])), None)
        if s is not None:
            unpaired.remove(s)
    for q in quads:
        take([sym(c) for c in q])
    return found + ([left] if len(left) > 1 else [])


def small_factors(f):
    """Factors of the monic integer polynomial f as (coeffs, multiplicity),
    coefficients lowest degree first, every factor monic.

    Every factor of degree <= 2 is irreducible.  For each multiplicity at
    most one more factor has degree >= 3: the product of the irreducible
    factors of degree >= 3 with that multiplicity, none of degree <= 2."""
    return [(h, mult) for g, mult in _squarefree_parts(f)
            for h in _split_squarefree(g)]


def _rho(n):
    """A proper factor of the odd composite n (Pollard's rho, Floyd's
    cycle finding); a constant c whose walk closes on n is replaced."""
    for c in itertools.count(1):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(x - y, n)
        if d != n:
            return d


def factorint(n: int) -> dict:
    """{prime: exponent} for an integer n >= 1, primes in ascending order."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    primes = []
    for q in itertools.chain((2,), range(3, 1000, 2)):
        if q * q > n:
            break
        while n % q == 0:
            primes.append(q)
            n //= q
    stack = [n] if n > 1 else []
    while stack:
        k = stack.pop()
        if is_prime(k):
            primes.append(k)
        else:
            d = _rho(k)
            stack += [d, k // d]
    return {q: primes.count(q) for q in sorted(set(primes))}
