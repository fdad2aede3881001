"""Exact arithmetic in the Eisenstein integers Z[w], w^2 + w + 1 = 0.

Elements are written a + b*w.  The ring is Euclidean with respect to the
norm N(a + b*w) = a^2 - a*b + b^2, and has unit group of order 6, so all
ideal arithmetic below is done with single generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple


class EisensteinInt(NamedTuple):
    """a + b*w as the int pair (a, b).

    The operators take EisensteinInt or int operands (never a plain tuple,
    so no tuple concatenation or repetition can slip through) and defer to
    the pair helpers below, which hold the ring's arithmetic.
    """

    a: int
    b: int

    def __add__(self, other):
        c, d = _coerce(other)
        return EisensteinInt(self.a + c, self.b + d)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other):
        c, d = _coerce(other)
        return EisensteinInt(self.a - c, self.b - d)

    def __rsub__(self, other):
        c, d = _coerce(other)
        return EisensteinInt(c - self.a, d - self.b)

    def __mul__(self, other):
        return EisensteinInt(*_pmul(self, _coerce(other)))

    __rmul__ = __mul__

    def conj(self):
        return EisensteinInt(*_pconj(self))

    def norm(self) -> int:
        return _pnorm(self)

    def is_zero(self) -> bool:
        return self == ZERO

    def is_unit(self) -> bool:
        return _pnorm(self) == 1

    def divmod(self, other: "EisensteinInt"):
        """Euclidean division: q, r with self = q*other + r, N(r) < N(other)."""
        q, r = _pdivmod(self, other)
        return EisensteinInt(*q), EisensteinInt(*r)

    def __divmod__(self, other):
        return self.divmod(_coerce(other))

    def __floordiv__(self, other):
        return self.divmod(_coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(_coerce(other))[1]

    def divides(self, other: "EisensteinInt") -> bool:
        return (not self.is_zero()) and (other % self).is_zero()

    def __str__(self):
        return f"{self.a}{self.b:+d}*w"

    __repr__ = __str__


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)
SQRT_M3 = EisensteinInt(1, 2)  # sqrt(-3) = 1 + 2w, norm 3

#: The six units of Z[w].
UNITS = (
    EisensteinInt(1, 0), EisensteinInt(0, 1), EisensteinInt(-1, -1),
    EisensteinInt(-1, 0), EisensteinInt(0, -1), EisensteinInt(1, 1),
)


def _coerce(x) -> EisensteinInt:
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    raise TypeError(f"cannot coerce {x!r} to EisensteinInt")


def eis(a: int, b: int = 0) -> EisensteinInt:
    return EisensteinInt(a, b)


def canonical_associate(x: EisensteinInt) -> EisensteinInt:
    """Deterministic representative of x up to units.

    Picks the associate in the sector a > 0, 0 <= b < a, so rational
    integers are their own representatives.
    """
    if x.is_zero():
        return x
    return EisensteinInt(*_pmul(_associate_unit(x), x))


# --- pair arithmetic --------------------------------------------------------
# The ring's arithmetic on (a, b) pairs: an EisensteinInt or a plain tuple
# of two ints.  EisensteinInt's operators call these; the hot loops (the
# neighbour line walk, Hermite and Smith forms, the integral LLL, the
# isometry search) call them directly and keep their intermediate values
# as plain tuples, which are cheaper to build.


def _pmul(x, y):
    a, b = x
    c, d = y
    # (a+bw)(c+dw) = ac + (ad+bc)w + bd w^2,  w^2 = -1-w
    return a * c - b * d, a * d + b * c - b * d


def _pconj(x):
    a, b = x
    # conj(w) = w^2 = -1-w
    return a - b, -b


def _pconj_mul(x, y):
    """conj(x) * y, the term of a Hermitian inner product."""
    a, b = x
    c, d = y
    return a * c - b * c + b * d, a * d - b * c


def _pdot(X, Y):
    """sum_k X_k * Y_k over two pair vectors."""
    ac = bd = adbc = 0
    for (a, b), (c, d) in zip(X, Y):
        ac += a * c
        bd += b * d
        adbc += a * d + b * c
    return ac - bd, adbc - bd


def _pnorm(x) -> int:
    a, b = x
    return a * a - a * b + b * b


def _pdivmod(x, y):
    """Euclidean division: q, r with x = q*y + r, N(r) < N(y); q is x/y
    rounded coordinatewise, ties toward +infinity."""
    a, b = x
    c, d = y
    n = c * c - c * d + d * d
    if not n:
        raise ZeroDivisionError("division by zero Eisenstein integer")
    # x * conj(y), conj(c + d w) = (c - d) - d w
    na, nb = a * c - a * d + b * d, b * c - a * d
    qa, qb = (2 * na + n) // (2 * n), (2 * nb + n) // (2 * n)
    return (qa, qb), (a - qa * c + qb * d, b - qa * d - qb * c + qb * d)


def _sub_multiple(X, q, Y):
    """The pair vector X - q*Y."""
    qa, qb = q
    return [(xa - qa * ya + qb * yb, xb - qa * yb - qb * ya + qb * yb)
            for (xa, xb), (ya, yb) in zip(X, Y)]


def _associate_unit(x):
    """The unit u with u*x in the sector a > 0, 0 <= b < a; x nonzero."""
    for u in UNITS:
        a, b = _pmul(u, x)
        if a > 0 and 0 <= b < a:
            return u
    raise AssertionError(f"no sector associate for {x}")


def _reduce(x, g):
    """(q, r) with x = q*g + r and r the representative of x mod g of
    minimal norm, ties broken by (a, b).

    The minimal-norm coset representative is always within +-1 in each
    coordinate of the rounded quotient, so the nine neighbours of the
    Euclidean remainder r0 are scanned: r0 - da*g - db*(w g).  The scan is
    skipped when 4 N(r0) < N(g): then r0 lies strictly inside the Voronoi
    cell of g Z[w] about 0, whose inradius is |g|/2, and is the unique
    minimal representative.
    """
    q, r = _pdivmod(x, g)
    ra, rb = r
    ga, gb = g
    if 4 * (ra * ra - ra * rb + rb * rb) < ga * ga - ga * gb + gb * gb:
        return q, r
    qa, qb = q
    wa, wb = -gb, ga - gb       # w*g
    best = None
    for da in (-1, 0, 1):
        for db in (-1, 0, 1):
            a = ra - da * ga - db * wa
            b = rb - da * gb - db * wb
            key = (a * a - a * b + b * b, a, b)
            if best is None or key < best[0]:
                best = (key, da, db)
    (_, a, b), da, db = best
    return (qa + da, qb + db), (a, b)


@dataclass(frozen=True)
class EisIdeal:
    """An ideal of Z[w] given by a single generator (the ring is a PID)."""

    generator: EisensteinInt
    residue_norm: int
    split_type: str  # "split" | "inert" | "ramified"

    def conjugate(self) -> "EisIdeal":
        return EisIdeal(canonical_associate(self.generator.conj()),
                        self.residue_norm, self.split_type)

    @property
    def p(self) -> int:
        """The rational prime below."""
        n = self.residue_norm
        if self.split_type == "inert":
            return math.isqrt(n)
        return n

    def __str__(self):
        g = self.generator
        if g.b == 0:
            return f"({g.a})"
        if canonical_associate(g) == canonical_associate(SQRT_M3):
            return "(sqrt-3)"
        return f"({g})"


def classify_prime(p: int):
    """Split behaviour of a rational prime in Q(sqrt(-3)).

    Returns (split_type, [primes above p]).  3 ramifies, p = 1 mod 3
    splits, p = 2 mod 3 is inert.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return "ramified", [EisIdeal(SQRT_M3, 3, "ramified")]
    if p % 3 == 1:
        g = _split_generator(p)
        return "split", [
            EisIdeal(canonical_associate(g), p, "split"),
            EisIdeal(canonical_associate(g.conj()), p, "split"),
        ]
    return "inert", [EisIdeal(EisensteinInt(p, 0), p * p, "inert")]


def ideal_above(p: int) -> EisIdeal:
    """A prime ideal above p (first in the classify_prime ordering)."""
    return classify_prime(p)[1][0]


def _split_generator(p: int) -> EisensteinInt:
    """The element a + b*w of norm p, for a prime p = 1 mod 3, with the
    least (a, b) and a >= 0.

    Cornacchia's algorithm solves x^2 + 3y^2 = p: Euclid on p and a square
    root of -3 mod p stops at the first remainder x below sqrt(p).  Then
    g = (x + y) + 2y*w has norm p, and the elements of norm p are the 12
    associates of g and of its conjugate."""
    a, x = p, sqrt_mod_prime(-3, p)
    while x * x > p:
        a, x = x, a % x
    y = math.isqrt((p - x * x) // 3)
    if x * x + 3 * y * y != p:
        raise AssertionError(f"no element of norm {p}")
    g = (x + y, 2 * y)
    return EisensteinInt(*min(h for h in (_pmul(u, c) for u in UNITS for c in (g, _pconj(g)))
                              if h[0] >= 0))


def sqrt_mod_prime(a: int, p: int):
    """A square root of a modulo the prime p, or None if a is not a square
    mod p: Tonelli-Shanks, O(log p) multiplications mod p once a quadratic
    non-residue is found.  For a composite p it returns a root or None."""
    a %= p
    if a == 0 or p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next((z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1), None)
    if z is None:
        return None
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    # r^2 = a t, with t of order dividing 2^(s-1) and c of order 2^s
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1 and i < s:
            i, t2 = i + 1, t2 * t2 % p
        if i >= s:
            return None
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r if r * r % p == a else None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: exact below 3*10^23,
    a strong probable-prime test above."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
