"""Elements a + b*sqrt(D) of quadratic extensions of Q, with exact arithmetic.

D = 1 encodes plain rationals.  Mixing distinct D in one operation is a
programming error and raises rather than coercing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import sqrt_mod_prime
from .errors import MixedFieldError, UnsupportedCaseError


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


@dataclass(frozen=True)
class QuadExtElem:
    rational_part: Fraction
    surd_part: Fraction
    D: int = 1

    @staticmethod
    def of(a, b=0, D=1) -> "QuadExtElem":
        a, b = _frac(a), _frac(b)
        return QuadExtElem(a, b, 1 if b == 0 else D)

    def _match(self, other) -> "QuadExtElem":
        if isinstance(other, (int, Fraction)):
            other = QuadExtElem(_frac(other), Fraction(0), 1)
        if not isinstance(other, QuadExtElem):
            raise TypeError(f"cannot coerce {other!r}")
        if other.D != self.D and other.D != 1 and self.D != 1:
            raise MixedFieldError(f"mixed discriminants {self.D} and {other.D}")
        return other

    def _lift(self, D: int) -> "QuadExtElem":
        return QuadExtElem(self.rational_part, self.surd_part, D) if self.D == 1 else self

    def __add__(self, other):
        other = self._match(other)
        D = self.D if self.D != 1 else other.D
        x, y = self._lift(D), other._lift(D)
        return QuadExtElem.of(x.rational_part + y.rational_part,
                              x.surd_part + y.surd_part, D)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtElem(-self.rational_part, -self.surd_part, self.D)

    def __sub__(self, other):
        return self + (-self._match(other))

    def __rsub__(self, other):
        return self._match(other) + (-self)

    def __mul__(self, other):
        other = self._match(other)
        D = self.D if self.D != 1 else other.D
        x, y = self._lift(D), other._lift(D)
        a, b, c, d = x.rational_part, x.surd_part, y.rational_part, y.surd_part
        return QuadExtElem.of(a * c + D * b * d, a * d + b * c, D)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExtElem":
        n = self.field_norm()
        if n == 0:
            raise ZeroDivisionError("zero element")
        return QuadExtElem.of(self.rational_part / n, -self.surd_part / n, self.D)

    def __truediv__(self, other):
        return self * self._match(other)._lift(self.D).inverse()

    def __rtruediv__(self, other):
        return self._match(other) * self.inverse()

    def conjugate(self) -> "QuadExtElem":
        return QuadExtElem(self.rational_part, -self.surd_part, self.D)

    def field_norm(self) -> Fraction:
        return self.rational_part ** 2 - self.D * self.surd_part ** 2

    def trace(self) -> Fraction:
        return 2 * self.rational_part

    def is_zero(self) -> bool:
        return self.rational_part == 0 and self.surd_part == 0

    def is_rational(self) -> bool:
        return self.surd_part == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.rational_part

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.surd_part == 0 and self.rational_part == other
        if isinstance(other, QuadExtElem):
            if self.surd_part == 0 and other.surd_part == 0:
                return self.rational_part == other.rational_part
            return (self.D == other.D and self.rational_part == other.rational_part
                    and self.surd_part == other.surd_part)
        return NotImplemented

    def __hash__(self):
        if self.surd_part == 0:
            return hash(self.rational_part)
        return hash((self.rational_part, self.surd_part, self.D))

    def __str__(self):
        if self.surd_part == 0:
            return str(self.rational_part)
        return f"{self.rational_part}{'+' if self.surd_part >= 0 else ''}{self.surd_part}*sqrt({self.D})"

    __repr__ = __str__


def rational(x) -> QuadExtElem:
    return QuadExtElem(_frac(x), Fraction(0), 1)


def int_sqrt_exact(n: int):
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def squarefree_decomposition(n: int):
    """n = core * square^2 with core squarefree (sign carried by core)."""
    from .factoring import factorint
    sign = -1 if n < 0 else 1
    n = abs(n)
    core, square = sign, 1
    for p, e in factorint(n).items():
        square *= p ** (e // 2)
        if e % 2:
            core *= p
    return core, square


def roots_of_factor(coeffs):
    """Roots of a degree <= 2 integer polynomial as QuadExtElem pairs.

    Returns a list of roots; for an irreducible quadratic both conjugate
    roots over Q(sqrt(disc_core)) with squarefree disc_core.
    """
    if len(coeffs) == 2:
        c0, c1 = coeffs
        return [QuadExtElem.of(Fraction(-c0, c1))]
    if len(coeffs) == 3:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        s = int_sqrt_exact(disc)
        if s is not None:
            return [QuadExtElem.of(Fraction(-c1 + s, 2 * c2)),
                    QuadExtElem.of(Fraction(-c1 - s, 2 * c2))]
        core, square = squarefree_decomposition(disc)
        return [QuadExtElem.of(Fraction(-c1, 2 * c2), Fraction(square, 2 * c2), core),
                QuadExtElem.of(Fraction(-c1, 2 * c2), Fraction(-square, 2 * c2), core)]
    raise ValueError("only degree <= 2 factors supported")


def parse_quad(text) -> QuadExtElem:
    """Parse 'a+b*sqrt(D)' (or a bare rational)."""
    if isinstance(text, int):
        return rational(text)
    t = str(text).replace(" ", "")
    if "sqrt" not in t:
        return rational(Fraction(t))
    body, _, tail = t.partition("*sqrt(")
    D = int(tail.rstrip(")"))
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "+-*/":
            return QuadExtElem.of(Fraction(body[:i]), Fraction(body[i:]), D)
    return QuadExtElem.of(0, Fraction(body or "1"), D)


def _valuation(n: int, q: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    return v


def sqrt_mod(D: int, q: int):
    """The smallest square root of D mod the prime q, or None."""
    r = sqrt_mod_prime(D, q)
    return None if r is None else min(r, q - r)


def ideal_valuation(x: QuadExtElem, q: int, D: int):
    """Valuations of x at the primes of Q(sqrt(D)) above an odd unramified q.

    Returns a list of (tag, valuation) pairs; tags are 'q' (inert),
    'q1'/'q2' (split, q1 the prime at which sqrt(D) = sqrt_mod(D, q)).

    Write x = q^m (a + b sqrt(D)) / den with q not dividing gcd(a, b).  At
    an inert q the prime (q) does not divide a + b sqrt(D).  Of the two
    primes above a split q, whose product is (q), at most the one at which
    a + b sqrt(D) = 0 mod q does, and it takes all of v_q(a^2 - D b^2).
    """
    if q == 2 or (2 * D) % q == 0:
        raise UnsupportedCaseError(f"prime {q} is even or ramified in Q(sqrt({D}))")
    if x.is_zero():
        raise ValueError("valuation of 0")
    if x.D not in (1, D):
        raise MixedFieldError(f"element lies in Q(sqrt({x.D})), not Q(sqrt({D}))")
    a, b = x.rational_part, x.surd_part
    den = math.lcm(a.denominator, b.denominator)
    na, nb = int(a * den), int(b * den)
    m = _valuation(math.gcd(na, nb), q)
    na, nb = na // q ** m, nb // q ** m
    m -= _valuation(den, q)
    r = sqrt_mod(D, q)
    if r is None:
        return [("q", m)]
    e = _valuation(na * na - D * nb * nb, q)
    if (na + nb * r) % q:
        return [("q1", m), ("q2", m + e)]
    return [("q1", m + e), ("q2", m)]


def divisible_at(x: QuadExtElem, q: int, tag: str = "") -> bool:
    """True iff x = 0 modulo the prime above q tagged `tag` (as returned by
    ideal_valuation), or modulo every prime above q when `tag` is empty.  A
    rational x is 0 modulo one prime above q iff it is 0 modulo q."""
    if x.is_zero():
        return True
    if x.is_rational():
        r = x.as_fraction()
        return r.denominator % q != 0 and r.numerator % q == 0
    vals = dict(ideal_valuation(x, q, x.D))
    if tag:
        return vals.get(tag, 0) >= 1
    return all(v >= 1 for v in vals.values())
