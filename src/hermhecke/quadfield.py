"""Elements (a + b*sqrt(D)) / e of quadratic extensions of Q, in ints.

An element is the four ints (a, b, e, D) in lowest terms: e > 0,
gcd(a, b, e) = 1, and D = 1 exactly when b = 0, so D = 1 encodes plain
rationals and each value has one representation.  Every operation makes
one gcd for its result and no Fraction; `rational_part`, `surd_part`,
`field_norm`, `trace` and `as_fraction` are Fraction-valued views.  Mixing
distinct D in one operation is a programming error and raises rather than
coercing.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from operator import itemgetter

from .eisenstein import sqrt_mod_prime
from .errors import MixedFieldError, UnsupportedCaseError

_new = tuple.__new__
_gcd = math.gcd


class QuadExtElem(tuple):
    """(a + b*sqrt(D)) / e as the tuple of ints (a, b, e, D), in lowest terms.

    QuadExtElem(a, b, e, D) reduces its int arguments; `of` takes
    rationals.  The operators take QuadExtElem, int or Fraction operands.
    A rational value equals and hashes like its int or Fraction.  Values
    are not ordered.
    """

    __slots__ = ()

    a = property(itemgetter(0), doc="numerator of the rational part")
    b = property(itemgetter(1), doc="numerator of the surd part")
    e = property(itemgetter(2), doc="common denominator, > 0")
    D = property(itemgetter(3), doc="the field Q(sqrt(D)); 1 for a rational")

    def __new__(cls, a: int, b: int = 0, e: int = 1, D: int = 1):
        # math.gcd in _reduce raises TypeError on a non-int a, b or e
        if e == 0:
            raise ZeroDivisionError("denominator 0")
        if D == 1:
            a, b = a + b, 0
        return _reduce(a, b, e, D)

    def __getnewargs__(self):
        return tuple(self)

    @staticmethod
    def of(a, b=0, D=1) -> "QuadExtElem":
        """a + b*sqrt(D) for ints or Fractions a and b."""
        (n, d), (m, f) = _ratio(a), _ratio(b)
        return QuadExtElem(n * f, m * d, d * f, D)

    def __add__(self, other):
        a, b, e, D = self
        c, d, f, E = _operand(other)
        if E != D:
            D = _common_field(D, E)
        if e == f:
            return _reduce(a + c, b + d, e, D)
        return _reduce(a * f + c * e, b * f + d * e, e * f, D)

    __radd__ = __add__

    def __neg__(self):
        a, b, e, D = self
        return _new(QuadExtElem, (-a, -b, e, D))

    def __sub__(self, other):
        a, b, e, D = self
        c, d, f, E = _operand(other)
        if E != D:
            D = _common_field(D, E)
        if e == f:
            return _reduce(a - c, b - d, e, D)
        return _reduce(a * f - c * e, b * f - d * e, e * f, D)

    def __rsub__(self, other):
        return _operand(other) - self

    def __mul__(self, other):
        a, b, e, D = self
        c, d, f, E = _operand(other)
        if E != D:
            D = _common_field(D, E)
        return _reduce(a * c + D * b * d, a * d + b * c, e * f, D)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # (a + b r)/e / ((c + d r)/f) = f (a + b r)(c - d r) / (e (c^2 - D d^2))
        a, b, e, D = self
        c, d, f, E = _operand(other)
        if E != D:
            D = _common_field(D, E)
        n = c * c - D * d * d
        if not n:
            raise ZeroDivisionError("division by a zero element")
        return _reduce(f * (a * c - D * b * d), f * (b * c - a * d), e * n, D)

    def __rtruediv__(self, other):
        return _operand(other) / self

    def inverse(self) -> "QuadExtElem":
        return _ONE / self

    def conjugate(self) -> "QuadExtElem":
        a, b, e, D = self
        return _new(QuadExtElem, (a, -b, e, D))

    def __eq__(self, other):
        if type(other) is QuadExtElem:
            return tuple.__eq__(self, other)
        if isinstance(other, int):
            return self[1] == 0 and self[2] == 1 and self[0] == other
        if isinstance(other, Fraction):
            return (self[1] == 0 and self[0] == other.numerator
                    and self[2] == other.denominator)
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        a, b, e, _ = self
        if b:
            return tuple.__hash__(self)
        return _rational_hash(a, e)

    def _unordered(self, other):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    @property
    def rational_part(self) -> Fraction:
        return Fraction(self[0], self[2])

    @property
    def surd_part(self) -> Fraction:
        return Fraction(self[1], self[2])

    def field_norm(self) -> Fraction:
        a, b, e, D = self
        return Fraction(a * a - D * b * b, e * e)

    def trace(self) -> Fraction:
        return Fraction(2 * self[0], self[2])

    def is_zero(self) -> bool:
        return self[0] == 0 and self[1] == 0

    def is_rational(self) -> bool:
        return self[1] == 0

    def as_fraction(self) -> Fraction:
        if self[1]:
            raise ValueError(f"{self} is not rational")
        return Fraction(self[0], self[2])

    def __str__(self):
        a, b, e, D = self
        if not b:
            return _ratio_str(a, e)
        return f"{_ratio_str(a, e)}{'+' if b > 0 else ''}{_ratio_str(b, e)}*sqrt({D})"

    __repr__ = __str__


def _reduce(a: int, b: int, e: int, D: int) -> QuadExtElem:
    """(a + b*sqrt(D)) / e in lowest terms, for ints with e != 0 and D = 1
    only if b = 0: one gcd."""
    if e < 0:
        a, b, e = -a, -b, -e
    g = _gcd(a, b, e)
    if g != 1:
        a, b, e = a // g, b // g, e // g
    return _new(QuadExtElem, (a, b, e, D if b else 1))


def _operand(x) -> QuadExtElem:
    if type(x) is QuadExtElem:
        return x
    if isinstance(x, int):
        return _new(QuadExtElem, (x, 0, 1, 1))
    if isinstance(x, Fraction):
        return _new(QuadExtElem, (x.numerator, 0, x.denominator, 1))
    raise TypeError(f"cannot coerce {x!r} to QuadExtElem")


def _common_field(D: int, E: int) -> int:
    """The D of a result from operands in Q(sqrt(D)) and Q(sqrt(E))."""
    if D == 1:
        return E
    if E == 1:
        return D
    raise MixedFieldError(f"mixed discriminants {D} and {E}")


def _ratio(x):
    """(numerator, denominator) of an int or a Fraction."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _ratio_str(n: int, d: int) -> str:
    """n/d in lowest terms as str(Fraction(n, d)) writes it, for d > 0."""
    g = _gcd(n, d)
    return str(n // g) if d == g else f"{n // g}/{d // g}"


_HASH_MODULUS = sys.hash_info.modulus


def _rational_hash(n: int, d: int) -> int:
    """hash(Fraction(n, d)) for coprime n and d > 0, by Python's rule for
    numeric hashes: n * d^-1 modulo the hash modulus."""
    if d == 1:
        return hash(n)
    if d % _HASH_MODULUS == 0:
        h = sys.hash_info.inf
    else:
        h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
    h = h if n >= 0 else -h
    return -2 if h == -1 else h


_ONE = _new(QuadExtElem, (1, 0, 1, 1))


def rational(x) -> QuadExtElem:
    """The int or Fraction x as a QuadExtElem."""
    n, d = _ratio(x)
    return _new(QuadExtElem, (n, 0, d, 1))


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
        return [QuadExtElem(-c0, 0, c1)]
    if len(coeffs) == 3:
        c0, c1, c2 = coeffs
        disc = c1 * c1 - 4 * c2 * c0
        s = int_sqrt_exact(disc)
        if s is not None:
            return [QuadExtElem(-c1 + s, 0, 2 * c2), QuadExtElem(-c1 - s, 0, 2 * c2)]
        core, square = squarefree_decomposition(disc)
        return [QuadExtElem(-c1, square, 2 * c2, core),
                QuadExtElem(-c1, -square, 2 * c2, core)]
    raise ValueError("only degree <= 2 factors supported")


_RATIO = r"\d+(?:/\d+)?"
# a rational part, then a signed surd part; either may be missing, and a
# surd part without a coefficient has the coefficient 1
_QUAD_RE = re.compile(rf"(?P<a>[+-]?{_RATIO}(?=[+-]|$))?"
                      rf"(?:(?P<sign>[+-])?(?:(?P<b>{_RATIO})\*)?sqrt\((?P<D>[+-]?\d+)\))?")


def parse_quad(text) -> QuadExtElem:
    """Parse 'a+b*sqrt(D)' as `str` writes it, a bare rational, or a surd
    part with an implicit coefficient +-1 ('1-sqrt(5)', 'sqrt(5)').
    ValueError, naming the text, on anything else."""
    if isinstance(text, int):
        return rational(text)
    t = str(text).replace(" ", "")
    m = _QUAD_RE.fullmatch(t)
    if not t or m is None:
        raise ValueError(f"not an element of a quadratic field: {text!r}")
    n, d = _parse_ratio(m["a"] or "0", text)
    if m["D"] is None:
        return QuadExtElem(n, 0, d)
    s, f = _parse_ratio(m["b"] or "1", text)
    if m["sign"] == "-":
        s = -s
    return QuadExtElem(n * f, s * d, d * f, int(m["D"]))


def _parse_ratio(part: str, text) -> tuple:
    num, _, den = part.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return int(num), int(den or 1)


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

    Write x = q^m (a + b sqrt(D)) / e with q not dividing gcd(a, b).  At
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
    a, b, e, _ = x
    m = _valuation(math.gcd(a, b), q)
    a, b = a // q ** m, b // q ** m
    m -= _valuation(e, q)
    r = sqrt_mod(D, q)
    if r is None:
        return [("q", m)]
    v = _valuation(a * a - D * b * b, q)
    if (a + b * r) % q:
        return [("q1", m), ("q2", m + v)]
    return [("q1", m + v), ("q2", m)]


def divisible_at(x: QuadExtElem, q: int, tag: str = "") -> bool:
    """True iff x = 0 modulo the prime above q tagged `tag` (as returned by
    ideal_valuation), or modulo every prime above q when `tag` is empty.  A
    rational x is 0 modulo one prime above q iff it is 0 modulo q."""
    if x.is_zero():
        return True
    if x.is_rational():
        return x.e % q != 0 and x.a % q == 0
    vals = dict(ideal_valuation(x, q, x.D))
    if tag:
        return vals.get(tag, 0) >= 1
    return all(v >= 1 for v in vals.values())
