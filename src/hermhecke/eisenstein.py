"""Exact arithmetic in the Eisenstein integers Z[w], w^2 + w + 1 = 0.

Elements are written a + b*w.  The ring is Euclidean with respect to the
norm N(a + b*w) = a^2 - a*b + b^2, and has unit group of order 6, so all
ideal arithmetic below is done with single generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class EisensteinInt:
    a: int
    b: int

    def __add__(self, other):
        other = _coerce(other)
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return EisensteinInt(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        # (a+bw)(c+dw) = ac + (ad+bc)w + bd w^2,  w^2 = -1-w
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def conj(self):
        # conj(w) = w^2 = -1-w
        return EisensteinInt(self.a - self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divmod(self, other: "EisensteinInt"):
        """Euclidean division: q, r with self = q*other + r, N(r) < N(other)."""
        q, r = _pdivmod((self.a, self.b), (other.a, other.b))
        return EisensteinInt(*q), EisensteinInt(*r)

    def __divmod__(self, other):
        return self.divmod(_coerce(other))

    def __floordiv__(self, other):
        return self.divmod(_coerce(other))[0]

    def __mod__(self, other):
        return self.divmod(_coerce(other))[1]

    def divides(self, other: "EisensteinInt") -> bool:
        return (not self.is_zero()) and (other % self).is_zero()

    def exact_div(self, other) -> "EisensteinInt":
        other = _coerce(other)
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError(f"{other} does not divide {self}")
        return q

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


def eis_norm(x: EisensteinInt) -> int:
    return x.norm()


def eis_gcd(x: EisensteinInt, y: EisensteinInt) -> EisensteinInt:
    while not y.is_zero():
        x, y = y, x % y
    return canonical_associate(x)


def canonical_associate(x: EisensteinInt) -> EisensteinInt:
    """Deterministic representative of x up to units.

    Picks the associate in the sector a > 0, 0 <= b < a, so rational
    integers are their own representatives.
    """
    if x.is_zero():
        return x
    return EisensteinInt(*_pmul(_associate_unit((x.a, x.b)), (x.a, x.b)))


def canonical_residue(x: EisensteinInt, g: EisensteinInt) -> EisensteinInt:
    """Deterministic representative of x mod g of minimal norm."""
    return EisensteinInt(*_reduce((x.a, x.b), (g.a, g.b))[1])


# --- int pairs --------------------------------------------------------------
# The hot loops (the neighbour line walk, Hermite and Smith forms, the
# integral LLL) hold a + b*w as a plain (a, b) tuple of ints, several times
# cheaper than the frozen dataclass.  These helpers are their arithmetic.
# They are private: every public function takes and returns EisensteinInt.

_UNIT_PAIRS = tuple((u.a, u.b) for u in UNITS)


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
    for u in _UNIT_PAIRS:
        a, b = _pmul(u, x)
        if a > 0 and 0 <= b < a:
            return u
    raise AssertionError(f"no sector associate for {x}")


def _reduce(x, g):
    """(q, r) with x = q*g + r and r the representative of x mod g of
    minimal norm, ties broken by (a, b).

    The minimal-norm coset representative is always within +-1 in each
    coordinate of the rounded quotient, so the nine neighbours of the
    Euclidean remainder r0 are scanned: r0 - da*g - db*(w g).
    """
    (qa, qb), (ra, rb) = _pdivmod(x, g)
    ga, gb = g
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


def from_sqrt3_form(u: Fraction, v: Fraction) -> EisensteinInt:
    """Convert u + v*sqrt(-3) to a + b*w; raises if not in Z[w]."""
    # u + v*sqrt(-3) = u + v(1 + 2w) = (u+v) + 2v*w
    a, b = u + v, 2 * v
    if a.denominator != 1 or b.denominator != 1:
        raise ValueError(f"{u}+{v}*sqrt(-3) is not an Eisenstein integer")
    return EisensteinInt(int(a), int(b))


def to_sqrt3_form(x: EisensteinInt):
    """Return (u, v) with x = u + v*sqrt(-3); half-integers appear as Fractions."""
    return Fraction(2 * x.a - x.b, 2), Fraction(x.b, 2)


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
            r = round(n ** 0.5)
            assert r * r == n
            return r
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
    if not _is_prime(p):
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
    # find a + bw of norm p by brute force; p = 1 mod 3 guarantees success
    # within |a|,|b| <= ceil(2*sqrt(p/3)).
    bound = int(2 * (p ** 0.5)) + 2
    for a in range(bound + 1):
        for b in range(-bound, bound + 1):
            if a * a - a * b + b * b == p:
                return EisensteinInt(a, b)
    raise ValueError(f"no element of norm {p}")  # pragma: no cover


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for 64-bit-and-beyond usage here
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_eis(text: str) -> EisensteinInt:
    """Parse the canonical rendering 'a+b*w' (also accepts bare integers)."""
    t = text.replace(" ", "")
    if "w" not in t:
        return EisensteinInt(int(t), 0)
    head, _, _ = t.partition("*w")
    # split into a and b at the last sign that separates the two terms
    for i in range(len(head) - 1, 0, -1):
        if head[i] in "+-" and head[i - 1] not in "+-*":
            return EisensteinInt(int(head[:i]), int(head[i:] or "1"))
    return EisensteinInt(0, int(head))
