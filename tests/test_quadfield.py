import math
import operator
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hermhecke.eisenstein import is_prime
from hermhecke.errors import MixedFieldError
from hermhecke.quadfield import (QuadExtElem, UnsupportedCaseError,
                                 ideal_valuation, parse_quad, rational,
                                 sqrt_mod)

small = st.fractions(min_value=-30, max_value=30, max_denominator=20)


@given(small, small, small, small)
def test_field_axioms_193(a, b, c, d):
    x = QuadExtElem.of(a, b, 193)
    y = QuadExtElem.of(c, d, 193)
    assert (x + y) - y == x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@given(small, small)
def test_norm_trace(a, b):
    x = QuadExtElem.of(a, b, 193)
    assert x.field_norm() == a * a - 193 * b * b
    assert x.trace() == 2 * a
    assert x * x.conjugate() == QuadExtElem.of(x.field_norm())


def test_parse_roundtrip():
    x = parse_quad("23319+162*sqrt(193)")
    assert x.rational_part == 23319 and x.surd_part == 162 and x.D == 193
    assert parse_quad("-1072") == rational(-1072)
    assert parse_quad("45-18*sqrt(-14)").D == -14


@pytest.mark.parametrize("text,a,b,D", [
    ("1+sqrt(5)", 1, 1, 5), ("1-sqrt(5)", 1, -1, 5), ("-sqrt(5)", 0, -1, 5),
    ("sqrt(5)", 0, 1, 5), ("1/2-sqrt(-3)", Fraction(1, 2), -1, -3),
    ("-3/4*sqrt(193)", 0, Fraction(-3, 4), 193)])
def test_parse_implicit_unit_coefficient(text, a, b, D):
    x = parse_quad(text)
    assert (x.rational_part, x.surd_part, x.D) == (a, b, D)


@pytest.mark.parametrize("text", [
    "", "+", "1+", "12sqrt(5)", "1+2*sqrt(5", "sqrt()", "1+2+sqrt(5)", "--1",
    "1/0", "1+1/0*sqrt(5)", "x", "1.5", "2*sqrt(5)+1", "1+*sqrt(5)"])
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError, match=re.escape(repr(text))):
        parse_quad(text)


# --- against a Fraction-pair oracle -----------------------------------------

FIELDS = (1, -3, -5, -14, 5, 193)


class Pair:
    """r + s*sqrt(D) as a pair of Fractions, the arithmetic written out."""

    def __init__(self, r, s, D):
        self.r, self.s, self.D = (r + s, Fraction(0), D) if D == 1 else (r, s, D)

    def __add__(self, o):
        return Pair(self.r + o.r, self.s + o.s, self.D)

    def __sub__(self, o):
        return Pair(self.r - o.r, self.s - o.s, self.D)

    def __mul__(self, o):
        return Pair(self.r * o.r + self.D * self.s * o.s, self.r * o.s + self.s * o.r, self.D)

    def norm(self):
        return self.r * self.r - self.D * self.s * self.s

    def inverse(self):
        n = self.norm()
        return Pair(self.r / n, -self.s / n, self.D)

    def __truediv__(self, o):
        return self * o.inverse()

    def conjugate(self):
        return Pair(self.r, -self.s, self.D)


def agrees(x, pair):
    a, b, e, D = x
    return (x.rational_part == pair.r and x.surd_part == pair.s
            and x.D == (pair.D if pair.s else 1)
            and e > 0 and math.gcd(a, b, e) == 1 and (b == 0) == (D == 1))


@given(st.sampled_from(FIELDS), small, small, small, small)
def test_operations_against_the_pair_oracle(D, a, b, c, d):
    x, y = QuadExtElem.of(a, b, D), QuadExtElem.of(c, d, D)
    px, py = Pair(a, b, D), Pair(c, d, D)
    assert agrees(x, px) and agrees(y, py)
    assert agrees(x + y, px + py)
    assert agrees(x - y, px - py)
    assert agrees(x * y, px * py)
    assert agrees(-x, Pair(-a, -b, D))
    assert agrees(x.conjugate(), px.conjugate())
    assert x.field_norm() == px.norm() and x.trace() == 2 * px.r
    if py.norm():
        assert agrees(x / y, px / py)
        assert agrees(y.inverse(), py.inverse())
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    # mixed with a rational operand, on either side
    for k in (c, c.numerator):
        pk = Pair(Fraction(k), Fraction(0), D)
        assert agrees(x + k, px + pk) and agrees(k + x, px + pk)
        assert agrees(x - k, px - pk) and agrees(k - x, pk - px)
        assert agrees(x * k, px * pk) and agrees(k * x, px * pk)
        if k:
            assert agrees(x / k, px / pk)
        if px.norm():
            assert agrees(k / x, pk / px)


@given(st.sampled_from(FIELDS), small, small, st.integers(-30, 30))
def test_equality_and_hash_against_the_pair_oracle(D, a, b, k):
    x = QuadExtElem.of(a, b, D)
    px = Pair(a, b, D)
    for r in (k, Fraction(k), a, a + 1):
        equal = px.s == 0 and px.r == r
        assert (x == r) is equal and (r == x) is equal
        assert (x != r) is not equal and (r != x) is not equal
    if px.s == 0:
        assert hash(x) == hash(px.r)
        assert hash(rational(px.r)) == hash(px.r)
    y = QuadExtElem.of(px.r, px.s, D)
    assert x == y and not x != y and hash(x) == hash(y)
    assert parse_quad(str(x)) == x and str(parse_quad(str(x))) == str(x)


@given(st.sampled_from(FIELDS[1:]), st.sampled_from(FIELDS[1:]), small, small, small, small)
def test_mixed_fields_raise(D, E, a, b, c, d):
    x, y = QuadExtElem.of(a, b, D), QuadExtElem.of(c, d, E)
    if D == E or x.is_rational() or y.is_rational():
        return
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(MixedFieldError):
            op(x, y)
    assert x != y


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_float_operands_raise(op):
    x = parse_quad("1+2*sqrt(5)")
    with pytest.raises(TypeError):
        op(x, 1.5)
    with pytest.raises(TypeError):
        op(1.5, x)
    with pytest.raises(TypeError):
        QuadExtElem.of(1.5)


def test_values_are_immutable_and_unordered():
    x = parse_quad("1+2*sqrt(5)")
    with pytest.raises(AttributeError):
        x.a = 3
    with pytest.raises(TypeError):
        x < x


def test_mixed_rational_coercion():
    x = parse_quad("1+2*sqrt(193)")
    assert x + 1 == parse_quad("2+2*sqrt(193)")
    assert rational(5) * x == parse_quad("5+10*sqrt(193)")


def test_ideal_valuation_inert():
    # 193 is not a square mod 11, so 11 is inert in Q(sqrt(193))
    x = QuadExtElem.of(Fraction(1, 11), 11, 193)
    vals = ideal_valuation(x, 11, 193)
    assert vals == [("q", -1)]


def test_ideal_valuation_split():
    # 193 = 4^2 mod 59: split; sqrt(193)-4 is divisible by exactly one prime
    x = QuadExtElem.of(-4, 1, 193)
    vals = dict(ideal_valuation(x, 59, 193))
    assert set(vals) == {"q1", "q2"}
    assert sorted(vals.values()) == [0, 1]


def test_ideal_valuation_rational_split():
    vals = dict(ideal_valuation(QuadExtElem.of(59, 0, 193), 59, 193))
    assert vals == {"q1": 1, "q2": 1}


@pytest.mark.parametrize("D,q", [(193, 59), (193, 7), (5, 11), (13, 3)])
def test_split_valuations_of_powers(D, q):
    # r + sqrt(D) vanishes at the prime where sqrt(D) = -r, which is q1 for
    # r = -sqrt_mod(D, q) mod q; q || r^2 - D makes it a uniformizer there
    r = q - sqrt_mod(D, q)
    if (r * r - D) % (q * q) == 0:
        r += q
    assert (r * r - D) % q == 0 and (r * r - D) % (q * q) != 0
    for c, vc in ((1, 0), (q, 1), (Fraction(2, q * q), -2),
                  (Fraction(q ** 3, 5), 3)):
        x = QuadExtElem.of(c)
        for k in range(5):
            assert dict(ideal_valuation(x, q, D)) == {"q1": k + vc, "q2": vc}
            x = x * QuadExtElem.of(r, 1, D)


def test_unsupported_cases():
    with pytest.raises(UnsupportedCaseError):
        ideal_valuation(QuadExtElem.of(1, 1, 193), 2, 193)


def test_sqrt_mod_is_the_smallest_root():
    # against the residue scan it replaced, for every residue d mod every
    # prime q < 3000: the smallest r with r^2 = d, or None
    for q in range(2, 3000):
        if not is_prime(q):
            continue
        smallest = {}
        for r in range(q):
            smallest.setdefault(r * r % q, r)
        assert [sqrt_mod(d, q) for d in range(q)] == [smallest.get(d) for d in range(q)], q
