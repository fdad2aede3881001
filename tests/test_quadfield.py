from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hermhecke.eisenstein import is_prime
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
