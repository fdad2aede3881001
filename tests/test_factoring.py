"""charpoly_factors and factorint against sympy as an oracle."""

import math
import random

import pytest

from hermhecke.factoring import factorint, is_prime, small_factors
from hermhecke.linalg import charpoly_factors

sympy = pytest.importorskip("sympy")


def sympy_charpoly_factors(A):
    """The irreducible factors of A's char poly over Q, normalized as
    charpoly_factors normalizes them, computed by sympy."""
    from sympy.polys.matrices import DomainMatrix
    n = len(A)
    d = math.lcm(*[x.denominator for row in A for x in row])
    M = DomainMatrix([[sympy.ZZ(int(x * d)) for x in row] for row in A], (n, n), sympy.ZZ)
    _, factors = sympy.Poly(M.charpoly(), sympy.Symbol("x"), domain=sympy.ZZ).factor_list()
    out = []
    for poly, mult in factors:
        cs = [int(c) * d ** k for k, c in enumerate(reversed(poly.all_coeffs()))]
        g = math.gcd(*cs)
        out.append(([c // g for c in cs], int(mult)))
    return out


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def assert_matches_sympy(A):
    got = charpoly_factors(A)
    ref = sympy_charpoly_factors(A)
    assert got == sorted(got, key=lambda fm: (len(fm[0]), fm[0]))
    assert sorted(fm for fm in got if len(fm[0]) <= 3) == \
        sorted(fm for fm in ref if len(fm[0]) <= 3)
    # per multiplicity, one leftover: the product of sympy's larger factors
    big = {}
    for coeffs, mult in ref:
        if len(coeffs) > 3:
            big[mult] = poly_mul(big.get(mult, [1]), coeffs)
    left = [fm for fm in got if len(fm[0]) > 3]
    assert len({mult for _, mult in left}) == len(left)
    assert {mult: coeffs for coeffs, mult in left} == big


def companion(coeffs):
    """Companion matrix of the monic polynomial with these coefficients,
    lowest degree first."""
    k = len(coeffs) - 1
    return [[int(i == j + 1) - (coeffs[i] if j == k - 1 else 0) for j in range(k)]
            for i in range(k)]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def shear(A, rng, steps):
    """E A E^-1 for `steps` seeded elementary E = I + t e_ij: the same char
    poly on a basis that hides the blocks."""
    A = [list(row) for row in A]
    n = len(A)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice([-2, -1, 1, 2])
        A[i] = [a + t * b for a, b in zip(A[i], A[j])]
        for row in A:
            row[j] -= t * row[i]
    return A


LINEAR = [[-3, 1], [0, 1], [5, 1], [-7, 1]]
# x^2 - 2 is inert mod 3 and 5 and splits mod 7; x^2 + 1 is inert mod 3 and
# splits mod 5; x^2 - x - 48 is the field of labels 12 and 13, Q(sqrt(193));
# x^2 - 5x + 6 = (x - 2)(x - 3) is reducible
QUADRATIC = [[-2, 0, 1], [1, 0, 1], [-48, -1, 1], [6, -5, 1], [-1, -1, 1]]
CUBIC = [[-2, 0, 0, 1], [-3, 0, 0, 1], [1, -1, 0, 1], [-1, 1, 1, 1]]


@pytest.mark.parametrize("blocks", [
    [LINEAR[0]] * 3,
    [LINEAR[0], LINEAR[0], LINEAR[1], LINEAR[2]],
    [QUADRATIC[0]] * 2 + [QUADRATIC[1]],
    [QUADRATIC[2], QUADRATIC[2], LINEAR[3]],
    [QUADRATIC[3], QUADRATIC[0], QUADRATIC[4]],
    [CUBIC[0], CUBIC[0], LINEAR[0]],
    [CUBIC[0], CUBIC[1], QUADRATIC[0]],
    [CUBIC[2], CUBIC[3], CUBIC[3], QUADRATIC[1], QUADRATIC[1]],
], ids=["linear-cubed", "linear-repeated", "quadratic-inert-and-split",
        "sqrt193-squared", "quadratic-reducible", "cubic-squared",
        "two-cubics", "cubics-and-quadratics"])
def test_block_companions_match_sympy(blocks):
    rng = random.Random(len(blocks))
    A = block_diag([companion(c) for c in blocks])
    assert_matches_sympy(A)
    assert_matches_sympy(shear(A, rng, 3 * len(A)))


def test_random_matrices_match_sympy():
    rng = random.Random(20181)
    for case in range(240):
        n = rng.randint(1, 7)
        kind = case % 3
        if kind == 0:  # dense: the char poly is mostly irreducible
            A = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        elif kind == 1:  # triangular: integer roots, often repeated
            A = [[rng.randint(-3, 3) if j >= i else 0 for j in range(n)] for i in range(n)]
            A = shear(A, rng, 2 * n)
        else:  # random small blocks
            blocks = [rng.choice(LINEAR + QUADRATIC + CUBIC) for _ in range(rng.randint(1, 4))]
            A = shear(block_diag([companion(c) for c in blocks]), rng, 2 * n)
        assert_matches_sympy(A)


def test_fixture_factors_match_sympy(fx):
    for A in (fx.t2_20x20, fx.t3_20x20, fx.t2_5x5):
        assert charpoly_factors(A) == sorted(
            sympy_charpoly_factors(A), key=lambda fm: (len(fm[0]), fm[0]))


def test_small_factors_contract():
    # (x - 1)^2 (x^2 + 1) (x^3 - 2)^2 (x^3 - 3)^2: one leftover per multiplicity
    f = [1]
    for g in ([-1, 1], [-1, 1], [1, 0, 1], [-2, 0, 0, 1], [-2, 0, 0, 1],
              [-3, 0, 0, 1], [-3, 0, 0, 1]):
        f = poly_mul(f, g)
    assert sorted(small_factors(f)) == sorted([
        ([-1, 1], 2), ([1, 0, 1], 1), (poly_mul([-2, 0, 0, 1], [-3, 0, 0, 1]), 2)])


def test_factorint_matches_sympy():
    rng = random.Random(7)
    primes31 = []
    while len(primes31) < 6:
        q = rng.randrange(2 ** 30, 2 ** 31)
        if sympy.isprime(q):
            primes31.append(q)
    numbers = [1, 2, 3, 4, 997 * 997, 1009 * 1013, 2 ** 61 - 1, 3 ** 40, 1013 ** 3,
               primes31[0] ** 2, primes31[1] ** 3 * 6]
    numbers += [rng.randrange(1, 10 ** rng.randint(1, 15)) for _ in range(300)]
    numbers += [a * b for a, b in zip(primes31, primes31[1:])]
    for n in numbers:
        got = factorint(n)
        assert got == {int(p): int(e) for p, e in sympy.factorint(n).items()}, n
        assert list(got) == sorted(got)


def test_is_prime_matches_sympy():
    rng = random.Random(11)
    for n in list(range(-2, 3000)) + [rng.randrange(2 ** 40) for _ in range(500)]:
        assert is_prime(n) == bool(sympy.isprime(n)), n


def test_factorint_rejects_nonpositive():
    for n in (0, -6):
        with pytest.raises(ValueError):
            factorint(n)
