import math
import time

import pytest
from hypothesis import example, given, strategies as st

from hermhecke.eisenstein import (EisensteinInt, ONE, canonical_associate,
                                  classify_prime, eis, ideal_above, is_prime,
                                  sqrt_mod_prime, _pconj, _pdivmod, _pmul,
                                  _pnorm, _reduce, _split_generator)

small = st.integers(-50, 50)
nonzero = st.tuples(small, small).filter(lambda t: t != (0, 0))


@given(small, small, small, small)
def test_norm_multiplicative(a, b, c, d):
    x, y = eis(a, b), eis(c, d)
    assert (x * y).norm() == x.norm() * y.norm()


@given(small, small)
def test_conj_norm(a, b):
    x = eis(a, b)
    assert (x * x.conj()).norm() == x.norm() ** 2
    assert x.conj().conj() == x


@given(st.tuples(small, small), nonzero)
def test_divmod_reduces_norm(xt, yt):
    x, y = eis(*xt), eis(*yt)
    q, r = divmod(x, y)
    assert q * y + r == x
    assert r.norm() < y.norm()


@given(nonzero)
def test_canonical_associate_idempotent(t):
    x = eis(*t)
    c = canonical_associate(x)
    assert c.norm() == x.norm()
    assert canonical_associate(c) == c
    # exactly one associate among the six units is canonical
    w = eis(0, 1)
    units, u = [], eis(1)
    for _ in range(6):
        units.append(u)
        u = u * w
    assert {canonical_associate(x * u) for u in units} == {c}


def test_classify_primes():
    assert classify_prime(3)[0] == "ramified"
    for p in (7, 13, 19, 31, 37, 43, 61):
        assert classify_prime(p)[0] == "split"
        assert len(classify_prime(p)[1]) == 2
    for p in (2, 5, 11, 17, 23, 29, 41, 47):
        assert classify_prime(p)[0] == "inert"


def test_ideal_above():
    P3 = ideal_above(3)
    assert P3.residue_norm == 3
    assert (P3.generator * P3.generator.conj()).norm() == 9
    P2 = ideal_above(2)
    assert P2.residue_norm == 4
    P7 = ideal_above(7)
    assert P7.residue_norm == 7
    assert P7.generator * P7.generator.conj() == eis(7)
    assert canonical_associate(P7.conjugate().generator) == \
        canonical_associate(P7.generator.conj())


def test_inert_prime_beyond_float_precision():
    # p = 2 mod 3 just above 2^67: p^2 is not exact as a float
    p = 147573952589676412931
    P = ideal_above(p)
    assert P.split_type == "inert" and P.residue_norm == p * p
    assert P.p == p


@given(small, small, nonzero)
@example(9, 12, (6, 6))     # the remainder 3 lies on the Voronoi cell's edge
def test_canonical_residue(a, b, gt):
    # _reduce's minimal-norm residue drives the LLL and Hermite rounding
    g = eis(*gt)
    x = eis(a, b)
    q, r = _reduce(x, g)
    assert eis(*q) * g + eis(*r) == x
    assert g.divides(x - eis(*r))
    # canonical representative is stable on the residue class
    assert _reduce(r, g) == ((0, 0), r)
    # and the least (norm, a, b) among r - u*g, u = ua + ub*w in a +-2 box
    box = [eis(*r) - eis(ua, ub) * g
           for ua in range(-2, 3) for ub in range(-2, 3)]
    assert min((y.norm(), y.a, y.b) for y in box) == (eis(*r).norm(), *r)


# --- one representation: EisensteinInt is the (a, b) pair -------------------

@given(st.tuples(small, small), nonzero)
def test_operators_are_the_pair_helpers(xt, yt):
    x, y = eis(*xt), eis(*yt)
    assert x * y == _pmul(xt, yt)
    assert x + y == (xt[0] + yt[0], xt[1] + yt[1])
    assert x.conj() == _pconj(xt)
    assert x.norm() == _pnorm(xt)
    assert divmod(x, y) == _pdivmod(xt, yt)
    assert x == xt and hash(x) == hash(xt)
    assert repr(x) == f"{xt[0]}{xt[1]:+d}*w"


def test_no_tuple_concatenation_or_repetition():
    with pytest.raises(TypeError):
        (1, 0) + ONE
    with pytest.raises(TypeError):
        ONE * (1, 0)


def test_public_results_are_eisenstein_ints():
    from hermhecke.eismat import column_hermite_form, eis_det, smith_invariants
    from hermhecke.lattice import HermitianLattice, hermitian_lll
    from hermhecke.neighbour import neighbours

    def entries(lattice):
        return [x for row in lattice.gram for x in row]

    I3 = HermitianLattice.standard(3)
    B = [[ONE, eis(1, 1), eis(0, 0)], [eis(0, 0), ONE, eis(2, -1)],
         [eis(0, 0), eis(0, 0), ONE]]
    S = I3.rebase(B)
    out = entries(S) + entries(hermitian_lll(S))
    for L in neighbours(I3, ideal_above(2)).neighbours:
        out += entries(L)
    M = [[eis(2), eis(1, 1), eis(0, 3)], [eis(0), eis(3, 1), eis(1)],
         [eis(1, 2), eis(0), eis(4)]]
    out += [x for row in column_hermite_form(M) for x in row]
    out += smith_invariants(M) + [eis_det(M)]
    assert out and all(type(x) is EisensteinInt for x in out)


def _norm_search(p):
    # the brute-force search that Cornacchia's algorithm replaced: the first
    # (a, b), a from 0 up and b from -bound up, with a^2 - ab + b^2 = p
    bound = math.isqrt(4 * p) + 2
    return next(EisensteinInt(a, b) for a in range(bound + 1)
                for b in range(-bound, bound + 1) if a * a - a * b + b * b == p)


def test_split_generator_matches_the_norm_search():
    split = [p for p in range(7, 10_000, 3) if is_prime(p)]
    assert len(split) == 611
    for p in split:
        assert _split_generator(p) == _norm_search(p), p


def test_classify_a_large_split_prime():
    # the norm search took 26 s on a 2-vCPU host; the two primes keep its order
    start = time.perf_counter()
    kind, (P, Q) = classify_prime(100_000_039)
    assert time.perf_counter() - start < 1
    assert kind == "split"
    assert (P.generator, Q.generator) == (eis(11547, 5762), eis(11547, 5785))


def test_sqrt_mod_prime_on_composites():
    # never a wrong root, and no endless search for a non-residue
    for q in range(4, 400):
        if not is_prime(q):
            for d in range(q):
                r = sqrt_mod_prime(d, q)
                assert r is None or r * r % q == d % q
