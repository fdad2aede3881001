import gc
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermhecke import eismat, lattice
from hermhecke.eisenstein import (OMEGA, ONE, UNITS, ZERO, EisensteinInt,
                                  canonical_associate, eis, ideal_above)
from hermhecke.fixtures import load_seed_sqrt3
from hermhecke.isometry import IsometryCertificate, is_isometric
from hermhecke.lattice import (HermitianLattice, _gram_schmidt_row, _lll,
                               direct_sum, herm_inner, herm_norm,
                               hermitian_lll)
from hermhecke.neighbour import enumerate_genus, iter_neighbours
from hermhecke.theta import theta_degree1
from hermhecke.eismat import eis_det, smith_invariants


def random_unimodular_cols(n, rng, steps=12):
    cols = [[eis(1 if i == j else 0) for i in range(n)] for j in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = eis(rng.randint(-2, 2), rng.randint(-2, 2))
        for k in range(n):
            cols[j][k] = cols[j][k] + c * cols[i][k]
    return cols


def test_standard_lattice():
    L = HermitianLattice.standard(4)
    assert L.det == 1
    assert L.is_unimodular()
    assert L.minimum == 1


def test_rebasing_invariants():
    rng = random.Random(7)
    L = HermitianLattice.standard(3)
    for _ in range(10):
        cols = random_unimodular_cols(3, rng)
        M = L.rebase([[cols[j][i] for j in range(3)] for i in range(3)])
        assert M.det == L.det
        assert M.discriminant() == L.discriminant()
        assert M.invariant_factors == L.invariant_factors
        assert M.fingerprint() == L.fingerprint()
    L5 = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    for _ in range(10):
        cols = random_unimodular_cols(3, rng)
        M = L5.rebase([[cols[j][i] for j in range(3)] for i in range(3)])
        assert M.fingerprint() == L5.fingerprint()
        assert theta_degree1(M, 6) == theta_degree1(L5, 6)


def test_rebase_matches_inner_products():
    # the Gram in a new basis, entry by entry: <b_i, b_j> / N(d), for square
    # and rectangular bases on a Gram matrix with off-diagonal entries, and
    # for int and Eisenstein denominators d (N(d) = d^2 for an int)
    rng = random.Random(11)
    G = sheared_117()
    for m, d in ((3, 1), (2, 1), (3, 2), (3, eis(1, 2))):
        cols = [[d * eis(rng.randint(-3, 3), rng.randint(-3, 3))
                 for _ in range(3)] for _ in range(m)]
        N = d.norm() if isinstance(d, EisensteinInt) else d * d
        M = G.rebase([[cols[j][i] for j in range(m)] for i in range(3)], d)
        assert M.gram == tuple(
            tuple(eis((v := herm_inner(G.gram, x, y)).a // N, v.b // N)
                  for y in cols) for x in cols)
    first_two = [[eis(1), eis(0)], [eis(0), eis(1)], [eis(0), eis(0)]]
    for d, N in ((2, 4), (eis(1, 2), 3)):
        with pytest.raises(ValueError, match=rf"not integral: entry \(0, 0\)"
                                             rf".* rank-2 .*N\(d\) = {N}$"):
            G.rebase(first_two, d)


def sheared_117():
    """<1, 1, 7> in the basis e1, e2, e3 + w e1."""
    cols = [[eis(1), eis(0), OMEGA], [eis(0), eis(1), eis(0)],
            [eis(0), eis(0), eis(1)]]
    return HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 7]]).rebase(cols)


def assert_one_vector_per_unit_orbit(L, bound, brute):
    """The six unit multiples of the table vectors of L up to bound are
    the set brute, and no two table vectors share a unit orbit."""
    table = L.short_vectors(bound)
    orbits = [frozenset(tuple(u * x for x in v) for u in UNITS) for v in table]
    assert len(set(orbits)) == len(table)
    assert set().union(*orbits) == brute


def test_short_vectors_bruteforce_sheared_rank3():
    M = sheared_117()
    assert any(M.gram[i][j] != eis(0) for i in range(3) for j in range(3) if i != j)
    bound = 8
    # y = (y1, y2, y3) has norm |y1 + w y3|^2 + |y2|^2 + 7 |y3|^2 <= 8, so
    # N(y3) <= 1, N(y2) <= 8 and N(y1) < (sqrt 8 + 1)^2 < 15; since
    # N(a + b w) >= 3 b^2 / 4 and >= 3 a^2 / 4, this box holds every such y
    def box(r):
        return [eis(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)]
    counts, brute = {}, set()
    for y1 in box(4):
        for y2 in box(3):
            for y3 in box(1):
                m = herm_norm(M.gram, (y1, y2, y3))
                if 0 < m <= bound:
                    counts[m] = counts.get(m, 0) + 1
                    brute.add((y1, y2, y3))
    assert M.norm_histogram(bound) == dict(sorted(counts.items()))
    assert_one_vector_per_unit_orbit(M, bound, brute)


def test_smaller_request_reads_the_larger_table():
    M = sheared_117()
    M.short_vectors(6)
    # each request on a lattice that has never enumerated
    assert M.short_vectors(3) == sheared_117().short_vectors(3)
    assert M.norm_histogram(3) == sheared_117().norm_histogram(3)
    assert M.minimum == sheared_117().minimum == 1
    # the cached table is not part of equality or hashing
    fresh = sheared_117()
    assert M == fresh and hash(M) == hash(fresh)


def test_short_vector_table_leaves_no_garbage_cycle():
    # a dropped lattice and its table are freed by reference counting alone,
    # without waiting for a full collection
    gc.collect()
    gc.disable()
    try:
        load_seed_sqrt3().short_vectors(6)
        assert gc.collect() == 0
    finally:
        gc.enable()


def sheared_i4():
    cols = random_unimodular_cols(4, random.Random(4))
    return HermitianLattice.standard(4).rebase(
        [[cols[j][i] for j in range(4)] for i in range(4)])


def neighbour_tables_117(bound):
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 7]])
    return [M._vectors_by_norm(bound)
            for _, M in iter_neighbours(L, ideal_above(3))]


TABLE_DIGESTS = {
    "I4 sheared, 4": (
        lambda: sheared_i4()._vectors_by_norm(4),
        "09a0a3f36995d422b5ea9ee41e53a8ce03528bc46d0b5be6729790818b3be8a0"),
    "rank-4 seed, 6": (
        lambda: load_seed_sqrt3()._vectors_by_norm(6),
        "b7c7238d5baa03dfa0d2fea44889112acbc2a10212cf045975ffd739a5328a62"),
    "<1,1,7> at (sqrt-3), 9": (
        lambda: neighbour_tables_117(9),
        "0c38fd6babacd9051fb22315db9daf9f5addf6ee0dcfef53de902f6ac390d410"),
}


@pytest.mark.parametrize("name", sorted(TABLE_DIGESTS))
def test_pinned_short_vector_tables(name):
    # the isometry search tries candidates in table order, so the order is
    # behaviour: the sha256 of repr pins each table, its order and the
    # associates it keeps
    table, digest = TABLE_DIGESTS[name]
    assert hashlib.sha256(repr(table()).encode()).hexdigest() == digest


def sheared_i6s():
    """Three seeded shears of I6.  Enumerated on the basis given, their
    norm-4 tables took 0.1 s, 9-17 s and 0.4-0.8 s on a 2-vCPU host."""
    rng = random.Random(6)
    out = []
    for _ in range(3):
        cols = random_unimodular_cols(6, rng)
        out.append(HermitianLattice.standard(6).rebase(
            [[cols[j][i] for j in range(6)] for i in range(6)]))
    return out


# sha256 of repr of their norm-4 tables, pinned while the tables were
# enumerated on the basis given
I6_SHEAR_DIGESTS = (
    "57ede5ec59c3e0a79cacf2329c913ee3cde3183e8723cf391c952d4386d53f22",
    "533bdf3d84791ea30d0c31bee6041378d02870ce5ef81a65c9eaabde7c39f9ba",
    "a133a080b06265f171179602a26a70a13b62e6dbc367fb3d0d15b43e37b590b6",
)


def test_pinned_tables_of_sheared_i6():
    # enumerated on the reduced basis and mapped back, each table is the
    # one of the basis given, order and associates included
    for L, digest in zip(sheared_i6s(), I6_SHEAR_DIGESTS):
        table = L._vectors_by_norm(4)
        assert hashlib.sha256(repr(table).encode()).hexdigest() == digest


def test_enumeration_runs_on_reduced_bases(monkeypatch):
    # whatever basis a lattice comes in, Fincke-Pohst sees an LLL-reduced
    # Gram, so its cost does not depend on that basis
    grams = []
    enumerate_vectors = lattice._fincke_pohst

    def on_reduced(G, d, lam, bound):
        assert_lll_reduced(HermitianLattice(G))
        grams.append(G)
        return enumerate_vectors(G, d, lam, bound)

    monkeypatch.setattr(lattice, "_fincke_pohst", on_reduced)
    for name in sorted(TABLE_DIGESTS):
        TABLE_DIGESTS[name][0]()
    for L in sheared_i6s():
        L._vectors_by_norm(4)
    # one table each: the I4 shear, the seed, 12 neighbours, 3 I6 shears
    assert len(grams) == 17


def test_sqrt3_modular_seed():
    L = load_seed_sqrt3()
    assert L.rank == 4
    assert L.det == 9
    assert L.is_sqrt3_modular()
    assert L.minimum == 3
    # 240 vectors of norm 3 (this is E8 rescaled as a Z-lattice)
    assert L.norm_histogram(3)[3] == 240


def test_short_vectors_bruteforce_rank2():
    L = HermitianLattice.standard(2)
    hist = L.norm_histogram(5)
    # brute force over a box
    counts, brute = {n: 0 for n in range(1, 6)}, set()
    for a in range(-5, 6):
        for b in range(-5, 6):
            for c in range(-5, 6):
                for d in range(-5, 6):
                    if (a, b, c, d) == (0, 0, 0, 0):
                        continue
                    n = eis(a, b).norm() + eis(c, d).norm()
                    if n <= 5:
                        counts[n] += 1
                        brute.add((eis(a, b), eis(c, d)))
    assert {n: c for n, c in hist.items() if n >= 1} == \
           {n: c for n, c in counts.items() if c}
    assert_one_vector_per_unit_orbit(L, 5, brute)


def test_direct_sum_and_lll():
    L = direct_sum(HermitianLattice.standard(2), HermitianLattice.standard(2))
    assert L.rank == 4 and L.det == 1
    M = hermitian_lll(L)
    assert M.det == 1
    assert M.fingerprint() == L.fingerprint()


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])


def _norm(x):
    return x[0] * x[0] - x[0] * x[1] + x[1] * x[1]


def gram_schmidt(gram):
    """(mu, B) of a Hermitian gram in Fraction arithmetic, with
    mu[k][j] = <b_j*, b_k> / B[j] and B[j] = <b_j*, b_j*>.  An element
    a + b w of Q(w) is the pair (a, b)."""
    n = len(gram)
    star = [[None] * n for _ in range(n)]   # star[j][i] = <b_j*, b_i>
    mu = [[None] * n for _ in range(n)]
    B = []
    for j in range(n):
        for i in range(n):
            s = (Fraction(gram[j][i].a), Fraction(gram[j][i].b))
            for k in range(j):
                conj_mu = (mu[j][k][0] - mu[j][k][1], -mu[j][k][1])
                t = _mul(conj_mu, star[k][i])
                s = (s[0] - t[0], s[1] - t[1])
            star[j][i] = s
        B.append(star[j][j][0])
        for i in range(j + 1, n):
            mu[i][j] = (star[j][i][0] / B[j], star[j][i][1] / B[j])
    return mu, B


def assert_lll_reduced(M):
    """Size-reduced (|mu|^2 <= 1/3, the covering radius of Z[w]) and
    Lovasz at delta = 3/4."""
    mu, B = gram_schmidt(M.gram)
    for k in range(1, M.rank):
        assert all(_norm(mu[k][j]) <= Fraction(1, 3) for j in range(k)), M.gram
        assert B[k] >= (Fraction(3, 4) - _norm(mu[k][k - 1])) * B[k - 1], M.gram


LLL_INPUTS = {
    "<1,1,5>": [[1, 0, 0], [0, 1, 0], [0, 0, 5]],
    "<1,1,7>": [[1, 0, 0], [0, 1, 0], [0, 0, 7]],
    "I4": [[1 if i == j else 0 for j in range(4)] for i in range(4)],
    "A2+<1,3>": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 3]],
    "I5": [[1 if i == j else 0 for j in range(5)] for i in range(5)],
}


# sha256 of repr of the four reduced Grams, pinned before the LLL updated
# its Gram-Schmidt data on a swap
LLL_DIGESTS = {
    "<1,1,5>": "47e40a53699497846c5f5cfff4426cd0b8f13f92d83c9751a947633908049742",
    "<1,1,7>": "18d0f0a87932c5128596b5ad59d06f83cb5641ef93fbc8e119a6dda61bdb2a20",
    "A2+<1,3>": "1b46f4df3bb6a3d580077f2f7f1ad86929b903b18f3e695b809a73a87614b7e6",
    "I4": "7270243869bd57a71bbe5279587ede5b124ec6163262870dbd4817b2968a4669",
    "I5": "3448fa6732d50fa9347a5b2a856f2ee2681491bed365175b965e745f7664a354",
}


@pytest.mark.parametrize("name", sorted(LLL_INPUTS))
def test_lll_of_sheared_bases(name):
    L = HermitianLattice.from_gram(LLL_INPUTS[name])
    n = L.rank
    rng = random.Random(name)
    grams = []
    for _ in range(4):
        cols = random_unimodular_cols(n, rng)
        S = L.rebase([[cols[j][i] for j in range(n)] for i in range(n)])
        M = hermitian_lll(S)
        assert_lll_reduced(M)
        assert is_isometric(M, L) is not None
        grams.append(M.gram)
    assert hashlib.sha256(repr(grams).encode()).hexdigest() == LLL_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(LLL_INPUTS))
def test_lll_transform_of_sheared_bases(name):
    # the shears of test_lll_of_sheared_bases: the columns U of the
    # transform carry the input Gram to the reduced one, U is unimodular,
    # and d, lam are the Gram-Schmidt data of every row of the reduced Gram
    L = HermitianLattice.from_gram(LLL_INPUTS[name])
    n = L.rank
    rng = random.Random(name)
    for _ in range(4):
        cols = random_unimodular_cols(n, rng)
        S = L.rebase([[cols[j][i] for j in range(n)] for i in range(n)])
        G, U, d, lam = _lll(S.gram)
        assert G == hermitian_lll(S).gram
        transform = [list(row) for row in zip(*U)]
        assert eismat._congruence(S.gram, transform) == [list(r) for r in G]
        assert all(f.is_unit() for f in eismat.smith(transform)[0])
        fresh_d, fresh_lam = [1] + [0] * n, [[ZERO] * k for k in range(n)]
        for k in range(n):
            _gram_schmidt_row(G, fresh_d, fresh_lam, k)
        assert (d, lam) == (fresh_d, fresh_lam)


def test_lll_of_rank1():
    # the LLL loop does not run at rank 1; the Gram-Schmidt data still do
    G, U, d, lam = _lll(((eis(3),),))
    assert (G, U, d, lam) == (((eis(3),),), [[ONE]], [1, 3], [[]])


def test_lll_leaves_neighbours_unmoved():
    # every neighbour of the <1,1,7> walk at (sqrt-3) is an LLL output that
    # a second LLL leaves as it is, so its table is enumerated on its own
    # basis with nothing to map back
    P = ideal_above(3)
    g = enumerate_genus(HermitianLattice.from_gram(LLL_INPUTS["<1,1,7>"]), P)
    identity = [[ONE if i == j else ZERO for i in range(3)] for j in range(3)]
    for R in g.representatives:
        for _, M in iter_neighbours(R, P):
            G, U, _, _ = _lll(M.gram)
            assert U == identity and G == M.gram


def test_isometry_certificate_verify():
    # verify is one Gram product B^dagger G B; it agrees with herm_inner on
    # a found certificate and rejects images with a wrong inner product
    L = sheared_117()
    D = HermitianLattice.from_gram(LLL_INPUTS["<1,1,7>"])
    cert = is_isometric(L, D)
    cols = cert.columns
    assert all(herm_inner(D.gram, x, y) == L.gram[i][j]
               for i, x in enumerate(cols) for j, y in enumerate(cols))
    assert cert.verify(L, D)
    for bad in ((cols[1], cols[0], cols[2]),
                (cols[0], cols[1], tuple(OMEGA * x for x in cols[2]))):
        assert not IsometryCertificate(bad).verify(L, D)


def test_lll_neighbours_of_a_genus_walk():
    # the <1,1,7> walk at (sqrt-3): every neighbour of every class
    P = ideal_above(3)
    g = enumerate_genus(HermitianLattice.from_gram(LLL_INPUTS["<1,1,7>"]), P)
    for R in g.representatives:
        for _, M in iter_neighbours(R, P):
            assert_lll_reduced(M)


@pytest.mark.parametrize("call",
                         [hermitian_lll, lambda L: L.norm_histogram(2)],
                         ids=["hermitian_lll", "norm_histogram"])
def test_lll_rejects_indefinite_gram(call):
    with pytest.raises(ValueError, match="not positive definite"):
        call(HermitianLattice.from_gram([[1, 2], [2, 1]]))


def test_smith_invariants():
    M = [[eis(2), eis(0)], [eis(0), eis(6)]]
    inv = smith_invariants(M)
    assert [x.norm() for x in inv] == [4, 36]
    assert eis_det([[eis(1), eis(0)], [eis(5), eis(1)]]).norm() == 1


def _laplace_det(M):
    """Determinant by cofactor expansion along the first row."""
    if not M:
        return eis(1)
    det = eis(0)
    for j, x in enumerate(M[0]):
        term = x * _laplace_det([row[:j] + row[j + 1:] for row in M[1:]])
        det = det + term if j % 2 == 0 else det - term
    return det


@pytest.mark.parametrize("n", range(1, 6))
def test_smith_determinant_matches_laplace(n):
    rng = random.Random(f"smith-{n}")
    singular = 0
    for case in range(30):
        M = [[eis(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)]
             for _ in range(n)]
        if case % 5 == 0:
            c = eis(rng.randint(-2, 2), rng.randint(-2, 2))
            M[-1] = [c * x for x in M[0]] if n > 1 else [eis(0)]
        det = eis_det(M)
        assert det == _laplace_det(M)
        if det == eis(0):
            singular += 1
            with pytest.raises(ValueError):
                smith_invariants(M)
            continue
        inv = smith_invariants(M)
        assert all(a.divides(b) for a, b in zip(inv, inv[1:]))
        prod = eis(1)
        for f in inv:
            prod = prod * f
        assert canonical_associate(prod) == canonical_associate(det)
    assert singular >= 6


def test_singular_matrix():
    M = [[eis(1, 1), eis(2), eis(0, 1)], [eis(0), eis(1), eis(3)],
         [eis(2, 2), eis(4), eis(0, 2)]]     # row 2 = 2 * row 0
    with pytest.raises(ValueError):
        smith_invariants(M)
    assert eis_det(M) == eis(0)
    # a 2 x 1 matrix has no full row rank either
    with pytest.raises(ValueError):
        smith_invariants([[eis(1)], [eis(2)]])


def test_det_keeps_its_sign():
    # one Smith pass gives both invariants; the swaps it makes fix the sign
    L = HermitianLattice.from_gram([[1, 2], [2, 1]])
    assert L.det == -3
    assert [f.norm() for f in L.invariant_factors] == [1, 9]


def test_json_roundtrip(tmp_path):
    L = HermitianLattice.standard(3)
    p = tmp_path / "l.json"
    L.save(p)
    assert HermitianLattice.load(p).gram == L.gram
