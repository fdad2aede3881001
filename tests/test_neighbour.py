import ast
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys

import pytest

import hermhecke
from hermhecke import eismat, fixtures, isometry
from hermhecke.eisenstein import (ONE, UNITS, ZERO, classify_prime, eis,
                                  ideal_above)
from hermhecke.eismat import column_hermite_form, smith_invariants
from hermhecke.errors import PreconditionError
from hermhecke.isometry import automorphism_order, is_isometric
from hermhecke.lattice import HermitianLattice, direct_sum
from hermhecke.neighbour import (UnsupportedCaseError, count_neighbours,
                                 enumerate_genus, intersection_lattice,
                                 iter_lines_with_data, iter_neighbours,
                                 neighbours, verify_neighbour, load_genus,
                                 save_genus, sublattice_genus)


def exhaustive_neighbour_oracle(L, ideal):
    """All P-neighbours of a rank-2 lattice by brute force: every index-N^2
    sublattice M = pibar*L' of L (Hermite-form columns), kept when the
    invariant factors are (1, pibar*pi) and L' = (1/pibar)M is integral."""
    N = ideal.residue_norm
    found = {}
    # column-Hermite candidates: col1 = (d1, 0), col2 = (c, d2),
    # norms N(d1) * N(d2) = N^2; residues c run over a box covering O/(d1)
    divisor_pairs = [(eis(1), eis(N)), (eis(2), eis(2)), (eis(N), eis(1))]
    box = [eis(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for d1, d2 in divisor_pairs:
        seen_c = set()
        for c in box:
            key = tuple(tuple(r) for r in
                        column_hermite_form([[d1, c], [eis(0), d2]]))
            if key in seen_c:
                continue
            seen_c.add(key)
            inv = smith_invariants([list(r) for r in key])
            if sorted(f.norm() for f in inv) != [1, N * N]:
                continue
            if not verify_neighbour(L, key, ideal):
                continue
            try:
                lat = L.rebase(key, ideal.generator.conj())
            except ValueError:
                continue
            found[key] = lat
    return found


def test_rank2_exhaustive_oracle():
    L = HermitianLattice.standard(2)
    P = ideal_above(2)
    ns = neighbours(L, P)
    oracle = exhaustive_neighbour_oracle(L, P)
    got = {tuple(tuple(r) for r in k) for k in ns.hermite_keys}
    want = {tuple(tuple(r) for r in k) for k in oracle}
    assert got == want


def test_every_neighbour_verifies():
    L = HermitianLattice.standard(3)
    P = ideal_above(2)
    for key, lat in iter_neighbours(L, P):
        assert verify_neighbour(L, key, P)
        assert lat.det == L.det


def unit_shear(L, rng, steps=6):
    """L in a seeded basis e_a <- e_a + u e_b, u a unit of Z[w]."""
    n = L.rank
    cols = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2)
        u = rng.choice(UNITS)
        for i in range(n):
            cols[i][a] = cols[i][a] + u * cols[i][b]
    return L.rebase(cols)


def is_diagonal(L):
    return all(L.gram[i][j] == ZERO for i in range(L.rank)
               for j in range(L.rank) if i != j)


def walk_count(L, P):
    """(admissible lines, neighbours) by the line walk, the oracle of
    count_neighbours's closed forms."""
    lines = nbrs = 0
    for _, _, _, ts in iter_lines_with_data(L, P):
        lines += 1
        nbrs += len(ts)
    return lines, nbrs


# (prime, ranks, admissible lines of I_n, neighbours per line): at (2) and
# (5) the isotropic lines of the Hermitian form on F_(p^2)^n, at (sqrt-3)
# the lines of F_3^n isotropic for the reduced quadratic form (for n = 2m
# of plus type when (-1)^m = 1 mod 3, so I_2 and I_6 are of minus type and
# I_4 of plus type), at the primes above 7 and 13 every line of F_p^n
COUNT_FORMULAS = [
    (ideal_above(2), range(1, 7),
     lambda n: (2 ** n - (-1) ** n) * (2 ** (n - 1) - (-1) ** (n - 1)) // 3, 2),
    (ideal_above(3), range(1, 8),
     lambda n: (3 ** (n - 1) - 1) // 2 if n % 2 else
     (3 ** (n // 2) - (-1) ** (n // 2)) * (3 ** (n // 2 - 1) + (-1) ** (n // 2)) // 2,
     3),
    (ideal_above(5), range(1, 4),
     lambda n: (5 ** n - (-1) ** n) * (5 ** (n - 1) - (-1) ** (n - 1)) // 24, 5),
    (classify_prime(7)[1][0], range(1, 5), lambda n: (7 ** n - 1) // 6, 1),
    (classify_prime(7)[1][1], range(1, 5), lambda n: (7 ** n - 1) // 6, 1),
    (classify_prime(13)[1][0], range(1, 5), lambda n: (13 ** n - 1) // 12, 1),
]


def test_neighbour_count_formula_rank3():
    # unimodular rank 3 at inert p: the counts match the materialized set
    L = HermitianLattice.standard(3)
    P = ideal_above(2)
    lines, total = count_neighbours(L, P)
    assert total == len(neighbours(L, P))
    # closed-form counts of I_n, on the standard basis and after seeded unit
    # shears, whose Gram matrices are not diagonal, equal the line walk
    rng = random.Random(3)
    for P, ranks, formula, per_line in COUNT_FORMULAS:
        for n in ranks:
            I = HermitianLattice.standard(n)
            want = (formula(n), per_line * formula(n))
            assert count_neighbours(I, P) == want == walk_count(I, P), \
                (str(P), n)
            for _ in range(2 if n > 1 else 0):
                S = unit_shear(I, rng)
                assert not is_diagonal(S)
                assert count_neighbours(S, P) == want == walk_count(S, P), \
                    (str(P), n, S.gram)
    # the two types of an even rank at (sqrt-3), walked: I_2 and I_6 of
    # minus type, I_4 and <1,2> of plus type
    P = ideal_above(3)
    for diagonal, lines in (((1, 1), 0), ((1,) * 6, 112), ((1,) * 4, 16),
                            ((1, 2), 2)):
        L = HermitianLattice.from_gram(
            [[d if i == j else 0 for j in range(len(diagonal))]
             for i, d in enumerate(diagonal)])
        assert walk_count(L, P) == count_neighbours(L, P) == (lines, 3 * lines)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_count_equals_the_walk_on_sheared_diagonals(rank):
    # <1, ..., 1, d> after seeded unit shears, at every prime of the walk
    # oracle that does not divide d: a determinant other than 1 sets the
    # type of an even rank at (sqrt-3)
    primes = [ideal_above(2), ideal_above(3), ideal_above(5),
              *classify_prime(7)[1], classify_prime(13)[1][0]]
    rng = random.Random(f"sheared-{rank}")
    for d in (2, 5, 7, 10, 11, 13):
        L = HermitianLattice.from_gram(
            [[(d if i == rank - 1 else 1) if i == j else 0
              for j in range(rank)] for i in range(rank)])
        S = unit_shear(L, rng)
        for P in primes:
            if d % P.p == 0 or P.residue_norm ** rank > 20000:
                continue
            assert count_neighbours(S, P) == walk_count(S, P), (d, str(P))


def test_count_keeps_its_precondition():
    # a prime dividing det L raises, as the line walk does; the others count
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 42]])
    for P in (ideal_above(2), ideal_above(3), *classify_prime(7)[1]):
        with pytest.raises(PreconditionError):
            count_neighbours(L, P)
        with pytest.raises(PreconditionError):
            walk_count(L, P)
    for P in (ideal_above(5), classify_prime(13)[1][0]):
        assert count_neighbours(L, P) == walk_count(L, P)


def direct_lines(L, P):
    """The admissible lines of iter_lines_with_data, from the definition in
    EisensteinInt arithmetic: (x, xg, c0, ts) with xg_j = sum_i conj(x_i)
    G_ij, c0 = <x, x> and ts the residue lifts t with
    c0 + Tr(pibar t) = 0 mod N, for the normalized x in walk order."""
    n, G, N = L.rank, L.gram, P.residue_norm
    p = P.p
    reps = ([eis(a, b) for a in range(p) for b in range(p)]
            if P.split_type == "inert" else [eis(a) for a in range(p)])
    pibar = P.generator.conj()
    for lead in range(n):
        for tail in itertools.product(reps, repeat=n - lead - 1):
            x = [ZERO] * lead + [ONE] + list(tail)
            xg = [sum((x[i].conj() * G[i][j] for i in range(n)), ZERO)
                  for j in range(n)]
            c0 = sum((xg[j] * x[j] for j in range(n)), ZERO)
            assert c0.b == 0
            ts = [t for t in reps
                  if (c0.a + 2 * (pibar * t).a - (pibar * t).b) % N == 0]
            if ts:
                yield x, xg, c0.a, ts


@pytest.mark.parametrize("d", [5, 7])
def test_line_data_matches_direct_formula(d):
    # sheared <1,1,d>: every off-diagonal Gram entry takes part in the
    # incremental update of xg
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, d]])
    primes = [ideal_above(2), ideal_above(3)]
    if d != 7:
        primes += classify_prime(7)[1]
    rng = random.Random(d)
    for _ in range(3):
        S = unit_shear(L, rng)
        assert not is_diagonal(S)
        for P in primes:
            got = [([eis(*v) for v in x], [eis(*v) for v in xg], c0,
                    [eis(*t) for t in ts])
                   for x, xg, c0, ts in iter_lines_with_data(S, P)]
            assert got == list(direct_lines(S, P))
            assert got


def generator_keys(L, P):
    """(neighbour keys, intersection keys) in walk order, each the
    column_hermite_form of a generating set: L_x = { y : <x, y> in P } is
    spanned by e_k - (xg_k / xg_piv) e_piv for k != piv and pi e_piv, piv
    the first index with xg_piv a unit mod P, and pibar L' by xt and
    pibar L_x, xt = x + pibar t (xg_piv)^-1 e_piv."""
    n, pi = L.rank, P.generator
    pibar = pi.conj()
    reps = ([eis(a, b) for a in range(P.p) for b in range(P.p)]
            if P.split_type == "inert" else [eis(a) for a in range(P.p)])
    keys, intersections = [], []
    for x, xg, _, ts in iter_lines_with_data(L, P):
        x, xg = [eis(*v) for v in x], [eis(*v) for v in xg]
        piv = next(j for j in range(n) if not pi.divides(xg[j]))
        ginv = next(g for g in reps if pi.divides(xg[piv] * g - 1))
        gens = []
        for k in range(n):
            col = [eis(0)] * n
            if k != piv:
                col[k], col[piv] = eis(1), -(xg[k] * ginv)
            else:
                col[piv] = pi
            gens.append(col)
        intersections.append(tuple(map(tuple, column_hermite_form(
            [list(r) for r in zip(*gens)]))))
        for t in ts:
            xt = list(x)
            xt[piv] = xt[piv] + pibar * eis(*t) * ginv
            cols = [xt] + [[pibar * v for v in g] for g in gens]
            keys.append(tuple(map(tuple, column_hermite_form(
                [list(r) for r in zip(*cols)]))))
    return keys, intersections


@pytest.mark.parametrize("prime", ["2", "sqrt-3", "P7", "Pbar7", "5"])
def test_keys_equal_the_hermite_form_of_the_generators(prime):
    # the keys inserted into the closed-form kernel basis, and the kernel
    # bases reduced, equal the Hermite forms of the generating sets, in
    # order, on sheared I_3 and <1,1,d> and, but at (5), sheared I_4
    P = {**PRIMES, "5": ideal_above(5)}[prime]
    rng = random.Random(f"keys-{prime}")
    lattices = [HermitianLattice.standard(3)] + [
        HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, d]])
        for d in (2, 5, 10, 11) if d % P.p]
    if prime != "5":
        lattices.append(HermitianLattice.standard(4))
    for L in lattices:
        S = unit_shear(L, rng)
        assert not is_diagonal(S)
        ns = neighbours(S, P)
        keys, intersections = generator_keys(S, P)
        assert ns.hermite_keys == keys
        assert ns.intersections == intersections
        assert len(keys) == count_neighbours(S, P)[1]


@pytest.mark.parametrize("p,side", [(7, 0), (7, 1), (13, 0), (13, 1)],
                         ids=["P7", "Pbar7", "P13", "Pbar13"])
def test_rank1_neighbour_verifies(p, side):
    # at rank 1, L' = (pi/pibar) L: the key is (pi), whose one invariant
    # factor is pi; a key of another ideal fails
    P = classify_prime(p)[1][side]
    L = HermitianLattice.standard(1)
    ns = neighbours(L, P)
    assert ns.hermite_keys == [((P.generator,),)]
    assert verify_neighbour(L, ns.hermite_keys[0], P)
    assert not verify_neighbour(L, ((P.conjugate().generator,),), P)
    assert ns.neighbours[0].gram == L.gram


def sha256_of_repr(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def neighbour_digest(L, P):
    ns = neighbours(L, P)
    return sha256_of_repr((ns.hermite_keys, ns.intersections,
                           [M.gram for M in ns.neighbours]))


# sha256 of repr((hermite_keys, intersections, neighbour Grams)), pinned
# from the EisensteinInt implementation: keys, intersections, their order
# and the reduced neighbour bases must not change
PINNED_NEIGHBOURS = {
    (3, "2"): "1453e2047b63408390e4e6b7d9b3e0962ae099b614bc03844670c93f2be3fac7",
    (4, "2"): "690af1ba1c400a984991f21ea426085d9db19012587e9164c55bef65df155446",
    (3, "sqrt-3"): "0ae224dddc0a439517512e9326739f6cdcfb7f6d4dcc87def0b10fc622219366",
    (5, "sqrt-3"): "86d9cdbde1bcabd523fd65134ec474773434b28f2f05f418276cdf8b4e911c99",
    (3, "P7"): "7844ffe6ae80bf2fe3a7f4bad41643e61336311566cfb0696e378ae087614608",
    (3, "Pbar7"): "4b07d2f8829eb22a4d0b50efd1d928d2994fbc5d695d35032f5df7842fa600ab",
}
PRIMES = {"2": ideal_above(2), "sqrt-3": ideal_above(3),
          "P7": classify_prime(7)[1][0], "Pbar7": classify_prime(7)[1][1]}


@pytest.mark.parametrize("rank,prime", sorted(PINNED_NEIGHBOURS))
def test_pinned_neighbour_digests(rank, prime):
    digest = neighbour_digest(HermitianLattice.standard(rank), PRIMES[prime])
    assert digest == PINNED_NEIGHBOURS[rank, prime]


def test_pinned_hecke_rows_117():
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 7]])
    g = enumerate_genus(L, ideal_above(3))
    assert sha256_of_repr(g.hecke_rows) == \
        "4d4e38abd4a611a08700913bfe20210b407b0a9c72b59830616e30cbf138cb8f"


@pytest.mark.long
def test_rank12_count_at_2():
    # every line of the rank-12 seed at (2), walked: two neighbours per
    # admissible line, as the closed form and the fixtures say
    L = fixtures.seed_sqrt3_rank12()
    assert walk_count(L, ideal_above(2)) == \
        count_neighbours(L, ideal_above(2)) == (2796885, 5593770) == \
        (fixtures.D_INTERSECTIONS, fixtures.T2_ROW_SUM)


@pytest.mark.long
def test_rank12_seed_order(fx):
    # the 5-class genus's first class, 155,520^3 * 3!, from its own search
    # (about 10 s)
    assert automorphism_order(fixtures.seed_sqrt3_rank12()) == fx.aut_5[0]


@pytest.mark.long
def test_rank12_isometry_288_pair():
    # neighbours 2000 and 3000 of the seed's (2)-walk (counting from 0),
    # both with 288 norm-3 vectors: the positive isometry test that places
    # a neighbour in its class
    L = fixtures.seed_sqrt3_rank12()
    A, B = (M for _, M in itertools.islice(
        iter_neighbours(L, ideal_above(2)), 2000, 3001, 1000))
    assert A.norm_histogram(3) == B.norm_histogram(3) == {3: 288}
    cert = is_isometric(A, B)
    assert cert is not None and cert.verify(A, B)


def test_exact_checks_survive_optimize():
    # python -O strips assert statements; the exact checks on the lattice
    # path raise AssertionError explicitly
    code = (
        "from types import SimpleNamespace\n"
        "from hermhecke import isometry, neighbour\n"
        "from hermhecke.eisenstein import OMEGA, ONE, ideal_above\n"
        "from hermhecke.lattice import HermitianLattice\n"
        "assert False, 'asserts are not stripped'\n"
        "isometry.IsometryCertificate.verify = lambda self, a, b: False\n"
        "I3 = HermitianLattice.standard(3)\n"
        "try:\n"
        "    isometry.is_isometric(I3, I3)\n"
        "    raise SystemExit('is_isometric accepted a failed certificate')\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
        "# a non-Hermitian Gram matrix makes <x, x> irrational\n"
        "L = SimpleNamespace(rank=2, det=1, gram=((ONE, OMEGA), (OMEGA, ONE)))\n"
        "try:\n"
        "    list(neighbour.iter_lines_with_data(L, ideal_above(2)))\n"
        "    raise SystemExit('irrational <x, x> passed')\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    cert_msg, line_msg = _run_optimized(code)
    assert "rank-3" in cert_msg and "Gram check" in cert_msg
    assert "rank-2" in line_msg and "(2)" in line_msg and "not rational" in line_msg


def test_spectral_checks_survive_optimize():
    code = (
        "from hermhecke import spectra\n"
        "assert False, 'asserts are not stripped'\n"
        "spectra.EigenSystem.check_exactness = lambda self: False\n"
        "try:\n"
        "    spectra.eigensystem([[[1, 0], [0, 2]]])\n"
        "    raise SystemExit('eigensystem accepted a failed exactness check')\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    [msg] = _run_optimized(code)
    assert "eigensystem" in msg and "eigenvector" in msg


def _run_optimized(code):
    """The output lines of `code` run by a fresh `python -O`, which strips
    assert statements."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermhecke.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr + done.stdout
    return done.stdout.splitlines()


def test_no_assert_statements_in_the_package():
    # python -O would strip them: every check in the package raises explicitly
    root = os.path.dirname(os.path.abspath(hermhecke.__file__))
    found = []
    for dirpath, _, names in os.walk(root):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            found += [f"{os.path.relpath(path, root)}:{node.lineno}"
                      for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_genus_O4_trivial(genus_o4):
    assert genus_o4.class_number == 1


def test_aut_orders_small():
    assert automorphism_order(HermitianLattice.standard(1)) == 6
    assert automorphism_order(HermitianLattice.standard(2)) == 72
    # Aut(I_n) is the unit monomial group: 6^n n!
    for n in range(1, 9):
        assert automorphism_order(HermitianLattice.standard(n)) == \
            6 ** n * math.factorial(n)
    S = fixtures.load_seed_sqrt3()
    assert automorphism_order(S) == 155520
    # two orthogonal copies: 155,520^2 * 2! (about 2 s)
    assert automorphism_order(direct_sum(S, S)) == 155520 ** 2 * 2


def test_orders_follow_the_walk(monkeypatch):
    # each walked class's group is searched once, at the start of its row,
    # and its order read from it; the orders of the sublattice classes,
    # which are not walked, are searched once S is complete
    events = []
    search = isometry._search_group

    def searched(L):
        events.append(("group", L.gram))
        return search(L)

    def progress(i, placed, h):
        events.append(("row", i))

    monkeypatch.setattr(isometry, "_search_group", searched)
    P = ideal_above(2)
    genus = enumerate_genus(HermitianLattice.from_gram(
        [[1, 0, 0], [0, 1, 0], [0, 0, 5]]), P, progress=progress)
    assert genus.class_number == 2
    assert events == [e for i, R in enumerate(genus.representatives)
                      for e in (("group", R.gram), ("row", i))]
    events.clear()
    sub, _ = sublattice_genus(genus, P, progress=progress)
    assert events == [("row", i) for i in range(genus.class_number)] + \
        [("group", M.gram) for M in sub.representatives]


def unit_monomial(n, rng):
    """Columns: a seeded permutation of the basis with unit scalings."""
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice(UNITS) if i == perm[j] else ZERO for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("d,p", [(5, 2), (7, 3), (11, 2), (13, 3), (13, 2)],
                         ids=["<1,1,5>@2", "<1,1,7>@sqrt-3", "<1,1,11>@2",
                              "<1,1,13>@sqrt-3", "<1,1,13>@2"])
def test_isometry_separates_classes(d, p):
    # each class in a new basis is isometric to its own class and to no
    # other, in the genus and in its sublattice genus, and keeps its |Aut|
    P = ideal_above(p)
    genus = enumerate_genus(HermitianLattice.from_gram(
        [[1, 0, 0], [0, 1, 0], [0, 0, d]]), P)
    rng = random.Random(f"{d}@{p}")
    for g in (genus, sublattice_genus(genus, P)[0]):
        assert g.class_number > 1
        for i, L in enumerate(g.representatives):
            M = L.rebase(unit_monomial(L.rank, rng))
            assert [is_isometric(M, R) is not None
                    for R in g.representatives] == \
                [i == j for j in range(g.class_number)]
            assert automorphism_order(M) == g.aut_orders[i]


def test_classifier_places_a_repeated_gram_without_search(monkeypatch):
    # the neighbours of every class of <1,1,13> at (2) repeat their Grams;
    # a Gram placed before is placed again by lookup, so the search runs
    # once per distinct Gram that is not a representative's (each
    # fingerprint bucket holds one class here)
    P = ideal_above(2)
    genus = enumerate_genus(HermitianLattice.from_gram(
        [[1, 0, 0], [0, 1, 0], [0, 0, 13]]), P)
    lattices = [M for R in genus.representatives
                for _, M in iter_neighbours(R, P)]
    grams = {M.gram for M in lattices}
    assert len(grams) < len(lattices)
    calls = []
    search = isometry.is_isometric
    monkeypatch.setattr(isometry, "is_isometric",
                        lambda L1, L2: calls.append(L1.gram) or search(L1, L2))
    classes = isometry.Classifier()
    indices = [classes.classify(M) for M in lattices]
    reps = classes.representatives
    fingerprints = [R.fingerprint() for R in reps]
    assert len(set(fingerprints)) == len(reps)
    assert sorted(calls) == sorted(grams - {R.gram for R in reps})
    monkeypatch.undo()
    assert [isometry.Classifier(reps).classify(M) for M in lattices] == indices


def test_classifier_remembers_the_last_grams():
    classes = isometry.Classifier()
    for k in range(1, 1101):
        assert classes.classify(HermitianLattice.from_gram([[k]])) == k - 1
    placed = classes._placed
    assert len(placed) == isometry.GRAM_MEMORY == 1024
    assert list(placed.values()) == list(range(1100 - 1024, 1100))


def test_rank2_rejected_for_genus():
    with pytest.raises(UnsupportedCaseError):
        enumerate_genus(HermitianLattice.standard(2), ideal_above(2))


def test_intersection_lattice_index():
    L = HermitianLattice.standard(3)
    P = ideal_above(2)
    ns = neighbours(L, P)
    # [L : L cap L'] = O/P, so the determinant scales by N(P)
    X = intersection_lattice(L, ns.intersections[0])
    assert X.det == L.det * P.residue_norm


def test_each_walked_lattice_is_built_once(monkeypatch):
    # one Hermitian check per neighbour and per intersection: the rebased
    # Gram goes straight to the LLL, not through a throwaway lattice
    L, P = HermitianLattice.standard(4), ideal_above(2)
    calls = []
    is_hermitian = eismat.is_hermitian
    monkeypatch.setattr(eismat, "is_hermitian",
                        lambda G: calls.append(1) or is_hermitian(G))
    ns = neighbours(L, P)
    assert len(ns) == len(calls) == 90
    calls.clear()
    for key in ns.intersections:
        intersection_lattice(L, key)
    assert len(ns.intersections) == len(calls) == 45


def test_genus_archive_roundtrip(tmp_path):
    g = enumerate_genus(HermitianLattice.standard(3), ideal_above(2))
    save_genus(g, str(tmp_path / "g"))
    g2 = load_genus(str(tmp_path / "g"))
    assert g2.class_number == g.class_number
    assert g2.aut_orders == g.aut_orders
    assert is_isometric(g2.representatives[0], g.representatives[0]) is not None
    assert (g2.prime, g2.hecke_rows) == (g.prime, g.hecke_rows)


def _record(g):
    return ([R.gram for R in g.representatives], g.aut_orders, g.prime,
            g.hecke_rows)


def test_every_manifest_key_has_a_reader(tmp_path):
    # the archive holds the walked record and nothing else: deleting any
    # manifest key makes load_genus refuse it or return another record
    g = enumerate_genus(HermitianLattice.from_gram(
        [[1, 0, 0], [0, 1, 0], [0, 0, 7]]), ideal_above(3))
    save_genus(g, str(tmp_path))
    path = tmp_path / "manifest.json"
    manifest = json.loads(path.read_text())
    assert sorted(manifest) == ["aut_orders", "class_count", "hecke_rows",
                                "prime"]
    assert _record(load_genus(str(tmp_path))) == _record(g)
    for key in manifest:
        path.write_text(json.dumps({k: v for k, v in manifest.items()
                                    if k != key}))
        try:
            record = _record(load_genus(str(tmp_path)))
        except PreconditionError:
            continue
        assert record != _record(g), key


@pytest.mark.parametrize("rank,p,count", [(3, 7, 57), (4, 7, 400), (3, 13, 183)],
                         ids=["I3@7", "I4@7", "I3@13"])
@pytest.mark.parametrize("side", [0, 1], ids=["P", "Pbar"])
def test_split_prime_neighbours(rank, p, count, side):
    # every line of F_p^rank is admissible, one neighbour each
    L = HermitianLattice.standard(rank)
    P = classify_prime(p)[1][side]
    ns = neighbours(L, P)
    assert len(ns) == count == count_neighbours(L, P)[1]
    assert len(set(ns.hermite_keys)) == count
    for key, M in zip(ns.hermite_keys, ns.neighbours):
        assert verify_neighbour(L, key, P)
        assert M.is_unimodular()
