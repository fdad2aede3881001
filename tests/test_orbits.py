"""Automorphism groups and the class-row walks over line orbits.

The orbit rows are checked against a walk over every line, written out
here: it places every neighbour from `iter_neighbours` and every
intersection from `neighbours(...).intersections`.
"""

import pytest

from hermhecke import fixtures, isometry, neighbour
from hermhecke.eisenstein import UNITS, ZERO, classify_prime, ideal_above
from hermhecke.isometry import (Classifier, IsometryCertificate,
                                automorphism_group, automorphism_order)
from hermhecke.lattice import HermitianLattice
from hermhecke.neighbour import (enumerate_genus, intersection_lattice,
                                 iter_neighbours, neighbour_rows, neighbours,
                                 sublattice_genus)

P2, P3 = ideal_above(2), ideal_above(3)
P7, PBAR7 = classify_prime(7)[1]


def diagonal(*entries):
    n = len(entries)
    return HermitianLattice.from_gram(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def table_images(L, g, points, index):
    """The images of the points (table vectors times units) under the
    automorphism g, given by the images of the basis, as indices."""
    n = L.rank
    return [index[tuple(sum((v[j] * g[j][i] for j in range(n)), ZERO)
                        for i in range(n))] for v in points]


@pytest.mark.parametrize("L", [
    HermitianLattice.standard(1), HermitianLattice.standard(3),
    diagonal(5, 1, 1), diagonal(1, 1, 5), diagonal(1, 1, 7),
    fixtures.load_seed_sqrt3()],
    ids=["I1", "I3", "<5,1,1>", "<1,1,5>", "<1,1,7>", "seed4"])
def test_generators_generate_the_group(L):
    # the table up to the largest diagonal entry holds the basis, so Aut(L)
    # acts faithfully on its vectors times units; sympy's order of the
    # generated permutation group is the order of the stabilizer chain
    combinatorics = pytest.importorskip("sympy.combinatorics")
    order, generators = automorphism_group(L)
    bound = max(row[i].a for i, row in enumerate(L.gram))
    points = [tuple(u * c for c in v) for v in L.short_vectors(bound)
              for u in UNITS]
    index = {v: k for k, v in enumerate(points)}
    for g in generators:
        assert IsometryCertificate(g).verify(L, L)
    group = combinatorics.PermutationGroup(
        [combinatorics.Permutation(table_images(L, g, points, index))
         for g in generators])
    assert group.order() == order == automorphism_order(L)
    # searched once: the generators stay with the lattice
    assert automorphism_group(L)[1] is generators


@pytest.mark.parametrize("L", [
    HermitianLattice.standard(6), diagonal(1, 1, 5),
    fixtures.load_seed_sqrt3()], ids=["I6", "<1,1,5>", "seed4"])
def test_no_search_inside_a_known_orbit(L, monkeypatch):
    # a candidate image in the orbit the generators found so far already
    # reach is not searched, so each search that succeeds from
    # _search_group brings one generator; the other is the scalar -w
    expected = automorphism_order(L)
    complete, depth, successes = isometry._Searcher.complete, [0], []

    def counted(self, images, xgs, level):
        depth[0] += 1
        full = complete(self, images, xgs, level)
        depth[0] -= 1
        if depth[0] == 0 and full is not None:
            successes.append(full)
        return full

    monkeypatch.setattr(isometry._Searcher, "complete", counted)
    order, generators = isometry._search_group(L)
    assert order == expected
    assert len(successes) == len(generators) - 1


def test_a_generator_failing_its_gram_check_raises(monkeypatch):
    monkeypatch.setattr(IsometryCertificate, "verify", lambda *args: False)
    with pytest.raises(AssertionError, match="rank-3 lattice of determinant 5"):
        automorphism_group(diagonal(1, 1, 5))


# --- orbit rows against the walk over every line ---------------------------

def full_walk_rows(classes, walked, lattices, grow):
    """rows[i][j]: how many lattices of lattices(walked[i]) lie in class j,
    every one of them placed; walked may be classes.representatives."""
    known = len(classes.representatives)
    rows = []
    for R in walked:
        row = {}
        for lat in lattices(R):
            j = classes.classify(lat)
            assert grow or j < known
            row[j] = row.get(j, 0) + 1
        rows.append(row)
    h = len(classes.representatives)
    return [[row.get(j, 0) for j in range(h)] for row in rows]


def every_neighbour(P):
    return lambda R: (lat for _, lat in iter_neighbours(R, P))


def every_intersection(P):
    return lambda R: (intersection_lattice(R, key)
                      for key in neighbours(R, P).intersections)


def grams(lattices):
    return [L.gram for L in lattices]


# (lattice, walk prime, other primes for T rows, primes for S rows); at 𝔭7
# the lattice's determinant must be prime to 7
ORBIT_CASES = {
    "<1,1,5>": ((1, 1, 5), P2, (P3, P7, PBAR7), (P2, P3)),
    "<1,1,7>": ((1, 1, 7), P2, (P3,), (P2, P3)),
    "<1,1,11>": ((1, 1, 11), P2, (P3, P7, PBAR7), (P2, P3)),
    "<1,1,13>": ((1, 1, 13), P2, (P3, P7, PBAR7), (P2, P3)),
    "<1,1,37>": ((1, 1, 37), P2, (PBAR7,), ()),
    "I3": ((1,) * 3, P2, (P3, P7), (P2, P3)),
    "I4": ((1,) * 4, P2, (P3, P7), (P2, P3)),
    "I5": ((1,) * 5, P2, (P3, P7), (P2, P3)),
}
_oracle = {}


def oracle(case):
    """The walk over every line: T rows at each prime, with the genus's
    representatives, and S at each prime, with the sublattice Grams."""
    if case not in _oracle:
        entries, P, others, s_primes = ORBIT_CASES[case]
        classes = Classifier([diagonal(*entries)])
        reps = classes.representatives
        rows = {P: full_walk_rows(classes, reps, every_neighbour(P), True)}
        for Q in others:
            rows[Q] = full_walk_rows(Classifier(reps), reps,
                                     every_neighbour(Q), False)
        S = {}
        for Q in s_primes:
            sub = Classifier()
            S[Q] = (full_walk_rows(sub, reps, every_intersection(Q), True),
                    grams(sub.representatives))
        _oracle[case] = grams(reps), rows, S
    return _oracle[case]


@pytest.mark.parametrize("subgroup", ["full", "every other", "trivial"])
@pytest.mark.parametrize("case", sorted(ORBIT_CASES))
def test_orbit_rows_equal_the_full_walk(case, subgroup, monkeypatch):
    # any subgroup of Aut permutes the lines and keeps each neighbour's
    # class, so every choice of generators gives the same rows, classes
    # and representatives as the walk over every line
    keep = {"full": slice(None), "every other": slice(None, None, 2),
            "trivial": slice(0)}[subgroup]
    group = isometry.automorphism_group
    monkeypatch.setattr(neighbour, "automorphism_group",
                        lambda L: (group(L)[0], group(L)[1][keep]))
    entries, P, others, s_primes = ORBIT_CASES[case]
    reps, rows, S = oracle(case)
    genus = enumerate_genus(diagonal(*entries), P)
    assert grams(genus.representatives) == reps
    assert genus.hecke_rows == rows[P]
    for Q in others:
        assert neighbour_rows(genus, Q) == rows[Q]
    for Q in s_primes:
        sub, S_rows = sublattice_genus(genus, Q)
        assert (S_rows, grams(sub.representatives)) == S[Q]


def test_a_non_automorphism_fails_the_coverage_check(monkeypatch):
    # e0 -> e0 + e1 is no isometry of I3: its "orbits" reach lines that
    # are not admissible, and the walk raises instead of giving rows
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    shear = (((1, 0), (1, 0), (0, 0)),) + tuple(
        tuple((c, 0) for c in col) for col in e[1:])
    monkeypatch.setattr(neighbour, "automorphism_group",
                        lambda L: (1296, (shear,)))
    with pytest.raises(AssertionError, match=r"rank-3 lattice at \(2\)"):
        enumerate_genus(HermitianLattice.standard(3), P2)


def line_orbit_sizes(L, P):
    return [size for size, *_ in
            neighbour._line_orbits(L, P, automorphism_group(L)[1])]


def test_i6_lines_at_2_by_weight():
    # the monomial group moves a line of I6/2I6 to (1, ..., 1, 0, ..., 0):
    # the admissible weights 2, 4 and 6 give C(6, w) 3^(w-1) lines
    assert line_orbit_sizes(HermitianLattice.standard(6), P2) == \
        [45, 405, 243]


@pytest.mark.long
def test_i12_lines_at_sqrt3_by_weight():
    # weights 3, 6, 9 and 12: C(12, w) 2^(w-1) lines, 88,816 in all; about
    # 8 s on a desk machine
    sizes = line_orbit_sizes(HermitianLattice.standard(12), P3)
    assert sizes == [880, 29568, 56320, 2048]
    assert sum(sizes) == 88816
