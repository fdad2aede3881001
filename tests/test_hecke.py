import dataclasses
from itertools import combinations
from math import comb

import pytest

from hermhecke import neighbour
from hermhecke.eisenstein import classify_prime, ideal_above
from hermhecke.errors import OrphanLatticeError
from hermhecke.hecke import (HeckeMatrix, assemble_intertwining, hecke_direct,
                             hecke_intertwining, s_from_sprime, sprime_from_s)
from hermhecke.lattice import HermitianLattice
from hermhecke.linalg import mat_mul
from hermhecke.neighbour import (GenusEnumeration, enumerate_genus, load_genus,
                                 save_genus)

# <1, 1, d> at the prime above p: sorted |Aut| of the classes, the row sum
# of T (the neighbour count of a rank-3 class), the number of sublattice
# classes, and the discovery log (class j first met among the neighbours
# of class i)
MULTICLASS = {
    (5, 2): ((72, 432), 18, 4, [(0, 1)]),
    (7, 3): ((36, 72, 432), 12, 3, [(0, 1), (1, 2)]),
    (11, 3): ((24, 36, 72, 432), 12, 4, [(0, 1), (1, 2), (1, 3)]),
    (13, 2): ((12, 36, 72, 72, 432), 18, 9,
              [(0, 1), (1, 2), (1, 3), (2, 4)]),
}


@pytest.fixture(scope="module", params=sorted(MULTICLASS),
                ids=lambda k: f"<1,1,{k[0]}>@{k[1]}")
def multiclass(request):
    d, p = request.param
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, d]])
    P = ideal_above(p)
    return L, P, enumerate_genus(L, P), MULTICLASS[request.param]


def test_s_sprime_roundtrip(fx):
    S = s_from_sprime(fx.sprime2_25x5, fx.aut_5, fx.aut_25)
    assert sprime_from_s(S, fx.aut_5, fx.aut_25) == fx.sprime2_25x5
    assert all(sum(row) == fx.d for row in S)


def test_assemble_intertwining_matches_fixture(fx):
    S = s_from_sprime(fx.sprime2_25x5, fx.aut_5, fx.aut_25)
    T, data = assemble_intertwining(S, fx.aut_5, fx.aut_25)
    assert T == fx.t2_5x5
    assert data.verify()
    assert data.d == fx.d


def test_sprime_rejects_bad_aut(fx):
    with pytest.raises(AssertionError):
        s_from_sprime(fx.sprime2_25x5, [7] * 5, fx.aut_25)


def test_verify_reports_bad_data(fx):
    S = s_from_sprime(fx.sprime2_25x5, fx.aut_5, fx.aut_25)
    _, data = assemble_intertwining(S, fx.aut_5, fx.aut_25)
    # a non-integral scaled entry, then a wrong integral one
    assert data.verify() is True
    assert dataclasses.replace(data, aut_L=[7] * 5).verify() is False
    S_prime = [list(row) for row in data.S_prime]
    S_prime[0][0] += 1
    assert dataclasses.replace(data, S_prime=S_prime).verify() is False


def test_hecke_direct_rank4(genus_o4):
    T = hecke_direct(genus_o4, ideal_above(2))
    # single class: T is 1x1 and the entry is the total neighbour count
    assert T.size == 1
    assert T.check_row_sums_constant() == T.entries[0][0]


def test_hecke_intertwining_rank4_agrees(genus_o4):
    Td = hecke_direct(genus_o4, ideal_above(2))
    Ti, data, sub = hecke_intertwining(genus_o4, ideal_above(2))
    assert Ti.entries == Td.entries
    assert data.verify()


def test_matrix_json_roundtrip():
    M = HeckeMatrix(ideal_above(2), [[1, 2], [3, 4]], "fixture")
    with pytest.raises(AssertionError):
        M.check_row_sums_constant()


def test_fixture_matrices_self_adjoint(fx):
    M = HeckeMatrix("(2)", fx.t2_5x5, "fixture")
    assert M.check_self_adjoint(fx.aut_5)


def test_i12_rows_by_weight(fx):
    # the oracle of the orbit route on I12: the units reduce onto every
    # nonzero residue, so the lines of I12/P I12 fall into one orbit per
    # weight w (number of nonzero coordinates). Row 11 (0-based) is I12's.
    # At (sqrt-3) the weights 3, 6, 9 and 12 are isotropic, each orbit of
    # C(12, w) 2^(w-1) lines giving 3 neighbours (2,640, 88,704, 168,960,
    # 6,144)
    assert sorted(x for x in fx.t3_20x20[11] if x) == \
        sorted(3 * comb(12, w) * 2 ** (w - 1) for w in (3, 6, 9, 12))
    # at (2) the even weights, each orbit of C(12, w) 3^(w-1) lines giving 2
    # neighbours; weights 2 and 4 lie in one class (396 + 26,730)
    t2 = {w: 2 * comb(12, w) * 3 ** (w - 1) for w in range(2, 13, 2)}
    assert sorted(x for x in fx.t2_20x20[11] if x) == \
        sorted([t2[2] + t2[4], t2[6], t2[8], t2[10], t2[12]]) == \
        [27126, 354294, 449064, 2165130, 2598156]


def test_swap_of_classes_3_and_4_is_the_one_fixture_symmetry(fx):
    # of the 190 transpositions of the 20 classes, only the swap of classes
    # 3 and 4 (0-based) leaves both 20x20 matrices unchanged, as complex
    # conjugation would if it swaps those classes
    def swapped(T, i, j):
        s = list(range(len(T)))
        s[i], s[j] = j, i
        return [[T[a][b] for b in s] for a in s]

    pairs = list(combinations(range(20), 2))
    assert len(pairs) == 190
    assert [(i, j) for i, j in pairs
            if swapped(fx.t2_20x20, i, j) == fx.t2_20x20
            and swapped(fx.t3_20x20, i, j) == fx.t3_20x20] == [(3, 4)]


def test_multiclass_genus_records_rows(multiclass):
    _, P, g, (auts, row_sum, _, log) = multiclass
    assert tuple(sorted(g.aut_orders)) == auts
    assert g.prime == P
    assert g.discovery_log == log
    assert [sum(row) for row in g.hecke_rows] == [row_sum] * len(auts)
    T = hecke_direct(g, P)
    assert T.entries == g.hecke_rows
    assert T.check_self_adjoint(g.aut_orders)


def test_stored_rows_equal_a_fresh_walk(multiclass, tmp_path):
    _, P, g, _ = multiclass
    save_genus(g, str(tmp_path / "g"))
    loaded = load_genus(str(tmp_path / "g"), P)
    assert loaded.hecke_rows is None and loaded.discovery_log == []
    assert hecke_direct(loaded, P).entries == g.hecke_rows


def test_multiclass_direct_equals_intertwining(multiclass):
    _, P, g, (_, _, sub_classes, _) = multiclass
    Ti, data, sub = hecke_intertwining(g, P)
    assert sub.class_number == sub_classes
    assert Ti.entries == hecke_direct(g, P).entries
    assert data.verify()
    assert Ti.check_self_adjoint(g.aut_orders)


def test_walk_at_another_prime_commutes(multiclass):
    # the rows were recorded at P; the other prime is walked
    _, P, g, _ = multiclass
    T = hecke_direct(g, P).entries
    other = ideal_above(3 if P.residue_norm == 4 else 2)
    U = hecke_direct(g, other)
    assert U.check_self_adjoint(g.aut_orders)
    h = g.class_number
    TU = [[sum(T[i][k] * U.entries[k][j] for k in range(h)) for j in range(h)]
          for i in range(h)]
    UT = [[sum(U.entries[i][k] * T[k][j] for k in range(h)) for j in range(h)]
          for i in range(h)]
    assert TU == UT


def test_truncated_genus_stores_no_rows(multiclass, monkeypatch):
    _, P, g, _ = multiclass
    cut = GenusEnumeration(g.representatives[:1], g.aut_orders[:1], P)
    assert cut.hecke_rows is None and cut.discovery_log == []

    def no_aut(L):
        raise AssertionError("|Aut| of a lattice outside the genus list")

    # an orphan neighbour is reported, never added as a class
    monkeypatch.setattr(neighbour, "automorphism_order", no_aut)
    with pytest.raises(OrphanLatticeError,
                       match="neighbour of class 0 matches no representative"):
        hecke_direct(cut, P)
    # the walk's own classifier took the orphan in; the genus did not
    assert len(cut.representatives) == 1


@pytest.fixture(scope="module")
def split_pair():
    """<1,1,5> walked at (2), with T(P_7) and T(Pbar_7) by direct walks."""
    L = HermitianLattice.from_gram([[1, 0, 0], [0, 1, 0], [0, 0, 5]])
    g = enumerate_genus(L, ideal_above(2))
    return g, [hecke_direct(g, P).entries for P in classify_prime(7)[1]]


def test_split_hecke_matrices(split_pair):
    _, (T, Tbar) = split_pair
    assert T == Tbar == [[9, 48], [8, 49]]
    assert [sum(row) for row in T] == [57, 57]


def test_split_hecke_adjoint_pair(split_pair):
    # t(P)_ij |Aut_j| = t(Pbar)_ji |Aut_i|
    g, (T, Tbar) = split_pair
    aut, h = g.aut_orders, g.class_number
    assert all(T[i][j] * aut[j] == Tbar[j][i] * aut[i]
               for i in range(h) for j in range(h))


def test_split_hecke_commute(split_pair):
    g, (T, Tbar) = split_pair
    T3 = hecke_direct(g, ideal_above(3)).entries
    for A, B in [(T, g.hecke_rows), (Tbar, g.hecke_rows), (T, T3), (Tbar, T3),
                 (T, Tbar)]:
        assert mat_mul(A, B) == mat_mul(B, A)
