import pytest

from hermhecke.eisenstein import classify_prime, eis, ideal_above
from hermhecke.eismat import smith_invariants
from hermhecke.isometry import automorphism_order, is_isometric
from hermhecke.lattice import HermitianLattice
from hermhecke.neighbour import (UnsupportedCaseError, count_neighbours,
                                 enumerate_genus, intersection_lattice,
                                 iter_neighbours, neighbours, verify_neighbour,
                                 load_genus, save_genus)


def exhaustive_neighbour_oracle(L, ideal):
    """All P-neighbours of a rank-2 lattice by brute force: every index-N^2
    sublattice M = pibar*L' of L (Hermite-form columns), kept when the
    invariant factors are (1, pibar*pi) and L' = (1/pibar)M is integral."""
    from hermhecke.neighbour import _hermite_key, _neighbour_from_key
    N = ideal.residue_norm
    found = {}
    # column-Hermite candidates: col1 = (d1, 0), col2 = (c, d2),
    # norms N(d1) * N(d2) = N^2; residues c run over a box covering O/(d1)
    divisor_pairs = [(eis(1), eis(N)), (eis(2), eis(2)), (eis(N), eis(1))]
    box = [eis(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    for d1, d2 in divisor_pairs:
        seen_c = set()
        for c in box:
            key = _hermite_key([[d1, eis(0)], [c, d2]], 2)
            if key in seen_c:
                continue
            seen_c.add(key)
            inv = smith_invariants([list(r) for r in key])
            if sorted(f.norm() for f in inv) != [1, N * N]:
                continue
            if not verify_neighbour(L, key, ideal):
                continue
            try:
                lat = _neighbour_from_key(L, key, N)
            except AssertionError:
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


def test_neighbour_count_formula_rank3():
    # unimodular rank 3 at inert p: every line is isotropic-adjustable;
    # the counts match the materialized set
    L = HermitianLattice.standard(3)
    P = ideal_above(2)
    lines, total = count_neighbours(L, P)
    assert total == len(neighbours(L, P))


def test_genus_O4_trivial(genus_o4):
    assert genus_o4.class_number == 1


def test_aut_orders_small():
    assert automorphism_order(HermitianLattice.standard(1)) == 6
    assert automorphism_order(HermitianLattice.standard(2)) == 72


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


def test_genus_archive_roundtrip(tmp_path):
    g = enumerate_genus(HermitianLattice.standard(3), ideal_above(2))
    save_genus(g, str(tmp_path / "g"))
    g2 = load_genus(str(tmp_path / "g"), ideal_above(2))
    assert g2.class_number == g.class_number
    assert g2.aut_orders == g.aut_orders
    assert is_isometric(g2.representatives[0], g.representatives[0]) is not None


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
