"""Shipped numeric fixtures and their anti-transcription checksums.

The fixture set bundles the two 20x20 neighbour-operator matrices, the 5x5
matrix at (2) for the sqrt(-3)-modular genus, the 25x5 intertwining matrix
S'_2 with both automorphism-order lists, the 20-row reference eigenvalue
table, and the coefficient store.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coefficients import CoefficientStore
from .data import _read_json
from .linalg import mat_mul
from .quadfield import parse_quad


def load_seed_sqrt3():
    """The rank-4 sqrt(-3)-modular seed lattice (det 9, minimum 3)."""
    from .lattice import HermitianLattice
    data = _read_json("seed_sqrt3_rank4.json")
    return HermitianLattice.from_json_dict(
        {"rank": data["rank"], "gram": data["gram"]})


def seed_sqrt3_rank12():
    """Three orthogonal copies of the rank-4 seed: a rank-12 sqrt(-3)-modular
    lattice in the 5-class genus, with |Aut| = 155520^3 * 6."""
    from .lattice import direct_sum
    L = load_seed_sqrt3()
    return direct_sum(L, L, L)


T2_ROW_SUM = 5593770
T3_ROW_SUM = 266448
SPRIME_ROW_SUM = 3
D_INTERSECTIONS = 2796885


def load_reference_table():
    """Reference 20-row table: eigenvalues of T_(2), T_(sqrt(-3)) and the
    conjectured parameter strings."""
    return [{"label": row["label"], "t2": parse_quad(row["t2"]),
             "t3": parse_quad(row["t3"]), "parameter": row["parameter"],
             "dim": row["dim"]}
            for row in _read_json("eigen_table_20.json")["rows"]]


@dataclass
class FixtureSet:
    t2_20x20: list
    t3_20x20: list
    t2_5x5: list
    sprime2_25x5: list
    aut_5: list
    aut_25: list
    d: int
    eigen_table: list
    store: CoefficientStore

    @staticmethod
    def load() -> "FixtureSet":
        """The shipped fixtures, or those in the directory HERMHECKE_DATA."""
        t2 = _read_json("t2_unimodular_20.json")
        t3 = _read_json("t3_unimodular_20.json")
        t2e = _read_json("t2_eisenstein_5.json")
        sp = _read_json("sprime2_eisenstein_25x5.json")
        return FixtureSet(t2["rows"], t3["rows"], t2e["rows"], sp["rows"],
                          sp["aut_L"], sp["aut_Lprime"], sp["d"],
                          load_reference_table(), CoefficientStore.load())


def fixture_checksum(fx: FixtureSet) -> dict:
    """Run every fixture invariant; failures name the offending row/column."""
    failures = []

    for name, M, target in (("t2_20x20", fx.t2_20x20, T2_ROW_SUM),
                            ("t3_20x20", fx.t3_20x20, T3_ROW_SUM)):
        if len(M) != 20 or any(len(r) != 20 for r in M):
            failures.append(f"{name}: wrong shape")
        for i, row in enumerate(M):
            if sum(row) != target:
                failures.append(f"{name}: row {i + 1} sums to {sum(row)}, expected {target}")

    if mat_mul(fx.t2_20x20, fx.t3_20x20) != mat_mul(fx.t3_20x20, fx.t2_20x20):
        failures.append("t2_20x20 and t3_20x20 do not commute")

    if len(fx.sprime2_25x5) != 25 or any(len(r) != 5 for r in fx.sprime2_25x5):
        failures.append("sprime2: wrong shape")
    for i, row in enumerate(fx.sprime2_25x5):
        if sum(row) != SPRIME_ROW_SUM:
            failures.append(f"sprime2: row {i + 1} sums to {sum(row)}, expected {SPRIME_ROW_SUM}")

    if len(fx.aut_5) != 5:
        failures.append(f"aut_5 has length {len(fx.aut_5)}")
    if len(fx.aut_25) != 25:
        failures.append(f"aut_25 has length {len(fx.aut_25)}")
    if fx.d != D_INTERSECTIONS:
        failures.append(f"d = {fx.d}, expected {D_INTERSECTIONS}")

    # weighted symmetry of the 5x5 matrix: t_ij / |Aut L_i| = t_ji / |Aut L_j|,
    # cross-multiplied: t_ij |Aut L_j| = t_ji |Aut L_i|
    for i in range(5):
        for j in range(5):
            if fx.t2_5x5[i][j] * fx.aut_5[j] != fx.t2_5x5[j][i] * fx.aut_5[i]:
                failures.append(f"t2_5x5 weighted symmetry fails at ({i + 1},{j + 1})")

    if len(fx.eigen_table) != 20:
        failures.append(f"eigen table has {len(fx.eigen_table)} rows")
    for row in fx.eigen_table:
        if row["label"] == 1 and (row["t2"] != T2_ROW_SUM or row["t3"] != T3_ROW_SUM):
            failures.append("eigen table row 1 does not match the constant row sums")

    return {"ok": not failures, "failures": failures}
