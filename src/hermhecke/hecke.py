"""Hecke operator matrices on M(triv, K_L) from neighbour data.

Two routes: direct neighbour counting (t_ij = #neighbours of L_i isometric
to L_j) and the intertwining method through the second genus of
intersections (T = S S' - d I).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .eisenstein import EisIdeal
from .neighbour import (GenusEnumeration, count_neighbours, neighbour_rows,
                        sublattice_genus)


@dataclass
class HeckeMatrix:
    """T(prime) on the classes of a genus, from `hecke_direct`,
    `hecke_intertwining` or a fixture.  `entries` holds its integer rows,
    which is what `spectra.eigensystem` takes; `to_json_dict` is what the
    CLI prints, and nothing reads it back."""

    prime: EisIdeal
    entries: list           # h x h list of lists of int
    method_tag: str         # direct | intertwining | fixture

    @property
    def size(self):
        return len(self.entries)

    def row_sums(self):
        return [sum(row) for row in self.entries]

    def check_row_sums_constant(self) -> int:
        sums = set(self.row_sums())
        if len(sums) != 1:
            raise AssertionError(f"row sums not constant: {sorted(sums)}")
        return sums.pop()

    def check_self_adjoint(self, aut_orders) -> bool:
        h = self.size
        t = self.entries
        for i in range(h):
            for j in range(h):
                if t[i][j] * aut_orders[j] != t[j][i] * aut_orders[i]:
                    return False
        return True

    def to_json_dict(self):
        return {"prime": str(self.prime), "size": self.size,
                "rows": self.entries, "method": self.method_tag}


@dataclass
class IntertwiningData:
    S: list                 # h x h' int
    S_prime: list           # h' x h int
    d: int
    aut_L: list
    aut_Lprime: list

    def verify(self) -> bool:
        """S has row sums d; S' is S scaled by the orders, row sums constant."""
        if any(sum(row) != self.d for row in self.S) or \
                len({sum(row) for row in self.S_prime}) != 1:
            return False
        try:
            return sprime_from_s(self.S, self.aut_L, self.aut_Lprime) == self.S_prime
        except AssertionError:
            return False


def hecke_direct(genus: GenusEnumeration, ideal: EisIdeal,
                 progress=None) -> HeckeMatrix:
    """T(ideal) by counting neighbours: t_ij = #neighbours of L_i in class j.

    The rows the genus records are used when it was walked at this prime;
    otherwise neighbour_rows(genus, ideal, progress).  Either way each row
    must sum to the closed-form count, which catches an edited archive.
    """
    if genus.hecke_rows is not None and genus.prime == ideal:
        entries = [list(row) for row in genus.hecke_rows]
    else:
        entries = neighbour_rows(genus, ideal, progress)
    T = HeckeMatrix(ideal, entries, "direct")
    total = count_neighbours(genus.representatives[0], ideal)[1]
    if T.check_row_sums_constant() != total:
        raise AssertionError(f"rows of T{ideal} do not sum to the {total} "
                             f"neighbours of a class")
    return T


def _scaled_transpose(M, num, den, name):
    """The matrix with entry (j, i) = num[j] * M[i][j] / den[i]; all entries
    must be nonnegative integers."""
    out = []
    for j in range(len(M[0])):
        row = []
        for i in range(len(M)):
            v = Fraction(num[j] * M[i][j], den[i])
            if v.denominator != 1 or v < 0:
                raise AssertionError(
                    f"{name} entry ({j},{i}) = {v} is not a nonnegative integer")
            row.append(int(v))
        out.append(row)
    return out


def sprime_from_s(S, aut_L, aut_Lprime):
    """S' = diag(aut_L') . S^T . diag(aut_L)^-1; all entries must be
    nonnegative integers."""
    return _scaled_transpose(S, aut_Lprime, aut_L, "S'")


def s_from_sprime(S_prime, aut_L, aut_Lprime):
    """Invert the diagonal scaling: s_ij = s'_ji * aut_i / aut'_j."""
    return _scaled_transpose(S_prime, aut_L, aut_Lprime, "S")


def assemble_intertwining(S, aut_L, aut_Lprime):
    """T = S S' - d I from the incidence matrix and automorphism orders."""
    S_prime = sprime_from_s(S, aut_L, aut_Lprime)
    d_values = {sum(row) for row in S}
    if len(d_values) != 1:
        raise AssertionError(f"rows of S do not sum to a constant: {d_values}")
    d = d_values.pop()
    h, h2 = len(S), len(S[0])
    T = [[sum(S[i][k] * S_prime[k][j] for k in range(h2)) - (d if i == j else 0)
          for j in range(h)] for i in range(h)]
    data = IntertwiningData(S, S_prime, d, list(aut_L), list(aut_Lprime))
    return T, data


def hecke_intertwining(genus: GenusEnumeration, ideal: EisIdeal,
                       progress=None):
    sub_genus, S = sublattice_genus(genus, ideal, progress)
    T, data = assemble_intertwining(S, genus.aut_orders, sub_genus.aut_orders)
    M = HeckeMatrix(ideal, T, "intertwining")
    M.check_row_sums_constant()
    return M, data, sub_genus
