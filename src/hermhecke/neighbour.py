"""Kneser p-neighbours of integral Hermitian lattices and genus enumeration.

For a prime ideal P = (pi) with residue norm N, a neighbour of L is
determined by a line [x] in L/PL together with a lift adjustment
x ~> x + pibar*z making <x, x> = 0 mod N; then

    L' = Pbar^{-1} x  +  { y in L : <x, y> in P }.

The adjustment is by pibar, not pi, so that it keeps the kernel:
<x + pibar z, y> = <x, y> + pi <z, y> stays in P.  At a split prime pi
and pibar generate different ideals and only pibar works.

All arithmetic is exact: line representatives are kept as small Eisenstein
lifts, lattices are handled through canonical Hermite bases of pibar * L'
in L-coordinates.  Distinct (line, adjustment) pairs give distinct
neighbours (the intersection L cap L' recovers the line, the adjustment
class recovers the lift), which the rank-2 exhaustive oracle confirms.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from operator import add

from .eisenstein import EisensteinInt, ONE, ZERO, EisIdeal, \
    canonical_associate, classify_prime, is_prime, _pconj, _pdot, _pmul
from . import eismat
from .lattice import HermitianLattice, _reduced_rebase
from .isometry import Classifier, automorphism_group, automorphism_order
from .orbits import line_orbits
from .errors import OrphanLatticeError, PreconditionError, UnsupportedCaseError


@dataclass
class NeighbourSet:
    neighbours: list            # HermitianLattice, aligned with hermite_keys
    hermite_keys: list          # canonical basis of pibar*L' in L-coordinates
    intersections: list         # canonical bases of L cap L', one per line

    def __len__(self):
        return len(self.neighbours)


@dataclass
class GenusEnumeration:
    representatives: list       # HermitianLattice
    aut_orders: list
    prime: EisIdeal
    # T(prime) rows recorded by enumerate_genus: hecke_rows[i][j] neighbours
    # of class i lie in class j.  None when the record holds no rows.
    hecke_rows: list = None

    @property
    def class_number(self):
        return len(self.representatives)

    @property
    def discovery_log(self):
        """(i, j): class j >= 1 was found on row i, the first row with a
        neighbour in it (earlier rows were walked before it existed)."""
        rows = self.hecke_rows or []
        return [(next(i for i, row in enumerate(rows) if row[j]), j)
                for j in range(1, len(rows))]


class _Residues:
    """Tables of O/P for the line walk.

    reps lists small lifts of O/P, zero first.  A pair (a, b) lies in the
    class index((a, b)) = ((a + b*w0) mod p) * p + (b*e mod p): at a split
    or ramified prime w = w0 mod P and e = 0; at an inert prime w0 = 0 and
    e = 1, so the index reads (a mod p, b mod p).  inverse[index] is the
    lift in reps of the inverse of the class (None for zero), and
    adjustments[c0 mod N] the tuple of t in reps with
    c0 + Tr(pibar*t) = 0 mod N.
    """

    def __init__(self, ideal: EisIdeal):
        self.p = p = ideal.p
        if ideal.split_type == "inert":
            self.reps = tuple((a, b) for a in range(p) for b in range(p))
            self.w0, self.e = 0, 1
        else:
            self.reps = tuple((a, 0) for a in range(p))
            self.w0 = next(w for w in range(p)
                           if ideal.generator.divides(EisensteinInt(-w, 1)))
            self.e = 0
        one = self.index((1, 0))
        inverse = [None] * (p * p)
        for r in self.reps[1:]:
            inverse[self.index(r)] = next(
                t for t in self.reps if self.index(_pmul(r, t)) == one)
        self.inverse = tuple(inverse)
        pibar = ideal.generator.conj()
        shifts = [_pmul(pibar, t) for t in self.reps]
        N = ideal.residue_norm
        self.adjustments = tuple(
            tuple(t for t, (a, b) in zip(self.reps, shifts)
                  if (c0 + 2 * a - b) % N == 0)
            for c0 in range(N))

    def index(self, x) -> int:
        p = self.p
        return (x[0] + x[1] * self.w0) % p * p + x[1] * self.e % p


@functools.cache
def _residues(ideal: EisIdeal) -> _Residues:
    """The residue tables of P, built once per prime."""
    return _Residues(ideal)


def _check_precondition(L: HermitianLattice, ideal: EisIdeal):
    if abs(L.det) % ideal.p == 0:
        raise PreconditionError(
            f"prime {ideal} divides the discriminant of the lattice")


def _kernel_columns(xg, ideal, n):
    """(s, ginv, cols): the last index s with xg_s invertible mod P, a lift
    ginv of its inverse, and the lower-triangular basis cols of
    L_x = { y in L : <x, y> in P }: e_j - (xg_j ginv) e_s for j < s, pi e_s,
    and e_j for j > s, where xg_j = 0 mod P; it reduces to the intersection
    key."""
    res = _residues(ideal)
    for s in range(n - 1, -1, -1):
        ginv = res.inverse[res.index(xg[s])]
        if ginv is not None:
            break
    else:
        raise PreconditionError(
            f"degenerate line: form singular mod P (rank {n} at {ideal})")
    cols = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    cols[s][s] = ideal.generator
    for j in range(s):
        ca, cb = _pmul(xg[j], ginv)
        cols[j][s] = (-ca, -cb)
    return s, ginv, cols


def iter_lines_with_data(L: HermitianLattice, ideal: EisIdeal):
    """Yields (x, xg, c0, ts) for every admissible line [x] of L/PL.

    Scalars are (a, b) pairs for a + b*w, EisensteinInt or plain tuples.
    x is the line's representative: a tuple of pairs whose first nonzero
    coordinate is 1 and whose later coordinates are lifts from the residue
    table of P.  xg is the tuple of pairs
    xg_j = sum_i conj(x_i) G_ij, c0 = <x, x> is an int, and ts is the tuple
    of adjustment parameters t (pairs, residue lifts mod P) with
    c0 + Tr(pibar*t) = 0 mod N(P); lines without one are skipped.

    Lines come by leading position, then with the tail in lexicographic
    order of residue lifts, the last coordinate running fastest.  The walk
    keeps xg and updates it as it goes: when coordinate i changes from r
    to r', xg gains conj(r' - r) * G[i].
    """
    _check_precondition(L, ideal)
    n = L.rank
    res = _residues(ideal)
    reps, adjustments = res.reps, res.adjustments
    N, m = ideal.residue_norm, len(res.reps)
    G = L.gram
    # steps[i][d] = conj(reps[d] - reps[d-1]) * G[i] as two int lists;
    # d = 0 wraps from the last lift back to zero
    steps = []
    for i in range(n):
        row = []
        for d in range(m):
            (a, b), (c, e) = reps[d], reps[d - 1]
            delta = _pconj((a - c, b - e))
            prods = [_pmul(delta, g) for g in G[i]]
            row.append(([u for u, _ in prods], [v for _, v in prods]))
        steps.append(row)
    for lead in range(n):
        x = [ZERO] * n
        x[lead] = ONE
        digits = [0] * n
        ga = [a for a, _ in G[lead]]            # xg for x = e_lead
        gb = [b for _, b in G[lead]]
        while True:
            # <x, x> = sum_j xg_j x_j; its w-part must vanish
            xg = tuple(zip(ga, gb))
            c0, w_part = _pdot(xg, x)
            if w_part:
                raise AssertionError(
                    f"<x, x> is not rational on a rank-{n} lattice at "
                    f"{ideal}: the Gram matrix is not Hermitian")
            ts = adjustments[c0 % N]
            if ts:
                yield tuple(x), xg, c0, ts
            # next line: advance the tail like an odometer
            i = n - 1
            while i > lead:
                d = digits[i] + 1
                if d == m:
                    d = 0
                digits[i] = d
                x[i] = reps[d]
                da, db = steps[i][d]
                ga = list(map(add, ga, da))
                gb = list(map(add, gb, db))
                if d:
                    break
                i -= 1
            else:
                break


def _line_neighbours(L: HermitianLattice, ideal: EisIdeal, x, ts, kernel):
    """Yields (hermite_key, lattice) for the neighbours of one line, where
    kernel = _kernel_columns(xg, ideal, n).  The key is the basis of
    pibar L' = xt + pibar L_x in L-coordinates, so L' is
    L.rebase(key, pibar), built here on its LLL-reduced basis."""
    pibar = ideal.generator.conj()
    s, ginv, cols = kernel
    scaled_kernel = [[_pmul(pibar, v) for v in col] for col in cols]
    for t in ts:
        # z = t * ginv * e_s has <x, z> = t mod P
        xt = list(x)
        a, b = _pmul(_pmul(pibar, t), ginv)
        xt[s] = (xt[s][0] + a, xt[s][1] + b)
        key = eismat._hermite_key(scaled_kernel, [xt])
        yield key, _reduced_rebase(L, key, pibar)


def iter_neighbours(L: HermitianLattice, ideal: EisIdeal):
    """Yields (hermite_key, lattice) for every neighbour, streaming."""
    for x, xg, _, ts in iter_lines_with_data(L, ideal):
        yield from _line_neighbours(L, ideal, x, ts,
                                    _kernel_columns(xg, ideal, L.rank))


def neighbours(L: HermitianLattice, ideal: EisIdeal) -> NeighbourSet:
    """The complete neighbour set N(L, P), materialized."""
    n = L.rank
    result = NeighbourSet([], [], [])
    for x, xg, _, ts in iter_lines_with_data(L, ideal):
        kernel = _kernel_columns(xg, ideal, n)
        result.intersections.append(eismat._hermite_key(kernel[2]))
        for key, lat in _line_neighbours(L, ideal, x, ts, kernel):
            result.hermite_keys.append(key)
            result.neighbours.append(lat)
    for name, keys in (("neighbour", result.hermite_keys),
                       ("intersection", result.intersections)):
        if len(set(keys)) != len(keys):
            raise AssertionError(
                f"{name} keys are not distinct: {len(set(keys))} of "
                f"{len(keys)} for a rank-{n} lattice at {ideal}")
    return result


def count_neighbours(L: HermitianLattice, ideal: EisIdeal):
    """(number of admissible lines, number of neighbours) in closed form:
    the isotropic points of L/PL for the form mod P, nondegenerate as P
    does not divide det L.  Split: all lines, 1 neighbour each; inert: a
    Hermitian form over F_(p^2), p each; ramified: a quadratic form over
    F_3, 3 each, for n = 2m of plus type exactly when (-1)^m det L = 1 mod
    3 (Greenberg-Voight 2014).  iter_lines_with_data is the oracle."""
    _check_precondition(L, ideal)
    n, p, sign = L.rank, ideal.p, (-1) ** L.rank
    if ideal.split_type == "split":
        return ((p ** n - 1) // (p - 1),) * 2
    if ideal.split_type == "inert":
        lines = (p ** n - sign) * (p ** (n - 1) + sign) // (p * p - 1)
    elif n % 2:
        lines = (3 ** (n - 1) - 1) // 2
    else:
        eps = 1 if (-1) ** (n // 2) * L.det % 3 == 1 else -1
        lines = (3 ** (n // 2) - eps) * (3 ** (n // 2 - 1) + eps) // 2
    return lines, p * lines


def intersection_lattice(L: HermitianLattice, key) -> HermitianLattice:
    """The sublattice L cap L' (given by its canonical basis) as an abstract
    Hermitian lattice, on its LLL-reduced basis."""
    return _reduced_rebase(L, key)


@functools.cache
def _neighbour_invariants(n: int, ideal: EisIdeal) -> tuple:
    """The invariant factors verify_neighbour expects at rank n."""
    pi, pibar = ideal.generator, ideal.generator.conj()
    factors = [pi] if n == 1 else [ONE] + [pibar] * (n - 2) + [pibar * pi]
    return tuple(map(canonical_associate, factors))


def verify_neighbour(L: HermitianLattice, key, ideal: EisIdeal) -> bool:
    """Invariant-factor check of the neighbour definition.

    key is a basis of pibar L' in L-coordinates; relative to L the lattice
    L' must have elementary divisors (pibar^-1, 1, ..., 1, pi), i.e. the key
    matrix must have invariant factors (1, pibar, ..., pibar, pibar*pi).
    At rank 1, L' = (pi/pibar) L and the one invariant factor is pi.
    """
    return tuple(eismat.smith_invariants(key)) == \
        _neighbour_invariants(L.rank, ideal)


# --- class rows ------------------------------------------------------------

def _line_orbits(L: HermitianLattice, ideal: EisIdeal, generators):
    """Yields (size, (x, xg, c0, ts)) for the first line of each orbit of
    the generators on the lines of `iter_lines_with_data` (`line_orbits`)."""
    return line_orbits(iter_lines_with_data(L, ideal), generators,
                       _residues(ideal), count_neighbours(L, ideal)[0],
                       f"a rank-{L.rank} lattice at {ideal}")


def _orbit_neighbours(L: HermitianLattice, ideal: EisIdeal, generators):
    """Yields (orbit size, lattice) for the neighbours of the first line of
    each line orbit, built as `iter_neighbours` builds them."""
    for size, (x, xg, _, ts) in _line_orbits(L, ideal, generators):
        for _, lat in _line_neighbours(L, ideal, x, ts,
                                       _kernel_columns(xg, ideal, L.rank)):
            yield size, lat


def _orbit_intersections(L: HermitianLattice, ideal: EisIdeal, generators):
    """Yields (orbit size, L cap L') for the first line of each line orbit."""
    for size, (_, xg, _, _) in _line_orbits(L, ideal, generators):
        key = eismat._hermite_key(_kernel_columns(xg, ideal, L.rank)[2])
        yield size, intersection_lattice(L, key)


def _class_rows(classes: Classifier, walked, lattices, ideal: EisIdeal, *,
                grow: bool, progress=None) -> list:
    """rows[i][j]: the total weight of the (weight, lattice) pairs that
    lattices(walked[i], ideal, generators) yields with their lattice in
    class j, the generators being those of Aut(walked[i]), read at the
    start of the row (`automorphism_group`).

    A lattice of no class of classes becomes a new class (walked may be
    classes.representatives, which then grows as it is walked); without
    grow, it raises OrphanLatticeError.  progress(i, placed, h) reports
    every 10,000 lattices placed and each row's end, h being the classes
    known.
    """
    known = len(classes.representatives)
    rows = []
    for i, R in enumerate(walked):
        generators = automorphism_group(R)[1]
        row, placed = {}, 0
        for placed, (weight, lat) in enumerate(
                lattices(R, ideal, generators), 1):
            j = classes.classify(lat)
            if j >= known and not grow:
                raise OrphanLatticeError(
                    f"neighbour of class {i} matches no representative: "
                    f"{lat.to_json_dict()}")
            row[j] = row.get(j, 0) + weight
            if progress and placed % 10000 == 0:
                progress(i, placed, len(classes.representatives))
        if progress:
            progress(i, placed, len(classes.representatives))
        rows.append(row)
    h = len(classes.representatives)
    return [[row.get(j, 0) for j in range(h)] for row in rows]


def enumerate_genus(L: HermitianLattice, ideal: EisIdeal,
                    progress=None) -> GenusEnumeration:
    """The classes of the genus of L reached by iterated P-neighbours.

    Each class's group Aut is searched at the start of its row, and the
    neighbours of one line per orbit of the group on the lines are
    classified, weighted by the orbit size; this also gives the rows of
    T(P).  The first line of each orbit in walk order stands for it, so
    classes are found in the order, and with the representatives, of a
    walk over every neighbour.  The orders |Aut| are read from the groups.
    """
    if L.rank < 3:
        raise UnsupportedCaseError(
            "neighbours need not stay in the genus for rank < 3")
    classes = Classifier([L])
    rows = _class_rows(classes, classes.representatives, _orbit_neighbours,
                       ideal, grow=True, progress=progress)
    reps = classes.representatives
    return GenusEnumeration(reps, [automorphism_order(R) for R in reps],
                            ideal, rows)


def neighbour_rows(genus: GenusEnumeration, ideal: EisIdeal,
                   progress=None) -> list:
    """T(ideal) rows of a complete genus: rows[i][j] neighbours of class i
    lie in class j, from one line per orbit of Aut of class i, as in
    enumerate_genus.  A neighbour of no class raises OrphanLatticeError."""
    classes = Classifier(genus.representatives)
    return _class_rows(classes, genus.representatives, _orbit_neighbours,
                       ideal, grow=False, progress=progress)


def sublattice_genus(L_genus: GenusEnumeration, ideal: EisIdeal,
                     progress=None):
    """Representatives of genus(L cap N') plus the incidence matrix S.

    s_{i, j} = number of index-N sublattices X of L_i (arising as L_i cap N')
    with X isometric to L'_j.  As in enumerate_genus, one line per orbit
    of Aut(L_i) is walked, weighted by the orbit size, and the orders
    |Aut| of the new classes are searched once S is complete.
    """
    if ideal.split_type == "split":
        raise UnsupportedCaseError(
            "the intertwining method requires an inert or ramified prime")
    classes = Classifier()
    S = _class_rows(classes, L_genus.representatives, _orbit_intersections,
                    ideal, grow=True, progress=progress)
    reps = classes.representatives
    return GenusEnumeration(reps, [automorphism_order(R) for R in reps],
                            ideal), S


# --- genus archive --------------------------------------------------------

def save_genus(genus: GenusEnumeration, directory: str):
    os.makedirs(directory, exist_ok=True)
    for i, L in enumerate(genus.representatives):
        L.save(os.path.join(directory, f"class_{i:03d}.json"))
    manifest = {
        "class_count": genus.class_number,
        "aut_orders": genus.aut_orders,
        "prime": list(genus.prime.generator),
        "hecke_rows": genus.hecke_rows,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def _ints(v, length, low=-math.inf):
    """v is a list of `length` ints, each >= low."""
    return type(v) is list and len(v) == length and \
        all(type(t) is int and t >= low for t in v)


def _prime_ideal(g: EisensteinInt):
    """The prime ideal of classify_prime that g generates, or None."""
    n = g.norm()
    return next((P for p in (n, math.isqrt(n)) if is_prime(p)
                 for P in classify_prime(p)[1]
                 if P.residue_norm == n and P.generator.divides(g)), None)


def load_genus(directory: str) -> GenusEnumeration:
    """The genus saved by save_genus in directory.  PreconditionError,
    naming the manifest and the key, unless it holds a class_count >= 1,
    that many positive aut_orders, the generator pair of a prime ideal and
    hecke_rows that are null or class_count rows of as many ints >= 0."""
    path = os.path.join(directory, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        manifest = {}
    count, auts = manifest.get("class_count"), manifest.get("aut_orders")
    if type(count) is not int or count < 1:
        raise PreconditionError(f"{path}: class_count must be an int >= 1")
    if not _ints(auts, count, 1):
        raise PreconditionError(
            f"{path}: aut_orders must be a list of {count} positive ints")
    pair, rows = manifest.get("prime"), manifest.get("hecke_rows")
    prime = _ints(pair, 2) and _prime_ideal(EisensteinInt(*pair))
    if not prime:
        raise PreconditionError(
            f"{path}: prime must be the generator pair [a, b] of a prime ideal")
    if rows is not None and not (type(rows) is list and len(rows) == count
                                 and all(_ints(row, count, 0) for row in rows)):
        raise PreconditionError(f"{path}: hecke_rows must be null or {count} "
                                f"rows of {count} nonnegative ints")
    reps = [HermitianLattice.load(os.path.join(directory, f"class_{i:03d}.json"))
            for i in range(count)]
    return GenusEnumeration(reps, auts, prime, rows)
