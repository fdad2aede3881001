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

import json
import os
from dataclasses import dataclass, field

from .eisenstein import EisensteinInt, ZERO, ONE, eis, EisIdeal, \
    canonical_associate
from . import eismat
from .lattice import HermitianLattice, hermitian_lll
from .isometry import Classifier
from .errors import PreconditionError, UnsupportedCaseError


@dataclass
class NeighbourSet:
    base: HermitianLattice
    prime: EisIdeal
    neighbours: list            # HermitianLattice, aligned with hermite_keys
    hermite_keys: list          # canonical basis of pibar*L' in L-coordinates
    intersections: list         # deduplicated canonical bases of L cap L'

    def __len__(self):
        return len(self.neighbours)


@dataclass
class GenusEnumeration:
    representatives: list       # HermitianLattice
    aut_orders: list
    prime: EisIdeal
    discovery_log: list = field(default_factory=list)
    # T(prime) rows recorded by a complete walk: hecke_rows[i][j] neighbours
    # of class i lie in class j.  None when the walk was cut short or the
    # genus was loaded from an archive.
    hecke_rows: list = None

    @property
    def class_number(self):
        return len(self.representatives)


def _residue_reps(ideal: EisIdeal):
    """Small lifts of O/P."""
    if ideal.split_type == "inert":
        p = ideal.p
        return [EisensteinInt(a, b) for a in range(p) for b in range(p)]
    if ideal.split_type == "ramified":
        return [eis(0), eis(1), eis(2)]
    return [eis(a) for a in range(ideal.p)]


def _inverse_mod(x: EisensteinInt, ideal: EisIdeal):
    """A lift of x^-1 in O/(ideal); None if x reduces to zero."""
    if ideal.generator.divides(x):
        return None
    for t in _residue_reps(ideal):
        if ideal.generator.divides(x * t - ONE):
            return t
    raise AssertionError("residue ring is a field; inverse must exist")


def _lines(n: int, ideal: EisIdeal):
    """Normalized line representatives of (O/P)^n: first nonzero coord = 1."""
    reps = _residue_reps(ideal)
    for lead in range(n):
        tail = n - lead - 1

        def rec(pos, acc):
            if pos == tail:
                yield tuple([ZERO] * lead + [ONE] + acc)
                return
            for r in reps:
                yield from rec(pos + 1, acc + [r])
        yield from rec(0, [])


def _check_precondition(L: HermitianLattice, ideal: EisIdeal):
    p = 3 if ideal.split_type == "ramified" else ideal.p
    if abs(L.det) % p == 0:
        raise PreconditionError(
            f"prime {ideal} divides the discriminant of the lattice")


def _admissible_adjustments(c0: int, ideal: EisIdeal):
    """Residue parameters t = <x, z> mod P with
    <x + pibar z, x + pibar z> = c0 + Tr(pibar t) = 0 mod N(pi)."""
    pibar = ideal.generator.conj()
    N = ideal.residue_norm
    out = []
    for t in _residue_reps(ideal):
        shift = pibar * t
        if (c0 + 2 * shift.a - shift.b) % N == 0:
            out.append(t)
    return out


def _kernel_columns(xg, ideal, n):
    """(piv, ginv, cols): a pivot j with xg_j invertible mod P, a lift ginv
    of its inverse, and lifted O-generators cols of
    L_x = { y in L : <x, y> in P } (mod refinement: n-1 kernel lifts of the
    functional y -> sum xg_j y_j plus pi e_piv)."""
    pi = ideal.generator
    piv = ginv = None
    for j in range(n):
        ginv = _inverse_mod(xg[j], ideal)
        if ginv is not None:
            piv = j
            break
    if piv is None:
        raise PreconditionError("degenerate line: form singular mod P")
    cols = []
    for k in range(n):
        if k == piv:
            continue
        c = xg[k] * ginv
        col = [ZERO] * n
        col[k] = ONE
        col[piv] = -c
        cols.append(col)
    col = [ZERO] * n
    col[piv] = pi
    cols.append(col)
    return piv, ginv, cols


def _hermite_key(cols, n):
    M = [[cols[c][i] for c in range(len(cols))] for i in range(n)]
    H = eismat.column_hermite_form(M)
    return tuple(tuple(row) for row in H)


def _neighbour_from_key(L, key, N):
    """Gram of L' where key is a basis of pibar L' in L-coordinates."""
    H = [list(row) for row in key]
    Hh = eismat.conj_transpose(H)
    Gp = eismat.emat_mul(Hh, eismat.emat_mul([list(r) for r in L.gram], H))
    gram = []
    for row in Gp:
        out = []
        for v in row:
            if v.a % N or v.b % N:
                raise AssertionError("neighbour gram is not integral")
            out.append(EisensteinInt(v.a // N, v.b // N))
        gram.append(tuple(out))
    return hermitian_lll(HermitianLattice(tuple(gram)))


def iter_lines_with_data(L: HermitianLattice, ideal: EisIdeal):
    """Yields (x, xg, adjustments) for every admissible line of L/PL."""
    _check_precondition(L, ideal)
    n = L.rank
    G = L.gram
    for x in _lines(n, ideal):
        xg = [sum((x[i].conj() * G[i][j] for i in range(n) if x[i] != ZERO),
                  ZERO) for j in range(n)]
        c0 = sum((xg[j] * x[j] for j in range(n) if x[j] != ZERO), ZERO)
        assert c0.b == 0
        ts = _admissible_adjustments(c0.a, ideal)
        if ts:
            yield x, xg, ts


def _line_neighbours(L: HermitianLattice, ideal: EisIdeal, x, ts, kernel):
    """Yields (hermite_key, lattice) for the neighbours of one line, where
    kernel = _kernel_columns(xg, ideal, n)."""
    n = L.rank
    pibar = ideal.generator.conj()
    N = ideal.residue_norm
    piv, ginv, cols = kernel
    scaled_kernel = [[pibar * v for v in col] for col in cols]
    for t in ts:
        # z = t * ginv * e_piv has <x, z> = t mod P
        xt = list(x)
        xt[piv] = xt[piv] + pibar * t * ginv
        key = _hermite_key([xt] + scaled_kernel, n)
        yield key, _neighbour_from_key(L, key, N)


def iter_neighbours(L: HermitianLattice, ideal: EisIdeal):
    """Yields (hermite_key, lattice) for every neighbour, streaming."""
    for x, xg, ts in iter_lines_with_data(L, ideal):
        yield from _line_neighbours(L, ideal, x, ts,
                                    _kernel_columns(xg, ideal, L.rank))


def neighbours(L: HermitianLattice, ideal: EisIdeal) -> NeighbourSet:
    """The complete neighbour set N(L, P), materialized."""
    n = L.rank
    result = NeighbourSet(L, ideal, [], [], [])
    for x, xg, ts in iter_lines_with_data(L, ideal):
        kernel = _kernel_columns(xg, ideal, n)
        result.intersections.append(_hermite_key(kernel[2], n))
        for key, lat in _line_neighbours(L, ideal, x, ts, kernel):
            result.hermite_keys.append(key)
            result.neighbours.append(lat)
    assert len(set(result.hermite_keys)) == len(result.hermite_keys), \
        "neighbour keys are not distinct"
    assert len(set(result.intersections)) == len(result.intersections), \
        "intersection keys are not distinct"
    return result


def count_neighbours(L: HermitianLattice, ideal: EisIdeal):
    """(number of admissible lines, number of neighbours), without
    constructing any lattice."""
    lines = nbrs = 0
    for _, _, ts in iter_lines_with_data(L, ideal):
        lines += 1
        nbrs += len(ts)
    return lines, nbrs


def intersection_lattice(L: HermitianLattice, key) -> HermitianLattice:
    """The sublattice L cap L' (given by its canonical basis) as an abstract
    Hermitian lattice."""
    return hermitian_lll(L.rebase([list(row) for row in key]))


def verify_neighbour(L: HermitianLattice, key, ideal: EisIdeal) -> bool:
    """Invariant-factor check of the neighbour definition.

    key is a basis of pibar L' in L-coordinates; relative to L the lattice
    L' must have elementary divisors (pibar^-1, 1, ..., 1, pi), i.e. the key
    matrix must have invariant factors (1, pibar, ..., pibar, pibar*pi).
    """
    n = L.rank
    pi, pibar = ideal.generator, ideal.generator.conj()
    inv = eismat.smith_invariants([list(r) for r in key])
    expect = [canonical_associate(ONE)] + \
             [canonical_associate(pibar)] * (n - 2) + \
             [canonical_associate(pibar * pi)]
    return [canonical_associate(f) for f in inv] == expect


# --- genus enumeration ----------------------------------------------------

def enumerate_genus(L: HermitianLattice, ideal: EisIdeal,
                    max_classes: int = None, progress=None) -> GenusEnumeration:
    """The classes of the genus of L reached by iterated P-neighbours.

    Every neighbour of every class is classified once; a complete walk
    also records the rows of T(P) from those classifications.
    """
    if L.rank < 3:
        raise UnsupportedCaseError(
            "neighbours need not stay in the genus for rank < 3")
    classes = Classifier([L])
    reps = classes.representatives
    log = []
    counts = []
    for i, R in enumerate(reps):        # reps grows as classes are found
        row = {}
        for _, lat in iter_neighbours(R, ideal):
            j, new = classes.classify(lat)
            if new:
                log.append((i, j))
                if progress:
                    progress(len(reps))
                if max_classes and len(reps) >= max_classes:
                    return GenusEnumeration(reps, classes.aut_orders, ideal, log)
            row[j] = row.get(j, 0) + 1
        counts.append(row)
    h = len(reps)
    rows = [[row.get(j, 0) for j in range(h)] for row in counts]
    return GenusEnumeration(reps, classes.aut_orders, ideal, log, rows)


def sublattice_genus(L_genus: GenusEnumeration, ideal: EisIdeal):
    """Representatives of genus(L cap N') plus the incidence matrix S.

    s_{i, j} = number of index-N sublattices X of L_i (arising as L_i cap N')
    with X isometric to L'_j.
    """
    if ideal.split_type == "split":
        raise UnsupportedCaseError(
            "the intertwining method requires an inert or ramified prime")
    classes = Classifier()
    rows = []
    for L in L_genus.representatives:
        n = L.rank
        counts = {}
        for x, xg, ts in iter_lines_with_data(L, ideal):
            key = _hermite_key(_kernel_columns(xg, ideal, n)[2], n)
            idx, _ = classes.classify(intersection_lattice(L, key))
            counts[idx] = counts.get(idx, 0) + 1
        rows.append(counts)
    h2 = len(classes.representatives)
    S = [[row.get(j, 0) for j in range(h2)] for row in rows]
    return GenusEnumeration(classes.representatives, classes.aut_orders,
                            ideal), S


# --- genus archive --------------------------------------------------------

def save_genus(genus: GenusEnumeration, directory: str):
    os.makedirs(directory, exist_ok=True)
    for i, L in enumerate(genus.representatives):
        L.save(os.path.join(directory, f"class_{i:03d}.json"))
    manifest = {
        "class_count": genus.class_number,
        "aut_orders": genus.aut_orders,
        "prime": str(genus.prime),
        "fingerprints": [list(map(str, L.fingerprint()))
                         for L in genus.representatives],
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1)


def load_genus(directory: str, ideal: EisIdeal = None) -> GenusEnumeration:
    with open(os.path.join(directory, "manifest.json")) as fh:
        manifest = json.load(fh)
    reps = [HermitianLattice.load(os.path.join(directory, f"class_{i:03d}.json"))
            for i in range(manifest["class_count"])]
    return GenusEnumeration(reps, manifest["aut_orders"], ideal)
