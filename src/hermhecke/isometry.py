"""Isometry testing and automorphism groups of Hermitian lattices.

Backtracking over images of basis vectors (Plesken-Souvignier style,
adapted to the O_E-linear setting): a candidate image for the k-th basis
vector must have the right norm and the right inner products with the
images already chosen.  Group orders come from the orbit-stabilizer chain,
so huge groups are never enumerated element by element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eisenstein import ONE, ZERO, _pconj, _pdot
from .eismat import _congruence
from .lattice import HermitianLattice


@dataclass(frozen=True)
class IsometryCertificate:
    """Columns give the images of the source basis in target coordinates."""
    columns: tuple

    def verify(self, source: HermitianLattice, target: HermitianLattice) -> bool:
        """Whether the images have the source's Gram matrix in the target."""
        images = _congruence(target.gram, list(zip(*self.columns)))
        return images == [list(row) for row in source.gram]


class _Searcher:
    """Shared state for backtracking searches into a fixed target lattice."""

    def __init__(self, source: HermitianLattice, target: HermitianLattice):
        self.G1 = source.gram
        self.target = target
        self.n = source.rank
        self._by_norm = {}
        self._wg = {}  # w -> w^dagger G of the target, for O(n) inner products

    def candidates(self, norm: int):
        if norm not in self._by_norm:
            self._by_norm[norm] = self.target.vectors_of_norm(norm)
        return self._by_norm[norm]

    def _dagger_gram(self, w):
        # (w^dagger G)_j = conj((G w)_j), G being Hermitian
        wg = self._wg.get(w)
        if wg is None:
            wg = self._wg[w] = [_pconj(_pdot(row, w)) for row in self.target.gram]
        return wg

    def compatible(self, images, level, w) -> bool:
        """Whether <w, images[j]> = <e_level, e_j> of the source for j < level."""
        wg = self._dagger_gram(w)
        row = self.G1[level]
        return all(_pdot(wg, images[j]) == row[j] for j in range(level))

    def complete(self, images, level):
        """Extend a partial assignment to a full one; None if impossible."""
        if level == self.n:
            return list(images)
        norm = self.G1[level][level].a
        for w in self.candidates(norm):
            if self.compatible(images, level, w):
                images.append(w)
                full = self.complete(images, level + 1)
                if full is not None:
                    return full
                images.pop()
        return None


def is_isometric(L1: HermitianLattice, L2: HermitianLattice):
    """An IsometryCertificate mapping L1 onto L2, or None.

    Images of a basis with matching Gram span a finite-index sublattice of
    L2 of the same determinant, hence all of L2.
    """
    if L1.rank != L2.rank:
        return None
    if L1.det != L2.det or L1.discriminant() != L2.discriminant():
        return None
    searcher = _Searcher(L1, L2)
    full = searcher.complete([], 0)
    if full is None:
        return None
    cert = IsometryCertificate(tuple(full))
    if not cert.verify(L1, L2):
        raise AssertionError(
            f"isometry certificate between rank-{L1.rank} lattices of "
            f"determinant {L1.det} fails its Gram check")
    return cert


def automorphism_order(L: HermitianLattice) -> int:
    """|Aut(L)| as O_E-linear isometries, via the orbit-stabilizer chain.

    At level k the group under consideration is the stabilizer of the first
    k basis vectors; its order is the orbit size of basis vector k times
    the order one level down.
    """
    n = L.rank
    searcher = _Searcher(L, L)
    basis = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
    order = 1
    prefix = []
    for k in range(n):
        orbit = 0
        for w in searcher.candidates(L.gram[k][k].a):
            if not searcher.compatible(prefix, k, w):
                continue
            # does some automorphism fixing the prefix send e_k to w?
            if searcher.complete(prefix + [w], k + 1) is not None:
                orbit += 1
        order *= orbit
        prefix.append(basis[k])
    return order


class Classifier:
    """Isometry classes met so far: a representative of each, its |Aut|, and
    buckets of representatives by fingerprint, so that a lattice is tested
    for isometry only against representatives with its fingerprint."""

    def __init__(self, representatives=(), aut_orders=None):
        self.representatives = []
        self.aut_orders = []
        self._buckets = {}          # fingerprint -> indices of representatives
        for i, L in enumerate(representatives):
            self._add(L, L.fingerprint(),
                      None if aut_orders is None else aut_orders[i])

    def find(self, L: HermitianLattice):
        """Index of the representative isometric to L, or None."""
        return self._find(L, L.fingerprint())

    def classify(self, L: HermitianLattice) -> int:
        """Index of the class of L, which becomes a new representative if
        it matches none."""
        fp = L.fingerprint()
        idx = self._find(L, fp)
        return self._add(L, fp) if idx is None else idx

    def _find(self, L, fp):
        for idx in self._buckets.get(fp, ()):
            if is_isometric(L, self.representatives[idx]) is not None:
                return idx
        return None

    def _add(self, L, fp, aut_order=None) -> int:
        idx = len(self.representatives)
        self.representatives.append(L)
        self.aut_orders.append(automorphism_order(L) if aut_order is None
                               else aut_order)
        self._buckets.setdefault(fp, []).append(idx)
        return idx
