"""Isometry testing and automorphism groups of Hermitian lattices.

Backtracking over images of basis vectors (Plesken-Souvignier style,
adapted to the O_E-linear setting): a candidate image for the k-th basis
vector must have the right norm and the right inner products with the
images already chosen.  Candidates are read from the target's stored
short-vector table, one vector of each orbit of the six units; each chosen
image x brings the nonzero entries of x^dagger G, the conjugate of G x,
computed once, so a candidate costs one sparse dot product per earlier
image, and the first nonzero product fixes which unit multiple can follow.
A unit multiple of an isometry is an isometry, so the image of the first
basis vector is the table vector itself.  Group orders come from the
orbit-stabilizer chain, so huge groups are never enumerated element by
element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eisenstein import ONE, UNITS, ZERO, _pconj, _pdot, _pmul
from .eismat import _congruence
from .lattice import HermitianLattice

# how many Grams of placed lattices a Classifier remembers; a rank-12 Gram
# takes about 11 KB
GRAM_MEMORY = 1024


@dataclass(frozen=True)
class IsometryCertificate:
    """Columns give the images of the source basis in target coordinates."""
    columns: tuple

    def verify(self, source: HermitianLattice, target: HermitianLattice) -> bool:
        """Whether the images have the source's Gram matrix in the target."""
        images = _congruence(target.gram, list(zip(*self.columns)))
        return images == [list(row) for row in source.gram]


class _Searcher:
    """Shared state for backtracking searches into a fixed target lattice.

    A partial assignment is the list of images chosen so far and, beside
    it, the list of their x^dagger G.
    """

    def __init__(self, source: HermitianLattice, target: HermitianLattice):
        self.G1 = source.gram
        self.target = target
        self.n = source.rank
        # level k: for each j < k, the product t = <e_j, e_k> of the source
        # and the unit u of each p with u p = t, that is p = conj(u) t
        self.targets = [
            [(t, {} if t == ZERO else {_pmul(_pconj(u), t): u for u in UNITS})
             for t in (self.G1[j][k] for j in range(k))]
            for k in range(self.n)]

    def dagger_gram(self, x):
        """The nonzero entries (k, a, b) of x^dagger G, a + b w its k-th."""
        # (x^dagger G)_k = conj((G x)_k), G being Hermitian
        return [(k, *xg) for k, xg in enumerate(
            _pconj(_pdot(row, x)) for row in self.target.gram) if xg != (0, 0)]

    def extensions(self, xgs, level):
        """The unit multiples w of the target's table vectors of norm
        <e_level, e_level> with <x_j, w> = <e_j, e_level> of the source for
        the images x_j, j < level, whose x_j^dagger G are xgs.

        <x, u v> = u <x, v>: the first nonzero product fixes the unit, and
        only when every product is zero are all six multiples tried.  The
        first image is sought up to units: at level 0 the unit is 1.
        """
        targets = self.targets[level]
        m = self.G1[level][level].a
        for v in self.target._vectors_by_norm(m).get(m, ()):
            unit = None if level else ONE
            for xg, (t, units) in zip(xgs, targets):
                ac = bd = adbc = 0      # <x, v> = sum_k (x^dagger G)_k v_k
                for k, p, q in xg:
                    c, d = v[k]
                    ac += p * c
                    bd += q * d
                    adbc += p * d + q * c
                a, b = ac - bd, adbc - bd
                if unit is not None:
                    if _pmul(unit, (a, b)) != t:
                        break
                elif a or b:
                    unit = units.get((a, b))
                    if unit is None:
                        break
                elif units:         # a zero product where t is not zero
                    break
            else:
                for u in UNITS if unit is None else (unit,):
                    yield tuple(u * x for x in v)

    def complete(self, images, xgs, level):
        """Extend a partial assignment to a full one; None if impossible."""
        if level == self.n:
            return list(images)
        for w in self.extensions(xgs, level):
            images.append(w)
            xgs.append(self.dagger_gram(w))
            full = self.complete(images, xgs, level + 1)
            if full is not None:
                return full
            images.pop()
            xgs.pop()
        return None


def is_isometric(L1: HermitianLattice, L2: HermitianLattice):
    """An IsometryCertificate mapping L1 onto L2, or None.

    Equal discriminants (elementary divisor norms, whose product is det^2)
    force equal rank and determinant; images of a basis with matching Gram
    then span a full-rank sublattice of L2 of equal determinant: all of L2.
    """
    if L1.discriminant() != L2.discriminant():
        return None
    full = _Searcher(L1, L2).complete([], [], 0)
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
    the order one level down.  The unit scalars act freely on the orbit of
    e_0, so the order starts from 6 and level 0 counts unit orbits.
    """
    n = L.rank
    searcher = _Searcher(L, L)
    order = 6
    prefix, xgs = [], []
    for k in range(n):
        # how many w does some automorphism fixing the prefix send e_k to?
        order *= sum(searcher.complete(prefix + [w],
                                       xgs + [searcher.dagger_gram(w)], k + 1)
                     is not None for w in searcher.extensions(xgs, k))
        e_k = tuple(ONE if i == k else ZERO for i in range(n))
        prefix.append(e_k)
        xgs.append(searcher.dagger_gram(e_k))
    return order


class Classifier:
    """Isometry classes met so far: a representative of each, and buckets
    of representatives by fingerprint, so that a lattice is tested for
    isometry only against representatives with its fingerprint.

    The Grams of the last GRAM_MEMORY lattices placed, representatives
    included, map to their classes: equal Grams are isometric through the
    identity and representatives are pairwise non-isometric, so a lattice
    with a recorded Gram is placed by that record, with no fingerprint and
    no search.
    """

    def __init__(self, representatives=()):
        self.representatives = []
        self._buckets = {}          # fingerprint -> indices of representatives
        self._placed = {}           # Gram -> class index, oldest first
        for L in representatives:
            self._add(L, L.fingerprint())

    def classify(self, L: HermitianLattice) -> int:
        """Index of the class of L, which becomes a new representative if
        it matches none."""
        idx = self._placed.get(L.gram)
        if idx is not None:
            return idx
        fp = L.fingerprint()
        for idx in self._buckets.get(fp, ()):
            if is_isometric(L, self.representatives[idx]) is not None:
                return self._record(L, idx)
        return self._add(L, fp)

    def _add(self, L, fp) -> int:
        idx = len(self.representatives)
        self.representatives.append(L)
        self._buckets.setdefault(fp, []).append(idx)
        return self._record(L, idx)

    def _record(self, L, idx) -> int:
        placed = self._placed
        if len(placed) == GRAM_MEMORY:
            del placed[next(iter(placed))]
        placed[L.gram] = idx
        return idx
