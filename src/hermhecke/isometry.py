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
basis vector is the table vector itself.  Automorphism groups are
searched bottom-up along the stabilizer chain, and a candidate image that
the automorphisms found so far already reach is not searched
(Plesken-Souvignier); the order is the product of the orbit sizes, so
huge groups are never enumerated element by element.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eisenstein import OMEGA, ONE, UNITS, ZERO, _pconj, _pdot, _pmul
from .eismat import _congruence
from .lattice import HermitianLattice
from .orbits import close_orbit

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
                    yield v if u == ONE else tuple(u * x for x in v)

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


def automorphism_group(L: HermitianLattice):
    """(|Aut(L)|, generators): the order of the O_E-linear isometries of L
    and automorphisms that generate them, each given by the images of the
    basis; each passes `IsometryCertificate.verify`.  Searched once per
    lattice and kept in the instance dict, like the short-vector table."""
    group = L.__dict__.get("_automorphism_group")
    if group is None:
        group = L.__dict__["_automorphism_group"] = _search_group(L)
    return group


def _search_group(L: HermitianLattice):
    """(order, generators) of `automorphism_group`, searched bottom-up.

    At level k, from n - 1 down to 0, every generator found so far fixes
    e_0, ..., e_(k-1).  The orbit of e_k under them is closed first, and
    only a candidate image outside it is searched; each automorphism found
    joins the generators and the orbit is closed again.  So the generators
    of levels k and up generate the stabilizer of e_0, ..., e_(k-1), and
    the order is the product of the orbit sizes.  Level 0 starts from the
    scalar -w, whose powers are the six units, so its orbit holds every
    unit multiple of the table vectors the search tries.
    """
    n = L.rank
    searcher = _Searcher(L, L)
    basis = [tuple(ONE if i == k else ZERO for i in range(n)) for k in range(n)]
    xgs = [searcher.dagger_gram(e) for e in basis]
    generators, order = [], 1
    for k in reversed(range(n)):
        if not k:
            generators.append([tuple(-OMEGA if c == ONE else ZERO for c in e)
                               for e in basis])
        orbit, seen = [basis[k]], {basis[k]}
        close_orbit(orbit, seen, generators, 0)
        for w in searcher.extensions(xgs[:k], k):
            if w in seen:
                continue
            g = searcher.complete(basis[:k] + [w],
                                  xgs[:k] + [searcher.dagger_gram(w)], k + 1)
            if g is not None:
                generators.append(g)
                close_orbit(orbit, seen, generators, len(orbit))
        order *= len(orbit)
    for g in generators:
        if not IsometryCertificate(g).verify(L, L):
            raise AssertionError(
                f"automorphism of a rank-{n} lattice of determinant {L.det} "
                f"fails its Gram check")
    return order, tuple(map(tuple, generators))


def automorphism_order(L: HermitianLattice) -> int:
    """|Aut(L)| as O_E-linear isometries (`automorphism_group`)."""
    return automorphism_group(L)[0]


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
