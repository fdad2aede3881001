"""Hermitian lattices over the Eisenstein integers.

A lattice is stored through its Gram matrix with respect to some O-basis;
the form is conjugate-linear in the first argument.  Vectors are coordinate
tuples of EisensteinInt relative to that basis.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .eisenstein import (EisensteinInt, ONE, ZERO, eis, canonical_associate,
                         _associate_unit, _pconj, _pconj_mul, _pmul, _pnorm,
                         _reduce, _sub_multiple)
from . import eismat

# the largest norm whose vector count enters a lattice's fingerprint
FINGERPRINT_DEPTH = 4


def herm_inner(gram, x, y) -> EisensteinInt:
    """<x, y> = x^dagger G y (conjugate-linear in x)."""
    n = len(gram)
    s = ZERO
    for i in range(n):
        xi = x[i].conj()
        if xi == ZERO:
            continue
        for j in range(n):
            if y[j] != ZERO:
                s = s + xi * gram[i][j] * y[j]
    return s


def herm_norm(gram, x) -> int:
    v = herm_inner(gram, x, x)
    if v.b != 0:
        raise ValueError("norm is not rational; gram not Hermitian?")
    return v.a


@dataclass(frozen=True)
class HermitianLattice:
    gram: tuple  # tuple of tuples of EisensteinInt

    def __post_init__(self):
        if not eismat.is_hermitian(self.gram):
            raise ValueError("gram matrix is not Hermitian")

    @staticmethod
    def from_gram(rows) -> "HermitianLattice":
        return HermitianLattice(tuple(tuple(x if isinstance(x, EisensteinInt)
                                            else eis(x) for x in row)
                                      for row in rows))

    @staticmethod
    def standard(n: int) -> "HermitianLattice":
        return HermitianLattice.from_gram(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def _smith(self) -> tuple:
        """(invariant factors, determinant) of the Gram matrix, from one
        Smith elimination."""
        return eismat.smith(self.gram)

    @property
    def det(self) -> int:
        d = self._smith[1]
        if d.b != 0:
            raise ValueError("determinant of Hermitian gram must be rational")
        return d.a

    @property
    def invariant_factors(self) -> tuple:
        invariants = self._smith[0]
        if invariants is None:
            raise ValueError("matrix not of full rank")
        return tuple(invariants)

    def discriminant(self) -> tuple:
        """Norms of the elementary divisors of the Gram matrix."""
        return tuple(f.norm() for f in self.invariant_factors)

    def is_unimodular(self) -> bool:
        return all(f.is_unit() for f in self.invariant_factors)

    def is_sqrt3_modular(self) -> bool:
        s3 = canonical_associate(EisensteinInt(1, 2))
        return all(canonical_associate(f) == s3 for f in self.invariant_factors)

    @cached_property
    def minimum(self) -> int:
        # the smallest diagonal entry is the norm of a basis vector, so the
        # table up to it is not empty
        return next(iter(self._vectors_by_norm(
            min(row[i].a for i, row in enumerate(self.gram)))))

    def _vectors_by_norm(self, max_norm: int) -> dict:
        """The lattice's short-vector table: norm -> vectors of that norm,
        one of each orbit of the six units (the one whose last nonzero
        coordinate is its canonical associate), for every norm up to at
        least max_norm.

        One table per lattice, kept in the instance dict like the cached
        properties, so equality and hashing still see only the gram.  A
        request beyond its bound enumerates again at the new bound and
        replaces it.  It is enumerated on the LLL-reduced basis (Cohen,
        GTM 138, Alg. 2.7.7), so its cost does not depend on this one.  If
        the LLL changed the Gram, each vector v is mapped back to U v with
        its canonical associate, and each norm's list is sorted into the
        order of `_fincke_pohst` on this basis, which does not depend on
        the bound.
        """
        table = self.__dict__.get("_short_vector_table")
        if table is None or table[0] < max_norm:
            G, U, d, lam = _lll(self.gram)
            by_norm = {}
            for v, m in _fincke_pohst(G, d, lam, max_norm):
                by_norm.setdefault(m, []).append(v)
            if G != self.gram:
                for vs in by_norm.values():
                    vs[:] = sorted((_back(U, v) for v in vs),
                                   key=lambda x: [(c.b, c.a) for c in x[::-1]])
            table = (max_norm, dict(sorted(by_norm.items())))
            self.__dict__["_short_vector_table"] = table
        return table[1]

    def short_vectors(self, max_norm: int):
        """All nonzero vectors of Hermitian norm <= max_norm, up to units,
        by increasing norm: one of each orbit {u v} of the six units."""
        return [v for m, vs in self._vectors_by_norm(max_norm).items()
                if m <= max_norm for v in vs]

    def norm_histogram(self, max_norm: int):
        return {m: 6 * len(vs) for m, vs in self._vectors_by_norm(max_norm).items()
                if m <= max_norm}

    def rebase(self, cols, denominator=1) -> "HermitianLattice":
        """The lattice with basis the columns of cols divided by denominator.

        cols is the matrix, as a list of rows, whose columns are coordinates
        in the current basis; its entries are EisensteinInt or (a, b) pairs.
        The denominator d is an int or an EisensteinInt, and the new Gram is
        cols^dagger G cols / N(d), N(d) = d^2 for an int (`_rebased_gram`).
        A P-neighbour L' is L.rebase(key, pibar) for a basis key of pibar L'.
        ValueError if the Gram is not integral.
        """
        return HermitianLattice(_rebased_gram(self.gram, cols, denominator))

    # --- JSON -----------------------------------------------------------
    def to_json_dict(self):
        return {"rank": self.rank,
                "gram": [[list(x) for x in row] for row in self.gram]}

    @staticmethod
    def from_json_dict(d) -> "HermitianLattice":
        if not isinstance(d, dict) or not {"rank", "gram"} <= set(d):
            raise ValueError("a lattice is a JSON object with keys rank and gram")
        extra = set(d) - {"rank", "gram", "label"}
        if extra:
            raise ValueError(f"unexpected keys {sorted(extra)}")
        rows, n = d["gram"], d["rank"]
        if not isinstance(rows, list) or len(rows) != n or \
                any(not isinstance(r, list) or len(r) != n for r in rows):
            raise ValueError("rank does not match gram dimensions")
        return HermitianLattice(tuple(
            tuple(_json_entry(x, i, j) for j, x in enumerate(row))
            for i, row in enumerate(rows)))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh)

    @staticmethod
    def load(path) -> "HermitianLattice":
        with open(path) as fh:
            return HermitianLattice.from_json_dict(json.load(fh))

    def fingerprint(self):
        """Cheap isometry invariant: discriminant and the counts of vectors
        of norm at most FINGERPRINT_DEPTH.

        Only basis-independent data may appear here (the genus machinery
        buckets by fingerprint before running full isometry tests).
        """
        return (self.discriminant(),
                tuple(sorted(self.norm_histogram(FINGERPRINT_DEPTH).items())))


def _json_entry(x, i, j) -> EisensteinInt:
    """The Gram entry [a, b] at row i, column j; bool, float and str
    coordinates are rejected, not converted."""
    if type(x) is list and len(x) == 2 and all(type(c) is int for c in x):
        return EisensteinInt(*x)
    raise ValueError(f"gram row {i}, column {j}: {x!r} is not a pair "
                     f"[a, b] of ints")


def _rebased_gram(gram, cols, denominator) -> tuple:
    """cols^dagger gram cols / N(denominator) as rows of EisensteinInt, the
    Gram of `HermitianLattice.rebase`; ValueError if it is not integral."""
    if isinstance(denominator, EisensteinInt):
        norm = denominator.norm()
    else:
        norm = denominator * denominator
    out = []
    for i, row in enumerate(eismat._congruence(gram, cols)):
        orow = []
        for j, (a, b) in enumerate(row):
            if a % norm or b % norm:
                raise ValueError(
                    f"rebased gram is not integral: entry ({i}, {j}) = "
                    f"{EisensteinInt(a, b)} on a rank-{len(row)} basis "
                    f"is not divisible by N(d) = {norm}")
            orow.append(EisensteinInt(a // norm, b // norm))
        out.append(tuple(orow))
    return tuple(out)


def _back(U, v):
    """U v, times the unit that makes its last nonzero coordinate canonical."""
    x = eismat._combine(v, U, [ZERO] * len(v))
    u = _associate_unit(next(c for c in reversed(x) if c != (0, 0)))
    return tuple(EisensteinInt(*_pmul(u, c)) for c in x)


def _gram_schmidt_row(G, d, lam, k):
    """Integral Gram-Schmidt row k of the Hermitian Gram matrix G, after
    Cohen, GTM 138, Alg. 2.6.7: sets lam[k][j] = d[j+1] * mu_{k,j} in Z[w]
    for j < k, with mu_{k,j} = <b_j*, b_k> / <b_j*, b_j*>, and d[k+1], the
    determinant of the leading (k+1) x (k+1) block.  Rows 0 .. k-1 must be
    current.  Entries of G and lam are (a, b) pairs.
    """
    for j in range(k + 1):
        ua, ub = G[j][k]
        for i in range(j):
            # u <- (d[i+1] u - conj(lam[j][i]) lam[k][i]) / d[i], exact
            pa, pb = _pconj_mul(lam[j][i], lam[k][i])
            e, di = d[i + 1], d[i]
            ua, ra = divmod(e * ua - pa, di)
            ub, rb = divmod(e * ub - pb, di)
            if ra or rb:
                raise ValueError(f"{di} does not divide the Gram-Schmidt "
                                 f"numerator in row {k}")
        if j < k:
            lam[k][j] = (ua, ub)
        elif ub != 0 or ua <= 0:
            raise ValueError("gram is not positive definite")
        else:
            d[k + 1] = ua


def _lll(gram):
    """LLL-reduce the basis of gram over O_E with delta = 3/4, in integers.

    Integral LLL after Cohen, GTM 138, Alg. 2.6.7, adapted to Hermitian
    forms, on a working copy G of the Gram matrix, with the Gram-Schmidt
    data d and lam of `_gram_schmidt_row`.  A swap of b_{k-1} and b_k
    keeps rows 0 .. k current in O(k), after Cohen's SWAPI: rows k-1 and k
    exchange their first k-1 entries, d_k becomes
    (d_{k-1} d_{k+1} + N(lam)) / d_k and lam_{k,k-1} becomes conj(lam),
    lam its old value.  Rows after k are computed again when the loop
    reaches them.

    Returns (G, U, d, lam): the reduced Gram as rows of EisensteinInt; U,
    the columns of the transform, each new basis vector in the input's
    coordinates; and the Gram-Schmidt data of every row of G.
    """
    n = len(gram)
    G = [list(r) for r in gram]
    U = [[ONE if i == j else ZERO for i in range(n)] for j in range(n)]
    d = [1] + [0] * n
    lam = [[ZERO] * k for k in range(n)]

    def size_reduce(k, l):
        # b_k <- b_k - r b_l with r the nearest integer to mu_{k,l}
        r, _ = _reduce(lam[k][l], (d[l + 1], 0))
        if r == ZERO:
            return
        U[k] = _sub_multiple(U[k], r, U[l])
        # row k becomes <b_k - r b_l, b_j>, column k its conjugate
        G[k] = row = _sub_multiple(G[k], _pconj(r), G[l])
        (a, b), (c, e) = row[k], _pmul(r, row[l])
        row[k] = (a - c, b - e)
        for j, x in enumerate(row):
            G[j][k] = _pconj(x)
        ra, rb = r
        lam[k][l] = (lam[k][l][0] - ra * d[l + 1], lam[k][l][1] - rb * d[l + 1])
        lam[k][:l] = _sub_multiple(lam[k][:l], r, lam[l][:l])

    _gram_schmidt_row(G, d, lam, 0)
    done = 1        # Gram-Schmidt rows 0 .. done-1 are current
    k = 1
    steps = 0
    while k < n:
        steps += 1
        if steps > 10000:
            raise RuntimeError("LLL failed to terminate")
        while done <= k:
            _gram_schmidt_row(G, d, lam, done)
            done += 1
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        norm_lk = _pnorm(lk)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * norm_lk:
            G[k - 1], G[k] = G[k], G[k - 1]
            for row in G:
                row[k - 1], row[k] = row[k], row[k - 1]
            U[k - 1], U[k] = U[k], U[k - 1]
            lam[k - 1][:k - 1], lam[k][:k - 1] = lam[k][:k - 1], lam[k - 1][:k - 1]
            dk, rem = divmod(d[k - 1] * d[k + 1] + norm_lk, d[k])
            if rem:
                raise ValueError(f"{d[k]} does not divide the swapped "
                                 f"Gram-Schmidt minor in row {k}")
            d[k] = dk
            lam[k][k - 1] = _pconj(lk)
            done = k + 1        # row k+1 depended on the old b_{k-1}, b_k
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return (tuple(tuple(EisensteinInt(a, b) for a, b in r) for r in G),
            U, d, lam)


def hermitian_lll(L: HermitianLattice) -> HermitianLattice:
    """The lattice L on its LLL-reduced basis (`_lll`)."""
    return HermitianLattice(_lll(L.gram)[0])


def _reduced_rebase(L: HermitianLattice, cols, denominator=1) -> HermitianLattice:
    """hermitian_lll(L.rebase(cols, denominator)), constructing only the
    reduced lattice: the rebased Gram goes straight to `_lll`, so the walks
    that build every neighbour and intersection check one Gram apiece."""
    return HermitianLattice(_lll(_rebased_gram(L.gram, cols, denominator))[0])


def direct_sum(*lattices) -> HermitianLattice:
    n = sum(L.rank for L in lattices)
    G = [[ZERO] * n for _ in range(n)]
    off = 0
    for L in lattices:
        for i in range(L.rank):
            for j in range(L.rank):
                G[off + i][off + j] = L.gram[i][j]
        off += L.rank
    return HermitianLattice(tuple(tuple(r) for r in G))


def _fincke_pohst(G, d, lam, bound: int):
    """(x, <x, x>) for the nonzero x in Z[w]^n with <x, x> <= bound, up to
    units: the last nonzero coordinate x_i = a_i + b_i w is its canonical
    associate, a_i > b_i >= 0, so each orbit of the six units gives one x.

    G is a positive-definite Hermitian Gram matrix.  With its integral
    Gram-Schmidt data d, lam from `_lll`,
    <x, x> = sum_i N(z_i) / (d_i d_{i+1}), z_i = d_{i+1} x_i + s_i and
    s_i = sum_{k>i} lam[k][i] x_k, and 4 N(a + b w) = (2a - b)^2 + 3 b^2.
    Scaled by 4M, M = lcm(d_i d_{i+1}), each level is an integer search,
    b_i outside and a_i inside: this is the real LDL of the trace form
    Tr<x, x> on the Z-basis e_0, w e_0, e_1, w e_1, ...  Vectors come in
    lexicographic order of (b_{n-1}, a_{n-1}, ..., b_0, a_0).
    """
    n = len(G)
    M = math.lcm(*(d[i] * d[i + 1] for i in range(n)))
    w = [M // (d[i] * d[i + 1]) for i in range(n)]
    M4 = 4 * M
    total = M4 * bound
    results = []
    x = [ZERO] * n

    def search(i, remaining, top, centre):
        # centre[j] = sum_{k>i} lam[k][j] x_k for j <= i, so s_i = centre[i];
        # top: every x_k with k > i is zero, so x_i is zero or canonical
        sa, sb = centre[i]
        e, wi = d[i + 1], w[i]
        e2 = 2 * e
        r = math.isqrt(remaining // (3 * wi))
        for b in range(0 if top else -((r + sb) // e), (r - sb) // e + 1):
            zb = e * b + sb
            rem_b = remaining - 3 * wi * zb * zb
            t = 2 * sa - zb         # 2 z_a - z_b = 2e a + t
            ra = math.isqrt(rem_b // wi)
            top_b = top and not b
            lo = -((ra + t) // e2)
            if top:
                # zero, or the canonical associate a > b >= 0
                lo = max(lo, b + 1 if b else 0)
            for a in range(lo, (ra - t) // e2 + 1):
                y = e2 * a + t
                rest = rem_b - wi * y * y
                x[i] = EisensteinInt(a, b)
                if i:
                    # centre + lam[i][j] (a + b w) for the levels below
                    search(i - 1, rest, top_b and not a,
                           [(ca + la * a - lb * b, cb + lb * a + (la - lb) * b)
                            for (ca, cb), (la, lb) in zip(centre, lam[i])])
                elif a or not top_b:
                    results.append((tuple(x), (total - rest) // M4))

    search(n - 1, total, True, [(0, 0)] * n)
    # search refers to itself through its cell; without this the cycle
    # would hold results until the next full collection
    del search
    return results
