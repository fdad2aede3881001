"""Matrix utilities over the Eisenstein integers.

Matrices are lists of rows of (a, b) pairs: EisensteinInt, or plain int
tuples inside the eliminations.  Column convention: a module is the O-span
of the columns.  Hermite form is lower triangular with canonical-associate
pivots and each entry reduced modulo the pivot of its row, so equal
modules get identical forms.  The public results are EisensteinInt.
"""

from __future__ import annotations

from .eisenstein import (EisensteinInt, ZERO, ONE, _associate_unit, _pconj,
                         _pdivmod, _pmul, _pnorm, _reduce, _sub_multiple)


def _congruence(G, B):
    """B^dagger G B for G (n x n) and B (n x m); the m x m result is a list
    of rows of plain pairs."""
    zero = [ZERO] * len(B[0])
    GB = [_combine(row, B, zero) for row in G]
    return [_combine(map(_pconj, col), GB, zero) for col in zip(*B)]


def _combine(coeffs, rows, zero):
    """sum_t coeffs[t] * rows[t] over pair rows, skipping zero coefficients
    (Gram matrices and Hermite bases are mostly zeros)."""
    out = zero
    for (a, b), row in zip(coeffs, rows):
        if a or b:
            out = _sub_multiple(out, (-a, -b), row)
    return out


def is_hermitian(G) -> bool:
    n = len(G)
    return all(G[i][j] == _pconj(G[j][i]) for i in range(n) for j in range(n))


def _euclid(vecs, k):
    """Reduce the pair vectors `vecs` in place at coordinate k, vecs[0][k]
    nonzero, until vecs[0][k] is their gcd and every other vector is zero
    there.  Returns the number of swaps made.  One pass suffices: a swap
    only exchanges vectors that are nonzero at k."""
    swaps = 0
    for i in range(1, len(vecs)):
        while vecs[i][k] != ZERO:
            q, _ = _pdivmod(vecs[i][k], vecs[0][k])
            vecs[i] = _sub_multiple(vecs[i], q, vecs[0])
            if vecs[i][k] != ZERO:
                vecs[0], vecs[i] = vecs[i], vecs[0]
                swaps += 1
    return swaps


def _hermite_key(basis, cols=()):
    """Canonical Hermite form of the span of basis and cols, as rows of
    EisensteinInt.  basis is lower triangular, one slot per row: None or a
    column zero above the row and nonzero on it.  Each column of cols is
    inserted by one sweep down the rows, `_euclid` where it is nonzero, an
    empty slot taking what is left of it; then the pivots become canonical
    associates and each entry below a pivot is reduced modulo the pivot of
    its row.  ValueError if a slot stays empty."""
    basis = list(basis)
    n = len(basis)
    for v in cols:
        for k in range(n):
            if v[k] == ZERO:
                continue
            if basis[k] is None:
                basis[k] = v
                break
            pair = [basis[k], v]
            _euclid(pair, k)
            basis[k], v = pair
    if None in basis:
        raise ValueError("matrix does not have full row rank")
    for j in range(n - 1, -1, -1):
        u = _associate_unit(basis[j][j])
        if u != ONE:
            basis[j] = [_pmul(u, x) for x in basis[j]]
        for i in range(j + 1, n):
            if basis[j][i] != ZERO:
                q, _ = _reduce(basis[j][i], basis[i][i])
                if q != ZERO:
                    basis[j] = _sub_multiple(basis[j], q, basis[i])
    return tuple(tuple(EisensteinInt(*basis[j][i]) for j in range(n))
                 for i in range(n))


def column_hermite_form(M):
    """Canonical column Hermite form of an n x m matrix of rank n: the
    n x n lower-triangular matrix whose columns span the same O-module as
    the columns of M, each inserted into an empty basis."""
    return [list(row) for row in _hermite_key([None] * len(M), zip(*M))]


def smith(M):
    """Invariant factors and determinant of an n x m matrix M, m >= n, from
    one Euclidean elimination (Cohen, GTM 138, §2.4).

    Returns (invariants, det).  The invariants are those of the O-module
    O^n / (columns of M), canonical-associate EisensteinInts, each dividing
    the next.  det is the product of the raw pivots, its sign flipped at
    every row or column swap (additions keep it): for square M, the
    determinant.  M without full row rank gives (None, ZERO).
    """
    A = [list(row) for row in M]
    invariants, det, sign = [], ONE, 1
    while A:
        # the first entry of least norm, row by row; no norm is below 1
        at, least = None, 0
        for i, row in enumerate(A):
            for j, x in enumerate(row):
                if x != ZERO and (at is None or _pnorm(x) < least):
                    at, least = (i, j), _pnorm(x)
            if least == 1:
                break
        if at is None:
            return None, ZERO
        bi, bj = at
        if bi:
            A[0], A[bi] = A[bi], A[0]
            sign = -sign
        if bj:
            for row in A:
                row[0], row[bj] = row[bj], row[0]
            sign = -sign
        while True:
            # clear column 0 by rows, then row 0 by columns, until both stay
            # clear; then make the pivot divide the rest of the block
            sign *= (-1) ** _euclid(A, 0)
            if any(x != ZERO for x in A[0][1:]):
                cols = [list(c) for c in zip(*A)]
                sign *= (-1) ** _euclid(cols, 0)
                A = [list(r) for r in zip(*cols)]
                continue
            p = A[0][0]
            if _pnorm(p) == 1:
                break           # a unit pivot divides every entry
            i = next((i for i in range(1, len(A))
                      if any(_pdivmod(x, p)[1] != ZERO for x in A[i][1:])), None)
            if i is None:
                break
            A[0] = [(xa + ya, xb + yb) for (xa, xb), (ya, yb) in zip(A[0], A[i])]
        det = _pmul(det, p)
        invariants.append(EisensteinInt(*_pmul(_associate_unit(p), p)))
        A = [row[1:] for row in A[1:]]
    return invariants, EisensteinInt(sign * det[0], sign * det[1])


def smith_invariants(M):
    """Invariant factors of the O-module O^n / (columns of M), rank n, as
    canonical-associate EisensteinInts, each dividing the next."""
    invariants, _ = smith(M)
    if invariants is None:
        raise ValueError("matrix not of full rank")
    return invariants


def eis_det(A) -> EisensteinInt:
    """Determinant of the square matrix A, ZERO if it is singular."""
    return smith(A)[1]
