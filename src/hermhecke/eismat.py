"""Matrix utilities over the Eisenstein integers.

Matrices are lists of rows of (a, b) pairs: EisensteinInt, or plain int
tuples inside the eliminations.  Column convention: a module is the O-span
of the columns.  Hermite form is lower triangular with canonical-associate
pivots and canonically reduced entries to the right of each pivot, so equal
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


def eis_det(A) -> EisensteinInt:
    """Determinant by fraction-free expansion (Bareiss is overkill at n<=12)."""
    n = len(A)
    M = [list(row) for row in A]
    det = ONE
    for col in range(n):
        # find a pivot of minimal norm for smaller growth
        piv = None
        for r in range(col, n):
            if M[r][col] != ZERO and (piv is None or
                                      M[r][col].norm() < M[piv][col].norm()):
                piv = r
        if piv is None:
            return ZERO
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        # clear below by Euclidean steps (stay over O)
        for r in range(col + 1, n):
            while M[r][col] != ZERO:
                if M[r][col].norm() < M[col][col].norm():
                    M[col], M[r] = M[r], M[col]
                    det = -det
                q, _ = divmod(M[r][col], M[col][col])
                M[r] = [x - q * y for x, y in zip(M[r], M[col])]
        det = det * M[col][col]
    return det


def column_hermite_form(M):
    """Canonical column Hermite form of an n x m matrix of rank n.

    Returns an n x n lower-triangular matrix whose columns span the same
    O-module as the columns of M.
    """
    n = len(M)
    cols = [list(c) for c in zip(*M)]  # columns as rows
    basis = []
    for pivot_row in range(n):
        # gcd out the pivot_row entries of all remaining columns
        cols = [c for c in cols if any(a or b for a, b in c)]
        piv = None
        for idx, c in enumerate(cols):
            if c[pivot_row] != ZERO:
                norm = _pnorm(c[pivot_row])
                if piv is None or norm < piv_norm:
                    piv, piv_norm = idx, norm
        if piv is None:
            raise ValueError("matrix does not have full row rank")
        cols[0], cols[piv] = cols[piv], cols[0]
        changed = True
        while changed:
            changed = False
            for idx in range(1, len(cols)):
                while cols[idx][pivot_row] != ZERO:
                    if _pnorm(cols[idx][pivot_row]) < _pnorm(cols[0][pivot_row]):
                        cols[0], cols[idx] = cols[idx], cols[0]
                        changed = True
                    q, _ = _pdivmod(cols[idx][pivot_row], cols[0][pivot_row])
                    cols[idx] = _sub_multiple(cols[idx], q, cols[0])
        pivot_col = cols.pop(0)
        # normalize pivot to canonical associate
        u = _associate_unit(pivot_col[pivot_row])
        basis.append([_pmul(u, x) for x in pivot_col])
    # Lower-triangular shape: reduce the entries below each pivot modulo
    # the later pivots, whose columns are zero above their own pivot row.
    for j in range(n - 1, -1, -1):
        for i in range(j + 1, n):
            q, _ = _reduce(basis[j][i], basis[i][i])
            if q != ZERO:
                basis[j] = _sub_multiple(basis[j], q, basis[i])
    # return as matrix with basis vectors as columns
    return [[EisensteinInt(*basis[j][i]) for j in range(n)] for i in range(n)]


def smith_invariants(M):
    """Invariant factors of the O-module O^n / (columns of M), rank n.

    Returned as canonical-associate EisensteinInts, each dividing the next.
    """
    n = len(M)
    A = [list(row) for row in M]
    invariants = []
    top = 0
    while top < n:
        m = len(A[0])
        # find global minimal-norm nonzero entry in A[top:, :]
        best = None
        for i in range(top, n):
            for j in range(m):
                x = A[i][j]
                if x != ZERO:
                    norm = _pnorm(x)
                    if best is None or norm < best_norm:
                        best, best_norm = (i, j), norm
        if best is None:
            raise ValueError("matrix not of full rank")
        bi, bj = best
        A[top], A[bi] = A[bi], A[top]
        for row in A:
            row[0], row[bj] = row[bj], row[0]
        # clear row and column; restart if a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            p = A[top][0]
            for i in range(top + 1, n):
                if A[i][0] != ZERO:
                    q, _ = _pdivmod(A[i][0], p)
                    A[i] = _sub_multiple(A[i], q, A[top])
                    if A[i][0] != ZERO:
                        A[top], A[i] = A[i], A[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(1, len(A[0])):
                if A[top][j] != ZERO:
                    q, _ = _pdivmod(A[top][j], p)
                    rows = A[top:n]
                    col = _sub_multiple([row[j] for row in rows], q,
                                        [row[0] for row in rows])
                    for row, x in zip(rows, col):
                        row[j] = x
                    if A[top][j] != ZERO:
                        for i in range(top, n):
                            A[i][0], A[i][j] = A[i][j], A[i][0]
                        dirty = True
                        break
            if dirty:
                continue
            # pivot divides everything in its row/col; enforce divisibility
            # of the remaining block
            for i in range(top + 1, n):
                bad = next((j for j in range(1, len(A[0]))
                            if _pdivmod(A[i][j], p)[1] != ZERO), None)
                if bad is not None:
                    A[top] = [(xa + ya, xb + yb)
                              for (xa, xb), (ya, yb) in zip(A[top], A[i])]
                    dirty = True
                    break
        p = A[top][0]
        invariants.append(EisensteinInt(*_pmul(_associate_unit(p), p)))
        A = [row[1:] for row in A[top + 1:]]
        n -= top + 1
        top = 0
        if not A or not A[0]:
            break
    return invariants
