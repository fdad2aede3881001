"""Matrix utilities over the Eisenstein integers.

Matrices are lists of lists of EisensteinInt.  Column convention: a module
is the O-span of the columns.  Hermite form is lower triangular with
canonical-associate pivots and canonically reduced entries to the right of
each pivot, so equal modules get identical forms.
"""

from __future__ import annotations

from .eisenstein import (EisensteinInt, ZERO, ONE, canonical_associate,
                         canonical_residue)


def emat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = ZERO
            for t in range(k):
                s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(row)
    return out


def conj_transpose(A):
    return [[A[j][i].conj() for j in range(len(A))] for i in range(len(A[0]))]


def is_hermitian(G) -> bool:
    n = len(G)
    return all(G[i][j] == G[j][i].conj() for i in range(n) for j in range(n))


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
    cols = [list(c) for c in zip(*M)]  # work on columns as rows
    basis = []
    for pivot_row in range(n):
        # gcd out the pivot_row entries of all remaining columns
        live = [c for c in cols if any(x != ZERO for x in c)]
        cols = live
        piv = None
        for idx, c in enumerate(cols):
            if c[pivot_row] != ZERO:
                if piv is None or c[pivot_row].norm() < cols[piv][pivot_row].norm():
                    piv = idx
        if piv is None:
            raise ValueError("matrix does not have full row rank")
        cols[0], cols[piv] = cols[piv], cols[0]
        changed = True
        while changed:
            changed = False
            for idx in range(1, len(cols)):
                while cols[idx][pivot_row] != ZERO:
                    if cols[idx][pivot_row].norm() < cols[0][pivot_row].norm():
                        cols[0], cols[idx] = cols[idx], cols[0]
                        changed = True
                    q, _ = divmod(cols[idx][pivot_row], cols[0][pivot_row])
                    cols[idx] = [x - q * y for x, y in zip(cols[idx], cols[0])]
        pivot_col = cols.pop(0)
        # normalize pivot to canonical associate
        p = pivot_col[pivot_row]
        cp = canonical_associate(p)
        u = cp.exact_div(p)
        pivot_col = [u * x for x in pivot_col]
        basis.append(pivot_col)
    # reduce earlier pivots' entries against later ones?  Column HNF with
    # lower-triangular shape: reduce entries below each pivot using later
    # pivot columns (which have zeros above their own pivot row).
    for j in range(n - 1, -1, -1):
        for i in range(j + 1, n):
            # entry basis[j][i] reduced modulo pivot basis[i][i]
            q = reduction_quotient(basis[j][i], basis[i][i])
            if q != ZERO:
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    # return as matrix with basis vectors as columns
    return [[basis[j][i] for j in range(n)] for i in range(n)]


def reduction_quotient(x: EisensteinInt, d: EisensteinInt) -> EisensteinInt:
    """The q nearest to x / d: x - q*d is canonical_residue(x, d)."""
    r = canonical_residue(x, d)
    return (x - r).exact_div(d)


def smith_invariants(M):
    """Invariant factors of the O-module O^n / (columns of M), rank n.

    Returned as canonical-associate EisensteinInts, each dividing the next.
    """
    n = len(M)
    A = [list(row) for row in M]
    invariants = []
    size = n
    top = 0
    while top < n:
        m = len(A[0])
        # find global minimal-norm nonzero entry in A[top:, :]
        best = None
        for i in range(top, n):
            for j in range(m):
                x = A[i][j]
                if x != ZERO and (best is None or x.norm() < A[best[0]][best[1]].norm()):
                    best = (i, j)
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
                    q, r = divmod(A[i][0], p)
                    A[i] = [x - q * y for x, y in zip(A[i], A[top])]
                    if A[i][0] != ZERO:
                        A[top], A[i] = A[i], A[top]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(1, len(A[0])):
                if A[top][j] != ZERO:
                    q, r = divmod(A[top][j], p)
                    for i in range(top, n):
                        A[i][j] = A[i][j] - q * A[i][0]
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
                            if not p.divides(A[i][j])), None)
                if bad is not None:
                    A[top] = [x + y for x, y in zip(A[top], A[i])]
                    dirty = True
                    break
        invariants.append(canonical_associate(A[top][0]))
        A = [row[1:] for row in A[top + 1:]]
        n -= top + 1
        top = 0
        if not A or not A[0]:
            break
    return invariants
