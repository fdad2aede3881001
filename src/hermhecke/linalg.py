"""Exact linear algebra over Z.

Matrices are plain lists of lists of int.  The one elimination is
Bareiss's fraction-free Gauss-Jordan (Cohen, GTM 138, section 2.2): every
division in it is exact in integers, so no Fraction is made.  On it rest
`kernel_basis`, the saturated integer kernel, and `solve_right`, which
solves A X = den B with X integral.  Characteristic polynomials are
computed in integers (Berkowitz) and split into their linear and quadratic
factors over Q by `factoring.small_factors`, which is imported on first
use, so the lattice code, which factors nothing, never loads it.
`factor_kernels` gives the kernel of each factor f(A): one Krylov
combination for a simple f, `kernel_basis` only for a repeated one.
"""

from __future__ import annotations

import functools
import math
import operator


def mat_mul(A, B):
    if len(A[0]) != len(B):
        raise AssertionError(f"mat_mul: {len(A[0])} columns against {len(B)} rows")
    cols = [[row[j] for row in B] for j in range(len(B[0]))]
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in A]


def dot(u, v):
    return sum(map(operator.mul, u, v))


def mat_vec(A, v):
    return [dot(row, v) for row in A]


def _gauss_jordan(A, rhs):
    """Bareiss's fraction-free Gauss-Jordan on the integer matrix [A | rhs],
    rhs one (maybe empty) row per row of A.  With pivot p every other row
    becomes (p*row - c*pivot_row) // den, c its pivot-column entry and den
    the last pivot, exact by Sylvester's identity.  Returns M, the pivot
    columns and den; M / den is the reduced row echelon form."""
    m, n = len(A), len(A[0])
    M = [list(a) + list(b) for a, b in zip(A, rhs)]
    den, pivots = 1, []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        piv = next((r for r in range(row, m) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        p, prow = M[row][col], M[row]
        for r in range(m):
            c = M[r][col]
            if r == row or (c == 0 and p == den):  # the row stays as it is
                continue
            lo = 0 if r < row else col  # rows below the pivot are zero left of col
            M[r][lo:] = [(p * x - c * y) // den for x, y in zip(M[r][lo:], prow[lo:])]
        den = p
        pivots.append(col)
    return M, pivots, den


def kernel_basis(A):
    """Saturated basis of {x in Z^n : A x = 0} for an integer matrix A.

    Each free column gives the kernel vector with den at that column and
    minus its reduced entries at the pivot columns; those vectors, made
    primitive, span the kernel over Q, and `saturate_columns` makes their
    lattice the whole integer kernel."""
    n = len(A[0])
    M, pivots, den = _gauss_jordan(A, [[] for _ in A])
    cols = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [0] * n
        v[fc] = den
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        cols.append(normalize_primitive(v))
    if not cols:
        return []
    sat = saturate_columns([[v[i] for v in cols] for i in range(n)])
    if any(any(mat_vec(A, v)) for v in sat):
        raise AssertionError("kernel_basis: a saturated vector is not in the kernel")
    return sat


def solve_right(A, B):
    """(X, den) with A X = den B and X integral, for a square integer matrix
    A and an integer matrix B with as many rows; None if A is singular.
    den is +-det A, so X is +-adj(A) B."""
    n = len(A)
    M, pivots, den = _gauss_jordan(A, B)
    if len(pivots) < n:
        return None
    return [row[n:] for row in M], den


def _charpoly(A):
    """det(xI - A) for an integer matrix A, lowest degree first, by
    Berkowitz's division-free algorithm: with A_k the leading k x k block,
    R and C the rest of its last row and column and a its corner entry, the
    coefficients of det(xI - A_k), highest first, are the first k + 1
    terms of the convolution of (1, -a, -RC, -RA_(k-1)C, ...) with those of
    det(xI - A_(k-1))."""
    c = [1]
    for k, row in enumerate(A):
        t = [1, -row[k]]
        v = [A[i][k] for i in range(k)]
        for j in range(k):
            t.append(-dot(row, v))
            if j < k - 1:
                v = [dot(A[i], v) for i in range(k)]
        c = [sum(t[i - j] * c[j] for j in range(min(i, k) + 1)) for i in range(k + 2)]
    return c[::-1]


def charpoly_factors(A):
    """Factors of the char poly of an integer matrix A over Q, as
    (coeff-list, mult).

    Coefficient lists are low-degree first, integral and monic, sorted by
    degree, then coefficients.  Every factor of degree <= 2 is irreducible;
    for each multiplicity at most one more factor has degree >= 3, the
    product of the irreducible factors of degree >= 3 with that
    multiplicity, and it has no factor of degree <= 2.
    """
    from .factoring import small_factors
    return sorted(small_factors(_charpoly(A)), key=lambda fm: (len(fm[0]), fm[0]))


def factor_kernels(A, factors):
    """For each (f, mult) of `factors`, the factorization of the char poly
    chi of A by `charpoly_factors`, integer vectors in the kernel of f(A);
    a generator, so a caller that stops early saves the rest.

    For a simple f the kernel of f(A) is the image of g(A), g = chi / f
    (primary decomposition; Cohen, GTM 138, section 2.2), of dimension
    deg f.  It is given by one vector: the first nonzero column
    g(A) e_j = sum_k g_k A^k e_j, j = 0, 1, ..., read off the Krylov
    vectors A^k e_j, which are built once per j and only when a column needs
    them.  That vector spans the kernel of a linear f, and with A times it
    that of a quadratic one.  For a repeated f it is the saturated
    `kernel_basis` of f(A)."""
    from .factoring import _divmod, _mul
    n = len(A)
    chi = functools.reduce(_mul, (f for f, mult in factors for _ in range(mult)), [1])
    krylov = {}                # j -> rows i of the vectors A^k e_j, k < n
    for f, mult in factors:
        if mult > 1:
            # f(A) by Horner's rule, f monic
            F = [[x + f[-2] * (i == j) for j, x in enumerate(row)] for i, row in enumerate(A)]
            for c in reversed(f[:-2]):
                F = [[x + c * (i == j) for j, x in enumerate(row)]
                     for i, row in enumerate(mat_mul(A, F))]
            yield kernel_basis(F)
            continue
        g = _divmod(chi, f)[0]
        for j in range(n):
            if j not in krylov:
                vecs = [[int(i == j) for i in range(n)]]
                for _ in range(n - 1):
                    vecs.append(mat_vec(A, vecs[-1]))
                krylov[j] = [[v[i] for v in vecs] for i in range(n)]
            col = [dot(g, row) for row in krylov[j]]
            if any(col):
                yield [col]
                break


def saturate_columns(B):
    """Basis of the saturation of the column lattice of an integer matrix B.

    Diagonalizes B by integer row and column operations while tracking the
    inverse row transform; the saturation is spanned by its first rank(B)
    columns.  Returns a list of column vectors.
    """
    n = len(B)
    k = len(B[0])
    M = [list(row) for row in B]
    # columns of Rinv; row op E on M updates Rinv <- Rinv * E^{-1}
    rinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i, j):
        M[i], M[j] = M[j], M[i]
        for r in range(n):
            rinv[r][i], rinv[r][j] = rinv[r][j], rinv[r][i]

    def row_add(i, j, c):  # row_i += c * row_j
        M[i] = [a + c * b for a, b in zip(M[i], M[j])]
        for r in range(n):
            rinv[r][j] -= c * rinv[r][i]

    def col_swap(i, j):
        for r in range(n):
            M[r][i], M[r][j] = M[r][j], M[r][i]

    def col_add(i, j, c):  # col_i += c * col_j
        for r in range(n):
            M[r][i] += c * M[r][j]

    rank = 0
    for t in range(k):
        while True:
            piv = min(((abs(M[r][c]), r, c) for r in range(t, n)
                       for c in range(t, k) if M[r][c] != 0), default=None)
            if piv is None:
                break
            _, r, c = piv
            row_swap(t, r)
            col_swap(t, c)
            clean = True
            for r in range(t + 1, n):
                if M[r][t]:
                    row_add(r, t, -(M[r][t] // M[t][t]))
                    clean = clean and M[r][t] == 0
            for c in range(t + 1, k):
                if M[t][c]:
                    q = M[t][c] // M[t][t]
                    col_add(c, t, -q)
                    clean = clean and M[t][c] == 0
            if clean:
                break
        if t < n and t < k and M[t][t] != 0:
            rank += 1
    return [[rinv[r][j] for r in range(n)] for j in range(rank)]


def normalize_primitive(vec):
    """Scale a rational vector to integer entries with content 1.

    First nonzero entry is made positive.  Input entries: int/Fraction.
    """
    den = functools.reduce(math.lcm, (x.denominator for x in vec), 1)
    ints = [int(x * den) for x in vec]
    g = functools.reduce(math.gcd, ints, 0) or 1
    ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 1)
    if lead < 0:
        ints = [-x for x in ints]
    return ints
