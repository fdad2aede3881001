import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hermhecke.linalg import (charpoly_factors, kernel_basis, mat_mul, mat_vec,
                              normalize_primitive, saturate_columns, solve_right)
import hermhecke
from hermhecke.quadfield import roots_of_factor

mat3 = st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3)


@given(mat3)
@settings(max_examples=50)
def test_charpoly_trace_det(A):
    coeffs = [1]
    for factor, mult in charpoly_factors(A):
        for _ in range(mult):
            coeffs = [sum(coeffs[k] * factor[d - k] for k in range(len(coeffs))
                          if 0 <= d - k < len(factor))
                      for d in range(len(coeffs) + len(factor) - 1)]
    # monic x^3 + c2 x^2 + c1 x + c0; c2 = -trace
    assert len(coeffs) == 4 and coeffs[-1] == 1
    assert coeffs[-2] == -(A[0][0] + A[1][1] + A[2][2])


def _det3(A):
    return sum(A[0][i] * (A[1][(i + 1) % 3] * A[2][(i + 2) % 3]
                          - A[1][(i + 2) % 3] * A[2][(i + 1) % 3])
               for i in range(3))


@given(mat3)
@settings(max_examples=30)
def test_kernel_is_kernel(A):
    ker = kernel_basis(A)
    for v in ker:
        assert all(x == 0 for x in mat_vec(A, v))
    # the kernel vectors are independent: their column matrix has no kernel
    assert not ker or not kernel_basis([list(row) for row in zip(*ker)])
    assert bool(ker) == (_det3(A) == 0)


@st.composite
def int_matrices(draw):
    """Integer m x n matrices, 1 <= m <= 6 and 1 <= n <= 7, of rank at most
    r (a product of m x r and r x n factors, r = 0 giving zero), with some
    columns zeroed."""
    m, n, r = draw(st.integers(1, 6)), draw(st.integers(1, 7)), draw(st.integers(0, 6))
    ints = st.integers(-4, 4)
    L = draw(st.lists(st.lists(ints, min_size=r, max_size=r), min_size=m, max_size=m))
    R = draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=r, max_size=r))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    return [[0 if j in zero else sum(L[i][k] * R[k][j] for k in range(r))
             for j in range(n)] for i in range(m)]


def _rref(A):
    """Reduced row echelon form of A over Q by plain Gauss-Jordan in
    Fractions, and its pivot columns."""
    M = [[Fraction(x) for x in row] for row in A]
    pivots = []
    for col in range(len(M[0])):
        row = len(pivots)
        piv = next((r for r in range(row, len(M)) if M[r][col]), None)
        if piv is None:
            continue
        M[row], M[piv] = M[piv], M[row]
        M[row] = [x / M[row][col] for x in M[row]]
        for r in range(len(M)):
            if r != row:
                M[r] = [x - M[r][col] * y for x, y in zip(M[r], M[row])]
        pivots.append(col)
    return M, pivots


@given(int_matrices())
@settings(max_examples=200)
def test_integer_elimination_matches_field_elimination(A):
    n = len(A[0])
    M, pivots = _rref(A)
    # the rational kernel, free variables set to 1 in turn
    ker = []
    for fc in (c for c in range(n) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(n)]
        for r, pc in enumerate(pivots):
            v[pc] = -M[r][fc]
        ker.append(v)
    # the integer kernel is the saturation of the normalized rational one
    cols = [normalize_primitive(v) for v in ker]
    sat = saturate_columns([list(row) for row in zip(*cols)]) if cols else []
    assert kernel_basis(A) == sat
    if len(A) == n:
        M, pivots = _rref([row + e for row, e in zip(A, _identity(n))])
        got = solve_right(A, _identity(n))
        if pivots[:n] != list(range(n)):
            assert got is None
        else:
            X, den = got
            assert [[Fraction(x, den) for x in row] for row in X] == [row[n:] for row in M]


def test_integer_kernel_saturated():
    ker = kernel_basis([[2, 2, 2]])
    # saturated: (1,-1,0),(0,1,-1) up to basis change; index in Z^3 cap ker is 1
    assert len(ker) == 2
    import math
    g2 = [math.gcd(*[v[i] for v in ker]) for i in range(3)]
    assert all(x == 0 for x in mat_vec([[2, 2, 2]], ker[0]))
    ker2 = kernel_basis([[1, 2, 3], [4, 5, 6]])
    assert [list(v) for v in ker2] == [[1, -2, 1]] or \
           [list(v) for v in ker2] == [[-1, 2, -1]]


def test_saturate_columns():
    sat = saturate_columns([[2, 0], [0, 2]])
    # spans the full rank-2 saturation of the column span
    M = [[sat[j][i] for j in range(2)] for i in range(2)]
    det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
    assert abs(det) == 1


def test_charpoly_factors_quadratic():
    # companion of x^2 - x - 48 (theta for Q(sqrt(193)))
    A = [[0, 48], [1, 1]]
    factors = charpoly_factors(A)
    assert factors == [([-48, -1, 1], 1)]
    roots = roots_of_factor([-48, -1, 1])
    assert {r.D for r in roots} == {193}
    assert sorted(r.rational_part for r in roots) == [Fraction(1, 2)] * 2


def test_roots_rational():
    roots = roots_of_factor([-6, 1])  # x - 6
    assert len(roots) == 1 and roots[0].as_fraction() == 6


def test_roots_degree3_rejected():
    with pytest.raises(Exception):
        roots_of_factor([1, 0, 0, 1])


@given(st.lists(st.integers(-20, 20), min_size=3, max_size=3)
       .filter(lambda v: any(v)))
def test_normalize_primitive(v):
    w = normalize_primitive([Fraction(x, 7) for x in v])
    import math
    assert math.gcd(*w) == 1
    assert next(x for x in w if x) > 0


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@given(mat3)
@settings(max_examples=50)
def test_inverse_over_q(A):
    # A X = den I with X integral; None exactly when det A = 0
    got = solve_right(A, _identity(3))
    if _det3(A) == 0:
        assert got is None
    else:
        X, den = got
        assert all(type(x) is int for row in X for x in row)
        scaled = [[den * x for x in row] for row in _identity(3)]
        assert mat_mul(A, X) == scaled
        assert mat_mul(X, A) == scaled


def test_inverse_singular():
    assert solve_right([[1, 2], [2, 4]], _identity(2)) is None
    # singular only at the last pivot
    assert solve_right([[1, 2, 3], [4, 5, 6], [7, 8, 9]], _identity(3)) is None


def _runs_without_sympy(code):
    """Run code in a fresh interpreter and check it never imported sympy."""
    code = "import sys\n" + code + "assert 'sympy' not in sys.modules, 'sympy was loaded'\n"
    src = os.path.dirname(os.path.dirname(os.path.abspath(hermhecke.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_lattice_paths_do_not_load_sympy():
    # a lattice-only walk factors nothing, so it does not even load the
    # factoring code, which linalg, quadfield and spectra import on first use
    _runs_without_sympy(
        "from hermhecke import fixtures, hecke, neighbour, theta\n"
        "from hermhecke.eisenstein import ideal_above\n"
        "from hermhecke.lattice import HermitianLattice\n"
        "fixtures.FixtureSet.load()\n"
        "neighbour.enumerate_genus(HermitianLattice.standard(3), ideal_above(2))\n"
        "assert 'hermhecke.factoring' not in sys.modules, 'factoring was loaded'\n")


def test_imports_do_not_load_factoring():
    # is_prime lives in eisenstein so that the modules every workload
    # imports, the CLI included, leave factoring to its first use
    _runs_without_sympy(
        "import hermhecke.cli, hermhecke.neighbour, hermhecke.hecke\n"
        "import hermhecke.theta, hermhecke.fixtures\n"
        "assert 'hermhecke.factoring' not in sys.modules, 'factoring was loaded'\n")


def test_spectral_paths_do_not_load_sympy():
    _runs_without_sympy(
        "from hermhecke import arthur, fixtures, spectra\n"
        "from hermhecke.eisenstein import ideal_above\n"
        "fx = fixtures.FixtureSet.load()\n"
        "system = spectra.eigensystem([fx.t2_20x20, fx.t3_20x20], ('t2', 't3'),\n"
        "                             fx.eigen_table)\n"
        "assert spectra.scan_congruences_lemma(system, q_min=11)\n"
        "assert spectra.difference_gcd(system, 16, 11).factorization == {2: 3, 3: 3, 11: 1}\n"
        "arthur.verify_table(fx.store, fx.eigen_table,\n"
        "                    {'t2': ideal_above(2), 't3': ideal_above(3)})\n")


@pytest.mark.parametrize("name", ["t2_20x20", "t3_20x20"])
def test_charpoly_factors_ignore_class_order(fx, name):
    # P T P^t for seeded permutations P of all 20 classes
    T = getattr(fx, name)
    expected = charpoly_factors(T)
    rng = random.Random(name)
    for _ in range(3):
        perm = rng.sample(range(len(T)), len(T))
        assert charpoly_factors([[T[i][j] for j in perm] for i in perm]) == expected
