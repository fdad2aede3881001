"""The two Euclidean eliminations over Z[w]: the canonical column Hermite
form, and the Smith pass that gives invariant factors and determinants."""

import hashlib
import random

import pytest

from hermhecke.eisenstein import UNITS, eis
from hermhecke.eismat import column_hermite_form, eis_det, smith


def _random_matrix(rng, n, m):
    bound = rng.choice([1, 3, 9])
    zero = rng.choice([0.0, 0.3, 0.6])
    return [[eis(0) if rng.random() < zero else
             eis(rng.randint(-bound, bound), rng.randint(-bound, bound))
             for _ in range(m)] for _ in range(n)]


def _full_row_rank(rng, n, m):
    while True:
        M = _random_matrix(rng, n, m)
        if smith(M)[0] is not None:
            return M


def _column_op(rng, M):
    """M after one seeded unimodular column operation: a swap, a unit
    multiple of a column, or a multiple of another column added to one."""
    a, b = rng.sample(range(len(M[0])), 2) if len(M[0]) > 1 else (0, 0)
    kind = rng.randrange(3) if a != b else 1
    if kind == 0:
        return [[row[b] if j == a else row[a] if j == b else x
                 for j, x in enumerate(row)] for row in M]
    u = UNITS[rng.randrange(6)]
    c = eis(rng.randint(-3, 3), rng.randint(-3, 3))
    return [[(u * x if kind == 1 else x + c * row[b]) if j == a else x
             for j, x in enumerate(row)] for row in M]


@pytest.mark.parametrize("n", range(1, 6))
def test_hermite_form_is_canonical(n):
    rng = random.Random(f"hermite-{n}")
    for _ in range(20):
        M = _full_row_rank(rng, n, n + rng.choice([0, 1, 3]))
        H = column_hermite_form(M)
        assert all(H[i][j] == eis(0) for i in range(n) for j in range(i + 1, n))
        assert column_hermite_form(H) == H
        cols = list(zip(*M))
        rng.shuffle(cols)
        assert column_hermite_form([list(r) for r in zip(*cols)]) == H
        assert column_hermite_form([row + [eis(0)] for row in M]) == H
        j = rng.randrange(len(M[0]))
        assert column_hermite_form([row + [row[j]] for row in M]) == H
        N = M
        for _ in range(8):
            N = _column_op(rng, N)
        assert column_hermite_form(N) == H


def test_hermite_form_rejects_rank_deficiency():
    with pytest.raises(ValueError, match="full row rank"):
        column_hermite_form([[eis(1), eis(2)], [eis(2), eis(4)]])


def _elimination_digest(count):
    """sha256 of the repr of every (Hermite form, invariants, determinant of
    the square part) over `count` seeded matrices with up to 5 rows, about
    a fifth of those with two or more rows given a dependent last row."""
    rng = random.Random("eliminations")
    h = hashlib.sha256()
    for _ in range(count):
        n = rng.randint(1, 5)
        M = _random_matrix(rng, n, n + rng.choice([0, 0, 1, 3]))
        if n > 1 and rng.random() < 0.2:
            M[-1] = [eis(2, 1) * x for x in M[0]]
        try:
            form = column_hermite_form(M)
        except ValueError:
            form = None
        h.update(repr((form, smith(M)[0], eis_det([row[:n] for row in M]))).encode())
    return h.hexdigest()


def test_pinned_eliminations():
    # recorded before the two eliminations shared one Euclidean step
    assert _elimination_digest(300) == (
        "fe483c6fa0b354df2d75b6ee85484c96579638ba281f0eddb38a8304cbf2617f")
