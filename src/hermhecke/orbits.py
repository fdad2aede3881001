"""Orbits of automorphism groups, on vectors and on the lines of L/PL.

`isometry.automorphism_group` closes the orbit of each basis vector under
the automorphisms found so far (`close_orbit`) and searches only images
outside it.  The class-row walks of `neighbour` take one line per orbit
of those automorphisms, weighted by the orbit size: any subgroup of Aut(L)
permutes the lines of L/PL and keeps the class of each neighbour
(Greenberg-Voight 2014).  Automorphisms are given by the images of the
basis, as the columns of an `isometry.IsometryCertificate`.
"""

from __future__ import annotations

import functools

from .eisenstein import _pconj, _pmul


def close_orbit(points, seen, generators, known):
    """Extend the list points, whose set is seen, to the orbit of its first
    point under the group the generators generate; points[:known] are
    closed under all but the last generator."""
    i = 0
    while i < len(points):
        y = [(j, a, b) for j, (a, b) in enumerate(points[i]) if a or b]
        for g in generators[-1:] if i < known else generators:
            # g y = sum_j y_j g[j]
            j, a, b = y[0]
            z = [(a * c - b * d, a * d + b * c - b * d) for c, d in g[j]]
            for j, a, b in y[1:]:
                z = [(p + a * c - b * d, q + a * d + b * c - b * d)
                     for (p, q), (c, d) in zip(z, g[j])]
            z = tuple(z)
            if z not in seen:
                seen.add(z)
                points.append(z)
        i += 1


@functools.cache
def _field(res):
    """O/P by positions in res.reps (zero first) for the residue tables res
    of `neighbour._residues`: (code, add, mul, inv), code(x) the position
    of the class of x, add[i][j] and mul[i][j] those of the sum and the
    product, inv[i] that of the inverse (None for zero)."""
    reps = res.reps
    position = {res.index(r): i for i, r in enumerate(reps)}

    def code(x):
        return position[res.index(x)]

    add = tuple(tuple(code((a + c, b + d)) for c, d in reps) for a, b in reps)
    mul = tuple(tuple(code(_pmul(r, t)) for t in reps) for r in reps)
    one = code((1, 0))
    inv = (None,) + tuple(row.index(one) for row in mul[1:])
    return code, add, mul, inv


def line_orbits(lines, generators, res, count, where):
    """Yields (size, line) for the first line in walk order of each orbit
    of <generators> on the lines that `lines` yields, size being the
    orbit's.

    Each line is a tuple whose first entry x is its representative, as
    `neighbour.iter_lines_with_data` yields them; res holds the residue
    tables of P.  An automorphism g maps L_x = { y : <x, y> in P } to L_gx,
    and with it the neighbours and the intersection of line x to those of
    line gx.  <x, y> mod P reads conj(x) mod P, so a line is keyed by the
    residues of conj(x) mod P, first nonzero 1, and g acts there as
    conj(g); at a split prime the action of g itself on x mod P gives
    other orbits.  Each new line's orbit is found by breadth-first search
    on keys; the keys it reaches ahead of the walk are dropped as the walk
    passes them.  AssertionError, naming where the walk was, unless the
    orbit sizes sum to count and no key reached ahead is left at the end:
    a generator that is no automorphism shows here.
    """
    code, add, mul, inv = _field(res)
    one = code((1, 0))
    # conj(g) mod P by rows: (j, code) for its nonzero entries
    actions = [[[(j, c) for j, col in enumerate(g)
                 if (c := code(_pconj(col[i])))] for i in range(len(g))]
               for g in generators]
    ahead, total = set(), 0
    for line in lines:
        key = tuple(code(_pconj(c)) for c in line[0])
        if key in ahead:
            ahead.remove(key)
            continue
        orbit, queue = {key}, [key]
        for y in queue:
            for rows in actions:
                z = []
                for row in rows:
                    acc = 0
                    for j, c in row:
                        acc = add[acc][mul[c][y[j]]]
                    z.append(acc)
                lead = next(c for c in z if c)
                z = tuple(z) if lead == one else \
                    tuple(mul[inv[lead]][c] for c in z)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        total += len(queue)
        orbit.remove(key)
        ahead |= orbit
        yield len(queue), line
    if total != count or ahead:
        raise AssertionError(
            f"line orbits of {where} cover {total} of {count} lines, "
            f"{len(ahead)} reached ahead were never walked")
