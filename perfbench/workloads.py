"""Workloads of the hermhecke benchmark.

Each workload builds its inputs from a seeded random generator and runs one
pass: a fixed list of calls into hermhecke's public functions, each followed
by a check of its result.  A call fails if it raises or if its result fails
the check; `Ops` counts both.  Every check holds for every seed, because the
seed only changes the basis of the input lattices (a permutation with unit
scalings), the order of the Hecke classes (all but the last), the order of
the congruence probes and of the reference table rows, and the order of the
neighbour jobs.  None of these changes the amount of work.

Functions are always looked up as module attributes at call time
(`neighbour.enumerate_genus`, not a name imported here), so that the spans
that `tracing.Tracer` installs see the benchmark's own calls too.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

import hermhecke  # noqa: E402
from hermhecke import (arthur, fixtures, hecke, neighbour,  # noqa: E402
                       spectra, theta)
from hermhecke.eisenstein import ZERO, EisensteinInt, ideal_above  # noqa: E402
from hermhecke.lattice import HermitianLattice  # noqa: E402

if not Path(hermhecke.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"hermhecke was imported from {hermhecke.__file__}, "
                      f"not from {SRC}")

UNITS = tuple(EisensteinInt(a, b) for a, b in
              ((1, 0), (0, 1), (-1, -1), (-1, 0), (0, -1), (1, 1)))


class Ops:
    """Public calls attempted in a run, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []          # (call, message)
        self.wrong_results = 0      # failures whose call returned a result
        self.neighbours_built = 0

    def call(self, name: str, fn: Callable, args: tuple,
             check: Callable[[object], str | None]):
        """fn(*args), or None if it raised; `check` returns a problem or None."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # a raising call is a failed operation
            self.failures.append((name, f"{type(exc).__name__}: {exc}"))
            return None
        try:
            problem = check(result)
        except Exception as exc:  # a result the check cannot read is wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append((name, problem))
            self.wrong_results += 1
        return result


def expect(condition: bool, problem: str) -> str | None:
    return None if condition else problem


def unit_monomial(n: int, rng: random.Random) -> list:
    """Basis matrix (columns = new basis vectors) of a seeded permutation of
    the basis with unit scalings.

    A shear e_a += u e_b would vary the input more, but the work depends on
    the input basis: `neighbours(I_5, (sqrt-3))` does 42,000 multiplications
    in hermitian_lll after any permutation with unit scalings, and 69,700 to
    95,350 after one unit shear, depending on the seed.
    """
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice(UNITS) if i == perm[j] else ZERO for j in range(n)]
            for i in range(n)]


def diagonal_lattice(diagonal, rng: random.Random) -> HermitianLattice:
    n = len(diagonal)
    L = HermitianLattice.from_gram(
        [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)])
    return L.rebase(unit_monomial(n, rng))


# --- spectral --------------------------------------------------------------

CONGRUENCES = {
    (2, 1, 691), (4, 1, 1847),
    (9, 1, 809), (8, 2, 809), (7, 3, 809),
    (3, 1, 73), (5, 2, 61), (6, 4, 41),
    (3, 2, 17), (8, 7, 17), (15, 14, 17),
    (16, 11, 11),
    (12, 7, 59), (13, 7, 59),
    (12, 9, 23), (13, 9, 23),
    (17, (19, 20), 13),
}
T3_EXCLUDED = {12, 13, 16, 18}


@dataclass
class SpectralInputs:
    fx: fixtures.FixtureSet
    t2: list
    t3: list
    table: list
    probes: list


def spectral_inputs(rng: random.Random) -> SpectralInputs:
    fx = fixtures.FixtureSet.load()
    n = len(fx.t2_20x20)
    # The last class stays last: the cost of eigensystem's content-ideal
    # search (spectra._content_reduce_quadratic) depends on the class order,
    # from 2 s to over 100 s over full permutations, and was steady (2.6 s to
    # 3.1 s over eight seeds) with the last class fixed.
    perm = list(range(n - 1))
    rng.shuffle(perm)
    perm.append(n - 1)

    def conj(M):
        return [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]

    table = list(fx.eigen_table)
    rng.shuffle(table)
    probes = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    rng.shuffle(probes)
    return SpectralInputs(fx, conj(fx.t2_20x20), conj(fx.t3_20x20), table, probes)


def check_system(system, table) -> str | None:
    if sorted(system.labels) != sorted(row["label"] for row in table):
        return f"labels {sorted(system.labels)}"
    for row in table:
        for op in ("t2", "t3"):
            if system.eigenvalue(row["label"], op) != row[op]:
                return f"eigenvalue {op} of label {row['label']}"
    return expect(system.residual_blocks() == [(19, 20)],
                  f"residual blocks {system.residual_blocks()}")


def check_table(report) -> str | None:
    t2, t3 = report["t2"], report["t3"]
    if any(v != "match" for v in t2.values()):
        return "t2 mismatch"
    excluded = {lab for lab, v in t3.items() if v == "excluded"}
    if excluded != T3_EXCLUDED:
        return f"t3 excluded {sorted(excluded)}"
    return expect(all(v == "match" for lab, v in t3.items()
                      if lab not in T3_EXCLUDED), "t3 mismatch")


def spectral_pass(inp: SpectralInputs, ops: Ops) -> None:
    fx = inp.fx
    system = ops.call(
        "spectra.eigensystem", spectra.eigensystem,
        ([inp.t2, inp.t3], ("t2", "t3"), inp.table),
        lambda s: check_system(s, inp.table))
    if system is not None:
        ops.call("spectra.scan_congruences_lemma", spectra.scan_congruences_lemma,
                 (system, inp.probes, 11),
                 lambda reports: expect(
                     {(r.i, r.j, r.q) for r in reports} == CONGRUENCES,
                     f"congruences {sorted(((r.i, r.j, r.q) for r in reports), key=str)}"))
        for q, holds in ((11, True), (2, False), (3, False)):
            ops.call(f"spectra.verify_vector_reduction(16, 11, {q})",
                     spectra.verify_vector_reduction, (system, 16, 11, q),
                     lambda out, holds=holds: expect(out[0] is holds, f"got {out}"))
        ops.call("spectra.difference_gcd(16, 11)", spectra.difference_gcd,
                 (system, 16, 11),
                 lambda g: expect(g.factorization == {2: 3, 3: 3, 11: 1},
                                  f"factorization {g.factorization}"))
    ops.call("arthur.verify_table", arthur.verify_table,
             (fx.store, inp.table, {"t2": ideal_above(2), "t3": ideal_above(3)}),
             check_table)
    S = ops.call("hecke.s_from_sprime", hecke.s_from_sprime,
                 (fx.sprime2_25x5, fx.aut_5, fx.aut_25),
                 lambda S: expect(all(sum(r) == fx.d for r in S), "row sums of S"))
    if S is not None:
        ops.call("hecke.assemble_intertwining", hecke.assemble_intertwining,
                 (S, fx.aut_5, fx.aut_25),
                 lambda out: expect(out[0] == fx.t2_5x5 and out[1].verify(),
                                    "T differs from t2_5x5"))


# --- genus -----------------------------------------------------------------

@dataclass(frozen=True)
class GenusJob:
    """The genus of <1, 1, d> at the prime above p, with its known answers."""
    d: int
    p: int
    aut_orders: tuple           # sorted |Aut| of the classes
    sublattice_classes: int


ROW_SUM = {2: 18, 3: 12}        # neighbours of a rank-3 class, det prime to p
THETA_PRECISION = 6

GENUS_JOBS = (
    GenusJob(5, 2, (72, 432), 4),
    GenusJob(5, 3, (72, 432), 2),
    GenusJob(7, 3, (36, 72, 432), 3),
)


def genus_inputs(rng: random.Random, jobs=GENUS_JOBS) -> list:
    fixtures.FixtureSet.load()
    return [(job, diagonal_lattice((1, 1, job.d), rng)) for job in jobs]


def check_genus(g, job: GenusJob) -> str | None:
    return expect(tuple(sorted(g.aut_orders)) == job.aut_orders,
                  f"class number {g.class_number}, |Aut| {sorted(g.aut_orders)}")


def check_direct(T, g, row_sum: int) -> str | None:
    if set(T.row_sums()) != {row_sum}:
        return f"row sums {sorted(set(T.row_sums()))}"
    return expect(T.check_self_adjoint(g.aut_orders), "not self-adjoint")


def check_intertwining(out, direct, job: GenusJob) -> str | None:
    T, data, sub = out
    if direct is not None and T.entries != direct.entries:
        return "intertwining entries differ from direct entries"
    if set(T.row_sums()) != {ROW_SUM[job.p]}:
        return f"row sums {sorted(set(T.row_sums()))}"
    if not data.verify():
        return "intertwining data fails verify()"
    return expect(sub.class_number == job.sublattice_classes,
                  f"{sub.class_number} sublattice classes")


def check_theta(series) -> str | None:
    r = series.coefficients
    return expect(r[0] == 1 and all(x % 6 == 0 for x in r[1:]),
                  f"theta coefficients {r}")


def genus_pass(inputs: list, ops: Ops) -> None:
    for job, L in inputs:
        P = ideal_above(job.p)
        tag = f"<1,1,{job.d}> at {P}"
        g = ops.call(f"neighbour.enumerate_genus {tag}", neighbour.enumerate_genus,
                     (L, P), lambda g: check_genus(g, job))
        if g is None:
            continue
        direct = ops.call(f"hecke.hecke_direct {tag}", hecke.hecke_direct, (g, P),
                          lambda T: check_direct(T, g, ROW_SUM[job.p]))
        ops.call(f"hecke.hecke_intertwining {tag}", hecke.hecke_intertwining, (g, P),
                 lambda out: check_intertwining(out, direct, job))
        for R in g.representatives:
            ops.call(f"theta.theta_degree1 {tag}", theta.theta_degree1,
                     (R, THETA_PRECISION), check_theta)
        # enumerate_genus and hecke_direct each build every neighbour of
        # every class
        ops.neighbours_built += 2 * g.class_number * ROW_SUM[job.p]


# --- neighbours ------------------------------------------------------------

@dataclass(frozen=True)
class NeighbourJob:
    rank: int
    p: int
    count: tuple                # (admissible lines, neighbours)
    build: bool                 # False: count_neighbours only


# Unimodular I_n: at (2) the isotropic lines number
# (2^n - (-1)^n)(2^(n-1) - (-1)^(n-1))/3, two neighbours each; at (sqrt-3),
# for odd n, (3^(n-1) - 1)/2, three neighbours each; at the split prime above
# 7 every line of F_7^n is admissible, one neighbour each.
# neighbours(I_3, P_7) raises "neighbour gram is not integral" (46 of its 57
# keys give non-integral grams): a known defect, counted as a failed call.
NEIGHBOUR_JOBS = (
    NeighbourJob(4, 2, (45, 90), True),
    NeighbourJob(5, 3, (40, 120), True),
    NeighbourJob(6, 2, (693, 1386), False),
    NeighbourJob(5, 7, (2801, 2801), False),
    NeighbourJob(3, 7, (57, 57), True),
)


def neighbour_inputs(rng: random.Random, jobs=NEIGHBOUR_JOBS) -> list:
    fixtures.FixtureSet.load()
    jobs = list(jobs)
    rng.shuffle(jobs)
    return [(job, diagonal_lattice((1,) * job.rank, rng)) for job in jobs]


def neighbours_pass(inputs: list, ops: Ops) -> None:
    for job, L in inputs:
        P = ideal_above(job.p)
        tag = f"I_{job.rank} at {P}"
        ns = None
        if job.build:
            ns = ops.call(f"neighbour.neighbours {tag}", neighbour.neighbours, (L, P),
                          lambda ns: expect(len(ns) == job.count[1],
                                            f"{len(ns)} neighbours"))
        ops.call(f"neighbour.count_neighbours {tag}", neighbour.count_neighbours,
                 (L, P),
                 lambda c: expect(c == job.count and (ns is None or len(ns) == c[1]),
                                  f"count {c}"))
        if ns is None:
            continue
        for key in ns.hermite_keys:
            ops.call(f"neighbour.verify_neighbour {tag}", neighbour.verify_neighbour,
                     (L, key, P), lambda ok: expect(ok is True, "key fails"))
        ops.neighbours_built += len(ns)


@dataclass(frozen=True)
class Workload:
    build: Callable[[random.Random], object]
    run: Callable[[object, Ops], None]


WORKLOADS = {
    "spectral": Workload(spectral_inputs, spectral_pass),
    "genus": Workload(genus_inputs, genus_pass),
    "neighbours": Workload(neighbour_inputs, neighbours_pass),
}
