"""Exact simultaneous eigen-decomposition of commuting integer Hecke matrices,
eigenvector normalization, and congruence detection between eigensystems.

Eigenvalues live in Q or a real quadratic field; irreducible characteristic
factors of degree >= 3 are rejected.  Congruences are found by the
denominator lemma (expand a probe vector in the eigenbasis and look for
primes in coefficient denominators), cross-checked by eigenvalue-difference
gcds and eigenvector reduction mod q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources

import sympy

from .linalg import (charpoly_factors, integer_kernel_basis, inverse,
                     kernel_basis, mat_mul, mat_vec, normalize_primitive,
                     roots_of_factor, solve_right)
from .errors import PreconditionError, UnsupportedCaseError
from .quadfield import QuadExtElem, ideal_valuation, parse_quad, rational


class UnsupportedFieldError(UnsupportedCaseError):
    pass


# ---------------------------------------------------------------------------
# quadratic-integer helpers (integral basis coordinates)

def _theta_params(D: int):
    """Integral basis 1, theta of Q(sqrt(D)): theta = (1+sqrt(D))/2 when
    D = 1 mod 4, else sqrt(D).  Returns (uses_half_basis, t) with
    theta^2 = theta + t (half basis) or theta^2 = t."""
    if D % 4 == 1:
        return True, (D - 1) // 4
    return False, D


def _to_integral_coords(x: QuadExtElem):
    """x = u + v*theta; returns (u, v) as Fractions."""
    r, s = x.rational_part, x.surd_part
    half, _ = _theta_params(x.D)
    if half:
        return r - s, 2 * s
    return r, s


def _from_integral_coords(u, v, D: int) -> QuadExtElem:
    half, _ = _theta_params(D)
    if half:
        return QuadExtElem.of(Fraction(u) + Fraction(v, 2), Fraction(v, 2), D)
    return QuadExtElem.of(Fraction(u), Fraction(v), D)


def _content_reduce_quadratic(vec, D: int):
    """Scale a vector over Q(sqrt(D)) so entries are algebraic integers with
    trivial content ideal (class number one assumed; a generator of the
    content ideal is located by short-element search)."""
    half, t = _theta_params(D)
    coords = [_to_integral_coords(x) for x in vec]
    den = math.lcm(*[Fraction(c).denominator for uv in coords for c in uv])
    ints = [(int(u * den), int(v * den)) for u, v in coords]
    # content ideal as a Z-module: generated by e and theta*e for each entry
    gens = []
    for u, v in ints:
        gens.append((u, v))
        if half:
            gens.append((t * v, u + v))       # theta*(u+v*theta)
        else:
            gens.append((t * v, u))           # sqrt(D)*(u+v*sqrt(D))
    # Hermite form of the 2-row module
    from sympy.matrices.normalforms import hermite_normal_form
    M = sympy.Matrix([[g[0] for g in gens], [g[1] for g in gens]])
    H = hermite_normal_form(M)
    h11, h12, h22 = int(H[0, 0]), int(H[0, 1]), int(H[1, 1])
    index = abs(h11 * h22)
    if index == 0:
        raise ValueError("zero vector")

    def field_norm(u, v):
        return u * u + u * v - t * v * v if half else u * u - t * v * v

    gamma = None
    if index == 1:
        gamma = (1, 0)
    else:
        bound = 4 * index
        for b in range(-bound, bound + 1):
            for a in range(-bound, bound + 1):
                u = a * h11 + b * h12
                v = b * h22
                if (u, v) != (0, 0) and abs(field_norm(u, v)) == index:
                    gamma = (u, v)
                    break
            if gamma:
                break
        if gamma is None:
            raise ValueError("no short generator found for content ideal")
    g = _from_integral_coords(*gamma, D)
    out = [_from_integral_coords(u, v, D) / g for u, v in ints]
    lead = next((x for x in out if not x.is_zero()), None)
    if lead is not None and (lead.rational_part < 0
                             or (lead.rational_part == 0 and lead.surd_part < 0)):
        out = [-x for x in out]
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenLabel:
    label: int
    eigenvalues: dict          # operator name -> QuadExtElem
    vector: tuple              # entries: int (rational systems) or QuadExtElem
    eigenspace_dim: int
    field_tag: int             # D of the eigenvalue field
    block: tuple = ()          # labels sharing a residual common eigenspace


@dataclass
class EigenSystem:
    labels: dict               # label -> EigenLabel
    operator_names: tuple
    matrices: dict             # operator name -> integer matrix

    @property
    def size(self):
        return len(self.matrices[self.operator_names[0]])

    def eigenvalue(self, label: int, op: str) -> QuadExtElem:
        return self.labels[label].eigenvalues[op]

    def residual_blocks(self):
        seen, out = set(), []
        for lab in sorted(self.labels):
            blk = self.labels[lab].block
            if blk and blk not in seen:
                seen.add(blk)
                out.append(blk)
        return out

    def check_exactness(self) -> bool:
        """Every stored vector is an eigenvector of every stored operator,
        with its stored eigenvalue.  Integer vectors with rational
        eigenvalues are checked in integer arithmetic."""
        quad_mats = {op: [[rational(x) for x in row] for row in M]
                     for op, M in self.matrices.items()}
        for rec in self.labels.values():
            integral = all(isinstance(x, int) for x in rec.vector)
            for op in self.operator_names:
                lam = rec.eigenvalues[op]
                if integral and lam.is_rational():
                    lam = lam.as_fraction()
                    img = mat_vec(self.matrices[op], rec.vector)
                    if img != [lam * x for x in rec.vector]:
                        return False
                    continue
                vec = [x if isinstance(x, QuadExtElem) else rational(x)
                       for x in rec.vector]
                img = mat_vec(quad_mats[op], vec)
                if any((a - lam * b) != 0 for a, b in zip(img, vec)):
                    return False
        return True

    @cached_property
    def eigenbasis_inverse(self):
        """Inverse of the matrix whose columns are the stored vectors in label
        order, or None if they are dependent.  Computed on first use and not
        refreshed if `labels` changes afterwards."""
        cols = [[x if isinstance(x, QuadExtElem) else rational(x)
                 for x in self.labels[lab].vector] for lab in sorted(self.labels)]
        return inverse([list(row) for row in zip(*cols)])

    def to_json_dict(self):
        rows = []
        for lab in sorted(self.labels):
            rec = self.labels[lab]
            rows.append({
                "label": lab,
                "eigenvalues": {op: str(v) for op, v in rec.eigenvalues.items()},
                "eigenvector": [str(x) for x in rec.vector],
                "dim": rec.eigenspace_dim,
                "field": rec.field_tag,
            })
        return {"operators": list(self.operator_names), "rows": rows}


def load_reference_table(path=None):
    """Reference 20-row table: eigenvalues of T_(2), T_(sqrt(-3)) and the
    conjectured parameter strings."""
    if path is None:
        text = resources.files("hermhecke.data").joinpath("eigen_table_20.json").read_text()
    else:
        with open(path) as fh:
            text = fh.read()
    data = json.loads(text)
    rows = []
    for row in data["rows"]:
        rows.append({"label": row["label"],
                     "t2": parse_quad(row["t2"]),
                     "t3": parse_quad(row["t3"]),
                     "parameter": row["parameter"],
                     "dim": row["dim"]})
    return rows


def _as_int_matrix(m):
    if hasattr(m, "entries"):
        return [list(row) for row in m.entries]
    return [list(row) for row in m]


def _commute(A, B) -> bool:
    return mat_mul(A, B) == mat_mul(B, A)


def _restrict(M, basis):
    """Matrix of M acting on span(basis), in that basis (entries Fractions)."""
    cols = [[Fraction(x) for x in v] for v in basis]
    A = [[cols[j][i] for j in range(len(cols))] for i in range(len(cols[0]))]
    out_cols = []
    for v in cols:
        img = mat_vec(M, v)
        coords = solve_right(A, img)
        assert coords is not None
        out_cols.append(coords)
    return [[out_cols[j][i] for j in range(len(out_cols))] for i in range(len(out_cols[0]))]


def eigensystem(matrices, operator_names=None, reference=None) -> EigenSystem:
    """Simultaneous eigen-decomposition of commuting integer matrices.

    Splits along the first operator (rational and quadratic eigenvalues),
    refines multi-dimensional spaces with the remaining operators, and
    reports any residual common eigenspace of dimension > 1.  Of a pair of
    Galois-conjugate systems only one is solved; the other holds the
    conjugate eigenvalues and the conjugate reduced vector.  Labels follow
    `reference` rows (matched by eigenvalue tuple) when given, else are
    assigned in decreasing eigenvalue order of the first operator.
    """
    mats = [_as_int_matrix(m) for m in matrices]
    if not mats:
        raise PreconditionError("no matrices")
    n = len(mats[0])
    if any(len(M) != n or len(M[0]) != n for M in mats):
        raise PreconditionError("matrices must share one square size")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not _commute(mats[i], mats[j]):
                raise PreconditionError(f"operators {i} and {j} do not commute")
    if operator_names is None:
        operator_names = tuple(f"T{i}" for i in range(len(mats)))
    operator_names = tuple(operator_names)

    records = []  # (eigenvalues, vector, eigenspace dim, field D, in residual block)

    def split(space_basis, eig_so_far, depth):
        """space_basis: list of rational vectors spanning an invariant space."""
        if depth == len(mats):
            eigs = tuple(eig_so_far)
            if len(space_basis) == 1:
                records.append((eigs, tuple(normalize_primitive(space_basis[0])),
                                1, 1, False))
            else:
                # residual common eigenspace: saturated integer basis
                sat = _saturate_block(mats[0], eigs, space_basis)
                records.extend((eigs, tuple(v), len(sat), 1, True) for v in sat)
            return
        M = mats[depth]
        if len(space_basis) == 1:
            v = space_basis[0]
            img = mat_vec(M, v)
            k = next(i for i, x in enumerate(v) if x != 0)
            lam = Fraction(img[k]) / v[k]
            split(space_basis, eig_so_far + [QuadExtElem.of(lam)], depth + 1)
            return
        R = _restrict(M, space_basis)
        pieces = charpoly_factors(R)
        for coeffs, _mult in pieces:
            if len(coeffs) > 3:
                raise UnsupportedFieldError(
                    f"irreducible factor of degree {len(coeffs) - 1}")
            for root in roots_of_factor(coeffs):
                if root.D != 1:
                    raise UnsupportedFieldError(
                        "quadratic refinement inside a rational block is not needed "
                        "for the shipped spectra and is unsupported")
                lam = root.as_fraction()
                shifted = [[Fraction(R[i][j]) - (lam if i == j else 0)
                            for j in range(len(R))] for i in range(len(R))]
                ker = kernel_basis(shifted)
                if not ker:
                    continue
                sub = []
                for kv in ker:
                    w = [sum(Fraction(kv[t]) * Fraction(space_basis[t][i])
                             for t in range(len(space_basis))) for i in range(n)]
                    sub.append(normalize_primitive(w))
                split(sub, eig_so_far + [QuadExtElem.of(lam)], depth + 1)

    # first operator over Z, supporting quadratic eigenvalues directly
    quad_mats = [[[rational(x) for x in row] for row in M] for M in mats[1:]]
    for coeffs, _mult in charpoly_factors(mats[0]):
        if len(coeffs) > 3:
            raise UnsupportedFieldError(f"irreducible factor of degree {len(coeffs) - 1}")
        roots = roots_of_factor(coeffs)
        if roots[0].D == 1:
            for root in roots:
                lam = root.as_fraction()
                A = [[Fraction(x) - (lam if i == j else 0) for j, x in enumerate(row)]
                     for i, row in enumerate(mats[0])]
                ker = integer_kernel_basis(
                    [[int(x * lam.denominator) for x in row] for row in A])
                split([list(v) for v in ker], [QuadExtElem.of(lam)], 1)
            continue
        # a Galois-conjugate pair: solve for the first root only; the mate's
        # eigenvalues and reduced vector are the conjugates of its own
        root = roots[0]
        A = [[rational(x) - (root if i == j else rational(0))
              for j, x in enumerate(row)] for i, row in enumerate(mats[0])]
        ker = kernel_basis(A)
        if len(ker) != 1:
            raise UnsupportedFieldError(
                "multi-dimensional quadratic eigenspace not supported")
        vec = [x if isinstance(x, QuadExtElem) else rational(x) for x in ker[0]]
        eigs = [root]
        for M in quad_mats:
            img = mat_vec(M, vec)
            k = next(i for i, x in enumerate(vec) if not x.is_zero())
            eigs.append(img[k] / vec[k])
        vec = tuple(_content_reduce_quadratic(vec, root.D))
        records.append((tuple(eigs), vec, 1, root.D, False))
        records.append((tuple(e.conjugate() for e in eigs),
                        tuple(x.conjugate() for x in vec), 1, root.D, False))

    # a residual block adds one record per dimension
    if len(records) != n:
        raise PreconditionError(f"eigenspace dimensions sum to {len(records)}, not {n}")
    system = EigenSystem(_assign_labels(records, operator_names, reference),
                         operator_names, dict(zip(operator_names, mats)))
    assert system.check_exactness()
    return system


def _saturate_block(M0, eigs, basis):
    lam = eigs[0].as_fraction()
    A = [[Fraction(x) - (lam if i == j else 0) for j, x in enumerate(row)]
         for i, row in enumerate(M0)]
    den = lam.denominator
    ker = integer_kernel_basis([[int(x * den) for x in row] for row in A])
    # intersect with the refined span in the (rare) case the first-operator
    # eigenspace is larger than the joint one
    if len(ker) != len(basis):
        B = [[Fraction(x) for x in v] for v in basis]
        keep = []
        cols = [[B[j][i] for j in range(len(B))] for i in range(len(B[0]))]
        for v in ker:
            if solve_right(cols, [Fraction(x) for x in v]) is not None:
                keep.append(v)
        ker = keep
    return ker


def _sort_key(eigs):
    return tuple((-e.rational_part, -e.surd_part) for e in eigs)


def _assign_labels(records, names, reference):
    """Label each (eigenvalues, vector, dim, D, in_block) record: by the
    `reference` row with the same eigenvalue tuple, else 1, 2, ... in
    decreasing eigenvalue order.  Returns {label: EigenLabel}."""
    if reference is None:
        ordered = list(enumerate(sorted(records, key=lambda r: _sort_key(r[0])), start=1))
    else:
        pool = list(records)
        ordered = []
        for row in reference:
            target = tuple(row[name] for name in names)
            idx = next((i for i, rec in enumerate(pool) if rec[0] == target), None)
            if idx is None:
                raise PreconditionError(
                    f"no computed eigensystem matches reference label {row['label']}")
            ordered.append((row["label"], pool.pop(idx)))
        if pool:
            raise PreconditionError(f"{len(pool)} computed systems missing from reference")
    # the labels of a residual block are the labels sharing its eigenvalue tuple
    blocks = {}
    for lab, (eigs, _, _, _, in_block) in ordered:
        if in_block:
            blocks.setdefault(eigs, []).append(lab)
    return {lab: EigenLabel(lab, dict(zip(names, eigs)), vec, dim, D,
                            tuple(sorted(blocks[eigs])) if in_block else ())
            for lab, (eigs, vec, dim, D, in_block) in ordered}


# ---------------------------------------------------------------------------
# congruence machinery

@dataclass(frozen=True)
class CongruenceReport:
    i: int
    j: object                  # label or tuple of block labels
    q: int
    prime_tag: str             # "" rational-modulus, else "q1"/"q2" with sqrt convention
    evidence: tuple
    operators: tuple

    def key(self):
        j = self.j if isinstance(self.j, int) else tuple(self.j)
        a, b = (self.i, j) if isinstance(j, tuple) or self.i < j else (j, self.i)
        return (a, b, self.q, self.prime_tag)


def expand_in_eigenbasis(v, system: EigenSystem):
    """Coefficients of v in the stored eigenbasis (block basis vectors count
    as basis elements for their labels).  Returns {label: QuadExtElem}.

    One product with the system's cached eigenbasis inverse."""
    if len(v) != system.size:
        raise PreconditionError(f"vector of length {len(v)}, not {system.size}")
    inv = system.eigenbasis_inverse
    if inv is None:
        raise PreconditionError("stored eigenvectors are linearly dependent")
    sol = mat_vec(inv, [rational(x) for x in v])
    return {lab: (c if isinstance(c, QuadExtElem) else rational(c))
            for lab, c in zip(sorted(system.labels), sol)}


def _denominator_primes(c: QuadExtElem, q_min: int):
    """Primes q >= q_min at which some valuation of c is negative, with tags."""
    if c.is_zero():
        return []
    den = math.lcm(c.rational_part.denominator, c.surd_part.denominator)
    out = []
    for q in sympy.factorint(den):
        if q < q_min:
            continue
        if c.is_rational():
            out.append((q, ""))
            continue
        try:
            vals = ideal_valuation(c, q, c.D)
        except UnsupportedCaseError:
            continue
        if len(vals) == 1:
            if vals[0][1] < 0:
                out.append((q, ""))
        else:
            for tag, v in vals:
                if v < 0:
                    out.append((q, tag))
    return out


def _eig_congruent(system: EigenSystem, i, j, q: int, tag: str) -> bool:
    """lambda_i(T) = lambda_j(T) mod (the prime above) q for all stored T."""
    for op in system.operator_names:
        a = system.eigenvalue(i, op)
        b = system.eigenvalue(j, op)
        d = a - b
        if d.is_zero():
            continue
        if d.is_rational():
            r = d.as_fraction()
            if r.denominator % q == 0 or r.numerator % q != 0:
                return False
            continue
        vals = dict(ideal_valuation(d, q, d.D))
        if tag:
            if vals.get(tag, 0) < 1:
                return False
        else:
            if any(v < 1 for v in vals.values()):
                return False
    return True


def scan_congruences_lemma(system: EigenSystem, probes=None, q_min: int = 11):
    """Denominator-lemma congruence scan.

    For each probe vector, expand in the eigenbasis; any prime q >= q_min
    with a negative-valuation coefficient nominates candidate label pairs
    (both labels must show the negative valuation), which are then verified
    against every stored operator.  Pairs involving residual-block labels
    are reported as candidates for the whole block.
    """
    if probes is None:
        n = system.size
        probes = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    blocks = system.residual_blocks()
    block_of = {}
    for blk in blocks:
        for lab in blk:
            block_of[lab] = blk
    found = {}
    for probe in probes:
        coeffs = expand_in_eigenbasis(probe, system)
        neg = {}
        for lab, c in coeffs.items():
            for q, tag in _denominator_primes(c, q_min):
                neg.setdefault((q, tag), set()).add(lab)
        # a rational denominator is negative at every prime above q, so the
        # untagged bucket feeds each tagged bucket at the same q
        for (q, tag), labs in list(neg.items()):
            if tag:
                labs |= neg.get((q, ""), set())
        for (q, tag), labs in neg.items():
            plain = sorted(l for l in labs if l not in block_of)
            blks = {block_of[l] for l in labs if l in block_of}
            for a in plain:
                for b in plain:
                    if a >= b:
                        continue
                    if _eig_congruent(system, a, b, q, tag):
                        rep = CongruenceReport(b, a, q, tag,
                                               ("denominator-lemma",),
                                               system.operator_names)
                        found.setdefault(rep.key(), rep)
                for blk in sorted(blks):
                    if _eig_congruent(system, a, blk[0], q, tag):
                        rep = CongruenceReport(a, blk, q, tag,
                                               ("denominator-lemma", "residual-block-candidate"),
                                               system.operator_names)
                        found.setdefault(rep.key(), rep)
    return sorted(found.values(), key=_scan_order)


def _scan_order(r: CongruenceReport):
    """Larger q first, then by key, with a single label compared as a
    one-label block so that labels and blocks in one slot are comparable."""
    a, b, q, tag = r.key()
    return (-q, a, b if isinstance(b, tuple) else (b,), tag)


def verify_vector_reduction(system: EigenSystem, i: int, j: int, q: int):
    """True iff v_i = c * v_j (mod q) for a scalar c != 0 mod q."""
    vi = system.labels[i].vector
    vj = system.labels[j].vector
    if any(isinstance(x, QuadExtElem) and not x.is_rational() for x in vi + vj):
        raise PreconditionError("rational-integral eigenvectors required")
    vi = [int(x.as_fraction()) if isinstance(x, QuadExtElem) else int(x) for x in vi]
    vj = [int(x.as_fraction()) if isinstance(x, QuadExtElem) else int(x) for x in vj]
    k = next((t for t, x in enumerate(vj) if x % q), None)
    if k is None:
        raise PreconditionError(f"v_{j} vanishes mod {q}; content not reduced?")
    c = vi[k] * pow(vj[k], -1, q) % q
    ok = all((a - c * b) % q == 0 for a, b in zip(vi, vj))
    return ok and c % q != 0, c


@dataclass(frozen=True)
class GcdReport:
    i: int
    j: int
    value: object              # int, or None when the systems coincide
    factorization: dict
    infinite: bool


def difference_gcd(system: EigenSystem, i: int, j: int) -> GcdReport:
    """Gcd of the (absolute norms of) eigenvalue differences over all stored
    operators; identical eigensystems yield the infinite sentinel."""
    g = 0
    for op in system.operator_names:
        d = system.eigenvalue(i, op) - system.eigenvalue(j, op)
        if d.is_zero():
            continue
        if d.is_rational():
            r = d.as_fraction()
            assert r.denominator == 1
            g = math.gcd(g, abs(int(r)))
        else:
            nrm = d.field_norm()
            assert nrm.denominator == 1
            g = math.gcd(g, abs(int(nrm)))
    if g == 0:
        return GcdReport(i, j, None, {}, True)
    return GcdReport(i, j, g, {int(p): int(e) for p, e in sympy.factorint(g).items()},
                     False)


def congruence_report_json(reports):
    out = []
    for r in reports:
        out.append({"i": r.i,
                    "j": list(r.j) if isinstance(r.j, tuple) else r.j,
                    "q": r.q,
                    "prime": r.prime_tag or None,
                    "evidence": list(r.evidence)})
    return out
