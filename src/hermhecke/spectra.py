"""Exact simultaneous eigen-decomposition of commuting integer Hecke matrices,
eigenvector normalization, and congruence detection between eigensystems.

The operators are decomposed together through one integer combination of
them; every eigenvalue is read off the eigenvectors.  Eigenvalues live in Q
or a real quadratic field; irreducible characteristic factors of degree >= 3
are rejected.  Congruences are found by the
denominator lemma (expand a probe vector in the eigenbasis and look for
primes in coefficient denominators), cross-checked by eigenvalue-difference
gcds and eigenvector reduction mod q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property, cmp_to_key

from .linalg import (charpoly_factors, dot, factor_kernels, mat_mul, mat_vec,
                     normalize_primitive, solve_right)
from .errors import PreconditionError, UnsupportedCaseError, UnsupportedFieldError
from .quadfield import (QuadExtElem, divisible_at, ideal_valuation, rational,
                        roots_of_factor)


def _primitive_quadratic(vec):
    """Scale a vector over Q(sqrt(D)) so that its rational and surd parts are
    integers with gcd 1, the first nonzero part positive."""
    n = len(vec)
    parts = normalize_primitive([x.rational_part for x in vec]
                                + [x.surd_part for x in vec])
    return [QuadExtElem.of(r, s, x.D)
            for r, s, x in zip(parts[:n], parts[n:], vec)]


def _parts(vec):
    """The rational parts r and surd parts s of a vector r + s*sqrt(D) of
    ints and QuadExtElems; an int is its own rational part."""
    return [getattr(x, "rational_part", x) for x in vec], [getattr(x, "surd_part", 0) for x in vec]


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
        blocks = (self.labels[lab].block for lab in sorted(self.labels))
        return list(dict.fromkeys(blk for blk in blocks if blk))

    def check_exactness(self) -> bool:
        """Every stored vector is an eigenvector of every stored operator,
        with its stored eigenvalue.  For a vector r + s*sqrt(D) and an
        eigenvalue (a + b*sqrt(D)) / e of T, a, b and e integers, this is
        e T r = a r + b D s and e T s = b r + a s, checked on the integer
        vectors dr and ds, d the lcm of the denominators of r and s."""
        for rec in self.labels.values():
            D = rec.field_tag
            if any(getattr(x, "D", 1) not in (1, D)
                   for x in (*rec.vector, *rec.eigenvalues.values())):
                return False
            r, s = _parts(rec.vector)
            d = math.lcm(*[x.denominator for x in r + s])
            r, s = [int(x * d) for x in r], [int(x * d) for x in s]
            for op in self.operator_names:
                lam = rec.eigenvalues[op]
                e = math.lcm(lam.rational_part.denominator, lam.surd_part.denominator)
                a, b = int(lam.rational_part * e), int(lam.surd_part * e)
                Mr, Ms = (mat_vec(self.matrices[op], v) for v in (r, s))
                if ([e * x for x in Mr] != [a * x + b * D * y for x, y in zip(r, s)]
                        or [e * x for x in Ms] != [b * x + a * y for x, y in zip(r, s)]):
                    return False
        return True

    @cached_property
    def _mates(self):
        """{i: j} for each conjugate pair of labels i < j: v_j is the Galois
        conjugate of v_i."""
        vecs = {lab: rec.vector for lab, rec in self.labels.items() if rec.field_tag != 1}
        mates = {i: next((j for j, v in vecs.items()
                          if all(x.conjugate() == y for x, y in zip(u, v))), None)
                 for i, u in vecs.items()}
        if None in mates.values():
            raise PreconditionError("a quadratic vector lacks its conjugate")
        return {i: j for i, j in mates.items() if i < j}

    @cached_property
    def eigenbasis_inverse(self):
        """(X, den) with P X = den I and X integral, P the integer matrix
        whose columns are the stored vectors in label order, a conjugate
        pair i < j with v_i = r + s*sqrt(D) contributing r at i and s at j;
        None if they are dependent.  P^-1 is X / den.  Computed on first use
        and not refreshed if `labels` changes afterwards."""
        cols = {lab: _parts(rec.vector)[0] for lab, rec in self.labels.items()}
        for i, j in self._mates.items():
            cols[j] = _parts(self.labels[i].vector)[1]
        if any(x.denominator != 1 for col in cols.values() for x in col):
            raise AssertionError("eigenbasis_inverse: a stored vector is not integral")
        n = self.size
        return solve_right([[int(cols[lab][i]) for lab in sorted(cols)] for i in range(n)],
                           [[int(i == j) for j in range(n)] for i in range(n)])

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


def _commute(A, B) -> bool:
    return mat_mul(A, B) == mat_mul(B, A)


def _common_eigenvalues(mats, basis):
    """Each operator's eigenvalue on the span of the integer vectors `basis`,
    read off the first vector at its first nonzero entry k as
    (M u)_k / u_k; None if u_k M v != (M u)_k v for some operator M and some
    v in `basis`."""
    u = basis[0]
    k = next(i for i, x in enumerate(u) if x)
    eigs = []
    for M in mats:
        p = dot(M[k], u)
        if any([u[k] * x for x in mat_vec(M, v)] != [p * x for x in v] for v in basis):
            return None
        eigs.append(QuadExtElem.of(Fraction(p, u[k])))
    return tuple(eigs)


def _decompose(mats, T):
    """Records (eigenvalues, vector, eigenspace dim, field D, in residual
    block) of the common eigenspaces of `mats`, read off the irreducible
    factors f of the char poly of T, an integer combination of them, and
    their kernels from `factor_kernels`; None if two distinct eigenvalue
    tuples meet on T.  A factor of degree >= 3 raises UnsupportedFieldError.

    For a linear f the kernel of f(T) is an eigenspace of T; tuples meet
    there if an operator is not scalar on it.  For a quadratic f a
    two-dimensional kernel spans a conjugate pair of common eigenvectors,
    since their eigenspaces of T are lines; a larger one is a meeting of
    pairs unless every operator acts on it through T as on the first pair,
    which raises UnsupportedFieldError.  A simple f has a kernel of
    dimension deg f, given by one vector.  PreconditionError if the
    eigenspaces of T do not fill Q^n: the operators are then not
    simultaneously diagonalizable."""
    factors = charpoly_factors(T)
    kernels = factor_kernels(T, factors)
    records = []
    for coeffs, mult in factors:
        if len(coeffs) > 3:
            raise UnsupportedFieldError(f"characteristic factor of degree {len(coeffs) - 1} "
                                        "with no linear or quadratic factor")
        ker = next(kernels)
        if len(coeffs) == 2:
            eigs = _common_eigenvalues(mats, ker)
            if eigs is None:
                return None
            if len(ker) == 1:
                records.append((eigs, tuple(normalize_primitive(ker[0])), 1, 1, False))
            else:
                records.extend((eigs, tuple(v), len(ker), 1, True) for v in ker)
            continue
        # a Galois-conjugate pair: solve for the root a + b*sqrt(D) of f only;
        # the mate's eigenvalues and primitive vector are the conjugates of
        # its own.  For u in ker, (T - a + b*sqrt(D)) u is an eigenvector,
        # scaled to 1 at its last nonzero entry k before the content is taken
        # out; each operator's eigenvalue is its image's entry k.
        root = roots_of_factor(coeffs)[0]
        u = ker[0]
        a, b = root.rational_part, root.surd_part
        vec = [QuadExtElem.of(t - a * x, b * x, root.D)
               for t, x in zip(mat_vec(T, u), u)]
        k = max(i for i, x in enumerate(vec) if x != 0)
        vec = tuple(_primitive_quadratic([x / vec[k] for x in vec]))
        r, s = _parts(vec)
        eigs = tuple(QuadExtElem.of(dot(M[k], r), dot(M[k], s), root.D) / vec[k]
                     for M in mats)
        if mult > 1 and len(ker) != 2:
            # one pair of conjugate eigenspaces, not a meeting of pairs, iff
            # every operator with eigenvalue e = p + q*sqrt(D) on the first
            # pair acts on the kernel as p + (q/b)(T - a)
            if all([b * x for x in mat_vec(M, v)]
                   == [e.rational_part * b * y + e.surd_part * (t - a * y)
                       for t, y in zip(mat_vec(T, v), v)]
                   for M, e in zip(mats, eigs) for v in ker):
                raise UnsupportedFieldError(
                    "multi-dimensional quadratic eigenspace not supported")
            return None
        records.append((eigs, vec, 1, root.D, False))
        records.append((tuple(e.conjugate() for e in eigs),
                        tuple(x.conjugate() for x in vec), 1, root.D, False))
    # a residual block adds one record per dimension
    if len(records) != len(T):
        raise PreconditionError("the operators are not simultaneously diagonalizable")
    return records


def eigensystem(matrices, operator_names=None, reference=None) -> EigenSystem:
    """Simultaneous eigen-decomposition of commuting integer matrices, each
    given as a list of rows of ints (HeckeMatrix callers pass `.entries`).

    Splits one integer matrix T = sum_t c^t T_t, for the first c = 0, 1, 2,
    ... at which no two distinct eigenvalue tuples meet on T; c = 0 is the
    first operator alone.  Distinct eigenvalue tuples agree on T for at
    most m - 1 values of c each, so for m operators on n classes one of the
    first (m - 1) n (n - 1) / 2 + 1 values splits simultaneously
    diagonalizable operators; past them, or as soon as T is not
    diagonalizable, PreconditionError is raised.  Every operator's
    eigenvalue is read off the eigenvectors, and a common eigenspace of
    dimension > 1 is reported as a residual block with a saturated integer
    basis.  Of a pair of Galois-conjugate systems only one is solved, over
    Z, and its eigenvector is scaled to coprime integral rational and surd
    parts; the other holds the conjugate eigenvalues and the conjugate
    vector.  Labels follow `reference` rows (matched by eigenvalue tuple)
    when given, else are assigned in decreasing real order of the first
    operator's eigenvalue, ties broken by the next operator, compared
    exactly.
    """
    mats = [[list(row) for row in M] for M in matrices]
    if not mats:
        raise PreconditionError("no matrices")
    n = len(mats[0])
    if any(len(M) != n or len(M[0]) != n for M in mats):
        raise PreconditionError("matrices must share one square size")
    for t, M in enumerate(mats):
        for i, row in enumerate(M):
            for j, x in enumerate(row):
                if not isinstance(x, int):
                    raise PreconditionError(f"operator {t} has the non-integer entry "
                                            f"{x!r} at row {i}, column {j}")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not _commute(mats[i], mats[j]):
                raise PreconditionError(f"operators {i} and {j} do not commute")
    if operator_names is None:
        operator_names = tuple(f"T{i}" for i in range(len(mats)))
    operator_names = tuple(operator_names)

    for c in range((len(mats) - 1) * n * (n - 1) // 2 + 1):
        T = [[sum(c ** t * M[i][j] for t, M in enumerate(mats)) for j in range(n)]
             for i in range(n)]
        records = _decompose(mats, T)
        if records is not None:
            break
    else:
        raise PreconditionError("the operators are not simultaneously diagonalizable")
    system = EigenSystem(_assign_labels(records, operator_names, reference),
                         operator_names, dict(zip(operator_names, mats)))
    if not system.check_exactness():
        raise AssertionError("eigensystem: a stored vector is not an eigenvector "
                             "with its stored eigenvalues")
    return system


def _real_sign(a, b, D: int) -> int:
    """Exact sign of a + b*sqrt(D) for rationals a, b and a positive
    non-square D."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > D * b * b else sb


def _compare_real(x: QuadExtElem, y: QuadExtElem) -> int:
    """Exact sign of x - y for elements of real quadratic fields."""
    if 1 in (x.D, y.D) or x.D == y.D:
        d = x - y
        return _real_sign(d.rational_part, d.surd_part, d.D)
    # x - y = u - w with u = (a - c) + b*sqrt(D) and w = d*sqrt(E): when u and
    # w share a sign, compare u^2 = (a - c)^2 + b^2 D + 2(a - c)b sqrt(D)
    # with w^2 = d^2 E
    a, b, D = x.rational_part - y.rational_part, x.surd_part, x.D
    d, E = y.surd_part, y.D
    su, sw = _real_sign(a, b, D), (d > 0) - (d < 0)
    if su * sw <= 0:
        return su or -sw
    return su * _real_sign(a * a + b * b * D - d * d * E, 2 * a * b, D)


def _decreasing(rec1, rec2) -> int:
    """Order records by decreasing eigenvalue tuple, compared exactly."""
    for x, y in zip(rec1[0], rec2[0]):
        sign = _compare_real(x, y)
        if sign:
            return -sign
    return 0


def _assign_labels(records, names, reference):
    """Label each (eigenvalues, vector, dim, D, in_block) record: by the
    `reference` row with the same eigenvalue tuple, else 1, 2, ... in
    decreasing eigenvalue order.  Returns {label: EigenLabel}."""
    if reference is None:
        ordered = list(enumerate(sorted(records, key=cmp_to_key(_decreasing)), start=1))
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

    One product with the system's cached integer eigenbasis inverse X / den,
    divided by den once per coordinate: of a conjugate pair i < j with
    v_i = r + s*sqrt(D), the coordinates x on r and y on s give
    x/2 + y*sqrt(D)/(2D) on v_i and the conjugate on v_j."""
    if len(v) != system.size:
        raise PreconditionError(f"vector of length {len(v)}, not {system.size}")
    if system.eigenbasis_inverse is None:
        raise PreconditionError("stored eigenvectors are linearly dependent")
    X, den = system.eigenbasis_inverse
    coords = {lab: Fraction(c, den) for lab, c in zip(sorted(system.labels), mat_vec(X, v))}
    out = {lab: rational(c) for lab, c in coords.items()}
    for i, j in system._mates.items():
        D = system.labels[i].field_tag
        out[i] = QuadExtElem.of(coords[i] / 2, coords[j] / (2 * D), D)
        out[j] = out[i].conjugate()
    return out


def _local_content(vec, q: int, D: int) -> dict:
    """The valuations of the content ideal of an integral vector over
    Q(sqrt(D)) at the primes above q, as {tag: min_i v(vec_i)}."""
    vals = [dict(ideal_valuation(x, q, D)) for x in vec if not x.is_zero()]
    return {tag: min(v[tag] for v in vals) for tag in vals[0]}


def _denominator_primes(c: QuadExtElem, primes, D: int, content):
    """The primes q in `primes` at which some valuation of c is negative,
    with tags.

    c is a coefficient on a vector over Q(sqrt(D)).  For D != 1, content(q)
    gives that vector's local content at q; adding it to the valuations of c
    gives those of the coefficient on the content-free vector.  Rational
    vectors are primitive, so their content is 1.  The stored vectors are
    integral, so the correction only raises valuations and the candidate
    primes are those of c's denominator."""
    if c.is_zero():
        return []
    den = math.lcm(c.rational_part.denominator, c.surd_part.denominator)
    out = []
    for q in primes:
        if den % q:
            continue
        if D == 1:
            out.append((q, ""))
            continue
        try:
            shift = content(q)
        except UnsupportedCaseError:
            continue
        vals = [(tag, v + shift[tag]) for tag, v in ideal_valuation(c, q, D)]
        if len(vals) == 1:
            if vals[0][1] < 0:
                out.append((q, ""))
        else:
            out.extend((q, tag) for tag, v in vals if v < 0)
    return out


def _eig_congruent(system: EigenSystem, i, j, q: int, tag: str) -> bool:
    """lambda_i(T) = lambda_j(T) mod (the prime above) q for all stored T."""
    return all(divisible_at(system.eigenvalue(i, op) - system.eigenvalue(j, op), q, tag)
               for op in system.operator_names)


def scan_congruences_lemma(system: EigenSystem, probes=None, q_min: int = 11):
    """Denominator-lemma congruence scan.

    For each probe vector, expand in the eigenbasis; any prime q >= q_min
    with a negative-valuation coefficient nominates candidate label pairs
    (both labels must show the negative valuation), which are then verified
    against every stored operator.  A quadratic label's valuations are those
    on its content-free vector: the stored vector's local content at q is
    added, once computed per label and q.  Pairs involving residual-block
    labels are reported as candidates for the whole block.

    Each pair is reported once per q: untagged when it is congruent modulo
    q, or modulo both primes above a split q (whose product is q), else once
    per prime above q at which it is congruent.

    The coefficients are X v / den, halved and divided by D on a conjugate
    pair, so the candidates q are the primes of den, factored once: a prime
    of 2D alone reaches only quadratic labels, whose content rejects it.
    """
    if system.eigenbasis_inverse is None:
        raise PreconditionError("stored eigenvectors are linearly dependent")
    from .factoring import factorint
    primes = [q for q in factorint(abs(system.eigenbasis_inverse[1])) if q >= q_min]
    if probes is None:
        n = system.size
        probes = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    blocks = system.residual_blocks()
    block_of = {}
    for blk in blocks:
        for lab in blk:
            block_of[lab] = blk
    contents = {}

    def content(lab, q):
        if (lab, q) not in contents:
            rec = system.labels[lab]
            contents[lab, q] = _local_content(rec.vector, q, rec.field_tag)
        return contents[lab, q]

    # probes nominate the same pairs again and again; verify each once
    congruent = cache(lambda a, b, q, tag: _eig_congruent(system, a, b, q, tag))

    # (a, b, q) -> (the untagged report, the tags at which it was verified)
    found = {}

    def add(rep, tag):
        found.setdefault(rep.key()[:3], (rep, set()))[1].add(tag)

    for probe in probes:
        coeffs = expand_in_eigenbasis(probe, system)
        neg = {}
        for lab, c in coeffs.items():
            D = system.labels[lab].field_tag
            for q, tag in _denominator_primes(c, primes, D,
                                              lambda q: content(lab, q)):
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
                    if congruent(a, b, q, tag):
                        add(CongruenceReport(b, a, q, "", ("denominator-lemma",),
                                             system.operator_names), tag)
                for blk in sorted(blks):
                    if congruent(a, blk[0], q, tag):
                        add(CongruenceReport(a, blk, q, "",
                                             ("denominator-lemma", "residual-block-candidate"),
                                             system.operator_names), tag)
    reports = []
    for rep, tags in found.values():
        if "" in tags or {"q1", "q2"} <= tags:
            reports.append(rep)
        else:
            reports.extend(replace(rep, prime_tag=t) for t in sorted(tags))
    return sorted(reports, key=_scan_order)


def _scan_order(r: CongruenceReport):
    """Larger q first, then by key, with a single label compared as a
    one-label block so that labels and blocks in one slot are comparable."""
    a, b, q, tag = r.key()
    return (-q, a, b if isinstance(b, tuple) else (b,), tag)


def verify_vector_reduction(system: EigenSystem, i: int, j: int, q: int):
    """True iff v_i = c * v_j (mod q) for a scalar c != 0 mod q."""
    (vi, si), (vj, sj) = _parts(system.labels[i].vector), _parts(system.labels[j].vector)
    if any(si + sj):
        raise PreconditionError("rational-integral eigenvectors required")
    vi, vj = [int(x) for x in vi], [int(x) for x in vj]
    k = next((t for t, x in enumerate(vj) if x % q), None)
    if k is None:
        raise PreconditionError(f"v_{j} vanishes mod {q}; content not reduced?")
    c = vi[k] * pow(vj[k], -1, q) % q
    ok = all((a - c * b) % q == 0 for a, b in zip(vi, vj))
    return ok and c % q != 0, c


@dataclass(frozen=True)
class GcdReport:
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
        v = d.as_fraction() if d.is_rational() else d.field_norm()
        if v.denominator != 1:
            raise AssertionError(f"difference_gcd: labels {i} and {j} differ by "
                                 f"the non-integral {v} at {op}")
        g = math.gcd(g, abs(int(v)))
    if g == 0:
        return GcdReport(None, {}, True)
    from .factoring import factorint
    return GcdReport(g, factorint(g), False)


def congruence_report_json(reports):
    out = []
    for r in reports:
        out.append({"i": r.i,
                    "j": list(r.j) if isinstance(r.j, tuple) else r.j,
                    "q": r.q,
                    "prime": r.prime_tag or None,
                    "evidence": list(r.evidence)})
    return out
