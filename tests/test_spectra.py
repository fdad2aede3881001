import dataclasses
import hashlib
import math
import random
import time
from fractions import Fraction

import pytest

from hermhecke import arthur, factoring, linalg, spectra
from hermhecke.quadfield import QuadExtElem, parse_quad, rational


def test_twenty_labels(system):
    assert sorted(system.labels) == list(range(1, 21))
    assert system.residual_blocks() == [(19, 20)]
    one_dim = [lab for lab, rec in system.labels.items() if rec.block == ()]
    assert len(one_dim) == 18


def test_quadratic_pair(system):
    assert system.eigenvalue(12, "t2") == parse_quad("23319+162*sqrt(193)")
    assert system.eigenvalue(13, "t2") == parse_quad("23319-162*sqrt(193)")
    assert system.eigenvalue(12, "t3") == parse_quad("4148+36*sqrt(193)")


def test_exactness_and_conjugacy(system):
    assert system.check_exactness()
    v12, v13 = system.labels[12].vector, system.labels[13].vector
    assert all(a.conjugate() == b for a, b in zip(v12, v13))


def _with_vector(system, lab, vector):
    labels = dict(system.labels)
    labels[lab] = dataclasses.replace(labels[lab], vector=tuple(vector))
    return spectra.EigenSystem(labels, system.operator_names, system.matrices)


@pytest.mark.parametrize("lab", [1, 12, 19])
def test_check_exactness_sees_a_perturbed_entry(system, lab):
    vec = list(system.labels[lab].vector)
    # label 1 and block label 19 hold integer vectors, label 12 a quadratic one
    assert all(isinstance(x, int) for x in vec) == (lab != 12)
    assert _with_vector(system, lab, vec).check_exactness()
    vec[3] += 1
    assert not _with_vector(system, lab, vec).check_exactness()


def test_vector_content_reduced(system):
    for lab in range(1, 19):
        vec = system.labels[lab].vector
        if system.labels[lab].field_tag == 1:
            assert math.gcd(*[int(x) for x in vec]) == 1


def test_primitive_quadratic_unit():
    # a vector with an obvious rational content
    vec = [QuadExtElem.of(6, 0, 193), QuadExtElem.of(0, 6, 193)]
    out = spectra._primitive_quadratic(vec)
    assert out[0] == QuadExtElem.of(1, 0, 193)
    assert out[1] == QuadExtElem.of(0, 1, 193)


def test_quadratic_vector_primitive(system):
    # coprime integral rational and surd parts; label 13 holds the conjugate
    v12 = system.labels[12].vector
    parts = [x.rational_part for x in v12] + [x.surd_part for x in v12]
    assert all(p.denominator == 1 for p in parts)
    assert math.gcd(*[int(p) for p in parts]) == 1


@pytest.fixture(scope="module")
def permuted_system(fx):
    # a permutation of all classes, so the conjugate pair's vectors have no
    # fixed zero pattern
    n = len(fx.t2_20x20)
    perm = list(range(n))
    random.Random(2).shuffle(perm)

    def conj(M):
        return [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]

    return spectra.eigensystem([conj(fx.t2_20x20), conj(fx.t3_20x20)],
                               operator_names=("t2", "t3"),
                               reference=fx.eigen_table)


@pytest.mark.parametrize("which", ["system", "permuted_system"])
def test_expansion_matches_solve_and_reconstructs(which, request):
    # the stored vectors form a basis, so rebuilding the probe exactly fixes
    # the coordinates: they are the solution of the basis system
    system = request.getfixturevalue(which)
    n = system.size
    labels = sorted(system.labels)
    basis = [[x if isinstance(x, QuadExtElem) else rational(x)
              for x in system.labels[lab].vector] for lab in labels]
    rng = random.Random(23)
    probes = [[int(i == j) for j in range(n)] for i in range(n)]
    probes += [[rng.randint(-9, 9) for _ in range(n)] for _ in range(5)]
    for probe in probes:
        coeffs = spectra.expand_in_eigenbasis(probe, system)
        image = [sum((coeffs[lab] * basis[k][i] for k, lab in enumerate(labels)),
                     rational(0)) for i in range(n)]
        assert image == probe


# sha256 of repr of each label's eigenvalues and vector, and of the scan
# reports; the scan does not depend on the class order
LABEL_DIGESTS = {
    "system": "de11cd13b1d77fdddaa986ddef91409b1fac24dc1a2a5807912255572f7a1c6b",
    "permuted_system": "b24239b9331328fd5fc7d96b36cf1c7e3b835c328affc4b7d5f414856f384442",
}
SCAN_DIGESTS = {
    2: "1cba4f3cd931b5d5cb896fbce918a2885a5f285066c1eef6cbd0bed7dd4105c4",
    5: "44b34293eebff58af1479b84ad3b0803a24b2aebc156d818482ba67067fefa99",
    7: "76002157e5910af4180c09e7dbd88f0aa1c008dbdba199ae98f953f6bac6b60c",
    11: "beb75cefaa3a2128c77d2e78b2607a78a9afd678298bb7c5699a3fe073ff1e7d",
}


def _digest(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


@pytest.mark.parametrize("which", sorted(LABEL_DIGESTS))
def test_pinned_labels(which, request):
    system = request.getfixturevalue(which)
    assert _digest([(lab, rec.eigenvalues, rec.vector)
                    for lab, rec in sorted(system.labels.items())]) == LABEL_DIGESTS[which]


@pytest.mark.parametrize("q_min", sorted(SCAN_DIGESTS))
@pytest.mark.parametrize("which", sorted(LABEL_DIGESTS))
def test_pinned_scans(which, q_min, request):
    system = request.getfixturevalue(which)
    assert _digest(spectra.scan_congruences_lemma(system, q_min=q_min)) == SCAN_DIGESTS[q_min]


def test_expansion_preconditions(system):
    with pytest.raises(spectra.PreconditionError):
        spectra.expand_in_eigenbasis([1] * (system.size - 1), system)
    one = spectra.eigensystem([[[1, 0], [0, 1]]])
    dependent = _with_vector(one, 2, one.labels[1].vector)
    with pytest.raises(spectra.PreconditionError):
        spectra.expand_in_eigenbasis([1, 0], dependent)


def test_scan_rejects_a_dependent_eigenbasis():
    one = spectra.eigensystem([[[1, 0], [0, 1]]])
    dependent = _with_vector(one, 2, one.labels[1].vector)
    # raised before any probe is expanded, even with none
    with pytest.raises(spectra.PreconditionError, match="linearly dependent"):
        spectra.scan_congruences_lemma(dependent, probes=[])


def test_scan_stable_under_probe_permutation(system):
    base = spectra.scan_congruences_lemma(system, q_min=11)
    n = system.size
    probes = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    random.Random(3).shuffle(probes)
    shuffled = spectra.scan_congruences_lemma(system, probes=probes, q_min=11)
    assert [r.key() for r in base] == [r.key() for r in shuffled]


def test_scan_stable_under_probe_rebasing(system):
    # random unimodular integer combinations preserve the span
    n = system.size
    rng = random.Random(11)
    probes = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(40):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        probes[i] = [a + c * b for a, b in zip(probes[i], probes[j])]
    base = spectra.scan_congruences_lemma(system, q_min=11)
    rebased = spectra.scan_congruences_lemma(system, probes=probes, q_min=11)
    assert {r.key() for r in base} == {r.key() for r in rebased}


def test_every_report_reverifies(system):
    for r in spectra.scan_congruences_lemma(system, q_min=11):
        j = r.j[0] if isinstance(r.j, tuple) else r.j
        assert spectra._eig_congruent(system, r.i, j, r.q, r.prime_tag)


@pytest.mark.parametrize("q_min, count", [(2, 345), (5, 72), (7, 44)])
def test_scan_below_eleven(system, q_min, count):
    # a label and a block can share a report slot once q_min is small; a
    # pair is reported once per q, untagged when congruent at both primes
    # above a split q
    reports = spectra.scan_congruences_lemma(system, q_min=q_min)
    assert len(reports) == count
    assert len({r.key()[:3] for r in reports}) == count
    assert any(isinstance(r.j, tuple) for r in reports)
    for r in reports:
        j = r.j[0] if isinstance(r.j, tuple) else r.j
        assert spectra._eig_congruent(system, r.i, j, r.q, r.prime_tag)


KEYS_AT_ELEVEN = [
    (1, 4, 1847, ""), (1, 9, 809, ""), (2, 8, 809, ""), (3, 7, 809, ""),
    (1, 2, 691, ""), (1, 3, 73, ""), (2, 5, 61, ""), (7, 12, 59, "q1"),
    (7, 13, 59, "q2"), (4, 6, 41, ""), (9, 12, 23, "q1"), (9, 13, 23, "q2"),
    (2, 3, 17, ""), (7, 8, 17, ""), (14, 15, 17, ""), (17, (19, 20), 13, ""),
    (11, 16, 11, "")]


def test_scan_keys_at_eleven(system):
    assert [r.key() for r in spectra.scan_congruences_lemma(system, q_min=11)] == KEYS_AT_ELEVEN


@pytest.mark.parametrize("seed", [2, 3, 13])
def test_full_class_permutation(fx, seed):
    # every class moves, the last one included; the eigenvector normalization
    # must not depend on the order
    n = len(fx.t2_20x20)
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert perm[-1] != n - 1

    def conj(M):
        return [[M[perm[i]][perm[j]] for j in range(n)] for i in range(n)]

    start = time.perf_counter()
    system = spectra.eigensystem([conj(fx.t2_20x20), conj(fx.t3_20x20)],
                                 operator_names=("t2", "t3"),
                                 reference=fx.eigen_table)
    assert time.perf_counter() - start < 30
    for row in fx.eigen_table:
        assert system.eigenvalue(row["label"], "t2") == row["t2"]
        assert system.eigenvalue(row["label"], "t3") == row["t3"]
    assert system.residual_blocks() == [(19, 20)]
    assert [r.key() for r in spectra.scan_congruences_lemma(system, q_min=11)] == KEYS_AT_ELEVEN


@pytest.fixture(scope="module")
def unreferenced(fx):
    """The fixture system labelled without a reference, and the number of
    quadratic vector normalizations its construction ran."""
    calls = []
    normalize = spectra._primitive_quadratic
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_primitive_quadratic",
                   lambda vec: calls.append(vec) or normalize(vec))
        system = spectra.eigensystem([fx.t2_20x20, fx.t3_20x20],
                                     operator_names=("t2", "t3"))
    return system, len(calls)


def test_unreferenced_labels_follow_eigenvalue_order(unreferenced):
    system, _ = unreferenced
    assert sorted(system.labels) == list(range(1, 21))
    # real order: 23319 + 162*sqrt(193) (about 25570) comes before 23805
    def real(x):
        return float(x.rational_part) + float(x.surd_part) * math.sqrt(x.D)

    order = [[real(system.eigenvalue(lab, op)) for op in ("t2", "t3")]
             for lab in range(1, 21)]
    assert order == sorted(order, reverse=True)
    first = [system.eigenvalue(lab, "t2") for lab in range(1, 21)]
    assert first.index(parse_quad("23319+162*sqrt(193)")) < first.index(rational(23805))
    blocks = system.residual_blocks()
    assert len(blocks) == 1 and len(blocks[0]) == 2


def test_compare_real_is_exact():
    # solutions of x^2 - 2y^2 = 1, so x - y*sqrt(2) = 1/(x + y*sqrt(2)) > 0:
    # about 7.5e-7 for the first, and 1.7e-14 for the second, where doubles
    # give the wrong sign
    for x, y in [(665857, 470832), (30122754096401, 21300003689580)]:
        big, small = rational(x), QuadExtElem.of(0, y, 2)
        assert spectra._compare_real(big, small) == 1
        assert spectra._compare_real(small, big) == -1
    # 1 + sqrt(2) (about 2.414) against 3 - sqrt(3) (about 1.268) and
    # 2 + sqrt(3)/2 (about 2.866)
    one_two = QuadExtElem.of(1, 1, 2)
    assert spectra._compare_real(one_two, QuadExtElem.of(3, -1, 3)) == 1
    assert spectra._compare_real(QuadExtElem.of(2, Fraction(1, 2), 3), one_two) == 1
    assert spectra._compare_real(one_two, one_two) == 0


def test_conjugate_pair_built_once(unreferenced):
    system, reductions = unreferenced
    assert reductions == 1
    quad = [rec for _, rec in sorted(system.labels.items()) if rec.field_tag != 1]
    assert len(quad) == 2
    assert all(a.conjugate() == b for a, b in zip(quad[0].vector, quad[1].vector))
    assert {op: v.conjugate() for op, v in quad[0].eigenvalues.items()} == quad[1].eigenvalues


def test_unreferenced_vectors_match_referenced(unreferenced, system):
    def vectors(sys_):
        out = {}
        for lab in sorted(sys_.labels):
            rec = sys_.labels[lab]
            key = tuple(str(rec.eigenvalues[op]) for op in ("t2", "t3"))
            out.setdefault(key, []).append(rec.vector)
        return out

    assert vectors(unreferenced[0]) == vectors(system)


def test_residual_block_inside_a_larger_first_eigenspace():
    # the identity's eigenspace is Z^3, the block is the all-ones matrix's
    # kernel: the sum-zero plane, which holds no standard basis vector
    system = spectra.eigensystem([[[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1] * 3] * 3])
    assert system.residual_blocks() == [(2, 3)]
    assert all(sum(system.labels[lab].vector) == 0 for lab in (2, 3))
    # the block basis spans the plane's integer points
    for probe in ([1, -1, 0], [0, 1, -1]):
        coeffs = spectra.expand_in_eigenbasis(probe, system)
        assert coeffs[1] == 0
        assert all(coeffs[lab].rational_part.denominator == 1 for lab in (2, 3))


def _diag(*blocks):
    n = sum(len(blk) for blk in blocks)
    out, at = [[0] * n for _ in range(n)], 0
    for blk in blocks:
        for i, row in enumerate(blk):
            out[at + i][at:at + len(row)] = row
        at += len(blk)
    return out


SQRT2 = [[0, 2], [1, 0]]          # eigenvalues +-sqrt(2)
ONE_SQRT2 = [[1, 2], [1, 1]]      # eigenvalues 1 +- sqrt(2)
I2, O2 = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
R2 = QuadExtElem.of(0, 1, 2)


@pytest.mark.parametrize("mats, tuples", [
    # the first operator is 1 on the plane of e1, e2, where the second has
    # eigenvalues +-sqrt(2): the pair splits the sum of both at c = 1
    ([[[1, 0, 0], [0, 1, 0], [0, 0, 5]], [[0, 2, 0], [1, 0, 0], [0, 0, 7]]],
     [(5, 7), (1, R2), (1, -R2)]),
    # the first operator is +-sqrt(2) on both pairs; the second separates them
    ([_diag(SQRT2, SQRT2), _diag(I2, O2)], [(R2, 1), (R2, 0), (-R2, 1), (-R2, 0)]),
    # at c = 1 both pairs have T-eigenvalues 1 +- sqrt(2) and share one
    # 4-dimensional kernel; c = 2 separates them
    ([_diag(SQRT2, ONE_SQRT2, O2), _diag(I2, O2, [[0, 0], [0, 1]])],
     [(1 + R2, 0), (R2, 1), (0, 1), (0, 0), (1 - R2, 0), (-R2, 1)]),
], ids=["inside-a-rational-eigenspace", "meeting-at-c-0", "meeting-at-c-1"])
def test_conjugate_pairs_split_by_a_later_combination(mats, tuples):
    system = spectra.eigensystem(mats)
    assert [tuple(rec.eigenvalues.values())
            for _, rec in sorted(system.labels.items())] == tuples
    assert system.check_exactness()


def test_cubic_factors_rejected():
    # block-diag of the companions of x^3 - 2 and x^3 - 3: the char poly's
    # one factor of degree >= 3 is their product, of degree 6
    M = [[0, 0, 2, 0, 0, 0], [1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 3], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]]
    with pytest.raises(spectra.UnsupportedFieldError,
                       match="factor of degree 6 with no linear or quadratic factor"):
        spectra.eigensystem([M])


@pytest.mark.parametrize("flip", [False, True])
def test_multi_dimensional_quadratic_eigenspace(flip):
    # every operator is scalar on the 2-dimensional sqrt(2)-eigenspace
    mats = [_diag(I2, I2), _diag(SQRT2, SQRT2)]
    with pytest.raises(spectra.UnsupportedFieldError):
        spectra.eigensystem(mats[::-1] if flip else mats)


def test_commutation_precondition():
    with pytest.raises(spectra.PreconditionError):
        spectra.eigensystem([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


@pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5], ids=["fraction", "float"])
def test_non_integer_entry_rejected(entry):
    second = [[1, 0, 0], [0, 1, 0], [0, entry, 1]]
    with pytest.raises(spectra.PreconditionError, match=r"operator 1 .* row 2, column 1"):
        spectra.eigensystem([[[2, 0, 0], [0, 1, 0], [0, 0, 1]], second])


@pytest.mark.parametrize("mats", [
    # they commute, but I + c N has eigenspaces filling only a line of Q^2
    [[[1, 0], [0, 1]], [[1, 1], [0, 1]]],
    [[[1, 1], [0, 1]], [[1, 0], [0, 1]]],
    # I + E13 and I + E12: every combination is 1 + c^t on the plane
    # x3 = -c x2, where I + E12 is not scalar, so the loop runs to its bound
    [[[1, 0, 1], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]]],
], ids=["identity-first", "jordan-first", "loop-bound"])
def test_not_simultaneously_diagonalizable(mats):
    with pytest.raises(spectra.PreconditionError):
        spectra.eigensystem(mats)


def test_first_operator_separates_the_fixture(fx, monkeypatch):
    calls = []
    factors = spectra.charpoly_factors
    monkeypatch.setattr(spectra, "charpoly_factors",
                        lambda A: calls.append(A) or factors(A))
    spectra.eigensystem([fx.t2_20x20, fx.t3_20x20], operator_names=("t2", "t3"))
    assert calls == [fx.t2_20x20]


def test_unnamed_labels_sorted():
    # without a reference, labels follow decreasing first-operator eigenvalue
    sys2 = spectra.eigensystem([[[2, 0], [0, 5]], [[1, 0], [0, 1]]])
    assert sys2.eigenvalue(1, "T0").as_fraction() == 5
    assert sys2.eigenvalue(2, "T0").as_fraction() == 2


def test_unnamed_labels_sorted_across_fields():
    # eigenvalues +-sqrt(2) and +-sqrt(3) lie in two quadratic fields
    M = [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 3], [0, 0, 1, 0]]
    system = spectra.eigensystem([M])
    assert [system.eigenvalue(lab, "T0") for lab in range(1, 5)] == [
        QuadExtElem.of(0, 1, 3), QuadExtElem.of(0, 1, 2),
        QuadExtElem.of(0, -1, 2), QuadExtElem.of(0, -1, 3)]


def test_difference_gcd_sentinel(system):
    assert spectra.difference_gcd(system, 19, 20).infinite
    assert spectra.difference_gcd(system, 2, 1).value == 691


def test_difference_gcd_of_a_conjugate_pair(system):
    # the differences 324*sqrt(193) and 72*sqrt(193) have norms -324^2*193
    # and -72^2*193
    report = spectra.difference_gcd(system, 12, 13)
    assert report.value == 250128 == 2 ** 4 * 3 ** 4 * 193
    assert report.factorization == {2: 4, 3: 4, 193: 1}


def test_denominator_primes_at_an_inert_prime():
    # 5 is inert in Q(sqrt(193)): one prime above it, reported untagged
    c = QuadExtElem.of(Fraction(1, 5), Fraction(2, 5), 193)
    assert spectra._denominator_primes(c, [5, 7], 193, lambda q: {"q": 0}) == [(5, "")]
    # a local content of 5 on the vector cancels the denominator
    assert spectra._denominator_primes(c, [5, 7], 193, lambda q: {"q": 1}) == []


def _companion(coeffs):
    # the companion matrix of a monic polynomial, coefficients lowest first
    d = len(coeffs) - 1
    return [[int(i == j + 1) if j < d - 1 else -coeffs[i] for j in range(d)]
            for i in range(d)]


def _simple_spectrum_matrix(rng, n):
    """A seeded integer matrix with distinct linear and irreducible quadratic
    characteristic factors, real or not: their companions, conjugated by a
    unimodular U."""
    blocks, factors, size = [], set(), 0
    while size < n:
        if n - size >= 2 and rng.random() < 0.5:
            f = (rng.randint(-9, 9), rng.randint(-9, 9), 1)
            disc = f[1] ** 2 - 4 * f[0]
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                continue
        else:
            f = (rng.randint(-9, 9), 1)
        if f not in factors:
            factors.add(f)
            blocks.append(_companion(f))
            size += len(f) - 1
    B = _diag(*blocks)
    lower = [[int(i == j) or (rng.randint(-2, 2) if i > j else 0) for j in range(n)]
             for i in range(n)]
    upper = [[int(i == j) or (rng.randint(-2, 2) if i < j else 0) for j in range(n)]
             for i in range(n)]
    U = linalg.mat_mul(lower, upper)
    X, den = linalg.solve_right(U, [[int(i == j) for j in range(n)] for i in range(n)])
    assert abs(den) == 1
    return linalg.mat_mul(linalg.mat_mul(U, B), [[den * x for x in row] for row in X])


def _kernel_basis_records(T, monkeypatch):
    # reported as repeated, every factor takes the kernel_basis route
    factors = spectra.charpoly_factors
    with monkeypatch.context() as mp:
        mp.setattr(spectra, "charpoly_factors", lambda A: [(f, 2) for f, _ in factors(A)])
        return spectra._decompose([T], T)


@pytest.mark.parametrize("seed", range(12))
def test_simple_factor_vectors_match_kernel_basis(seed, monkeypatch):
    rng = random.Random(seed)
    T = _simple_spectrum_matrix(rng, rng.randint(2, 7))
    assert all(mult == 1 for _, mult in spectra.charpoly_factors(T))
    calls = []
    kernel = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda A: calls.append(A) or kernel(A))
    records = spectra._decompose([T], T)
    assert calls == []
    monkeypatch.undo()
    assert records == _kernel_basis_records(T, monkeypatch)


def test_simple_factor_vectors_past_a_vanishing_first_column(monkeypatch):
    # block-diagonal: for a factor of a later block, g(T) e_0 = 0, since
    # g = chi / f kills the first block, so its vector comes from e_1 or later
    T = _diag([[3]], [[2, 1], [1, 4]], SQRT2, [[-1]], ONE_SQRT2)
    chi = linalg._charpoly(T)
    factors = [f for f, _ in spectra.charpoly_factors(T)]
    for f in factors:
        col, v = [0] * len(T), [int(i == 0) for i in range(len(T))]
        for c in factoring._divmod(chi, f)[0]:
            col, v = [x + c * y for x, y in zip(col, v)], linalg.mat_vec(T, v)
        assert any(col) == (f == [-3, 1])
    records = spectra._decompose([T], T)
    assert records == _kernel_basis_records(T, monkeypatch)
    assert len(records) == len(T) and all(rec[2] == 1 for rec in records)


def test_kernel_basis_only_for_the_repeated_factor(fx, monkeypatch):
    calls = []
    kernel = linalg.kernel_basis
    monkeypatch.setattr(linalg, "kernel_basis", lambda A: calls.append(A) or kernel(A))
    spectra.eigensystem([fx.t2_20x20, fx.t3_20x20], operator_names=("t2", "t3"))
    assert len(calls) == 1


def test_check_exactness_with_half_integral_eigenvalues():
    # [[0, 1], [1, 1]] has the eigenvalues (1 +- sqrt(5)) / 2
    system = spectra.eigensystem([[[0, 1], [1, 1]]])
    assert system.eigenvalue(1, "T0") == QuadExtElem.of(Fraction(1, 2), Fraction(1, 2), 5)
    assert system.check_exactness()
    for shift in (Fraction(1, 2), QuadExtElem.of(0, Fraction(1, 2), 5)):
        labels = dict(system.labels)
        rec = labels[1]
        labels[1] = dataclasses.replace(rec, eigenvalues={"T0": rec.eigenvalues["T0"] + shift})
        assert not spectra.EigenSystem(labels, system.operator_names,
                                       system.matrices).check_exactness()


@pytest.fixture
def fraction_count(monkeypatch):
    """The number of Fractions made since the fixture was set up."""
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert Fraction(1, 2) and len(made) == 1
    made.clear()
    return made


def test_the_spectral_layer_makes_no_fraction(fx, system, ideals, fraction_count):
    # Q(sqrt(D)) is in ints: eigenvalue reconstruction and the congruence
    # scan make no Fraction, not even one per operation
    report = arthur.verify_table(fx.store, fx.eigen_table, ideals)
    assert set(report["t2"].values()) == {"match"}
    assert spectra.scan_congruences_lemma(system, q_min=11)
    assert len(fraction_count) == 0
