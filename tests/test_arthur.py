from fractions import Fraction

import pytest

from hermhecke import arthur
from hermhecke.coefficients import CoefficientStore
from hermhecke.eisenstein import classify_prime, ideal_above
from hermhecke.quadfield import parse_quad, rational

P2 = ideal_above(2)
P3 = ideal_above(3)


def ev(text, ideal, store):
    return arthur.eigenvalue_at(arthur.parse_parameter(text), ideal, store)


# --- grammar ---------------------------------------------------------------

def test_parse_examples():
    p = arthur.parse_parameter("D11 + [10]")
    assert p.dimension == 12
    p19 = arthur.parse_parameter("3D5*psi6 + psi6[4] + cpsi6[6]")
    assert p19.dimension == 12
    with pytest.raises(arthur.ParameterError):
        arthur.parse_parameter("[11]")
    with pytest.raises(arthur.ParameterError):
        arthur.parse_parameter("D11 + X9")
    with pytest.raises(arthur.ParameterError):
        arthur.parse_parameter("D11 + [10")


def test_3d6_expands_to_psi_pair():
    p = arthur.parse_parameter("3D6[6]")
    kinds = sorted(c.kind for c in p.constituents)
    assert kinds == sorted([arthur.PSI6, arthur.CPSI6])
    assert all(c.d == 6 for c in p.constituents)


def test_conjugate_parameter():
    p19 = arthur.parse_parameter("3D5*psi6 + psi6[4] + cpsi6[6]")
    p20 = arthur.parse_parameter("3D5*cpsi6 + cpsi6[4] + psi6[6]")
    assert p19.conjugate() == p20


# --- infinity exponents ------------------------------------------------------

def test_infinity_exponents_A1():
    p = arthur.parse_parameter("[12]")
    assert sorted(arthur.infinity_exponents(p)) == sorted(arthur.STANDARD_EXPONENTS)


def test_infinity_exponents_A7_pieces():
    # doubled exponents: 3D11 gives +/-11; 3D8[2] gives +/-9, +/-7;
    # [6] gives +/-5, +/-3, +/-1
    p = arthur.parse_parameter("3D11 + 3D8[2] + [6]")
    assert sorted(arthur.infinity_exponents(p)) == \
        [-11, -9, -7, -5, -3, -1, 1, 3, 5, 7, 9, 11]


def test_infinity_exponents_all_rows(fx):
    for row in fx.eigen_table:
        p = arthur.parse_parameter(row["parameter"])
        assert arthur.check_infinity_type(p), row["label"]


def test_infinity_mutation_fails():
    # [10] -> [9] breaks both the dimension and the exponent multiset
    with pytest.raises(arthur.ParameterError):
        arthur.parse_parameter("D11 + [9]")
    # dimension-preserving mutation with wrong exponents
    p = arthur.parse_parameter("D11 + 3D9 + [8]")
    q = arthur.parse_parameter("D11 + 3D7 + [8]")
    assert arthur.check_infinity_type(p)
    assert not arthur.check_infinity_type(q)


# --- worked eigenvalue displays, T_(2) --------------------------------------

def test_t2_row1(store):
    assert ev("[12]", P2, store) == rational(5593770)
    assert rational((4 ** 12 - 1) // 3 + (2 ** 12 - 1) // 3) == rational(5593770)


def test_t2_row2(store):
    # ((-24)^2 - 2*2^11) + 4*(4^10-1)/3 + (2^12-1)/3; the printed total in the
    # proof has two digits transposed, the table value 1395945 is correct
    val = ((-24) ** 2 - 2 * 2 ** 11) + 4 * ((4 ** 10 - 1) // 3) + (2 ** 12 - 1) // 3
    assert val == 1395945
    assert ev("D11 + [10]", P2, store) == rational(1395945)


def test_t2_row7(store):
    val = (78 ** 2 - 2 * 2 ** 11) \
        + 4 * ((6 ** 2 * -14) + 2 * 2 ** 8) * (1 + 4) \
        + 4 ** 3 * ((4 ** 6 - 1) // 3) + (2 ** 12 - 1) // 3
    # (6 sqrt(-14))^2 = -504
    assert val == 90873
    assert ev("3D11 + 3D8[2] + [6]", P2, store) == rational(90873)


def test_t2_row17(store):
    val = (2 * 2 ** 6) * ((4 ** 6 - 1) // 3) + (2 ** 12 - 1) // 3
    assert val == 176085
    assert ev("3D6[6]", P2, store) == rational(176085)


def test_t2_row19(store):
    val = ((-6) ** 2 - 2 * 2 ** 5) * 2 ** 6 + 4 * ((4 ** 4 - 1) // 3) * 2 ** 6 \
        + ((4 ** 6 - 1) // 3) * 2 ** 6 + (2 ** 12 - 1) // 3
    assert val == 108693
    assert ev("3D5*psi6 + psi6[4] + cpsi6[6]", P2, store) == rational(108693)
    assert ev("3D5*cpsi6 + cpsi6[4] + psi6[6]", P2, store) == rational(108693)


def test_t2_u4_rows(store):
    # 4^{11/2} tr = 4*(1872 - 2^6*(2^3-2^2+2-1)) = 6208 for D9,1
    assert 4 * (1872 - 2 ** 6 * (2 ** 3 - 2 ** 2 + 2 - 1)) == 6208
    # row 18: Delta11 + D9,1 + 3D5[3]
    val = ((-24) ** 2 - 2 * 2 ** 11) + 6208 \
        + 16 * ((-6) ** 2 - 2 * 2 ** 5) * (1 + 4 + 4 ** 2) + (2 ** 12 - 1) // 3
    assert val == -5355
    assert ev("D11 + D9,1 + 3D5[3]", P2, store) == rational(-5355)
    # D9,3: 4*(0 - 2^6*(2^3-2^2+2-1)) = -1280; row 16
    assert 4 * (0 - 2 ** 6 * (2 ** 3 - 2 ** 2 + 2 - 1)) == -1280
    val16 = ((-24) ** 2 - 2 * 2 ** 11) - 1280 + 16 * (2 * 2 ** 6) * (1 + 4) \
        + 2 ** 10 * ((4 ** 2 - 1) // 3) + (2 ** 12 - 1) // 3
    assert val16 == 11925
    assert ev("D11 + D9,3 + 3D6[2] + [2]", P2, store) == rational(11925)
    # rows 12/13: trace fixture 34 +/- 162 sqrt(193), consistent with
    # tr(T_(2)) = 2628 on the 2-dimensional space (1314 +/- 162 sqrt(193) each
    # including the 2^8*(2^3-2^2+2-1) constant)
    lam12 = ev("D11,5 + 3D8[2] + [4]", P2, store)
    lam13 = ev("cD11,5 + 3D8[2] + [4]", P2, store)
    assert lam12 == parse_quad("23319+162*sqrt(193)")
    assert lam13 == lam12.conjugate()
    assert (lam12 + lam13).as_fraction() == 2 * 23319


def test_u4_trace_consistency(store):
    # 4^{11/2} tr + 2^8(2^3-2^2+2-1) = 1314 +/- 162 sqrt(193); the two traces
    # sum compatibly with tr(T_(2)) = 2628 on M(V_{4,2}, K_L)
    t = store.u4_trace("D11,5")
    lhs = t + rational(2 ** 8 * (2 ** 3 - 2 ** 2 + 2 - 1))
    assert lhs == parse_quad("1314+162*sqrt(193)")
    assert (lhs + lhs.conjugate()).as_fraction() == 2628


def test_t2_alternative_parameter_row18(store):
    # D9,3[3] reproduces the same T_(2) eigenvalue as the table's row-18
    # parameter: (-1280)(4^-1 + 1 + 4) + (2^12-1)/3 = -5355
    assert Fraction(-1280) * (Fraction(1, 4) + 1 + 4) + Fraction(2 ** 12 - 1, 3) \
        == -5355


# --- worked eigenvalue displays, T_(sqrt(-3)) --------------------------------

def test_t3_row1(store):
    assert (3 ** 12 - 1) // 2 + 3 ** 6 - 1 == 266448
    assert ev("[12]", P3, store) == rational(266448)


def test_t3_row2(store):
    assert 252 + 3 * ((3 ** 10 - 1) // 2) + 3 ** 6 - 1 == 89552
    assert ev("D11 + [10]", P3, store) == rational(89552)


def test_t3_row6(store):
    val = (-27 - 27) * (1 + 3) + 3 ** 2 * (-3 ** 3 - 3 ** 4) \
        + 3 ** 3 * ((3 ** 6 - 1) // 2) + 3 ** 6 - 1
    assert val == 9368
    assert ev("3D10[2] + 3D7 + [6]", P3, store) == rational(9368)


def test_t3_row7(store):
    val = (-3 ** 5 - 3 ** 6) + 3 * (45 + 45) * (1 + 3) \
        + 3 ** 3 * ((3 ** 6 - 1) // 2) + 3 ** 6 - 1
    assert val == 10664
    assert ev("3D11 + 3D8[2] + [6]", P3, store) == rational(10664)


def test_t3_row19(store):
    val = (3 ** 2 + 3 ** 3) * (-27) + 3 * (-27) * ((3 ** 4 - 1) // 2) \
        + (-27) * ((3 ** 6 - 1) // 2) + 3 ** 6 - 1
    assert val == -13312
    assert ev("3D5*psi6 + psi6[4] + cpsi6[6]", P3, store) == rational(-13312)


def test_t3_ramified_diag_values(store):
    # 3^{(k-1)/2} t = diag(a3, 3^{k-1}/a3); traces for k = 6, 8, 10, 12
    for fid, k, want in (("f6", 6, 3 ** 2 + 3 ** 3), ("f8", 8, -3 ** 3 - 3 ** 4),
                         ("f10", 10, -3 ** 4 - 3 ** 5), ("f12", 12, -3 ** 5 - 3 ** 6)):
        a3 = store.a(fid, 3).as_fraction()
        assert a3 + Fraction(3 ** (k - 1)) / a3 == want


def test_t3_u4_unsupported(store):
    with pytest.raises(arthur.UnsupportedCaseError):
        ev("D11 + D9,1 + 3D5[3]", P3, store)


# --- verify_table ------------------------------------------------------------

def test_verify_table(fx, store, ideals):
    report = arthur.verify_table(store, fx.eigen_table, ideals)
    t2 = report["t2"]
    assert all(v == "match" for v in t2.values())
    t3 = report["t3"]
    assert {lab for lab, v in t3.items() if v == "excluded"} == {12, 13, 16, 18}
    assert all(v == "match" for lab, v in t3.items()
               if lab not in (12, 13, 16, 18))


def test_verify_table_sensitivity(fx, ideals):
    import copy
    broken = copy.deepcopy(CoefficientStore.load())
    broken.forms["Delta"].coeffs[2] = rational(-23)
    report = arthur.verify_table(broken, fx.eigen_table, ideals)
    assert report["t2"][2] == "mismatch"


# --- additivity and conjugation symmetry -------------------------------------

def test_contribution_additivity(store):
    p = arthur.parse_parameter("D11 + 3D9 + [8]")
    full = arthur.eigenvalue_at(p, P2, store)
    partial = sum((arthur.constituent_contribution(c, P2, store)
                   for c in p.constituents), rational(0))
    assert full == partial + rational(arthur.constant_term(P2))


def test_conjugation_symmetry(fx, store):
    # swapping psi6 <-> cpsi6 fixes the eigenvalue at ideals stable under
    # conjugation; rows 12/13 are excluded since their conjugation also swaps
    # the two sqrt(193)-conjugate U4 traces
    for row in fx.eigen_table:
        if row["label"] in (12, 13):
            continue
        p = arthur.parse_parameter(row["parameter"])
        q = p.conjugate()
        for ideal in (P2, P3):
            try:
                assert arthur.eigenvalue_at(p, ideal, store) == \
                    arthur.eigenvalue_at(q, ideal, store)
            except arthur.UnsupportedCaseError:
                pass


# --- parameter congruences -----------------------------------------------------

CONGRUENCE_PAIRS = [
    ("D11 + [10]", "[12]", 691),
    ("3D10[2] + [8]", "[12]", 1847),
    ("3D8[4] + [4]", "[12]", 809),
    ("3D11 + [10]", "[12]", 73),
    ("D11 + 3D9 + [8]", "D11 + [10]", 61),
    ("3D10[2] + 3D7 + [6]", "3D10[2] + [8]", 41),
    ("3D11 + [10]", "D11 + [10]", 17),
    ("D11 + D9,3 + 3D6[2] + [2]", "D11 + 3D9 + 3D6[2] + [4]", 11),
    ("3D6[6]", "3D5*psi6 + psi6[4] + cpsi6[6]", 13),
]


def test_parameter_congruences(store):
    ideals = {"(2)": P2, "(sqrt-3)": P3}
    for ti, tj, q in CONGRUENCE_PAIRS:
        pi, pj = arthur.parse_parameter(ti), arthur.parse_parameter(tj)
        out = arthur.verify_parameter_congruence(pi, pj, q, ideals, store)
        for tag, res in out.items():
            assert res is True or isinstance(res, str), (ti, tj, q, tag, res)


def test_ramanujan_at_split_and_inert(store):
    # row 2 vs row 1 mod 691 at every good prime p <= 47 is equivalent to
    # tau(p) = 1 + p^11 mod 691
    store.populate_tau(limit=47)
    pi = arthur.parse_parameter("D11 + [10]")
    pj = arthur.parse_parameter("[12]")
    for p in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        out = arthur.verify_parameter_congruence(
            pi, pj, 691, {str(p): ideal_above(p)}, store)
        assert out[str(p)] is True, p
        from hermhecke.coefficients import ramanujan_tau
        assert (ramanujan_tau(p) - (1 + p ** 11)) % 691 == 0


def test_atkin_lehner_rule():
    assert arthur.atkin_lehner_a3(12, -1) == 3 ** 5
    assert arthur.atkin_lehner_a3(6, -1) == 9
    with pytest.raises(ValueError):
        arthur.atkin_lehner_a3(11, 1)


def test_level_raising_sanity(store):
    # a3(Delta) = 252 = -(3^5 + 3^6) mod 17
    assert (252 + 3 ** 5 + 3 ** 6) % 17 == 0


# --- Sym^2 Euler factor --------------------------------------------------------

def test_sym2_euler_factor(store):
    a3 = store.a("g9", 3)
    coeffs, evaluate = arthur.sym2_euler_factor_at_3(9, a3)
    assert coeffs == [1, 5022, 43046721]
    assert evaluate(12) == Fraction(2 ** 5 * 23, 3 ** 6)
    assert evaluate(14) == Fraction(2 ** 5 * 5 ** 3 * 7 * 19, 3 ** 12)
    with pytest.raises(ValueError):
        arthur.sym2_euler_factor_at_3(9, rational(5))


# --- branches the reference table does not reach -----------------------------

def test_trivial_block_at_both_primes_above_7(store):
    # [12] at a split prime: tau = 1, w = 0 and e = 11 - 11 = 0, so the
    # eigenvalue is 1 + 7 + ... + 7^11 = (7^12 - 1)/6 at each prime above 7
    split_type, primes = classify_prime(7)
    assert split_type == "split" and len(primes) == 2
    assert primes[1] == primes[0].conjugate()
    for P in primes:
        assert ev("[12]", P, store) == 2306881200 == (7 ** 12 - 1) // 6


def test_negative_exponent_at_an_inert_prime(store):
    # psi6[7] at (2): psi6 = 2^6, w = 6 and e = 11 - 6 - 6 = -1, so the term
    # is 2^6 * 2^-1 * (1 + 4 + ... + 4^6) = 32 * 5461; [5] adds
    # 2^7 * (1 + 4 + ... + 4^4) and the constant term (2^12 - 1)/3
    param = arthur.parse_parameter("psi6[7] + [5]")
    psi, _ = param.constituents
    assert 11 - 6 - (psi.d - 1) == -1
    assert arthur.constituent_contribution(psi, P2, store) == 174752 == 32 * 5461
    assert arthur.eigenvalue_at(param, P2, store) == 219765 == 174752 + 128 * 341 + 1365
