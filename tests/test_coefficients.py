import pytest

from hermhecke.coefficients import (CoefficientStore, MissingCoefficientError,
                                    eta_product_coefficients, ramanujan_tau)
from hermhecke.quadfield import parse_quad, rational

# tau(p) reference values (classical)
TAU = {2: -24, 3: 252, 5: 4830, 7: -16744, 11: 534612, 13: -577738,
       691: None}


def test_eta_product_prefix():
    c = eta_product_coefficients(10)
    assert c[1:8] == [1, -24, 252, -1472, 4830, -6048, -16744]


def test_ramanujan_tau():
    for p, v in TAU.items():
        if v is not None:
            assert ramanujan_tau(p) == v
    for p in (0, 101):
        with pytest.raises(MissingCoefficientError, match=rf"tau\({p}\)"):
            ramanujan_tau(p)


def test_store_values(store):
    assert store.a("Delta", 2) == rational(-24)
    assert store.a("Delta", 3) == rational(252)
    assert store.a("f12", 2) == rational(78)
    assert store.a("f12", 3) == rational(-243)
    assert store.a("f10", 2) == rational(-36)
    assert store.a("f10", 3) == rational(-81)
    assert store.a("f8", 3) == rational(-27)
    assert store.a("f6", 2) == rational(-6)
    assert store.a("f6", 3) == rational(9)
    assert store.a("g11", 2) == parse_quad("12*sqrt(-5)")
    assert store.a("g11", 3) == parse_quad("-27+108*sqrt(-5)")
    assert store.a("g9", 2) == parse_quad("6*sqrt(-14)")
    assert store.a("g9", 3) == parse_quad("45-18*sqrt(-14)")


def test_store_u4_traces(store):
    assert store.u4_trace("D9,1") == rational(6208)
    assert store.u4_trace("D9,3") == rational(-1280)
    assert store.u4_trace("D11,5") == parse_quad("34+162*sqrt(193)")
    assert store.u4_trace("cD11,5") == store.u4_trace("D11,5").conjugate()


def test_populate_tau_consistency(store):
    # populate_tau validates eta-product values against the stored a_p
    store.populate_tau(limit=47)
    assert store.a("Delta", 47) == rational(ramanujan_tau(47))


def test_missing_coefficient(store):
    with pytest.raises(MissingCoefficientError):
        store.a("f12", 101)
    with pytest.raises(MissingCoefficientError):
        store.a("nosuchform", 2)


def test_nebentypus_norms(store):
    # |a_3|^2 = 3^(k-1) for the nebentypus forms
    for fid, k in (("g11", 11), ("g9", 9)):
        a3 = store.a(fid, 3)
        assert a3 * a3.conjugate() == rational(3 ** (k - 1))
