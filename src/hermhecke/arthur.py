"""Global Arthur parameters: parsing, infinity-type exponents, and
reconstruction of Hecke eigenvalues at split/inert/ramified primes.

A parameter is a formal sum of constituents Pi[d] with total dimension 12.
The eigenvalue of T_p is (Np)^(11/2) tr(t_p) plus a constant depending on
the split type; each constituent contributes a closed-form term determined
by its coefficient data, its "motivic weight" w (the doubled top infinity
exponent of the unsmeared constituent) and the smear length d.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction

from .coefficients import CoefficientStore
from .eisenstein import EisIdeal, EisensteinInt, is_prime
from .errors import MissingCoefficientError, ParameterError, UnsupportedCaseError
from .quadfield import QuadExtElem, divisible_at, rational


# kinds of constituents
ELL1 = "elliptic-level1"        # level-1 eigenform, weight k
ELL3 = "elliptic-level3"        # level-3 trivial-character eigenform, weight k even
ELL3NEB = "elliptic-level3-neb" # level-3 nebentypus eigenform, weight k odd
PSI6 = "psi6"
CPSI6 = "cpsi6"
U4 = "u4form"
TRIV = "trivial-block"


@dataclass(frozen=True)
class ArthurConstituent:
    kind: str
    d: int = 1               # smear length [d]
    weight: int = 0          # elliptic weight k; 0 otherwise
    form_id: str = ""        # coefficient-store key (elliptic and U4 kinds)
    ab: tuple = ()           # (a, b) for U4 kinds
    twist: str = ""          # "", "psi6" or "cpsi6"

    @property
    def base_dim(self) -> int:
        return {ELL1: 2, ELL3: 2, ELL3NEB: 2, PSI6: 1, CPSI6: 1, U4: 4, TRIV: 1}[self.kind]

    @property
    def dimension(self) -> int:
        return self.base_dim * self.d

    def base_exponents(self) -> list:
        """Doubled infinity exponents of the unsmeared constituent."""
        if self.kind in (ELL1, ELL3, ELL3NEB):
            exps = [self.weight - 1, 1 - self.weight]
        elif self.kind == PSI6:
            exps = [-6]
        elif self.kind == CPSI6:
            exps = [6]
        elif self.kind == U4:
            a, b = self.ab
            exps = [2 * a + 3, 2 * b + 1, -2 * b - 1, -2 * a - 3]
        else:
            exps = [0]
        if self.twist == "psi6":
            exps = [e - 6 for e in exps]
        elif self.twist == "cpsi6":
            exps = [e + 6 for e in exps]
        return exps


@dataclass(frozen=True)
class ArthurParameter:
    constituents: tuple

    @property
    def dimension(self) -> int:
        return sum(c.dimension for c in self.constituents)

    def conjugate(self) -> "ArthurParameter":
        swap = {PSI6: CPSI6, CPSI6: PSI6}
        twists = {"psi6": "cpsi6", "cpsi6": "psi6", "": ""}
        forms = {"D11,5": "cD11,5", "cD11,5": "D11,5"}
        out = []
        for c in self.constituents:
            out.append(replace(c, kind=swap.get(c.kind, c.kind),
                               twist=twists[c.twist],
                               form_id=forms.get(c.form_id, c.form_id)))
        return ArthurParameter(tuple(out))


# "3D{m}" for level-3 forms: m = k-1 odd means trivial character (k even),
# m even means nebentypus (k odd).  3D6 abbreviates psi6 + cpsi6.
_LEVEL3_FORMS = {11: "f12", 9: "f10", 7: "f8", 5: "f6", 10: "g11", 8: "g9"}
_U4_FORMS = {"D9,1": (3, 0), "D9,3": (3, 1), "D11,5": (4, 2), "cD11,5": (4, 2)}

_TERM_RE = re.compile(
    r"^(?P<atom>c?D\d+(?:,\d+)?|3D\d+|psi6|cpsi6)?"
    r"(?:\*(?P<twist>psi6|cpsi6))?"
    r"(?:\[(?P<d>\d+)\])?$")


def _parse_term(term: str) -> list:
    m = _TERM_RE.match(term)
    if not m or (m.group("atom") is None and m.group("d") is None):
        raise ParameterError(f"malformed term {term!r}")
    atom, twist, d = m.group("atom"), m.group("twist") or "", int(m.group("d") or 1)
    if d < 1:
        raise ParameterError(f"bracket [{d}] in {term!r}")
    if atom is None:
        if twist:
            raise ParameterError(f"cannot twist a bare bracket: {term!r}")
        return [ArthurConstituent(TRIV, d=d)]
    if atom == "D11":
        return [ArthurConstituent(ELL1, d=d, weight=12, form_id="Delta", twist=twist)]
    if atom in ("psi6", "cpsi6"):
        return [ArthurConstituent(PSI6 if atom == "psi6" else CPSI6, d=d, twist=twist)]
    if atom in _U4_FORMS:
        return [ArthurConstituent(U4, d=d, form_id=atom, ab=_U4_FORMS[atom], twist=twist)]
    if atom.startswith("3D"):
        mm = int(atom[2:])
        if mm == 6:
            # shorthand for psi6 + cpsi6, sharing the bracket and twist
            return [ArthurConstituent(PSI6, d=d, twist=twist),
                    ArthurConstituent(CPSI6, d=d, twist=twist)]
        if mm not in _LEVEL3_FORMS:
            raise ParameterError(f"unknown atom {atom!r}")
        kind = ELL3 if mm % 2 == 1 else ELL3NEB
        return [ArthurConstituent(kind, d=d, weight=mm + 1,
                                  form_id=_LEVEL3_FORMS[mm], twist=twist)]
    raise ParameterError(f"unknown atom {atom!r}")


def parse_parameter(text: str) -> ArthurParameter:
    terms = [t.strip() for t in text.replace(" ", "").split("+")]
    if not terms or terms == [""]:
        raise ParameterError("empty parameter")
    constituents = []
    for t in terms:
        constituents.extend(_parse_term(t))
    param = ArthurParameter(tuple(constituents))
    if param.dimension != 12:
        raise ParameterError(f"total dimension {param.dimension} != 12 in {text!r}")
    return param


def infinity_exponents(param: ArthurParameter) -> list:
    """Sorted doubled infinity exponents (each half-integer e appears as 2e)."""
    out = []
    for c in param.constituents:
        offsets = [c.d - 1 - 2 * j for j in range(c.d)]
        for e in c.base_exponents():
            out.extend(e + off for off in offsets)
    return sorted(out)


STANDARD_EXPONENTS = sorted([e for k in (1, 3, 5, 7, 9, 11) for e in (k, -k)])


def check_infinity_type(param: ArthurParameter) -> bool:
    return infinity_exponents(param) == STANDARD_EXPONENTS


def _geom_sum(x: int, d: int) -> int:
    return sum(x ** j for j in range(d))


def _psi_value(kind: str, ideal: EisIdeal) -> QuadExtElem:
    """psi6 (or its conjugate) evaluated at a prime ideal, as alpha^6.

    The sixth power kills the unit ambiguity of the generator.  At inert and
    ramified primes the value is rational (p^6 and -27); at split primes it
    lies in Q(sqrt(-3)).
    """
    gen = ideal.generator if kind == PSI6 else ideal.generator.conj()
    alpha6 = EisensteinInt(1, 0)
    for _ in range(6):
        alpha6 = alpha6 * gen
    # a + b*omega = (a - b/2) + (b/2) sqrt(-3)
    a, b = alpha6.a, alpha6.b
    return QuadExtElem.of(Fraction(2 * a - b, 2), Fraction(b, 2), -3)


def _tau_and_weight(c: ArthurConstituent, ideal: EisIdeal, store: CoefficientStore):
    """Normalized base trace (times (Nfp)^(w/2)) and motivic weight w."""
    p, kind = ideal.p, ideal.split_type
    if c.kind == TRIV:
        tau, w = rational(1), 0
    elif c.kind in (PSI6, CPSI6):
        tau, w = _psi_value(c.kind, ideal), 6
    elif c.kind == U4:
        if kind == "ramified":
            raise UnsupportedCaseError(
                f"ramified-prime formula does not apply to {c.form_id}")
        if kind == "inert" and p == 2:
            tau = store.u4_trace(c.form_id)
        else:
            raise MissingCoefficientError(
                f"no stored trace for {c.form_id} at ({p})")
        w = 11  # stored values are full (Np)^(11/2) tr contributions
    else:  # elliptic kinds
        k = c.weight
        w = k - 1
        if kind == "split":
            tau = store.a(c.form_id, p)
        elif kind == "inert":
            ap = store.a(c.form_id, p)
            chi = -1 if c.kind == ELL3NEB else 1
            tau = ap * ap - 2 * chi * p ** (k - 1)
        else:  # ramified: diag(a_3, 3^(k-1)/a_3); level 1 keeps its Satake trace
            a3 = store.a(c.form_id, 3)
            if c.kind == ELL1:
                tau = a3
            else:
                tau = a3 + rational(3 ** (k - 1)) / a3
    if c.twist:
        tau, w = _twisted(tau, w, c, ideal)
    return tau, w


def _twisted(tau, w, c, ideal):
    return tau * _psi_value(PSI6 if c.twist == "psi6" else CPSI6, ideal), w + 6


def constituent_contribution(c: ArthurConstituent, ideal: EisIdeal,
                             store: CoefficientStore) -> QuadExtElem:
    p = ideal.p
    tau, w = _tau_and_weight(c, ideal, store)
    e = 11 - w - (c.d - 1)
    if ideal.split_type == "inert":
        return tau * Fraction(p) ** e * _geom_sum(p * p, c.d)
    if ideal.split_type == "split":
        if e % 2:
            raise UnsupportedCaseError(
                f"half-integral prime power for {c.kind}[{c.d}] at split ({p})")
        return tau * Fraction(p) ** (e // 2) * _geom_sum(p, c.d)
    # ramified: Np = 3, contribution tau * 3^(e/2) * (3^d - 1)/2
    if e % 2:
        raise UnsupportedCaseError(
            f"half-integral prime power for {c.kind}[{c.d}] at (sqrt(-3))")
    return tau * Fraction(3) ** (e // 2) * Fraction(3 ** c.d - 1, 2)


def constant_term(ideal: EisIdeal) -> int:
    p = ideal.p
    if ideal.split_type == "inert":
        return (p ** 12 - 1) // (p + 1)
    if ideal.split_type == "ramified":
        return 3 ** 6 - 1
    return 0


def eigenvalue_at(param: ArthurParameter, ideal: EisIdeal,
                  store: CoefficientStore) -> QuadExtElem:
    total = rational(constant_term(ideal))
    for c in param.constituents:
        total = total + constituent_contribution(c, ideal, store)
    return total


# ---------------------------------------------------------------------------
# table verification and parameter-level congruences

def verify_table(store: CoefficientStore, table_rows, ideals) -> dict:
    """Compare reconstructed eigenvalues against the reference table.

    table_rows: list of dicts with keys label, parameter and one eigenvalue
    entry per ideal tag ('t2' for (2), 't3' for (sqrt(-3))).
    Returns {tag: {label: 'match'|'mismatch'|'excluded'}}.
    """
    report = {}
    for tag, ideal in ideals.items():
        col = {}
        for row in table_rows:
            param = parse_parameter(row["parameter"])
            expected = row[tag]
            try:
                got = eigenvalue_at(param, ideal, store)
            except UnsupportedCaseError:
                col[row["label"]] = "excluded"
                continue
            col[row["label"]] = "match" if got == expected else "mismatch"
        report[tag] = col
    return report


def verify_parameter_congruence(param_i: ArthurParameter, param_j: ArthurParameter,
                                q: int, ideals, store: CoefficientStore) -> dict:
    """Check eigenvalue_at(A_i) = eigenvalue_at(A_j) mod q at each ideal.

    Returns {ideal-name: True/False/'skipped (why unsupported)'} entries.
    ValueError unless q is a prime.
    """
    if not is_prime(q):
        raise ValueError(f"the congruence modulus q = {q} is not a prime")
    report = {}
    for name, ideal in ideals.items():
        try:
            diff = eigenvalue_at(param_i, ideal, store) - eigenvalue_at(param_j, ideal, store)
            report[name] = divisible_at(diff, q)
        except UnsupportedCaseError as exc:
            report[name] = f"skipped ({exc})"
    return report


def atkin_lehner_a3(k: int, epsilon: int) -> int:
    """a_3 of a level-3 trivial-character newform of even weight k with
    Atkin-Lehner eigenvalue epsilon: a_3 = -epsilon * 3^(k/2 - 1)."""
    if k % 2 or epsilon not in (1, -1):
        raise ValueError("even weight and epsilon = +/-1 required")
    return -epsilon * 3 ** (k // 2 - 1)


def sym2_euler_factor_at_3(k: int, a3: QuadExtElem):
    """Sym^2 Euler factor P(X) = 1 + cX + 3^(2(k-1)) X^2 at the ramified prime,
    for a nebentypus form of odd weight k with a3 * conj(a3) = 3^(k-1).

    Returns (coefficients [1, c, 3^(2(k-1))], evaluate) where evaluate(t)
    computes P(3^-t) exactly.
    """
    if a3 * a3.conjugate() != 3 ** (k - 1):
        raise ValueError("a3 does not have norm 3^(k-1)")
    c = -(a3 * a3 + a3.conjugate() * a3.conjugate())
    if not c.is_rational():
        raise ValueError("a3^2 + conj(a3)^2 must be rational")
    c = c.as_fraction()
    coeffs = [Fraction(1), c, Fraction(3) ** (2 * (k - 1))]

    def evaluate(t: int) -> Fraction:
        x = Fraction(1, 3 ** t)
        return coeffs[0] + coeffs[1] * x + coeffs[2] * x * x

    return coeffs, evaluate
