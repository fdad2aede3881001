"""Eigenform coefficient store backing the Arthur-parameter eigenvalue formulas.

Coefficients a_p(f) for the handful of level-1 and level-3 eigenforms are
shipped as transcribed fixtures; tau(p) = a_p of the weight-12 level-1 form
is regenerated on demand from the eta-product q * prod (1-q^n)^24.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .data import _read_json
from .eisenstein import is_prime
from .errors import MissingCoefficientError
from .quadfield import QuadExtElem, parse_quad


def eta_product_coefficients(nmax: int) -> list[int]:
    """Coefficients of q * prod_{n>=1} (1-q^n)^24 up to q^nmax; index = exponent."""
    # build prod (1-q^n)^24 by repeated sparse multiplication
    coeffs = [0] * (nmax + 1)
    if nmax >= 1:
        coeffs[1] = 1
    for n in range(1, nmax):
        for _ in range(24):
            for k in range(nmax, n, -1):
                coeffs[k] -= coeffs[k - n]
    return coeffs


@functools.cache
def _tau_table() -> tuple:
    """tau(n) at index n, for n up to 100."""
    return tuple(eta_product_coefficients(100))


def ramanujan_tau(p: int) -> int:
    table = _tau_table()
    if not 0 < p < len(table):
        raise MissingCoefficientError(f"tau({p}) beyond precomputed range")
    return table[p]


@dataclass(frozen=True)
class FormRecord:
    form_id: str
    weight: int
    level: int
    char: str  # "triv" or "chi-3"
    coeffs: dict  # prime -> QuadExtElem
    provenance: str


@dataclass
class CoefficientStore:
    forms: dict = field(default_factory=dict)
    u4_traces: dict = field(default_factory=dict)

    @staticmethod
    def from_json_dict(data: dict) -> "CoefficientStore":
        store = CoefficientStore()
        for fid, rec in data["forms"].items():
            coeffs = {int(p): parse_quad(v) for p, v in rec["coeffs"].items()}
            store.forms[fid] = FormRecord(fid, rec["weight"], rec["level"],
                                          rec["char"], coeffs, rec.get("provenance", ""))
        for tid, rec in data.get("u4_traces", {}).items():
            store.u4_traces[tid] = parse_quad(rec["value"])
        return store

    @staticmethod
    def load() -> "CoefficientStore":
        """The shipped store, or the one in the directory HERMHECKE_DATA."""
        store = CoefficientStore.from_json_dict(_read_json("coefficients.json"))
        store.populate_tau()
        return store

    def populate_tau(self, limit: int = 97) -> None:
        """Fill in tau(p) for primes up to `limit` from the eta-product oracle."""
        rec = self.forms.get("Delta")
        if rec is None:
            return
        coeffs = dict(rec.coeffs)
        for p in range(2, limit + 1):
            if is_prime(p):
                tau = ramanujan_tau(p)
                if p in coeffs and coeffs[p] != tau:
                    raise ValueError(f"stored a_{p}(Delta) disagrees with eta oracle")
                coeffs[p] = QuadExtElem.of(tau)
        self.forms["Delta"] = FormRecord(rec.form_id, rec.weight, rec.level,
                                         rec.char, coeffs, rec.provenance)

    def a(self, form_id: str, p: int) -> QuadExtElem:
        rec = self.forms.get(form_id)
        if rec is None:
            raise MissingCoefficientError(f"unknown form {form_id!r}")
        if p not in rec.coeffs:
            raise MissingCoefficientError(f"a_{p}({form_id}) not available")
        return rec.coeffs[p]

    def u4_trace(self, trace_id: str) -> QuadExtElem:
        if trace_id not in self.u4_traces:
            raise MissingCoefficientError(f"no stored trace for {trace_id!r}")
        return self.u4_traces[trace_id]
