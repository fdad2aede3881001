"""Command-line workbench tying the modules together.

Exit codes: 0 success, 2 invalid input or failed precondition, 3 unsupported
case.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import arthur, spectra, theta
from .coefficients import CoefficientStore
from .eisenstein import ideal_above
from .errors import PreconditionError, UnsupportedCaseError
from .fixtures import FixtureSet, fixture_checksum
from .hecke import hecke_direct, hecke_intertwining
from .lattice import HermitianLattice
from .neighbour import (count_neighbours, enumerate_genus, load_genus,
                        neighbours, save_genus)

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_UNSUPPORTED = 3


def _ideal(p: int, conjugate: bool = False):
    ideal = ideal_above(p)
    return ideal.conjugate() if conjugate else ideal


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)


def _progress(args):
    if not args.verbose:
        return None
    return lambda i, placed, h: print(
        f"class {i}: {placed} lattices placed, {h} classes known",
        file=sys.stderr)


def _reference_system():
    fx = FixtureSet.load()
    return spectra.eigensystem([fx.t2_20x20, fx.t3_20x20],
                               operator_names=("t2", "t3"),
                               reference=fx.eigen_table)


def cmd_genus(args):
    L = HermitianLattice.load(args.lattice)
    if L.rank >= 8 and not args.allow_long:
        print("rank >= 8 genus enumeration needs --allow-long", file=sys.stderr)
        return EXIT_UNSUPPORTED
    genus = enumerate_genus(L, _ideal(args.prime), progress=_progress(args))
    if args.out:
        save_genus(genus, args.out)
    _emit({"class_number": genus.class_number,
           "aut_orders": genus.aut_orders,
           "discovery": genus.discovery_log})
    return EXIT_OK


def cmd_neighbours(args):
    L = HermitianLattice.load(args.lattice)
    ideal = _ideal(args.prime, args.conjugate)
    if args.count_only:
        lines, total = count_neighbours(L, ideal)
        _emit({"admissible_lines": lines, "count": total}, args.out)
        return EXIT_OK
    if L.rank >= 8 and not args.allow_long:
        print("rank >= 8 neighbour construction needs --allow-long", file=sys.stderr)
        return EXIT_UNSUPPORTED
    ns = neighbours(L, ideal)
    _emit({"count": len(ns),
           "neighbours": [lat.to_json_dict() for lat in ns.neighbours]},
          args.out)
    return EXIT_OK


def cmd_hecke_fixture(args):
    fx = FixtureSet.load()
    rows = {"t2-20": fx.t2_20x20, "t3-20": fx.t3_20x20, "t2-5": fx.t2_5x5}
    _emit({"rows": rows[args.fixture]}, args.out)
    return EXIT_OK


def cmd_hecke_genus(args):
    ideal = _ideal(args.prime)
    genus = load_genus(args.genus, ideal)
    if args.hecke_cmd == "direct":
        hm = hecke_direct(genus, ideal, progress=_progress(args))
    else:
        hm, data, _ = hecke_intertwining(genus, ideal, progress=_progress(args))
        if not data.verify():
            print("intertwining data failed verification", file=sys.stderr)
            return EXIT_INVARIANT
    _emit(hm.to_json_dict(), args.out)
    return EXIT_OK


def cmd_eigen(args):
    system = _reference_system()
    _emit(system.to_json_dict(), args.out)
    return EXIT_OK


def cmd_congruences(args):
    system = _reference_system()
    reports = spectra.scan_congruences_lemma(system, q_min=args.qmin)
    _emit(spectra.congruence_report_json(reports), args.out)
    return EXIT_OK


def cmd_arthur_verify_table(args):
    fx = FixtureSet.load()
    report = arthur.verify_table(fx.store, fx.eigen_table,
                                 {"t2": _ideal(2), "t3": _ideal(3)})
    bad = [lab for col in report.values() for lab, st in col.items()
           if st == "mismatch"]
    _emit(report, args.out)
    return EXIT_INVARIANT if bad else EXIT_OK


def cmd_arthur_eval(args):
    param = arthur.parse_parameter(args.parameter)
    value = arthur.eigenvalue_at(param, _ideal(args.prime, args.conjugate),
                                 CoefficientStore.load())
    _emit({"parameter": args.parameter, "prime": args.prime, "value": str(value)})
    return EXIT_OK


def cmd_arthur_congruence(args):
    fx = FixtureSet.load()
    rows = {r["label"]: r for r in fx.eigen_table}
    for label in (args.i, args.j):
        if label not in rows:
            print(f"unknown label {label}; labels {sorted(rows)}",
                  file=sys.stderr)
            return EXIT_INVARIANT
    pi = arthur.parse_parameter(rows[args.i]["parameter"])
    pj = arthur.parse_parameter(rows[args.j]["parameter"])
    primes = [int(p) for p in args.primes.split(",")] if args.primes else [2, 3]
    report = arthur.verify_parameter_congruence(
        pi, pj, args.q, {f"({p})": _ideal(p) for p in primes}, fx.store)
    _emit({f"{args.i} = {args.j} mod {args.q}": report})
    return EXIT_OK if all(v is True or isinstance(v, str) for v in report.values()) \
        else EXIT_INVARIANT


def cmd_theta(args):
    L = HermitianLattice.load(args.lattice)
    series = theta.theta_degree1(L, args.precision)
    _emit(series.to_json_dict(), args.out)
    for n in range(1, args.precision + 1):
        if series.r(n) % 6:
            print(f"r({n}) = {series.r(n)} is not divisible by 6", file=sys.stderr)
            return EXIT_INVARIANT
    return EXIT_OK


def cmd_fixtures(args):
    fx = FixtureSet.load()
    report = fixture_checksum(fx)
    _emit(report)
    return EXIT_OK if report["ok"] else EXIT_INVARIANT


def build_parser():
    p = argparse.ArgumentParser(prog="hermhecke")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("genus")
    g.add_argument("lattice")
    g.add_argument("--prime", type=int, required=True)
    g.add_argument("--out")
    g.add_argument("--allow-long", action="store_true", dest="allow_long")
    g.add_argument("--verbose", action="store_true")
    g.set_defaults(func=cmd_genus)

    nb = sub.add_parser("neighbours")
    nb.add_argument("lattice")
    nb.add_argument("--prime", type=int, required=True)
    nb.add_argument("--conjugate", action="store_true")
    nb.add_argument("--count-only", action="store_true", dest="count_only")
    nb.add_argument("--out")
    nb.add_argument("--allow-long", action="store_true", dest="allow_long")
    nb.set_defaults(func=cmd_neighbours)

    h = sub.add_parser("hecke")
    hsub = h.add_subparsers(dest="hecke_cmd", required=True)
    for method in ("direct", "intertwining"):
        hm = hsub.add_parser(method)
        hm.add_argument("--genus", required=True,
                        help="directory of a saved genus enumeration")
        hm.add_argument("--prime", type=int, required=True)
        hm.add_argument("--out")
        hm.add_argument("--verbose", action="store_true")
        hm.set_defaults(func=cmd_hecke_genus)
    hf = hsub.add_parser("fixture")
    hf.add_argument("fixture", choices=["t2-20", "t3-20", "t2-5"])
    hf.add_argument("--out")
    hf.set_defaults(func=cmd_hecke_fixture)

    e = sub.add_parser("eigen")
    e.add_argument("--out")
    e.set_defaults(func=cmd_eigen)

    c = sub.add_parser("congruences")
    c.add_argument("--qmin", type=int, default=11)
    c.add_argument("--out")
    c.set_defaults(func=cmd_congruences)

    a = sub.add_parser("arthur")
    asub = a.add_subparsers(dest="arthur_cmd", required=True)
    av = asub.add_parser("verify-table")
    av.add_argument("--out")
    av.set_defaults(func=cmd_arthur_verify_table)
    ae = asub.add_parser("eval")
    ae.add_argument("parameter")
    ae.add_argument("--prime", type=int, required=True)
    ae.add_argument("--conjugate", action="store_true")
    ae.set_defaults(func=cmd_arthur_eval)
    ac = asub.add_parser("congruence")
    ac.add_argument("i", type=int)
    ac.add_argument("j", type=int)
    ac.add_argument("q", type=int)
    ac.add_argument("--primes", help="comma-separated rational primes")
    ac.set_defaults(func=cmd_arthur_congruence)

    t = sub.add_parser("theta")
    t.add_argument("lattice")
    t.add_argument("--precision", type=int, default=4)
    t.add_argument("--out")
    t.set_defaults(func=cmd_theta)

    f = sub.add_parser("fixtures")
    f.add_argument("fixtures_cmd", choices=["check"])
    f.set_defaults(func=cmd_fixtures)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout (`hermhecke eigen | head`): exit quietly,
        # stdout on devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UnsupportedCaseError as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (PreconditionError, OSError, ValueError, AssertionError) as exc:
        print(f"invalid input or failed check: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
