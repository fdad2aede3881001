#!/usr/bin/env python3
"""Enumerate the genus of the rank-12 sqrt(-3)-modular lattice by iterated
(2)-neighbours and compute T_(2) two independent ways: the direct rows
recorded while classifying the neighbours, and the intertwining route.

This is an hour-scale run in pure Python (millions of isometry
classifications); pass --allow-long to acknowledge that.  --archive saves
the walked genus (the representatives, their |Aut|, the prime and the T_(2)
rows), so that `hermhecke hecke direct --genus DIR --prime 2` later reads
the rows instead of walking the classes again.
Progress lines give the elapsed seconds, the class whose neighbours (in the
intertwining phase, whose intersections L cap L') are being placed, how many
are placed and how many classes are known; the difference between
consecutive end-of-class lines is that class's wall time.
"""

import argparse
import sys
import time

from hermhecke.eisenstein import ideal_above
from hermhecke.fixtures import seed_sqrt3_rank12
from hermhecke.hecke import hecke_direct, hecke_intertwining
from hermhecke.neighbour import enumerate_genus, save_genus


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--allow-long", action="store_true")
    ap.add_argument("--archive", metavar="DIR",
                    help="directory to save the walked genus")
    args = ap.parse_args()
    if not args.allow_long:
        print("this enumeration takes hours; rerun with --allow-long",
              file=sys.stderr)
        raise SystemExit(3)

    P = ideal_above(2)
    L = seed_sqrt3_rank12()
    t0 = time.time()

    def progress(i, placed, h):
        print(f"{time.time() - t0:.0f}s  class {i}: {placed} lattices "
              f"placed, {h} classes known", flush=True)

    genus = enumerate_genus(L, P, progress=progress)
    print(f"class number {genus.class_number}  aut orders {genus.aut_orders}")
    print(f"enumeration: {time.time() - t0:.0f}s")
    if args.archive:
        save_genus(genus, args.archive)
        print(f"archived to {args.archive}")

    Ti, data, sub = hecke_intertwining(genus, P, progress=progress)
    print(f"T_(2) via intertwining ({sub.class_number} sublattice classes):")
    for row in Ti.entries:
        print(" ", row)
    Td = hecke_direct(genus, P)
    print("direct computation agrees:", Td.entries == Ti.entries)


if __name__ == "__main__":
    main()
