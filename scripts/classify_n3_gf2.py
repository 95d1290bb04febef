#!/usr/bin/env python3
"""Exhaustive classification table for pairs of conics in P^2 over GF(2).

Walks every ordered pair of quadratic forms on GF(2)^3, keeps the regular
pencils, groups them by half-discriminant, and prints for each Delta the
number of GL3(F2)-orbits, the number of r-invariant cosets, and the
automorphism-group order, cross-checking orbit sizes by the stabilizer
formula |orbit| = |GL3(F2)| / |Aut|.
"""

import itertools
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qpencil.autos import automorphism_group, pair_algebra
from qpencil.errors import PreconditionError
from qpencil.field import GF
from qpencil.invariants import r_invariant
from qpencil.pencil import Pencil
from qpencil.quadform import QuadraticForm


def main():
    g2 = GF(1)
    keys = [(i, j) for i in range(3) for j in range(i, 3)]
    forms = [
        QuadraticForm.from_table(g2, 3, dict(zip(keys, bits)))
        for bits in itertools.product([0, 1], repeat=6)
    ]
    by_delta = defaultdict(list)
    skipped = 0
    for q0 in forms:
        for q1 in forms:
            try:
                p = Pencil(q0, q1)
            except ValueError:
                skipped += 1
                continue
            if p.is_regular():
                by_delta[tuple(p.half_discriminant())].append(p)

    total = sum(len(v) for v in by_delta.values())
    print(f"regular pairs: {total}   (proportional/degenerate skipped: {skipped})")
    print(f"separable half-discriminants: {len(by_delta)}")
    print()
    print(f"{'Delta (a0..a3)':>16} {'pairs':>6} {'cosets':>7} {'|Aut|':>6} "
          f"{'orbits':>7} {'orbit size':>11}")
    gl_order = 168
    for a in sorted(by_delta):
        pencils = by_delta[a]
        try:
            cosets = {r_invariant(pair_algebra(p))[0] for p in pencils}
        except PreconditionError:
            print(f"{str(a):>16} {len(pencils):>6}   (every rational point "
                  f"is a root of Delta)")
            continue
        aut = len(automorphism_group(pencils[0]))
        orbits = len(pencils) * aut // gl_order
        assert orbits == len(cosets), "orbit count must equal coset count"
        print(f"{str(a):>16} {len(pencils):>6} {len(cosets):>7} {aut:>6} "
              f"{orbits:>7} {gl_order // aut:>11}")


if __name__ == "__main__":
    main()
