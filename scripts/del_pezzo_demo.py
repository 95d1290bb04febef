#!/usr/bin/env python3
"""End-to-end tour of a quartic del Pezzo surface over GF(2).

Takes the pencil with half-discriminant t0^4 t1 + t0^3 t1^2 + ... + t1^5
(coefficients 0,1,1,1,1,1), shows its canonical rational point, enumerates
the 16 lines over the splitting field GF(16) two independent ways, and
prints the D5 root-basis Gram of the cycle lattice.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qpencil.autos import reflections
from qpencil.field import GF
from qpencil.geometry import canonical_plane, enumerate_generators
from qpencil.lattice import cartan_d, lattice_for
from qpencil.normalform import realize
from qpencil.verify import brute_force_lines, points_on_X


def main():
    g2 = GF(1)
    a = [0, 1, 1, 1, 1, 1]
    p = realize(g2, a, [0] * 4)
    print("pencil on P^4 over GF(2) with half-discriminant", a)
    for name, q in (("q0", p.q0), ("q1", p.q1)):  # the document's triples
        print(f"  {name} =", [[i + 1, j + 1, c] for i, row in enumerate(q.rows)
                              for j, c in enumerate(row) if c])
    print("regular:", p.is_regular())

    cp = canonical_plane(p)
    print("\ncanonical point of the surface (over the base field!):",
          list(cp.point_basis[0]))
    print("  cut out on |W| by l0 =", list(cp.l0), " l1 =", list(cp.l1))
    print("  rational points of X over GF(2):", points_on_X(p, g2))

    ext = GF(4)  # GF(16): the splitting field of Delta
    t0 = time.time()
    gens = enumerate_generators(p, ext)
    t_orbit = time.time() - t0
    t0 = time.time()
    lines = brute_force_lines(p, ext)
    t_scan = time.time() - t0
    print(f"\nlines over GF(16): orbit construction gives {len(gens)} "
          f"({t_orbit:.2f}s), point-pair scan gives {len(lines)} "
          f"({t_scan:.2f}s)")
    print("  same line set:", set(lines) == set(gens))

    lat = lattice_for(p, ext, reflections(p, ext))
    print("\ncycle lattice on (e_0, ..., e_5):")
    for row in lat.gram:
        print("  ", list(row))
    print("conic class [L_empty] =", list(lat.lam_empty_in_e), "in the e-basis")
    print("\nroot basis Gram (should be -Cartan(D5)):")
    for row in lat.gram_alpha:
        print("  ", list(row))
    neg = [[-x for x in row] for row in cartan_d(2)]
    print("equals -Cartan(D5):", [list(r) for r in lat.gram_alpha] == neg)
    deg = sum(1 for j in range(16) if lat.line_gram[0][j] == 1)
    print(f"each line meets exactly {deg} of the other 15")


if __name__ == "__main__":
    main()
