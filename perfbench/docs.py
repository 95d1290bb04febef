"""Seeded pencil documents whose answers are known by construction.

Each document starts as the Kronecker model of chosen data (a; r):

    q0 = sum a_{2i} x_i^2 + sum x_{i+1} y_i + sum r_{2i+1} y_i^2,
    q1 = sum a_{2i+1} x_i^2 + sum x_i y_i + sum r_{2i} y_i^2,

whose half-discriminant is exactly a.  The half-discriminant is built as a
product of distinct irreducible factors of chosen degrees, so regularity,
the number of components of the etale algebra and the splitting field are
known in advance.  The model is then hidden under g = L U with L and U unit
triangular (a product of transvections I + c E_ij, so det g = 1 and the
half-discriminant is unchanged).  Isomorphic pairs are (P, P o g'); the
non-isomorphic partner of P has a different half-discriminant.

The program under test only ever sees the JSON bytes of the hidden pencils.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import gf

INF = "inf"  # a root of Delta at [0:1], i.e. a_n = 0


@dataclass
class Pencil:
    """A hidden pencil: its field, coefficient tables and construction."""

    F: gf.Field
    n: int
    q0: dict
    q1: dict
    a: list

    def document(self) -> bytes:
        def triples(q):
            return [[i + 1, j + 1, c] for (i, j), c in sorted(q.items())]

        doc = {"field": {"degree": self.F.k}, "n": self.n,
               "q0": triples(self.q0), "q1": triples(self.q1)}
        return json.dumps(doc, separators=(",", ":")).encode()


@dataclass
class Case:
    """One operation: the subcommand, its documents and the known answer."""

    op: str
    n: int
    k: int
    docs: list  # of Pencil (two for isiso)
    regular: bool = True
    components: int = 0  # irreducible factors of Delta over the base field
    ext_degree: int = 0  # absolute degree of the splitting field
    iso: bool | None = None  # isiso verdict
    r_zero: bool = False  # the model has r = 0: a trivial r-class

    def argv(self, paths: list) -> list:
        if self.op == "isiso":
            return ["isiso", paths[0], paths[1]]
        return [self.op, "--in", paths[0]]


def half_discriminant(F: gf.Field, n: int, pattern: tuple, rng, regular=True) -> list:
    """Coefficients a_0..a_n of c * prod f_i, one distinct monic irreducible
    f_i per entry of `pattern` (INF stands for the root at infinity).  A
    non-regular Delta uses its first factor again in place of the second,
    so its pattern starts with two equal degrees."""
    taken: set = set()
    f = [1]
    degrees = [d for d in pattern if d != INF]
    factors = [gf.random_irreducible(F, d, rng, taken) for d in degrees]
    if not regular:
        factors[1] = factors[0]
    for g in factors:
        f = gf.pmul(F, f, g)
    c = rng.randrange(1, F.order)
    a = [F.mul(c, x) for x in f]
    a += [0] * (n + 1 - len(a))
    if len(a) != n + 1:
        raise ValueError(f"pattern {pattern} does not have degree {n}")
    return a


def model(F: gf.Field, a: list, r: list) -> tuple:
    n = len(a) - 1
    m = (n - 1) // 2
    q0, q1 = {}, {}

    def put(q, key, c):
        if c:
            q[key] = c

    for i in range(m + 1):
        put(q0, (i, i), a[2 * i])
        put(q1, (i, i), a[2 * i + 1])
    for i in range(m):
        y = m + 1 + i
        q0[(i + 1, y)] = 1
        q1[(i, y)] = 1
        put(q0, (y, y), r[2 * i + 1])
        put(q1, (y, y), r[2 * i])
    return q0, q1


def random_sl(F: gf.Field, n: int, rng) -> list:
    """L U with L, U unit triangular and random off-diagonal entries."""
    low = gf.identity(n)
    up = gf.identity(n)
    for i in range(n):
        for j in range(i):
            low[i][j] = rng.randrange(F.order)
            up[j][i] = rng.randrange(F.order)
    return gf.mat_mul(F, low, up)


def hide(F: gf.Field, n: int, q0: dict, q1: dict, a: list, rng) -> Pencil:
    g = random_sl(F, n, rng)
    return Pencil(F, n, gf.transform(F, q0, g), gf.transform(F, q1, g), a)


def splitting_degree(pattern: tuple) -> int:
    return math.lcm(*[1 if d == INF else d for d in pattern])


def make_case(fields: dict, op: str, n: int, k: int, pattern: tuple, rng,
              regular=True, r_zero=False, iso=None) -> Case:
    F = fields[k]
    a = half_discriminant(F, n, pattern, rng, regular)
    r = [0] * (n - 1) if r_zero else [rng.randrange(F.order) for _ in range(n - 1)]
    q0, q1 = model(F, a, r)
    first = hide(F, n, q0, q1, a, rng)
    docs = [first]
    if op == "isiso":
        if iso:
            docs.append(hide(F, n, first.q0, first.q1, a, rng))
        else:
            while True:
                b = half_discriminant(F, n, pattern, rng)
                if gf.rank(F, [a, b]) == 2:
                    break
            docs.append(hide(F, n, *model(F, b, r), b, rng))
    return Case(op, n, k, docs, regular=regular, components=len(pattern),
                ext_degree=k * splitting_degree(pattern), iso=iso, r_zero=r_zero)


# ---------------------------------------------------------------------------
# workloads: one cycle is a fixed list of slots; only coefficients vary
# with the seed, so every seed loads the layers in the same proportions


CLASSIFY_OPS = ("halfdisc", "regular", "normalform", "rinv", "arf", "autos", "isiso")
SPLIT_OPS = ("reflections", "generators", "lattice", "canonical-plane", "autx")


@dataclass(frozen=True)
class Slot:
    op: str
    n: int
    k: int
    pattern: tuple
    regular: bool = True
    r_zero: bool = False
    iso: bool | None = None


# factor degrees of Delta by n: three components, one of them at a degree
# near n/2, so the algebra is neither a field nor split and |Aut| = 4
CLASSIFY_PATTERNS = {5: (1, 1, 3), 7: (1, 2, 4), 9: (1, 3, 5),
                     13: (1, 5, 7), 15: (2, 5, 8), 17: (1, 7, 9)}


def _classify_cycle(ns, ks, top_ops=CLASSIFY_OPS) -> list:
    """Every classification op at every n, except that the largest n runs
    only `top_ops`; k rotates through ks, and every third isiso pair is
    non-isomorphic."""
    slots = []
    for i, n in enumerate(ns):
        for j, op in enumerate(CLASSIFY_OPS):
            if n == ns[-1] and op not in top_ops:
                continue
            k = ks[(i + j) % len(ks)]
            iso = ((i + j) % 3 != 2) if op == "isiso" else None
            r_zero = op == "rinv" and (i % 2 == 1)
            slots.append(Slot(op, n, k, CLASSIFY_PATTERNS[n], r_zero=r_zero, iso=iso))
    return slots


CLI_SLOTS = [
    Slot("halfdisc", 5, 1, (1, 1, 3)),
    Slot("regular", 7, 16, (1,) * 7),
    Slot("normalform", 3, 4, (1, 2)),
    Slot("rinv", 5, 8, (1, 4)),
    Slot("isiso", 7, 2, (1, 2, 4), iso=True),
    Slot("autos", 3, 16, (1, 2)),
    Slot("reflections", 5, 8, (1, 2, 2)),        # GF(2^16)
    Slot("generators", 3, 2, (1, 1, 1), r_zero=True),
    Slot("canonical-plane", 5, 16, (5,)),
    Slot("arf", 7, 8, (2, 5)),
    Slot("lattice", 5, 1, (1, 1, 3), r_zero=True),   # GF(2^3)
    Slot("autx", 5, 1, (1, 1, 3), r_zero=True),  # GF(2^3)
    Slot("normalform", 5, 2, (1, 1, 3), regular=False),
    Slot("halfdisc", 7, 16, (1, 2, 4)),
    Slot("regular", 3, 1, (1, 2)),
    Slot("normalform", 7, 8, (1, 1, 5)),
    Slot("rinv", 3, 2, (1, 2), r_zero=True),
    Slot("isiso", 5, 4, (1, 1, 3), iso=False),
    Slot("autos", 7, 4, (1, 2, 4)),
    Slot("reflections", 3, 16, (1, 1, 1)),       # GF(2^16)
    Slot("generators", 5, 8, (1, 1, 1, 1, 1), r_zero=True),  # GF(2^8)
    Slot("canonical-plane", 7, 1, (1, 2, 4)),
    Slot("arf", 5, 16, (1, 4)),
    Slot("lattice", 3, 8, (1, 2), r_zero=True),  # GF(2^16)
    Slot("autx", 3, 2, (1, 1, 1), r_zero=True),  # GF(2^2)
    Slot("autos", 5, 1, (1, 1, 3), regular=False),
    Slot("isiso", 3, 8, (1, 1, 1), regular=False, iso=True),
]


def cycle(workload: str) -> list:
    if workload == "classify-wide":
        # n = 17 runs only halfdisc and isiso, the slowest ops: in a run of
        # two cycles and three passes their 12 calls are the slowest, well
        # above the next ones (n = 15 isiso, about 0.6 of them), so the
        # tail, the 11th slowest call, is the second fastest of those 12
        # and not the edge of a group that a burst of load reorders.  Two
        # more rounds of the n = 13 ops, over other fields, put the median
        # among the middle n = 13 ops instead of on the border between
        # n = 13 and n = 15, where it moved by up to 30% with the seed.
        ks = (1, 2, 4, 8)
        extra = [s for shift in (1, 2)
                 for s in _classify_cycle((13,), ks[shift:] + ks[:shift])]
        return _classify_cycle((13, 15, 17), ks,
                               top_ops=("halfdisc", "isiso")) + extra
    if workload == "big-field":
        return _classify_cycle((5, 7, 9), (17, 20, 24, 32))
    if workload == "cli-cold":
        return CLI_SLOTS
    raise ValueError(f"unknown workload {workload!r}")


def field_degrees(workload: str) -> list:
    """Every GF(2^k) the workload's operations use, extensions included."""
    out = set()
    for s in cycle(workload):
        out.add(s.k)
        if s.op in SPLIT_OPS and s.op != "canonical-plane":
            out.add(s.k * splitting_degree(s.pattern))
    return sorted(out)


def embeddings(workload: str) -> list:
    """(base degree, extension degree) of every embedding the workload uses."""
    return sorted({(s.k, s.k * splitting_degree(s.pattern)) for s in cycle(workload)
                   if s.op in SPLIT_OPS and s.op != "canonical-plane"})


def build_cases(workload: str, seed: int, variants: int) -> list:
    """`variants` copies of the cycle, each with fresh coefficients."""
    fields = {k: gf.Field(k) for k in {s.k for s in cycle(workload)}}
    out = []
    for v in range(variants):
        row = []
        for i, s in enumerate(cycle(workload)):
            rng = random.Random(f"{workload}:{seed}:{v}:{i}")
            row.append(make_case(fields, s.op, s.n, s.k, s.pattern, rng,
                                 regular=s.regular, r_zero=s.r_zero, iso=s.iso))
        out.append(row)
    return out
