"""Independent brute-force oracles that only the tests use.

The package's own oracles and samplers (the point, line and singular-point
scans of X, GL enumeration, the trace of the etale algebra, the samplers
of pencils and polynomials) live in `qpencil.verify`, and the tests import
them from there; none is copied between the two.  Everything here
recomputes results by definition-level enumeration (perfect matchings,
exhaustive subsets, full subgroup enumeration) and never calls the
production code paths it is checking.  The helpers at the bottom are small
compositions of the package's API that only tests use, and the last
section keeps code the package replaced, to compare against.
"""

import itertools

from qpencil import poly
from qpencil.errors import PreconditionError
from qpencil.field import Embedding, find_embedding
from qpencil.linalg import mat_vec, rank
from qpencil.quadform import pfaffian_vector
from qpencil.verify import points_on_X


def pfaffian_by_matchings(gf, gram):
    """Sum over perfect matchings of the product of matched entries
    (characteristic 2: no signs)."""
    n = len(gram)
    if n % 2:
        raise ValueError("odd size")
    idx = list(range(n))

    def rec(remaining):
        if not remaining:
            return 1
        first = remaining[0]
        acc = 0
        for k in range(1, len(remaining)):
            j = remaining[k]
            if gram[first][j]:
                rest = remaining[1:k] + remaining[k + 1 :]
                acc ^= gf.mul(gram[first][j], rec(rest))
        return acc

    return rec(idx)


def mul_by_bits(modulus, a, b):
    """a b in GF(2)[T]/(modulus), one bit of b per step: a is doubled and
    reduced as soon as it reaches the degree of the modulus."""
    top = 1 << (modulus.bit_length() - 1)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= modulus
    return r


def inv_by_pow(modulus, a):
    """a^(q-2) = a^-1 in GF(q), q = 2^deg(modulus), by square and multiply
    with mul_by_bits."""
    e = (1 << (modulus.bit_length() - 1)) - 2
    r = 1
    while e:
        if e & 1:
            r = mul_by_bits(modulus, r, a)
        a = mul_by_bits(modulus, a, a)
        e >>= 1
    return r


def log_tables_by_trial(modulus):
    """(exp, log) of the first primitive g = 1, 2, 3, ...: walk the powers
    of each candidate with mul_by_bits and restart with the next one when
    the walk returns to 1 early.  exp has 2q entries, exp[i] = g^(i mod q-1)."""
    k = modulus.bit_length() - 1
    order = 1 << k
    g = 1 if k == 1 else 2
    while True:
        exp = [0] * (2 * order)
        log = [0] * order
        v = 1
        for i in range(order - 1):
            if v == 1 and i > 0:
                break  # g has order i < q-1
            exp[i] = v
            log[v] = i
            v = mul_by_bits(modulus, v, g)
        else:
            if v == 1:
                break
        g += 1
    for i in range(order - 1, 2 * order):
        exp[i] = exp[i - (order - 1)]
    return exp, log


def evaluate(gf, coeffs, x):
    """coeffs[0] + coeffs[1] x + ... by Horner's rule."""
    r = 0
    for c in reversed(coeffs):
        r = gf.mul(r, x) ^ c
    return r


def roots_by_scan(gf, coeffs):
    """The roots of a nonzero polynomial in gf, by evaluating at every
    element of the field, in increasing order."""
    return [x for x in gf.elements() if evaluate(gf, coeffs, x) == 0]


def polar_by_definition(q, v, w):
    """b(v, w) = q(v+w) + q(v) + q(w)."""
    s = [x ^ y for x, y in zip(v, w)]
    return q(s) ^ q(v) ^ q(w)


def kronecker_equations_hold(p, ws, vs):
    """Every Kronecker equation, each pairing evaluated as
    q(x+y) + q(x) + q(y):  w-w and v-v pairings vanish under both forms,
    b0(w_i, v_j) = delta_{i(j+1)} and b1(w_i, v_j) = delta_{ij}."""
    def pair(x, y):
        return polar_by_definition(p.q0, x, y), polar_by_definition(p.q1, x, y)

    return all(
        pair(x, y) == (0, 0) for xs in (ws, vs) for x in xs for y in xs
    ) and all(
        pair(w, v) == (int(i == j + 1), int(i == j))
        for i, w in enumerate(ws)
        for j, v in enumerate(vs)
    )


def half_discriminant_per_key(p):
    """Delta = (l q0 + u q1)(Omega(l, u)) as one product of binary forms per
    coefficient key: (t0_ij l + t1_ij u) Omega_i Omega_j, summed."""
    gf, n, m = p.gf, p.n, p.m
    ws = p.radical_map()
    omega = [[ws[i][k] for i in range(m + 1)] for k in range(n)]
    acc = [0] * (n + 1)
    t0, t1 = p.q0.table(), p.q1.table()
    for key in set(t0) | set(t1):
        i, j = key
        lin = [t0.get(key, 0), t1.get(key, 0)]
        term = poly.bf_mul(gf, lin, poly.bf_mul(gf, omega[i], omega[j]))
        for k, v in enumerate(term):
            acc[k] ^= v
    return acc


def vv_system(m):
    """The v-v correction system of complete_kronecker as dense 0/1 rows:
    for each pair i < j, l_ij + l_ji (the b1 pairing), then
    l_{j(i+1)} + l_{i(j+1)} (the b0 pairing); l_jk is column j*(m+1) + k."""
    def row(*cells):
        r = [0] * (m * (m + 1))
        for j, k in cells:
            r[j * (m + 1) + k] ^= 1
        return r

    return [
        eq
        for i in range(m)
        for j in range(i + 1, m)
        for eq in (row((i, j), (j, i)), row((j, i + 1), (i, j + 1)))
    ]


def wp_plus_constants(algebra):
    """The set k + wp(A) by full enumeration (desk scale only)."""
    out = set()
    coords = [range(algebra.gf.order)] * algebra.n
    for c in itertools.product(*coords):
        x = algebra.element(list(c))
        w = algebra.add(algebra.mul(x, x), x)  # not the squaring table
        for const in algebra.gf.elements():
            out.add(algebra.add(w, algebra.element([const])))
    return out


def all_subspaces(gf, n, dim):
    """All dim-dimensional subspaces of gf^n as canonical rref tuples."""
    from qpencil.linalg import normalize_subspace, rank

    seen = set()
    vectors = [list(v) for v in itertools.product(gf.elements(), repeat=n)]
    nonzero = [v for v in vectors if any(v)]
    for combo in itertools.combinations(nonzero, dim):
        mat = [list(v) for v in combo]
        if rank(gf, mat) != dim:
            continue
        seen.add(normalize_subspace(gf, mat))
    return seen


def det(gf, a):
    """Determinant by elimination (row swaps are sign-free in char 2)."""
    n = len(a)
    m = [row[:] for row in a]
    d = 1
    for c in range(n):
        sel = None
        for i in range(c, n):
            if m[i][c]:
                sel = i
                break
        if sel is None:
            return 0
        m[c], m[sel] = m[sel], m[c]
        d = gf.mul(d, m[c][c])
        inv = gf.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                f = gf.mul(m[i][c], inv)
                m[i] = [x ^ gf.mul(f, y) for x, y in zip(m[i], m[c])]
    return d


# ---------------------------------------------------------------------------
# helpers only the tests use


def compose_embeddings(first, second):
    """The embedding first.src -> second.dst through first.dst."""
    if second.src != first.dst:
        raise ValueError("embeddings do not compose")
    return Embedding(first.src, second.dst, second.map(first.root))


def roots_in(p, src, ext):
    """All roots of p (coefficients in src) inside the extension ext."""
    return poly.roots(ext, find_embedding(src, ext).map_vec(p))


def bf_dehomogenize_t1(c):
    """form(T, 1): the reversed coefficient list."""
    return poly.trim(c[::-1])


def half_disc_check(p, l, u):
    """Delta(l, u) evaluated from coefficients equals the half-discriminant
    of the member at (l, u): the member on the Pfaffian vector of its polar
    form."""
    lhs = poly.bf_eval(p.gf, p.half_discriminant(), l, u)
    member = p.member(l, u)
    if is_zero(member):
        return lhs == 0
    return lhs == member(pfaffian_vector(p.gf, member.polar()))


def corank_profile(p, ext):
    """Pairs (root of Delta over ext, corank of that member) checking the
    corank-1 property of regular pencils."""
    p.require_regular()
    emb = find_embedding(p.gf, ext)
    pts = poly.bf_projective_roots(ext, emb.map_vec(p.half_discriminant()))
    if len(pts) != p.n:
        raise PreconditionError(
            f"extension {ext!r} does not split Delta "
            f"({len(pts)} of {p.n} roots)"
        )
    pe = p.map_field(emb)
    return [((l, u), p.n - rank(ext, pe.member(l, u).polar())) for (l, u) in pts]


def is_zero(q):
    """q is the zero quadratic form."""
    return not q.coeffs


def all_idempotents(algebra):
    """All 2^l sums of primitive idempotents (the kernel of wp)."""
    out = [algebra.zero()]
    for e in algebra.idempotents:
        out += [algebra.add(x, e) for x in out]
    return out


def singular_points_on_X(p, ext):
    """Points of X(ext) where the Jacobian rows b0(x,.), b1(x,.) have rank
    below 2 (the literal smoothness criterion, scan form)."""
    pe = p.map_field(find_embedding(p.gf, ext))
    g0, g1 = pe.q0.polar(), pe.q1.polar()
    out = []
    for x in points_on_X(p, ext):
        rows = [mat_vec(ext, g0, list(x)), mat_vec(ext, g1, list(x))]
        if rank(ext, rows) < 2:
            out.append(x)
    return out


def serialize_pencil(p):
    """The pencil document of p, as the CLI reads it."""
    def triples(q):
        return [[i + 1, j + 1, c] for (i, j), c in q.coeffs]

    return {
        "field": {"degree": p.gf.degree, "modulus": p.gf.modulus},
        "n": p.n,
        "q0": triples(p.q0),
        "q1": triples(p.q1),
    }


def gf2_pivots_by_scan(columns):
    """linalg.gf2_pivots by a scan over every pivot, re-sorted after each
    insertion: (value, combination) pairs with distinct leading bits in
    descending order."""
    pivots = []
    for j, col in enumerate(columns):
        combo = 1 << j
        for val, cmb in pivots:
            if col ^ val < col:
                col ^= val
                combo ^= cmb
        if col:
            pivots.append((col, combo))
            pivots.sort(key=lambda t: -t[0])
    return pivots


# ---------------------------------------------------------------------------
# the pair group element by element: the code the group law replaced


def automorphism_group_per_element(p):
    """The pair group as it was built before the group law was used: phi of
    every sum of the idempotents eps_1.. (bit mask i, eps_0 dropped), each
    conjugated into the pencil's coordinates by two matrix products and
    certified by its own two substitutions."""
    from qpencil.autos import AutomorphismRep, catalecticant, pair_algebra, phi_model_matrix
    from qpencil.normalform import model_to_pencil

    an = pair_algebra(p)
    algebra, nf = an.algebra, an.nf
    kb = nf.basis
    reps = [algebra.zero()]
    for e in algebra.idempotents[1:]:
        reps += [algebra.add(x, e) for x in reps]
    out = []
    for e in reps:
        s = list(algebra.d_coords(e))[: algebra.n - 1]
        g = model_to_pencil(kb.gf, kb.basis_matrix, kb.inverse, phi_model_matrix(nf.m, s))
        if p.q0.transform(g) != p.q0 or p.q1.transform(g) != p.q1:
            raise AssertionError("phi(idempotent) fails to preserve the pair")
        out.append(AutomorphismRep(tuple(s), tuple(tuple(r) for r in g),
                                   tuple(tuple(r) for r in catalecticant(nf.m, s))))
    return out


def generators_per_element(p, ext):
    """The 2^(2m) generator spans over ext, the i-th the image of the first
    under element i of automorphism_group_per_element, one matrix-vector
    product per spanning vector."""
    from qpencil.autos import pair_algebra
    from qpencil.linalg import normalize_subspace

    pe = p.map_field(find_embedding(p.gf, ext))
    b0 = pair_algebra(pe).r0_frame
    m, n = pe.m, pe.n
    first = normalize_subspace(ext, [[b0[r][m + 1 + j] for r in range(n)] for j in range(m)])
    return [normalize_subspace(ext, [mat_vec(ext, rep.matrix, v) for v in first])
            for rep in automorphism_group_per_element(pe)]


def line_gram_pairwise(gens, m):
    """The intersection numbers of every pair of generators, one measured
    intersection per unordered pair."""
    from qpencil.lattice import intersection_number

    k = len(gens)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            out[i][j] = out[j][i] = intersection_number(gens[i], gens[j], m)
    return tuple(tuple(r) for r in out)


def coset_columns_per_element(algebra):
    """The spanning columns of k + wp(A) in the order of _coset_pivots: wp of
    each x^b t^j, squared by multiplication, then the constants x^b."""
    k = algebra.gf.degree
    cols = []
    for j in range(algebra.n):
        for b in range(k):
            x = algebra.element([0] * j + [1 << b])
            cols.append(algebra._pack(algebra.add(algebra.mul(x, x), x)))
    return cols + [1 << b for b in range(k)]
