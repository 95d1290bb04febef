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
from qpencil.field import GF, Embedding, find_embedding
from qpencil.linalg import mat_mul, mat_vec, rank
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


def pow_by_bits(modulus, a, e):
    """a^e in GF(2)[T]/(modulus), e >= 0, by square and multiply with
    mul_by_bits."""
    r = 1
    while e:
        if e & 1:
            r = mul_by_bits(modulus, r, a)
        a = mul_by_bits(modulus, a, a)
        e >>= 1
    return r


def inv_by_pow(modulus, a):
    """a^(q-2) = a^-1 in GF(q), q = 2^deg(modulus)."""
    return pow_by_bits(modulus, a, (1 << (modulus.bit_length() - 1)) - 2)


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
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        lin = [p.q0.rows[i][j], p.q1.rows[i][j]]
        if not any(lin):
            continue
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


def radical_map_matches_members(p, ws):
    """ws, read as Omega(l, u) = sum l^(m-i) u^i w_i, equals the Pfaffian
    vector of the member l*G0 + u*G1 at m+2 distinct projective points
    (l, u), over an extension with more than m elements.  Both sides are
    vectors of binary forms of degree m, so agreement at m+1 points is
    equality.  Omega is only evaluated here, never chained or
    interpolated."""
    gf, m = p.gf, p.m
    j = 1
    while gf.order ** j <= m:
        j += 1
    ext = GF(gf.degree * j)
    emb = find_embedding(gf, ext)
    mul = ext.mul
    g0, g1 = ([emb.map_vec(row) for row in q.polar()] for q in (p.q0, p.q1))
    wse = [emb.map_vec(w) for w in ws]
    for l, u in [(1, 0)] + [(x, 1) for x in range(m + 1)]:
        member = [[mul(l, a) ^ mul(u, b) for a, b in zip(r0, r1)]
                  for r0, r1 in zip(g0, g1)]
        omega = [0] * p.n
        for i, w in enumerate(wse):
            c = mul(ext.pow(l, m - i), ext.pow(u, i))
            omega = [x ^ mul(c, y) for x, y in zip(omega, w)]
        if omega != pfaffian_vector(ext, member):
            return False
    return True


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
    corank-1 property of regular pencils.  The roots come from a scan of
    ext, so that the oracle shares no root finding with the package."""
    p.require_regular()
    emb = find_embedding(p.gf, ext)
    a = emb.map_vec(p.half_discriminant())
    pts = [(1, x) for x in roots_by_scan(ext, poly.trim(a[:]))]
    if not a[-1]:
        pts.append((0, 1))  # a_n = 0: the root at infinity
    if len(pts) != p.n:
        raise PreconditionError(
            f"extension {ext!r} does not split Delta "
            f"({len(pts)} of {p.n} roots)"
        )
    pe = p.over(ext)
    return [((l, u), p.n - rank(ext, pe.member(l, u).polar())) for (l, u) in pts]


def is_zero(q):
    """q is the zero quadratic form."""
    return not any(map(any, q.rows))


def all_idempotents(algebra):
    """All 2^l sums of primitive idempotents (the kernel of wp)."""
    out = [algebra.zero()]
    for e in algebra.idempotents:
        out += [algebra.add(x, e) for x in out]
    return out


def singular_points_on_X(p, ext):
    """Points of X(ext) where the Jacobian rows b0(x,.), b1(x,.) have rank
    below 2 (the literal smoothness criterion, scan form)."""
    pe = p.over(ext)
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
        return [[i + 1, j + 1, c] for i, row in enumerate(q.rows)
                for j, c in enumerate(row) if c]

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
# Kronecker-frame matrices in full: the code the block formulas replaced


def phi_model_matrix(m, s):
    """phi(s) = [[I, Cat(s)], [0, I]] in Kronecker coordinates
    (w_0..w_m, v_0..v_{m-1}) as a full n x n matrix, Cat(s)[k][j] = s_(k+j)
    with s padded by zeros to length 2m."""
    n = 2 * m + 1
    s = list(s) + [0] * (2 * m - len(s))
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(m + 1):
        for j in range(m):
            g[k][m + 1 + j] = s[k + j]
    return g


def model_to_pencil(gf, b, b_inv, g_model):
    """B g B^-1: a matrix given in the coordinates of the basis whose
    columns are b, in the pencil's own coordinates; b_inv is B^-1."""
    return mat_mul(gf, mat_mul(gf, b, g_model), b_inv)


# ---------------------------------------------------------------------------
# the pair group element by element: the code the group law replaced


def automorphism_group_per_element(p):
    """The pair group as it was built before the group law was used: phi of
    every sum of the idempotents eps_1.. (bit mask i, eps_0 dropped), each
    conjugated into the pencil's coordinates by two matrix products and
    certified by its own two substitutions."""
    from qpencil.autos import AutomorphismRep, pair_algebra

    an = pair_algebra(p)
    algebra, nf = an.algebra, an.nf
    reps = [algebra.zero()]
    for e in algebra.idempotents[1:]:
        reps += [algebra.add(x, e) for x in reps]
    out = []
    for e in reps:
        s = list(algebra.d_coords(e))[: algebra.n - 1]
        g = model_to_pencil(nf.gf, nf.basis, nf.inverse, phi_model_matrix(nf.m, s))
        if p.q0.transform(g) != p.q0 or p.q1.transform(g) != p.q1:
            raise AssertionError("phi(idempotent) fails to preserve the pair")
        out.append(AutomorphismRep(tuple(s), tuple(tuple(r) for r in g)))
    return out


def generators_per_element(p, ext):
    """The 2^(2m) generator spans over ext, the i-th the image of the first
    under element i of automorphism_group_per_element, one matrix-vector
    product per spanning vector."""
    from qpencil.autos import pair_algebra
    from qpencil.linalg import normalize_subspace

    pe = p.over(ext)
    b0 = pair_algebra(pe).r0_frame
    m, n = pe.m, pe.n
    first = normalize_subspace(ext, [[b0[r][m + 1 + j] for r in range(n)] for j in range(m)])
    return [normalize_subspace(ext, [mat_vec(ext, rep.matrix, v) for v in first])
            for rep in automorphism_group_per_element(pe)]


def line_gram_pairwise(gf, gens):
    """The intersection numbers of every pair of generators over gf, one
    measured intersection per unordered pair."""
    from qpencil.lattice import intersection_number

    k = len(gens)
    out = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            out[i][j] = out[j][i] = intersection_number(gf, gens[i], gens[j])
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


# ---------------------------------------------------------------------------
# the quasi-split degree level by level: the code the component traces replaced


def quasi_split_by_scan(p):
    """Smallest scanned extension degree j where the r-coset dies, with that
    extension: a full pair_algebra over every GF(2^(k j)), j = 1, 2, ...,
    up to twice the splitting degree, skipping the levels where every point
    of P^1 is a root of Delta."""
    from qpencil.autos import pair_algebra
    from qpencil.geometry import splitting_degree

    p.require_regular()
    bound = 2 * splitting_degree(p)
    for j in range(1, bound + 1):
        ext = GF(p.gf.degree * j)
        try:
            an = pair_algebra(p.over(ext))
        except PreconditionError:
            continue  # every point of P^1(ext) is a root of Delta
        if an.witness is not None:
            return j, ext
    raise AssertionError("no quasi-splitting extension within twice the "
                         "splitting degree")


# ---------------------------------------------------------------------------
# Aut(X) by scans: the code that root triples and the law of R x| G replaced


def stabilizer_by_scan(p, ext):
    """Elements of PGL2(ext) permuting the projective roots of Delta: every
    element of pgl2_elements(ext), each root's image normalized."""
    from qpencil.autos import _projective_key, pgl2_elements

    pts = set(p.over(ext).projective_roots())
    if len(pts) != p.n:
        raise PreconditionError(f"{ext!r} does not split Delta")
    out = []
    for m2 in pgl2_elements(ext):
        image = set()
        for (l, u) in pts:
            il = ext.mul(m2[0][0], l) ^ ext.mul(m2[0][1], u)
            iu = ext.mul(m2[1][0], l) ^ ext.mul(m2[1][1], u)
            image.add(_projective_key(ext, [(il, iu)])[0])
        if image == pts:
            out.append(m2)
    return out


def aut_x_table_by_products(gf, r_mats, lifts):
    """(classes, table) of R x| G: the class of r L for every r in r_mats
    and L in lifts, in that order, and the product of every two classes,
    formed and normalized entry by entry."""
    from qpencil.autos import _projective_key

    classes = []
    index = {}
    for rm in r_mats:
        for lm in lifts:
            g = mat_mul(gf, rm, lm)
            key = _projective_key(gf, g)
            if key not in index:
                index[key] = len(classes)
                classes.append(key)
    if len(classes) != len(r_mats) * len(lifts):
        raise AssertionError("semidirect product classes collide")
    # g1 times every class at once: the classes side by side as one wide
    # matrix, so each product row is one kernel call
    n = len(classes[0])
    wide = [[x for k2 in classes for x in k2[i]] for i in range(n)]
    table = []
    for k1 in classes:
        prod = mat_mul(gf, k1, wide)
        table.append(tuple(
            index[_projective_key(gf, [r[c:c + n] for r in prod])]
            for c in range(0, len(wide[0]), n)))
    return tuple(classes), tuple(table)
