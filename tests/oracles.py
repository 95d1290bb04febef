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
import random

from qpencil import poly
from qpencil.errors import PreconditionError
from qpencil.field import GF, Embedding, find_embedding, p2_is_irreducible
from qpencil.linalg import mat_mul, mat_vec, rank, solve, transpose, vec_scale
from qpencil.quadform import QuadraticForm
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
        if omega != pfaffian_vector_fraction_free(ext, member):
            return False
    return True


# ---------------------------------------------------------------------------
# helpers only the tests use


def compose_embeddings(src, first, second):
    """The embedding src -> second.dst through first: src -> first.dst,
    then second: first.dst -> second.dst."""
    return Embedding(src, second.dst, second.map(first.root))


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
    return lhs == member(pfaffian_vector_fraction_free(p.gf, member.polar()))


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
    """gf2_pivots (the reference below) by a scan over every pivot, re-sorted after each
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
    """The spanning columns of k + wp(A) in the order of _coset_pivots, each
    packed by the field (Field.pack): wp of each x^b t^j, squared by
    multiplication, then the constants x^b."""
    gf, k = algebra.gf, algebra.gf.degree
    cols = []
    for j in range(algebra.n):
        for b in range(k):
            x = algebra.element([0] * j + [1 << b])
            cols.append(gf.pack(algebra.add(algebra.mul(x, x), x)))
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


# ---------------------------------------------------------------------------
# the default moduli by search: the code the committed table replaced


def default_modulus_by_search(k):
    """The smallest irreducible degree-k modulus: the first m >= 2^k that
    passes the Rabin test."""
    return next(m for m in range(1 << k, 1 << (k + 1)) if p2_is_irreducible(m))


# ---------------------------------------------------------------------------
# scalar loops, one Field.mul per product: the references of the packed
# paths of linalg and poly (tests/test_packed_paths.py)


def rref_by_loop(gf, a):
    """rref's answer, pivoting as rref does (the lowest column, the first
    row below the pivots with a nonzero entry there), with the raw pivot
    each pivot row was divided by."""
    rows = [list(row) for row in a]
    pivots = []
    scales = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        scales.append(rows[r][c])
        inv = gf.inv(rows[r][c])
        rows[r] = [gf.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x ^ gf.mul(f, y) for x, y in zip(row, rows[r])]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows, pivots, scales


def nullspace_by_loop(gf, a):
    """One basis vector of {x : a x = 0} per free column of rref_by_loop."""
    rows, pivots, _ = rref_by_loop(gf, a)
    basis = []
    for free in range(len(a[0])):
        if free not in pivots:
            v = [0] * len(a[0])
            v[free] = 1
            for row, c in zip(rows, pivots):
                v[c] = row[free]
            basis.append(v)
    return basis


def inverse_by_loop(gf, a):
    """a^-1 from rref_by_loop of [a | I], or None when a is singular."""
    size = len(a)
    rows, pivots, _ = rref_by_loop(gf, [list(row) + [int(i == j) for j in range(size)]
                                     for i, row in enumerate(a)])
    return [row[size:] for row in rows] if pivots == list(range(size)) else None


def divmod_by_loop(gf, a, b):
    """Schoolbook division of coefficient lists (index = degree), b[-1] != 0:
    the trimmed quotient and remainder."""
    rem = list(a)
    quo = [0] * max(0, len(a) - len(b) + 1)
    inv = gf.inv(b[-1])
    for d in range(len(quo) - 1, -1, -1):
        coef = gf.mul(rem[d + len(b) - 1], inv)
        quo[d] = coef
        for j, y in enumerate(b):
            rem[d + j] ^= gf.mul(coef, y)
    for c in (quo, rem):
        while c and not c[-1]:
            c.pop()
    return quo, rem


def square_mod_by_loop(gf, h, m):
    """h^2 mod m: the schoolbook square, then divmod_by_loop."""
    sq = [0] * max(0, 2 * len(h) - 1)
    for i, x in enumerate(h):
        for j, y in enumerate(h):
            sq[i + j] ^= gf.mul(x, y)
    return divmod_by_loop(gf, sq, m)[1]


# ---------------------------------------------------------------------------
# the Pfaffian vector by fraction-free elimination: the code that one rref
# of [G | I] replaced (quadform.radical_elimination)


def pfaffian_vector_fraction_free(gf, gram):
    """Principal Pfaffians (delete row/column i) of an odd-size alternating
    matrix; zero when the corank is >= 3.

    Fraction-free elimination, O(n^3) multiplications and one inversion: a
    pivot p = a_ij turns the other rows R into S = p*A_RR + x y^T + y x^T
    (x, y: rows i, j on R), p times the Schur complement.  Back-substitution
    sets omega_R = p*omega(S) and, from A omega = 0 (no signs in
    characteristic 2), omega_i = y.omega(S), omega_j = x.omega(S); at the end
    everything is divided by the product of the p^((|R|-1)/2).
    """
    s = len(gram)
    if s % 2 != 1:
        raise ValueError("Pfaffian vector needs odd size")
    mul = gf.mul
    a = [list(row) for row in gram]
    alive = list(range(s))
    pivots = []
    scale = 1
    while len(alive) > 1:
        pivot = next(((i, j) for i in alive for j in alive if i < j and a[i][j]), None)
        if pivot is None:
            return [0] * s  # a zero block of size >= 3: corank >= 3
        i, j = pivot
        p = a[i][j]
        alive = [t for t in alive if t != i and t != j]
        for k, u in enumerate(alive):
            row, xu, yu = a[u], a[i][u], a[j][u]
            for v in alive[k + 1 :]:
                row[v] = a[v][u] = mul(p, row[v]) ^ mul(xu, a[j][v]) ^ mul(yu, a[i][v])
        pivots.append((i, j, p))
        scale = mul(scale, gf.pow(p, (len(alive) - 1) // 2))
    omega = [0] * s
    omega[alive[0]] = 1
    for i, j, p in reversed(pivots):
        # entries outside omega(S) are still zero, so whole rows can be dotted
        wi = wj = 0
        for x, y, w in zip(a[i], a[j], omega):
            wi ^= mul(y, w)
            wj ^= mul(x, w)
        omega = [mul(p, w) for w in omega]
        omega[i], omega[j] = wi, wj
    inv = gf.inv(scale)
    return [mul(inv, w) for w in omega]


# ---------------------------------------------------------------------------
# the Kronecker completion on the full pairing system and the flattened
# proportionality check: the code that the pairing system from W G1 alone
# (normalform.complete_kronecker) and the lazy scan (pencil._proportional)
# replaced


def kronecker_completion_full_system(p, ws):
    """The Kronecker basis matrix (columns w_0..w_m, v_0..v_{m-1}) from
    the 2m+2 conditions b1(w_i, v_j) = delta_ij and b0(w_i, v_j) =
    delta_{i(j+1)}: one solve with the rows of W G1, then of W G0, and the
    v-v correction from V G1 V^T and V G0 V^T, two products each."""
    from qpencil.normalform import _vv_correction

    gf, m = p.gf, p.m
    g0, g1 = p.q0.polar(), p.q1.polar()
    v0 = solve(gf, mat_mul(gf, ws, g1) + mat_mul(gf, ws, g0), [
        [int(i == j) for i in range(m + 1)] + [int(i == j + 1) for i in range(m + 1)]
        for j in range(m)
    ])
    if v0 is None:
        return None
    right = transpose(v0[1:])
    c1, c0 = ([x for i, row in enumerate(mat_mul(gf, mat_mul(gf, v0[:-1], g), right))
               for x in row[i:]] for g in (g1, g0))
    sol = _vv_correction(m, c1, c0)
    corr = mat_mul(gf, [sol[j * (m + 1):(j + 1) * (m + 1)] for j in range(m)], ws)
    v0 = [[x ^ y for x, y in zip(v, c)] for v, c in zip(v0, corr)]
    return tuple(tuple(col) for col in zip(*(ws + v0)))


def proportional_by_scaling(q0, q1):
    """Whether Pencil refuses (q0, q1) as proportional, both forms
    flattened: q0 zero, or q1 equal to the one multiple of q0 that agrees
    at q0's first nonzero coefficient."""
    gf = q0.gf
    c0, c1 = ([x for i, row in enumerate(q.rows) for x in row[i:]] for q in (q0, q1))
    lead = next((i for i, x in enumerate(c0) if x), None)
    return lead is None or vec_scale(gf, c0, gf.div(c1[lead], c0[lead])) == c1


# ---------------------------------------------------------------------------
# coset reduction by one GF(2) elimination of every column, k bits per
# entry: the code that the even-slot moves and the elimination of the hard
# columns replaced (EtaleAlgebra._coset_pivots, coset_reduce,
# solve_artin_schreier), with the bit-packed GF(2) toolkit it ran on (once
# linalg.gf2_pivots and gf2_reduce)


def gf2_pivots(columns):
    """(value, combination) pairs spanning the columns, with distinct
    leading bits in descending order; bit j of a combination is column j."""
    by_lead = {}
    leads = 0  # the pivots' leading bits
    for j, col in enumerate(columns):
        combo = 1 << j
        # the pivot to use next is the one whose leading bit is the
        # highest bit of col among the leads; the reduction is unique
        while hit := col & leads:
            val, cmb = by_lead[hit.bit_length()]
            col ^= val
            combo ^= cmb
        if col:
            by_lead[col.bit_length()] = col, combo
            leads |= 1 << (col.bit_length() - 1)
    return [by_lead[b] for b in sorted(by_lead, reverse=True)]


def gf2_reduce(v, pivots):
    """The remainder of v with none of the pivots' leading bits set, and
    the combination of columns whose xor is v + remainder."""
    combo = 0
    for val, cmb in pivots:
        if v ^ val < v:
            v ^= val
            combo ^= cmb
    return v, combo


def coset_by_dense_bits(algebra, xs):
    """(the canonical representative of x modulo k + wp(A), whether it is
    trivial, the Artin-Schreier witness or None) for each x in xs, with
    every element packed densely, entry j in bits [j k, j k + k): the
    columns wp(x^b t^j), squared by multiplication, then the constants
    x^b, eliminated once by the GF(2) toolkit; the witness is the
    combination read k bits per entry."""
    k, n = algebra.gf.degree, algebra.n
    cols = []
    for j in range(n):
        for b in range(k):
            e = algebra.element([0] * j + [1 << b])
            cols.append(_dense_bits(algebra.add(algebra.mul(e, e), e), k))
    pivots = gf2_pivots(cols + [1 << b for b in range(k)])
    out = []
    for x in xs:
        red, combo = gf2_reduce(_dense_bits(x, k), pivots)
        witness = None if red else _dense_entries(combo, k, n)
        out.append((_dense_entries(red, k, n), red == 0, witness))
    return out


def _dense_bits(v, k):
    acc = 0
    for j, c in enumerate(v):
        acc |= c << j * k
    return acc


def _dense_entries(bits, k, n):
    return tuple(bits >> j * k & (1 << k) - 1 for j in range(n))


# ---------------------------------------------------------------------------
# the square root one bit at a time: the loop that Field.sqrt's byte tables
# replaced


def sqrt_by_bits(gf, xs):
    """The square root of each a in xs as the xor of the roots of the T^i at
    the set bits of a: sqrt(T^2j) = T^j and sqrt(T^(2j+1)) = sqrt(T) T^j,
    with sqrt(T) = T^(2^(k-1)), the k roots built once."""
    s = gf.pow(2, gf.order >> 1)  # unused at k = 1
    roots = [gf.mul(s, 1 << i // 2) if i & 1 else 1 << i // 2 for i in range(gf.degree)]
    out = []
    for a in xs:
        r = 0
        while a:
            low = a & -a
            r ^= roots[low.bit_length() - 1]
            a ^= low
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# the pull-back by definition, and the idempotents from the two-cofactor
# extended gcd: the references of QuadraticForm.transform's stacked
# products and of EtaleAlgebra.idempotents' one-cofactor inverse


def transform_by_definition(q, g):
    """q o g for an n x k matrix g, coefficient by coefficient in scalar
    arithmetic: x_i^2 has q(g e_i) and x_i x_j, i < j, has the polar value
    b(g e_i, g e_j)."""
    cols = [list(c) for c in zip(*g)]
    table = {}
    for i, v in enumerate(cols):
        table[(i, i)] = q(v)
        for j in range(i + 1, len(cols)):
            table[(i, j)] = polar_by_definition(q, v, cols[j])
    return QuadraticForm.from_table(q.gf, len(cols), table)


def _extended_gcd(gf, a, b):
    """(g, u, v) with u a + v b = g monic: Euclid keeping both cofactors."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = poly.divmod_(gf, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly.add(s0, poly.mul(gf, q, s1))
        t0, t1 = t1, poly.add(t0, poly.mul(gf, q, t1))
    c = gf.inv(r0[-1])
    return vec_scale(gf, r0, c), vec_scale(gf, s0, c), vec_scale(gf, t0, c)


def idempotents_by_extended_gcd(algebra):
    """The primitive idempotents as the extended gcd of f_i and g_i = f / f_i
    gives them, for the monic f and its factors f_i: u f_i + v g_i = 1, and
    e_i = v g_i reduced modulo f."""
    gf, f = algebra.gf, list(algebra.monic_f)
    out = []
    for fi in algebra.factors:
        gi = poly.divexact(gf, f, list(fi))
        one, _, v = _extended_gcd(gf, list(fi), gi)
        assert one == [1], "separable factors are not coprime"
        out.append(algebra.from_poly(poly.mul(gf, v, gi)))
    return tuple(out)


# ---------------------------------------------------------------------------
# factorization with every q-th power taken as k squarings: the code that
# Berlekamp's Q replaced (poly.factor's distinct-degree and equal-degree
# stages)


def factor_by_squarings(gf, p):
    """The monic irreducible factors of a squarefree, non-constant p, sorted
    by degree and then by coefficients: distinct-degree splitting with each
    T^(q^d) mod p from k squarings, then equal-degree splitting of each part
    by the absolute trace, k d - 1 squarings modulo each piece."""
    rng = random.Random(poly._seed_from(gf, p, 0x5EED))
    out = []
    for part, d in _distinct_degree_by_squarings(gf, poly.monic(gf, p)):
        out.extend(_equal_degree_split_by_squarings(gf, part, d, rng))
    return sorted(out, key=lambda f: (len(f), f))


def _distinct_degree_by_squarings(gf, p):
    out = []
    table = poly.square_table(gf, p)
    h = [0, 1]  # T, then T^(q^d) mod p
    v = p[:]
    d = 0
    while poly.degree(v) > 0:
        d += 1
        if 2 * d > poly.degree(v):
            out.append((v, poly.degree(v)))
            break
        for _ in range(gf.degree):
            h = poly.square_mod(gf, h, table)
        g = poly.gcd(gf, poly.add(h, [0, 1]), v)
        if poly.degree(g) > 0:
            out.append((g, d))
            v = poly.divexact(gf, v, g)
    return out


def _equal_degree_split_by_squarings(gf, p, d, rng):
    if poly.degree(p) == d:
        return [p]
    table = poly.square_table(gf, p)
    while True:
        h = poly.trim([rng.randrange(gf.order) for _ in range(poly.degree(p))])
        if poly.degree(h) < 1:
            continue
        tr, sq = h[:], h[:]  # h + h^2 + h^4 + ..., k d terms
        for _ in range(gf.degree * d - 1):
            sq = poly.square_mod(gf, sq, table)
            tr = poly.add(tr, sq)
        g = poly.gcd(gf, tr, p) if tr else []
        if g and 0 < poly.degree(g) < poly.degree(p):
            return (_equal_degree_split_by_squarings(gf, g, d, rng)
                    + _equal_degree_split_by_squarings(gf, poly.divexact(gf, p, g), d, rng))
