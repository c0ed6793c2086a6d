"""Independent reference computations used to check the library.

Everything here is deliberately written from scratch with different
algorithms than the package: Bareiss fraction-free determinants, minor
gcds, naive mod-p elimination.  Reduced row echelon form over Q runs in
Fraction arithmetic, as a reference for the library's elimination on
primitive integer rows.  The field solve, subgroup test and quotient
keep the library's earlier lattice-free route, one RREF of the blocks
side by side per question, as a reference for the one coordinate path
that every ring reads now.  The integer quotient helpers keep the
library's earlier route through extra Smith forms, as a reference for
the Smith-form coordinate maps the library uses now; it multiplies the
numerator basis by all of U, where the library computes only the
generator columns.  The earlier Smith certificate (three full dense
products) is kept as a reference for the diagonal scans and the one
rank-r product the library checks instead.  The Cech helpers rebuild
every nerve complex, pullback and relative cone per call, as a
reference for the views covers and cover maps compile once.
The integer solve divides by the Smith diagonal row by row, and the
cochain cone is re-sliced out of the chain cone, as references for the
lattice coordinates and the block-assembled cochain cone the library
reads instead.  Angle witnesses clear denominators, bound a modulus by
the lcm of the elementary divisors and run a fresh Smith form of
[A | kI] per solve, as a reference for the library's direct solve over
Q/Z, which divides by the diagonal of one Smith form of A that its
cover-map views keep per degree.  The integrality pairing is a plain
sum over lists, as a reference for the one Kronecker pairing the library
reads.  Each
simplex-indexed matrix has its own loop, with its own index lookup and
orientation sign, as a reference for the one incidence builder the
simplicial layer uses; facets come from an all-pairs scan, and the cone
space is read back from a built cylinder.  The long exact sequences are
rerun with each class expressed on its own, a Smith form of each kernel
basis to solve against it, a subgroup test for every image inside its
kernel and a solve of f_n X = I for surjectivity, as a reference for
the batched reads of the lattices each sequence has already certified.
They are also rerun with every group presented (a Smith form of each
differential, and of each cokernel numerator) and every position tested
for exactness, as a reference for the sequences' reads of the
invariants, which present no zero group.
Frozen expected values for the fixed test cases live at the bottom.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple


def det_int(rows):
    """Integer determinant by fraction-free Bareiss elimination."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minors_gcd(rows, k):
    """gcd of all k x k minors; 0 when every minor vanishes."""
    m, n = len(rows), len(rows[0]) if rows else 0
    g = 0
    for ri in combinations(range(m), k):
        for ci in combinations(range(n), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, det_int(sub))
            if g == 1:
                return 1
    return g


def smith_diagonal_via_minors(rows):
    """Elementary divisors from minor gcds: d_1...d_k = gcd(k-minors)."""
    m, n = len(rows), len(rows[0]) if rows else 0
    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = minors_gcd(rows, k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    while len(out) < min(m, n):
        out.append(0)
    return tuple(out)


def rank_mod_p(rows, p):
    """Rank over Z/p by plain Gaussian elimination."""
    a = [[x % p for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    for c in range(n):
        piv = None
        for i in range(rank, m):
            if a[i][c] % p:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], p - 2, p) if p > 2 else a[rank][c]
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][c] % p:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def rank_rational(rows):
    """Rank over Q by Gaussian elimination on Fractions."""
    a = [[Fraction(x) for x in r] for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    rank = 0
    for c in range(n):
        piv = None
        for i in range(rank, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = 1 / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def betti_numbers_field(ranks, diffs, p=None):
    """Betti numbers of a chain complex from ranks alone.

    ranks: dict degree -> free rank; diffs: dict degree -> rows
    (matrix of d_n as list of lists, shape rank(n-1) x rank(n)).
    p None means rational coefficients.
    """
    rk = dict(ranks)
    out = {}
    degs = sorted(rk)
    for n in degs:
        dn = diffs.get(n, [])
        dn1 = diffs.get(n + 1, [])
        rkf = rank_rational if p is None else (lambda m: rank_mod_p(m, p))
        r_dn = rkf(dn) if dn and dn[0] else 0
        r_dn1 = rkf(dn1) if dn1 and dn1[0] else 0
        out[n] = rk.get(n, 0) - r_dn - r_dn1
    return out


def _rank_of_columns(cols, p):
    rows = [list(r) for r in zip(*cols)]
    return rank_rational(rows) if p is None else rank_mod_p(rows, p)


def greedy_quotient_field(num_cols, den_cols, p=None):
    """span(num)/span(den) over Q (p None) or Z/p, by incremental rank tests.

    Scans den, then num, left to right and keeps each column that raises
    the rank of the columns kept so far.  Returns (generators, boundary
    basis) as lists of columns.  This is the library's original
    one-rank-test-per-column construction, kept as a reference.
    """
    base = []
    for col in den_cols:
        if _rank_of_columns(base + [col], p) > len(base):
            base.append(col)
    gens = []
    for col in num_cols:
        if _rank_of_columns(base + gens + [col], p) > len(base) + len(gens):
            gens.append(col)
    return gens, base


def first_column_outside_span(a_cols, b_cols, p=None):
    """The first column of A not in span(B) over Q or Z/p, or None."""
    rb = _rank_of_columns(b_cols, p)
    for col in a_cols:
        if _rank_of_columns(b_cols + [col], p) > rb:
            return col
    return None


def rref_fraction(rows, p=None):
    """Reduced row echelon form over Q (p None), in Fraction arithmetic, or over Z/p.

    The library's earlier field elimination, kept as the reference for its
    fraction-free one over Q.  Returns (rows, pivot columns) with every row
    reduced; the rows past the pivot rows are zero.
    """
    rows = [[Fraction(x) if p is None else x % p for x in row] for row in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c] if p is None else pow(rows[r][c], -1, p)
        nz = [(j, x * inv if p is None else x * inv % p) for j, x in enumerate(rows[r]) if j >= c and x]
        for j, x in nz:
            rows[r][j] = x
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p is None:
                    for j, x in nz:
                        row[j] -= f * x
                else:
                    for j, x in nz:
                        row[j] = (row[j] - f * x) % p
        pivots.append(c)
    return rows, pivots


# ---------------------------------------------------------------------------
# Field solving, subgroup tests and quotients by the library's earlier
# lattice-free route: one RREF of the blocks side by side per question
# ---------------------------------------------------------------------------


def solve_field(a, b):
    """One field solution of A X = B, or None: one RREF of [A | B], free unknowns 0.

    Over Q only the reduced entries in B's columns become Fractions.
    """
    from relcone.homology import _rref
    from relcone.matrix import Matrix

    reduced, pivots = _rref(a, b)
    if pivots and pivots[-1] >= a.ncols:
        return None
    out = [[a.ring.zero()] * b.ncols for _ in range(a.ncols)]
    for pc, vals in zip(pivots, reduced(range(a.ncols, a.ncols + b.ncols))):
        out[pc] = vals
    return Matrix(a.ring, a.ncols, b.ncols, out)


def subgroup_leq_field(gens_a, gens_b):
    """Is span(A) inside span(B) over a field?  (ok, witness): the first pivot of [B | A] right of B."""
    from relcone.homology import _rref

    for c in _rref(gens_b, gens_a)[1]:
        if c >= gens_b.ncols:
            return False, gens_a.col(c - gens_b.ncols)
    return True, None


class FieldQuotient(NamedTuple):
    """A field quotient presented with no lattice: the group and the boundary basis it chose."""

    group: object
    boundary_gens: object


def quotient_space_field(ring, ambient, num, den):
    """span(num)/span(den) over a field, den inside span(num), by one RREF of [den | num].

    Pivot columns in den form the boundary basis; pivot columns in num
    extend it to a basis of span(num) and are the generators.
    """
    from relcone.homology import AbGroup, _rref

    pivots = _rref(den, num)[1]
    base = [c for c in pivots if c < den.ncols]
    keep = [c - den.ncols for c in pivots if c >= den.ncols]
    group = AbGroup(len(keep), (), tuple(num.col(j) for j in keep), ring)
    return FieldQuotient(group, den.submatrix(range(ambient), base))


def express_via_solve_field(data, vec):
    """Class coordinates of vec over a field by solving [gen_matrix | boundary_gens] x = vec."""
    from relcone.errors import InvalidChainMap, ShapeMismatch
    from relcone.matrix import Matrix, hstack

    if len(vec) != data.ambient_rank:
        raise ShapeMismatch(f"cycle length {len(vec)} vs ambient {data.ambient_rank}")
    sol = solve_field(hstack(data.ring, [data.gen_matrix, data.boundary_gens]), Matrix.column(data.ring, list(vec)))
    if sol is None:
        raise InvalidChainMap("vector is not a cycle modulo boundaries")
    return tuple(sol.entry(i, 0) for i in range(data.ngens))


# ---------------------------------------------------------------------------
# Integer quotients by the library's earlier route: a Smith form of the
# numerator basis to solve for the denominator, and a Smith form of
# [generators | boundaries] to express a class
# ---------------------------------------------------------------------------


def quotient_group_int_via_snf(ambient_rank, num_basis, den_gens):
    """span(num_basis)/span(den_gens) over Z via snf(num_basis) + solve.

    Returns (w, free_rank, torsion, generators, orders): w holds the
    coordinates of den_gens in num_basis, the rest present the quotient
    with torsion generators first and each generator's first nonzero
    entry positive.  Raises InvalidChainMap when den is not inside num.
    """
    from relcone.errors import InvalidChainMap
    from relcone.homology import snf, solve

    k = num_basis.ncols
    if k == 0:
        return None, 0, (), (), ()
    w = solve(num_basis, den_gens)
    if w is None:
        raise InvalidChainMap("denominator not contained in numerator lattice")
    s2 = snf(w)
    new_basis = num_basis @ s2.u
    orders = [s2.diag[i] if i < len(s2.diag) else 0 for i in range(k)]
    keep = [i for i in range(k) if orders[i] >= 2] + [i for i in range(k) if orders[i] == 0]
    gens = []
    for i in keep:
        col = new_basis.col(i)
        sgn = next((1 if x > 0 else -1 for x in col if x), 1)
        gens.append(tuple(sgn * x for x in col))
    torsion = tuple(orders[i] for i in keep if orders[i])
    return w, sum(1 for i in keep if orders[i] == 0), torsion, tuple(gens), tuple(orders[i] for i in keep)


def check_snf_full(a, r):
    """The library's earlier Smith certificate: U D V, U Uinv and V Vinv as full dense products.

    Raises InvalidChainMap.  It checks only the off-diagonal entries of D
    and never reads `rank`, so it accepts a `diag` or `rank` that
    disagrees with D, which the library's certificate refuses.
    """
    from relcone.coeffs import INT
    from relcone.errors import InvalidChainMap
    from relcone.matrix import Matrix

    if r.u @ r.d @ r.v != a:
        raise InvalidChainMap("snf: A != U D V")
    if r.u @ r.uinv != Matrix.identity(INT, a.nrows):
        raise InvalidChainMap("snf: U inverse wrong")
    if r.v @ r.vinv != Matrix.identity(INT, a.ncols):
        raise InvalidChainMap("snf: V inverse wrong")
    diag = r.diag
    if any(x < 0 for x in diag):
        raise InvalidChainMap("snf: negative diagonal")
    for i in range(len(diag) - 1):
        if diag[i + 1] and not (diag[i] and diag[i + 1] % diag[i] == 0):
            raise InvalidChainMap("snf: divisibility chain broken")
    for i in range(a.nrows):
        for j in range(a.ncols):
            if i != j and r.d.entry(i, j):
                raise InvalidChainMap("snf: D not diagonal")


def express_via_solver_snf(data, vec):
    """Class coordinates of vec by solving [gen_matrix | boundary_gens] x = vec over Z."""
    from relcone.coeffs import INT
    from relcone.errors import InvalidChainMap, ShapeMismatch
    from relcone.homology import solve
    from relcone.matrix import Matrix, hstack

    if len(vec) != data.ambient_rank:
        raise ShapeMismatch(f"cycle length {len(vec)} vs ambient {data.ambient_rank}")
    solver = hstack(INT, [data.gen_matrix, data.boundary_gens])
    sol = solve(solver, Matrix.column(INT, list(vec)))
    if sol is None:
        raise InvalidChainMap("vector is not a cycle modulo boundaries")
    coords = [sol.entry(i, 0) for i in range(data.ngens)]
    return tuple(c % d if d else c for c, d in zip(coords, data.orders))


# ---------------------------------------------------------------------------
# The long exact sequences by the library's earlier per-column route: each
# generator expressed on its own, a Smith form of each kernel basis to
# solve against it, a subgroup test for every image inside its kernel, and
# a solve of f_n X = I for surjectivity
# ---------------------------------------------------------------------------


def classes_per_column(data, cycles):
    """The classes of `cycles` in data's generators, one `express` per vector."""
    from relcone.matrix import Matrix

    return Matrix.from_columns(data.ring, data.ngens, [data.express(v) for v in cycles])


def solve_per_ring(a, b, forms=None):
    """One solution of A X = B over Z (a Smith form of A) or over a field (an RREF of [A | B]), or None."""
    from relcone.coeffs import INT
    from relcone.homology import solve

    return solve(a, b, forms) if a.ring == INT else solve_field(a, b)


def image_basis(s):
    """The basis d_i U[:, i], i < r, of the column span of A = U D V, as columns."""
    from relcone.coeffs import INT
    from relcone.matrix import Matrix

    return Matrix.from_columns(INT, s.u.nrows, [[d * v for v in s.u.col(i)] for i, d in enumerate(s.diag[: s.rank])])


def kernel_coords_via_solve(a, forms):
    """(basis of ker a, coordinates in it): the coordinates solve against the basis itself."""
    from relcone.homology import kernel_int

    basis = kernel_int(a, forms)
    return basis, lambda b: solve_per_ring(basis, b, forms)


def image_coords_via_solve(a, forms):
    """(basis of the column span of a, coordinates in it): the coordinates solve against the basis itself.

    Over Z the basis is d_i U[:, i], i < r, of the Smith form of a; over
    a field it is the pivot columns of a.
    """
    from relcone.coeffs import INT
    from relcone.homology import _rref, snf

    basis = image_basis(snf(a, forms)) if a.ring == INT else a.submatrix(range(a.nrows), _rref(a)[1])
    return basis, lambda b: solve_per_ring(basis, b, forms)


def subgroup_leq_per_column(gens_a, gens_b, forms=None):
    """Is span(A) inside span(B)?  (ok, first column of A outside), testing A's columns one at a time over Z."""
    from relcone import homology
    from relcone.coeffs import INT
    from relcone.matrix import Matrix

    if gens_a.ring != INT:
        return subgroup_leq_field(gens_a, gens_b)
    lat = homology._image(gens_b, forms)[0]
    for col in gens_a.columns():
        if lat.coords(Matrix.column(INT, col)) is None:
            return False, col
    return True, None


def exact_at_via_subgroups(label, here, incoming, outgoing, target, forms):
    """Exactness at `here` by two subgroup tests: image inside kernel, then kernel inside image."""
    from relcone.homology import LESPosition, _kernel_subgroup
    from relcone.matrix import hstack

    rel = here.relation_matrix()
    im = hstack(incoming.ring, [incoming, rel])
    ker = _kernel_subgroup(outgoing, target.relation_matrix(), rel, forms)
    ok1, w1 = subgroup_leq_per_column(im, ker, forms)
    ok2, w2 = subgroup_leq_per_column(ker, im, forms)
    if ok1 and ok2:
        return LESPosition(label, here.group, True, None)
    defect = f"image not contained in kernel; witness {list(w1)}" if not ok1 else f"kernel class not hit; witness {list(w2)}"
    return LESPosition(label, here.group, False, defect)


def onto_via_solve(a, forms):
    """Is A onto?  A X = I has a solution."""
    from relcone.matrix import Matrix

    return solve_per_ring(a, Matrix.identity(a.ring, a.nrows), forms) is not None


# The `homology` names the per-column route replaces; a test sets each of
# them for the length of one call to run a sequence by this route.
PER_COLUMN_ROUTE = {
    "_classes": classes_per_column,
    "_kernel_coords": kernel_coords_via_solve,
    "_image_coords": image_coords_via_solve,
    "_subgroup_leq": subgroup_leq_per_column,
    "_exact_at": exact_at_via_subgroups,
    "_onto": onto_via_solve,
}


# ---------------------------------------------------------------------------
# The long exact sequences with every group presented: homology_data in
# every degree, and both subgroup tests at every position, a zero group's
# included
# ---------------------------------------------------------------------------


def presentations_of_every_group(c, degrees, forms):
    """{n: homology_data(c, n)} for every n in `degrees`, zero or not."""
    from relcone.homology import homology_data

    return {n: homology_data(c, n, forms) for n in degrees}


def exact_at_every_position(label, here, incoming, outgoing, target, forms):
    """Exactness at `here` by the subgroup tests, run at a group with no generators too."""
    from relcone.homology import LESPosition, _in_relations, _kernel_subgroup, _subgroup_leq
    from relcone.matrix import hstack

    rel = here.relation_matrix()
    im = hstack(incoming.ring, [incoming, rel])
    ker = _kernel_subgroup(outgoing, target.relation_matrix(), rel, forms)
    ok1, w1 = (True, None) if _in_relations(outgoing @ im, target.orders) else _subgroup_leq(im, ker, forms)
    ok2, w2 = _subgroup_leq(ker, im, forms)
    if ok1 and ok2:
        return LESPosition(label, here.group, True, None)
    defect = f"image not contained in kernel; witness {list(w1)}" if not ok1 else f"kernel class not hit; witness {list(w2)}"
    return LESPosition(label, here.group, False, defect)


# The `homology` names the every-group route replaces, set the same way as
# PER_COLUMN_ROUTE's.
EVERY_GROUP_ROUTE = {
    "_presentations": presentations_of_every_group,
    "_exact_at": exact_at_every_position,
}


# ---------------------------------------------------------------------------
# The cokernel's homology by the library's earlier route: the quotient of
# presented groups {y : d y in im f_(n-1)} / (im d_(n+1) + im f_n)
# ---------------------------------------------------------------------------


def _coker_homology_data(f, n, forms):
    """Homology of the cokernel complex at degree n.

    The cokernel is a complex of presented groups Y_n / im(f_n), not free
    in general; its homology is computed from the presentation.
    """
    from relcone.coeffs import INT
    from relcone.homology import _image, _quotient_group_int, kernel_int, snf
    from relcone.matrix import hstack

    ring = f.ring
    y = f.dst
    g = y.rank(n)
    dn = y.diff(n)
    rel_prev = f.component(n - 1)
    rel_here = f.component(n)
    # numerator: {x : d x in im(f_(n-1))}
    stacked = hstack(dn.ring, [dn, rel_prev])
    kern = kernel_int(stacked, forms)
    gl = kern.submatrix(range(g), range(kern.ncols))
    den = hstack(dn.ring, [y.diff(n + 1), rel_here])
    if ring == INT:
        s = snf(gl, forms)
        return _quotient_group_int(g, image_basis(s), _image(gl, forms)[0], den, forms)
    return quotient_space_field(ring, g, gl, den)


# ---------------------------------------------------------------------------
# Integer solving by reading the Smith diagonal directly, and the cochain
# cone assembled from its own block formula
# ---------------------------------------------------------------------------


def solve_int_via_diagonal(a, b):
    """One integer solution X of A X = B, or None: divide Uinv B by the Smith diagonal row by row."""
    from relcone.coeffs import INT
    from relcone.errors import ShapeMismatch
    from relcone.homology import snf
    from relcone.matrix import Matrix

    s = snf(a)
    if b.nrows != a.nrows:
        raise ShapeMismatch(f"solve: {a.shape} vs rhs {b.shape}")
    c = s.uinv @ b
    rows = []
    for i in range(a.ncols):
        if i < len(s.diag) and s.diag[i]:
            row = []
            for j in range(b.ncols):
                num = c.entry(i, j)
                if num % s.diag[i]:
                    return None
                row.append(num // s.diag[i])
            rows.append(row)
        else:
            rows.append([0] * b.ncols)
    for i in range(len(s.diag), a.nrows):
        for j in range(b.ncols):
            if c.entry(i, j):
                return None
    for i in range(s.rank, min(len(s.diag), a.nrows)):
        for j in range(b.ncols):
            if c.entry(i, j):
                return None
    y = Matrix(INT, a.ncols, b.ncols, rows)
    return s.vinv @ y


def cochain_cone_by_reslice(f):
    """Cone of a chain-stored cochain map, re-sliced out of the chain cone of f.

    The plain block swap (a, b) -> (b, a) together with the degree shift
    D_m = Cone(f)_(m+1) intertwines the two differentials exactly, with
    no auxiliary signs, so each differential of D_m = Y~_(m+1) (+) X~_m
    is a submatrix of a chain cone differential.
    """
    from relcone.chain import GradedComplex, cone_of_map

    x, y = f.src, f.dst
    chain_cone = cone_of_map(f)

    def order(m):
        # Cone_(m+1)(f) = X~_m (+) Y~_(m+1), listed Y~ block first
        rx = x.rank(m)
        return list(range(rx, rx + y.rank(m + 1))) + list(range(rx))

    ranks = {n - 1: chain_cone.rank(n) for n in chain_cone.degrees()}
    diffs = {m: chain_cone.diff(m + 1).submatrix(order(m - 1), order(m)) for m in ranks}
    return GradedComplex._of(f.ring, ranks, diffs)


# ---------------------------------------------------------------------------
# The Cech layer rebuilt on every call
# ---------------------------------------------------------------------------
#
# These rebuild and re-validate the nerve complexes, the pullback and the
# relative cone from the cover data on each call, as the library did
# before covers and cover maps compiled them once into their views.


def nerve_coboundary(cover, p, ring=None):
    """d: C^p -> C^(p+1) of a cover, the transposed nerve boundary."""
    from relcone.coeffs import INT
    from relcone.simplicial import chain_complex

    return chain_complex(cover.nerve, ring or INT).diff(p + 1).transpose()


def pullback_matrix(m, p, ring=None):
    """C^p(dst) -> C^p(src) of a cover map, the transposed nerve pushforward."""
    from relcone.coeffs import INT
    from relcone.simplicial import chain_map

    return chain_map(m.nerve_map, ring or INT).component(p).transpose()


def rel_diff_by_blocks(u):
    """The cone vector of d(s, t) = (pullback(t) - ds, dt), assembled block by block.

    u is a relative q-cochain: its first (q-1)-overlap count of source
    coordinates is s, the rest t.  Each block is a rebuilt integer
    matrix acting on its part through the Z-module structure.
    """
    m, q, ring = u.m, u.degree, u.ring
    vec = u.vector()
    split = m.src.nerve.n_rank(q - 1)
    s, t = vec[:split], vec[split:]
    pulled = pullback_matrix(m, q).zapply(ring, t)
    ds = nerve_coboundary(m.src, q - 1).zapply(ring, s)
    dt = nerve_coboundary(m.dst, q).zapply(ring, t)
    return tuple(ring.sub(a, b) for a, b in zip(pulled, ds)) + dt


def cover_cochains(cover, ring):
    from helpers import cochain_complex

    d = cover.nerve.dim
    ranks = {p: cover.rank(p) for p in range(d + 1)}
    return cochain_complex(ring, ranks, {p: nerve_coboundary(cover, p, ring) for p in range(d + 1)})


def relative_cone(m, ring):
    """Cone of the pullback over `ring`, in chain storage (degree -q)."""
    from relcone.chain import ComplexMap, cone_of_cochain_map

    x = cover_cochains(m.dst, ring)
    y = cover_cochains(m.src, ring)
    top = min(m.src.dim, m.dst.dim)
    mats = {-p: pullback_matrix(m, p, ring) for p in range(top + 1)}  # cochain degree p sits at chain degree -p
    return cone_of_cochain_map(ComplexMap(x, y, mats))


def cone_data(m, n):
    """Integer homology of the relative cone at chain degree n."""
    from relcone.coeffs import INT
    from relcone.homology import homology_data

    return homology_data(relative_cone(m, INT), n)


def rel_class(u):
    """(coords, orders, group) of a closed Z or angle relative cocycle.

    Angle cocycles go through the connecting map: the cone differential
    of the canonical rational lift (values in [0, 1)) is an integer
    cocycle one degree up.
    """
    from relcone.coeffs import INT

    q = u.degree
    if u.ring == INT:
        data = cone_data(u.m, -q)
        return data.express(u.vector()), data.orders, data.group
    lift = [Fraction(v) for v in u.vector()]
    d = relative_cone(u.m, INT).diff(-q)
    w = [sum(a * x for a, x in zip(row, lift)) for row in d.rows]
    assert all(x.denominator == 1 for x in w), "connecting cocycle came out non-integral"
    data = cone_data(u.m, -(q + 1))
    return data.express([int(x) for x in w]), data.orders, data.group


def solve_int_mod(a, b, k):
    """One solution of A X = B (mod k): a fresh Smith form of [A | kI] per call, no solver kept."""
    from relcone.coeffs import INT
    from relcone.errors import ShapeMismatch
    from relcone.homology import solve
    from relcone.matrix import Matrix, hstack

    if k <= 0:
        raise ShapeMismatch("modulus must be positive")
    sol = solve(hstack(INT, [a, Matrix.identity(INT, a.nrows).zscale(k)]), b)
    return None if sol is None else sol.submatrix(range(a.ncols), range(b.ncols))


def solve_mod_one(mtx, target, exponent):
    """Rational w with mtx @ w = target (mod 1), or None, solved over Z/(D * exponent)."""
    from relcone.coeffs import INT
    from relcone.matrix import Matrix

    cleared = 1
    for v in target:
        d = Fraction(v).denominator
        cleared = cleared * d // gcd(cleared, d)
    modulus = cleared * exponent
    sol = solve_int_mod(mtx, Matrix.column(INT, [int(Fraction(v) * modulus) for v in target]), modulus)
    return None if sol is None else [Fraction(x, modulus) for x in sol.col(0)]


def rel_witness_vector(u):
    """Cone coordinates of a witness one degree down, or None (uncached solves on a rebuilt cone)."""
    from relcone.coeffs import INT
    from relcone.homology import snf, solve
    from relcone.matrix import Matrix

    mtx = relative_cone(u.m, INT).diff(-(u.degree - 1))
    if u.ring == INT:
        sol = solve(mtx, Matrix.column(INT, list(u.vector())))
        return None if sol is None else tuple(sol.col(0))
    exponent = 1
    for d in snf(mtx).diag:
        exponent = exponent * d // gcd(exponent, d) if d else exponent
    sol = solve_mod_one(mtx, u.vector(), exponent)
    return None if sol is None else tuple(u.ring.normalize(v) for v in sol)


def real_pairing(alpha, beta, g, split):
    """alpha(eta) - beta(theta) on the chain-cone generator g = (theta, eta), theta its first `split` entries.

    Plain sums over lists, with alpha on the target and beta on the
    source, as the paper pairs a closed rational pair with a relative
    cycle; no cone element and no sign convention of `chain.kronecker`.
    """
    theta, eta = list(g[:split]), list(g[split:])
    assert len(alpha) == len(eta) and len(beta) == len(theta), "pair and cycle shapes differ"
    return Fraction(sum(a * y for a, y in zip(alpha, eta)) - sum(b * x for b, x in zip(beta, theta)))


# ---------------------------------------------------------------------------
# Simplex-indexed matrices, one loop each
# ---------------------------------------------------------------------------
#
# The library fills every simplex-indexed matrix through one builder; these
# are the separate loops it used before, each with its own index lookup and
# orientation sign, together with the all-pairs facet scan and the cone
# space read back from a built cylinder.


def facets_by_scan(k):
    """Maximal simplices by label: every simplex against every higher one."""
    out = []
    for n in sorted(k._by_dim):
        for s in k._by_dim[n]:
            if not any(set(s) < set(t) for m in k._by_dim if m > n for t in k._by_dim[m]):
                out.append(k.labels(s))
    return tuple(out)


def _sign_by_swaps(seq):
    """Parity of the permutation sorting `seq`, by counting bubble-sort swaps."""
    items, sign = list(seq), 1
    for i in range(len(items)):
        for j in range(len(items) - 1 - i):
            if items[j] > items[j + 1]:
                items[j], items[j + 1] = items[j + 1], items[j]
                sign = -sign
    return sign


def chain_complex_by_rows(k, ring, augmented=False):
    """Simplicial chains with d_n filled row by row, face by face."""
    from relcone.chain import GradedComplex, mat_ring
    from relcone.matrix import Matrix

    mr = mat_ring(ring)
    ranks = {n: k.n_rank(n) for n in range(k.dim + 1)}
    diffs = {}
    for n in range(1, k.dim + 1):
        rows = [[0] * k.n_rank(n) for _ in range(k.n_rank(n - 1))]
        for j, s in enumerate(k.simplices(n)):
            for drop in range(len(s)):
                face = s[:drop] + s[drop + 1 :]
                rows[k.index_of(n - 1, face)][j] = (-1) ** drop
        diffs[n] = Matrix(mr, k.n_rank(n - 1), k.n_rank(n), rows)
    if augmented:
        ranks[-1] = 1
        if k.n_rank(0):
            diffs[0] = Matrix(mr, 1, k.n_rank(0), [[1] * k.n_rank(0)])
    return GradedComplex(ring, ranks, diffs)


def pushforward_by_rows(phi, ring):
    """C_n(src) -> C_n(dst) for n = 0..src.dim; degenerate simplices go to zero."""
    from relcone.chain import mat_ring
    from relcone.matrix import Matrix

    mr = mat_ring(ring)
    mats = {}
    for n in range(phi.src.dim + 1):
        rows = [[0] * phi.src.n_rank(n) for _ in range(phi.dst.n_rank(n))]
        for j, s in enumerate(phi.src.simplices(n)):
            image = [phi.dst._index[phi.vmap[phi.src.vertices[i]]] for i in s]
            if len(set(image)) != len(image):
                continue
            rows[phi.dst.index_of(n, tuple(sorted(image)))][j] = _sign_by_swaps(image)
        mats[n] = Matrix(mr, phi.dst.n_rank(n), phi.src.n_rank(n), rows)
    return mats


def cone_operator_by_rows(k):
    """(cone, h) with h sending a simplex to its apex join, sign +1 as the apex is first."""
    from relcone.coeffs import INT
    from relcone.matrix import Matrix
    from relcone.simplicial import APEX, SimplicialComplex

    apex = APEX
    cone = SimplicialComplex([apex] + list(k.vertices), [(apex,)] + [(apex,) + tuple(f) for f in facets_by_scan(k)])
    h = {}
    col = [0] * cone.n_rank(0)
    col[cone.index_of(0, (cone._index[apex],))] = 1
    h[0] = Matrix(INT, cone.n_rank(0), 1, [[v] for v in col])
    for n in range(1, k.dim + 2):
        rows = [[0] * k.n_rank(n - 1) for _ in range(cone.n_rank(n))]
        for j, s in enumerate(k.simplices(n - 1)):
            joined = tuple(sorted(cone._index[v] for v in (apex,) + k.labels(s)))
            rows[cone.index_of(n, joined)][j] = 1
        h[n] = Matrix(INT, cone.n_rank(n), k.n_rank(n - 1), rows)
    return cone, h


def prism_operator_by_columns(phi, ambient, ring):
    """P[n]: C_n(src) -> C_(n+1)(ambient), one prism tuple at a time."""
    from relcone.chain import mat_ring
    from relcone.matrix import Matrix
    from relcone.simplicial import _prism_tuples

    mr = mat_ring(ring)
    out = {}
    for n in range(phi.src.dim + 1):
        cols = []
        for s in phi.src.simplices(n):
            col = [0] * ambient.n_rank(n + 1)
            for i, labels in _prism_tuples(phi, phi.src.labels(s)):
                idx = [ambient._index[v] for v in labels]
                col[ambient.index_of(n + 1, tuple(sorted(idx)))] += (-1) ** i * _sign_by_swaps(idx)
            cols.append(col)
        out[n] = Matrix.from_columns(mr, ambient.n_rank(n + 1), cols)
    return out


def comparison_map_by_prism(phi, space, conea):
    """The raw comparison l: apex joins at +1 (the apex is first), plus prism columns added entry by entry."""
    from relcone.coeffs import INT
    from relcone.matrix import Matrix
    from relcone.simplicial import APEX, _xl, _yl

    caug_rank = lambda n: 1 if n == -1 else space.n_rank(n)
    prism = prism_operator_by_columns(phi, space, INT)
    src, dst = phi.src, phi.dst
    lt = {}
    for n in range(conea.lo, conea.hi + 1):
        rows = caug_rank(n)
        cols = []
        if n == 0:
            col = [0] * rows
            col[space.index_of(0, (space._index[APEX],))] = 1
            cols.append(col)  # empty source simplex -> apex
        else:
            for j, s in enumerate(src.simplices(n - 1)):
                col = [0] * rows
                joined = tuple(sorted(space._index[v] for v in (APEX,) + tuple(_xl(v) for v in src.labels(s))))
                col[space.index_of(n, joined)] += 1
                pcol = prism[n - 1].col(j)
                for r in range(rows):
                    col[r] += pcol[r]
                cols.append(col)
        if n == -1:
            cols.append([-1])  # empty target simplex
        else:
            for t in dst.simplices(n):
                col = [0] * rows
                key = tuple(sorted(space._index[_yl(w)] for w in dst.labels(t)))
                col[space.index_of(n, key)] = -1
                cols.append(col)
        lt[n] = Matrix.from_columns(INT, rows, cols)
    return lt


def mapping_cone_space_via_cylinder(phi):
    """Build the cylinder complex, scan its facets, and cone off the source copy."""
    from relcone.simplicial import APEX, SimplicialComplex, _prism_tuples, _xl, _yl

    src, dst = phi.src, phi.dst
    verts = [_xl(v) for v in src.vertices] + [_yl(w) for w in dst.vertices]
    facets = [tuple(_yl(w) for w in f) for f in facets_by_scan(dst)]
    for n in range(src.dim + 1):
        for s in src.simplices(n):
            for _, labels in _prism_tuples(phi, src.labels(s)):
                facets.append(labels)
    cyl = SimplicialComplex(verts, facets)
    facets = [(APEX,)] + list(facets_by_scan(cyl))
    for f in facets_by_scan(src):
        facets.append((APEX,) + tuple(_xl(v) for v in f))
    return SimplicialComplex([APEX] + list(cyl.vertices), facets)


# ---------------------------------------------------------------------------
# Frozen expected values (computed with the helpers above, then pinned)
# ---------------------------------------------------------------------------

# Smith diagonal of [[2, 4], [6, 8]]: entry gcd 2, |det| = 8, so (2, 4).
SNF_2x2_EXAMPLE = ((2, 4), (6, 8))
SNF_2x2_DIAG = (2, 4)

# Smith diagonal of [[1, 2, 3], [4, 5, 6], [7, 8, 9]]: minor gcds 1, 3, 0.
SNF_3x3_EXAMPLE = ((1, 2, 3), (4, 5, 6), (7, 8, 9))
SNF_3x3_DIAG = (1, 3, 0)

# Six-vertex projective plane: 6 vertices, 15 edges, 10 triangles.
# Expected homology: H0 = Z, H1 = Z/2, H2 = 0.
# Rational betti numbers (1, 0, 0); mod-2 betti numbers (1, 1, 1).
RP2_BETTI_Q = (1, 0, 0)
RP2_BETTI_F2 = (1, 1, 1)

# Circle mapping into itself with degree d: cone homology is
# H_0 = 0 (d != 0 identifies components... no: H_0(cone) = 0 always for
# a degree-d self map with d anything, since on H_0 the map is identity),
# H_1 = Z/d for d >= 2, H_2 = 0 for d != 0 and Z for d = 0.
def degree_map_cone_homology(d):
    h1_torsion = (abs(d),) if abs(d) >= 2 else ()
    h1_free = 1 if d == 0 else 0
    h2_free = 1 if d == 0 else 0
    return {
        0: (0, ()),
        1: (h1_free, h1_torsion),
        2: (h2_free, ()),
    }
