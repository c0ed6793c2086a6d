"""Smith normal form, homology presentations, and long exact sequences.

All integer work is exact big-integer arithmetic.  The Smith routine
returns A = U D V with unimodular U, V together with their inverses.
Kernels, solving and membership read them directly.  One
:class:`IntSolver` per matrix solves A X = B over Z and A w = c over
Q/Z from the same form: Q/Z is divisible, so the angle equation needs
only a division by the diagonal, with no modulus.  A lattice that
one Smith form produced (a kernel, or the column span of a matrix)
keeps that form's exact coordinate map, so homology presents a
quotient and expresses a cycle without running another SNF: one on
d_n for the cycle lattice and one on the boundaries in its coordinates.

Homology groups are presented as
:class:`AbGroup` values: free rank, divisibility-ordered torsion, and
representative cycles chosen from SNF change-of-basis columns, torsion
generators first.  Exactness of long sequences is decided by
torsion-aware subgroup membership in generator coordinates, never by
rank bookkeeping alone.

Over Q and Z/p each quotient (homology group, cokernel homology,
subgroup test) is one reduced row echelon form of the side-by-side
generator matrices; its pivot columns name the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chain import ComplexMap, GradedComplex, cone_of_map, cone_split
from .coeffs import INT, RAT, CoeffRing
from .errors import (
    InvalidChainMap,
    RingMismatch,
    ShapeMismatch,
    UnsupportedRing,
)
from .matrix import Matrix, hstack

# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SNFResult:
    """A = u @ d @ v with u, v unimodular; uinv, vinv their inverses."""

    u: Matrix
    d: Matrix
    v: Matrix
    uinv: Matrix
    vinv: Matrix
    diag: tuple
    rank: int


def snf(a: Matrix) -> SNFResult:
    """Smith normal form over Z.

    Pivoting picks the minimal absolute nonzero entry of the remaining
    submatrix; the returned diagonal is nonnegative and satisfies
    d1 | d2 | ... .  `_check_snf` certifies every result, under any
    interpreter flags, and a failure raises InvalidChainMap.  It runs
    the cheap scans of the diagonal first (signs, divisibility, D
    diagonal with `rank` nonzeros), then A = U D V as one rank-r
    product, then U Uinv = I and V Vinv = I.
    """
    if a.ring != INT:
        raise UnsupportedRing("snf is defined over Z")
    m, n = a.nrows, a.ncols
    d = [list(r) for r in a.rows]
    u = _eye_rows(m)
    uinv = _eye_rows(m)
    v = _eye_rows(n)
    vinv = _eye_rows(n)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        for r in u:
            r[i], r[j] = r[j], r[i]
        uinv[i], uinv[j] = uinv[j], uinv[i]

    def row_add(i, j, k):
        # row i of D += k * row j; U col j -= k * U col i; Uinv row i += k * row j
        di, dj = d[i], d[j]
        for c in range(n):
            di[c] += k * dj[c]
        for r in u:
            r[j] -= k * r[i]
        ui, uj = uinv[i], uinv[j]
        for c in range(m):
            ui[c] += k * uj[c]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        for r in u:
            r[i] = -r[i]
        uinv[i] = [-x for x in uinv[i]]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        v[i], v[j] = v[j], v[i]
        for r in vinv:
            r[i], r[j] = r[j], r[i]

    def col_add(i, j, k):
        # col i of D += k * col j; V row j -= k * row i; Vinv col i += k * col j
        for r in d:
            r[i] += k * r[j]
        vj, vi = v[j], v[i]
        for c in range(n):
            vj[c] -= k * vi[c]
        for r in vinv:
            r[i] += k * r[j]

    def find_pivot(t):
        best = None
        bi = bj = -1
        for i in range(t, m):
            di = d[i]
            for j in range(t, n):
                x = di[j]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, bi, bj = ax, i, j
                        if best == 1:
                            return bi, bj
        return (bi, bj) if best is not None else None

    limit = min(m, n)
    t = 0
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                row_swap(t, i0)
            if j0 != t:
                col_swap(t, j0)
            if d[t][t] < 0:
                row_negate(t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x // p
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    q = x // p
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                piv = find_pivot(t)
                continue
            bad = None
            for i in range(t + 1, m):
                di = d[i]
                for j in range(t + 1, n):
                    if di[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
            piv = (t, t)
        t += 1

    res = SNFResult(
        u=Matrix._of(INT, m, m, u),
        d=Matrix._of(INT, m, n, d),
        v=Matrix._of(INT, n, n, v),
        uinv=Matrix._of(INT, m, m, uinv),
        vinv=Matrix._of(INT, n, n, vinv),
        diag=tuple(d[i][i] for i in range(limit)),
        rank=sum(1 for i in range(limit) if d[i][i]),
    )
    _check_snf(a, res)
    return res


def _eye_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _check_snf(a: Matrix, r: SNFResult):
    """Raise InvalidChainMap unless `r` is a Smith normal form of `a`.

    The O(mn) scans run first: no diagonal entry is negative; the
    nonzero entries divide their successors and zeros come last; `d` is
    the m x n diagonal matrix of `diag`, and `rank` counts its nonzeros.
    D is then zero outside its first r diagonal entries, so U D V is
    exactly U[:, :r] diag(d_1..d_r) V[:r, :], and A = U D V is checked as
    that one m x r x n product.  It never reads U's columns or V's rows
    beyond r; U Uinv = I and V Vinv = I certify those, as they certify
    that U and V are unimodular.
    """
    m, n = a.nrows, a.ncols
    diag = r.diag
    if any(x < 0 for x in diag):
        raise InvalidChainMap("snf: negative diagonal")
    for i in range(len(diag) - 1):
        # nonzeros divide their successors, and zeros come last
        if diag[i + 1] and not (diag[i] and diag[i + 1] % diag[i] == 0):
            raise InvalidChainMap("snf: divisibility chain broken")
    if r.d.shape != a.shape or len(diag) != min(m, n):
        raise InvalidChainMap("snf: D not diagonal")
    for i, row in enumerate(r.d.rows):
        # diag[i] in column i (there is none when i >= n), zeros elsewhere
        if any(row[:i]) or any(row[i + 1 :]) or row[i : i + 1] != diag[i : i + 1]:
            raise InvalidChainMap("snf: D not diagonal")
    k = r.rank
    if k != sum(1 for x in diag if x):
        raise InvalidChainMap("snf: rank is not the number of nonzero diagonal entries")
    scaled_v = Matrix._of(INT, k, n, [[d * x for x in row] for d, row in zip(diag[:k], r.v.rows)])
    if r.u.submatrix(range(m), range(k)) @ scaled_v != a:
        raise InvalidChainMap("snf: A != U D V")
    if r.u @ r.uinv != Matrix.identity(INT, m):
        raise InvalidChainMap("snf: U inverse wrong")
    if r.v @ r.vinv != Matrix.identity(INT, n):
        raise InvalidChainMap("snf: V inverse wrong")


# ---------------------------------------------------------------------------
# Lattice utilities on top of SNF
# ---------------------------------------------------------------------------


def kernel_int(a: Matrix, s: SNFResult | None = None) -> Matrix:
    """Basis of the (saturated) integer kernel, as columns."""
    if s is None:
        s = snf(a)
    cols = list(range(s.rank, a.ncols))
    return s.vinv.submatrix(range(a.ncols), cols)


class IntSolver:
    """Solutions of A X = B over Z, and of A w = c over Q/Z, from one Smith form of A.

    With A = U D V, X = Vinv[:, :r] @ Y where Y holds the coordinates
    of B in the column span of A (the basis d_i U[:, i], i < r).  `back`
    keeps Vinv[:, :r].
    """

    __slots__ = ("lattice", "back")

    def __init__(self, a: Matrix):
        s = snf(a)
        self.lattice = _image_lattice(a, s)
        self.back = s.vinv.submatrix(range(a.ncols), range(s.rank))

    def solve(self, b: Matrix) -> Matrix | None:
        """One integer solution X, or None if none exists."""
        if b.nrows != self.lattice.to.nrows:
            raise ShapeMismatch(f"solve: {self.lattice.to.nrows} rows vs rhs {b.shape}")
        y = self.lattice.coords(b)
        return None if y is None else self.back @ y

    def solve_mod_one(self, c) -> tuple | None:
        """One rational w with A w = c (mod 1), or None if none exists.

        Q/Z is divisible, so with t = Uinv c each d_i y_i = t_i (mod 1),
        i < r, has the solution y_i = t_i / d_i: a solution exists
        exactly when the rows r.. of t are integers, and then
        w = Vinv[:, :r] y.  Everything is exact over Q; the caller
        reduces w mod 1.
        """
        t = self.lattice.to.zapply(RAT, c)
        r = len(self.lattice.scale)
        if any(x.denominator != 1 for x in t[r:]):
            return None
        return self.back.zapply(RAT, [x / d for x, d in zip(t, self.lattice.scale)])


def solve_int(a: Matrix, b: Matrix) -> Matrix | None:
    """One integer solution X of A X = B, or None if none exists."""
    return IntSolver(a).solve(b)


# ---------------------------------------------------------------------------
# Field elimination (Q and Z/p)
# ---------------------------------------------------------------------------


def _rref(*mats):
    """Reduced row echelon form of [M1 | M2 | ...] over Q or Z/p.

    Returns (plain row lists, pivot columns).  Column c is a pivot exactly
    when it is not in the span of the columns before it.  A pivot row is
    zero left of its pivot, so each row update walks only its nonzero entries.
    """
    ring = mats[0].ring
    if not ring.is_field:
        raise UnsupportedRing(f"{ring} is not a supported field")
    for m in mats[1:]:
        if m.ring != ring:
            raise RingMismatch(f"{m.ring} vs {ring}")
        if m.nrows != mats[0].nrows:
            raise ShapeMismatch(f"cannot place {m.shape} beside {mats[0].shape}")
    rows = [[x for r in rs for x in r] for rs in zip(*(m.rows for m in mats))]
    p = ring.modulus  # None over Q
    pivots = []
    for c in range(sum(m.ncols for m in mats)):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ring.inv(rows[r][c])
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


def kernel_field(a: Matrix) -> Matrix:
    """Basis of the null space over a field, as columns."""
    rows, pivots = _rref(a)
    free = sorted(set(range(a.ncols)) - set(pivots))
    zero, one, neg = a.ring.zero(), a.ring.one(), a.ring.neg
    out = [[zero] * len(free) for _ in range(a.ncols)]
    for k, fc in enumerate(free):
        out[fc][k] = one
    for r, pc in enumerate(pivots):
        out[pc] = [neg(x) if x else zero for x in map(rows[r].__getitem__, free)]
    return Matrix._of(a.ring, a.ncols, len(free), out)


def solve_field(a: Matrix, b: Matrix) -> Matrix | None:
    """One field solution of A X = B, or None."""
    rows, pivots = _rref(a, b)
    if pivots and pivots[-1] >= a.ncols:
        return None
    out = [[a.ring.zero()] * b.ncols for _ in range(a.ncols)]
    for r, pc in enumerate(pivots):
        out[pc] = rows[r][a.ncols:]
    return Matrix._of(a.ring, a.ncols, b.ncols, out)


# ---------------------------------------------------------------------------
# Homology presentations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class AbGroup:
    """A finitely generated abelian group with chosen representatives.

    ``torsion`` entries are >= 2 and divisibility-ordered; ``generators``
    lists representative vectors in ambient coordinates, torsion
    generators first (matching ``torsion``), then ``free_rank`` free
    generators.  ``ring`` is the coefficient ring; over a field,
    ``free_rank`` is the dimension and ``torsion`` is empty.
    """

    free_rank: int
    torsion: tuple
    generators: tuple
    ring: CoeffRing = INT

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def order(self):
        """Group order: an int when finite, None when infinite."""
        if self.free_rank:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def describe(self) -> str:
        unit = f"Z/{self.ring.modulus}" if self.ring.kind == "Zmod" else str(self.ring)
        parts = [f"Z/{t}" for t in self.torsion] + [unit] * self.free_rank
        return " + ".join(parts) if parts else "0"


class HomologyData:
    """An AbGroup together with the machinery to express cycles in it.

    Over Z, ``lattice`` is the numerator with its coordinate map and
    ``to_gens`` sends lattice coordinates to generator coordinates
    (before the torsion reduction); over a field both are None and
    ``express`` solves against generators and boundaries.
    """

    def __init__(self, ring, ambient_rank, group, orders, boundary_gens, lattice=None, to_gens=None):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.group = group
        self.orders = orders  # per kept generator: d_i for torsion, 0 for free
        self.boundary_gens = boundary_gens  # ambient x b
        self.lattice = lattice
        self.to_gens = to_gens
        self._solver = None

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @property
    def gen_matrix(self) -> Matrix:
        """The generators as columns (ambient x ngens), read from `group`, which keeps them."""
        return Matrix.from_columns(self.ring, self.ambient_rank, self.group.generators)

    def relation_matrix(self) -> Matrix:
        """Columns d_i e_i for the torsion generators, in gen coordinates."""
        cols = [i for i, d in enumerate(self.orders) if d]
        rows = [[0] * len(cols) for _ in range(self.ngens)]
        for j, i in enumerate(cols):
            rows[i][j] = self.orders[i]
        return Matrix(self.ring, self.ngens, len(cols), rows)

    def express(self, vec):
        """Coordinates of the class [vec] in the kept generator basis.

        vec must be a cycle (in ambient coordinates); anything outside
        the cycle lattice raises InvalidChainMap.  Torsion coordinates
        are canonicalized into [0, d_i).  Over Z this is two products
        with stored Smith transforms and no elimination.
        """
        if len(vec) != self.ambient_rank:
            raise ShapeMismatch(f"cycle length {len(vec)} vs ambient {self.ambient_rank}")
        b = Matrix.column(self.ring, list(vec))
        if self.ring == INT:
            y = self.lattice.coords(b)
            if y is None:
                raise InvalidChainMap("vector is not a cycle modulo boundaries")
            coords = self.to_gens.apply(y.col(0))
            return tuple(c % d if d else c for c, d in zip(coords, self.orders))
        if self._solver is None:
            self._solver = hstack(self.ring, [self.gen_matrix, self.boundary_gens])
        sol = solve_field(self._solver, b)
        if sol is None:
            raise InvalidChainMap("vector is not a cycle modulo boundaries")
        return tuple(sol.entry(i, 0) for i in range(self.ngens))


@dataclass(frozen=True)
class _Lattice:
    """The exact coordinate map of the SNF that produced a lattice.

    x lies in the lattice exactly when, in ``t = to @ x``, row
    ``rows[j]`` is divisible by ``scale[j]`` for every j and every other
    row is zero; the quotients t[rows[j]] / scale[j] are then the
    coordinates of x in the basis that SNF gives.  The basis itself is
    not kept: only `_quotient_group_int` reads it, and HomologyData and
    the solvers a view keeps hold their lattices for as long as they live.
    """

    to: Matrix
    rows: range
    scale: tuple

    def coords(self, x: Matrix) -> Matrix | None:
        """Coordinates of the columns of x in the lattice basis, or None if one lies outside."""
        t = self.to @ x
        if any(any(t.rows[i]) for i in range(t.nrows) if i not in self.rows):
            return None
        out = []
        for i, d in zip(self.rows, self.scale):
            row = t.rows[i]
            if any(v % d for v in row):
                return None
            out.append([v // d for v in row])
        return Matrix._of(INT, len(out), x.ncols, out)


def _kernel_lattice(a: Matrix) -> tuple:
    """(basis, lattice) of ker(a): columns r.. of Vinv; x = Vinv (V x) lies in it when (V x)[:r] = 0."""
    s = snf(a)
    n = a.ncols
    return kernel_int(a, s), _Lattice(s.v, range(s.rank, n), (1,) * (n - s.rank))


def _image_lattice(a: Matrix, s: SNFResult | None = None) -> _Lattice:
    """Column span of a = span of the d_i U[:, i], i < r.

    x = U (Uinv x) lies in it when d_i divides (Uinv x)_i for i < r and
    (Uinv x)_i = 0 for i >= r.
    """
    if s is None:
        s = snf(a)
    return _Lattice(s.uinv, range(s.rank), s.diag[: s.rank])


def _canonical_sign(col):
    for x in col:
        if x:
            return 1 if x > 0 else -1
    return 1


def _quotient_group_int(ambient_rank: int, num_basis: Matrix, num: _Lattice, den_gens: Matrix) -> HomologyData:
    """Present span(num_basis)/span(den_gens) with den inside num.

    num_basis columns must be the basis of the numerator lattice that
    `num` gives coordinates in (full column rank, so coordinates are
    unique); den_gens columns must lie in it, or InvalidChainMap is raised.
    """
    k = num_basis.ncols
    if k == 0:
        group = AbGroup(0, (), ())
        return HomologyData(INT, ambient_rank, group, (), den_gens, num, Matrix.zeros(INT, 0, 0))
    w = num.coords(den_gens)
    if w is None:
        raise InvalidChainMap("denominator not contained in numerator lattice")
    s2 = snf(w)
    orders = []
    for i in range(k):
        orders.append(s2.diag[i] if i < len(s2.diag) else 0)
    keep = [i for i in range(k) if orders[i] != 1]
    torsion = tuple(orders[i] for i in keep if orders[i] >= 2)
    free_rank = sum(1 for i in keep if orders[i] == 0)
    # torsion generators first (SNF diagonal is divisibility-ordered), then free
    keep_sorted = [i for i in keep if orders[i] >= 2] + [i for i in keep if orders[i] == 0]
    # only the columns of num_basis @ s2.u that become generators
    new_basis = num_basis @ s2.u.submatrix(range(k), keep_sorted)
    cols = []
    kept_orders = []
    to_gens = []
    for j, i in enumerate(keep_sorted):
        col = list(new_basis.col(j))
        sgn = _canonical_sign(col)
        cols.append([sgn * x for x in col])
        kept_orders.append(orders[i])
        to_gens.append([sgn * x for x in s2.uinv.rows[i]])
    group = AbGroup(free_rank, torsion, tuple(tuple(c) for c in cols))
    to_gens = Matrix._of(INT, len(to_gens), k, to_gens)
    return HomologyData(INT, ambient_rank, group, tuple(kept_orders), den_gens, num, to_gens)


def _homology_data_int(c: GradedComplex, n: int) -> HomologyData:
    return _quotient_group_int(c.rank(n), *_kernel_lattice(c.diff(n)), c.diff(n + 1))


def _quotient_space_field(ring, ambient, num: Matrix, den: Matrix) -> HomologyData:
    """span(num)/span(den) over a field, den inside span(num), by one RREF of [den | num].

    Pivot columns in den form ``boundary_gens``; pivot columns in num
    extend them to a basis of span(num) and are the generators.
    """
    pivots = _rref(den, num)[1]
    base = [c for c in pivots if c < den.ncols]
    keep = [c - den.ncols for c in pivots if c >= den.ncols]
    group = AbGroup(len(keep), (), tuple(num.col(j) for j in keep), ring)
    return HomologyData(ring, ambient, group, (0,) * len(keep), den.submatrix(range(ambient), base))


def homology_data(c: GradedComplex, n: int) -> HomologyData:
    ring = c.ring
    if ring == INT:
        return _homology_data_int(c, n)
    if ring.kind == "U1":
        raise UnsupportedRing(
            "homology over the circle group is undefined; use classify on an angle "
            "cocycle: its Bockstein class lies one degree up in integer cohomology"
        )
    if ring.is_field:
        return _quotient_space_field(ring, c.rank(n), kernel_field(c.diff(n)), c.diff(n + 1))
    raise UnsupportedRing(f"homology over {ring} is not supported (composite modulus)")


def homology_at(c: GradedComplex, n: int) -> AbGroup:
    """H_n of a chain-stored complex, as an AbGroup presentation."""
    return homology_data(c, n).group


# ---------------------------------------------------------------------------
# Induced and connecting maps
# ---------------------------------------------------------------------------


def _on_generators(src_data: HomologyData, dst_data: HomologyData, fn) -> Matrix:
    """Matrix sending each generator g of src_data to the class of fn(g) in dst_data."""
    cols = [dst_data.express(fn(g)) for g in src_data.group.generators]
    return Matrix.from_columns(dst_data.ring, dst_data.ngens, cols)


def induced_map(f: ComplexMap, n: int, src_data: HomologyData | None = None, dst_data: HomologyData | None = None) -> Matrix:
    """Matrix of H_n(f) in the chosen generator bases."""
    if src_data is None:
        src_data = homology_data(f.src, n)
    if dst_data is None:
        dst_data = homology_data(f.dst, n)
    return _on_generators(src_data, dst_data, f.component(n).apply)


def connecting_hom(
    f: ComplexMap,
    n: int,
    cone: GradedComplex | None = None,
    src_data: HomologyData | None = None,
    dst_data: HomologyData | None = None,
) -> Matrix:
    """Connecting map H_n(Cone) -> ... realized at H_(n-1)(X) -> H_(n-1)(Y).

    Computed by the snake recipe on the cone (lift a cycle of X to
    (gamma, 0), push through the cone differential, read off the target
    component) and checked equal to induced_map(f, n-1); a mismatch
    raises InvalidChainMap.  src_data and dst_data, when given, are the
    HomologyData of X and Y in degree n-1.
    """
    if cone is None:
        cone = cone_of_map(f)
    x_data = homology_data(f.src, n - 1) if src_data is None else src_data
    y_data = homology_data(f.dst, n - 1) if dst_data is None else dst_data

    def snake(g):
        img = cone.diff(n).apply(tuple(g) + (0,) * f.dst.rank(n))
        theta, eta = cone_split(f, n - 1, img)
        if any(v != 0 for v in theta):
            raise InvalidChainMap("snake lift failed: source component of boundary nonzero")
        return eta

    delta = _on_generators(x_data, y_data, snake)
    if delta != induced_map(f, n - 1, x_data, y_data):
        raise InvalidChainMap("connecting map disagrees with the induced map")
    return delta


# ---------------------------------------------------------------------------
# Exactness checking
# ---------------------------------------------------------------------------


def _subgroup_leq_int(gens_a: Matrix, gens_b: Matrix):
    """Is span(cols of A) contained in span(cols of B)?  Returns (ok, witness)."""
    lat = _image_lattice(gens_b)
    for col in gens_a.columns():
        if lat.coords(Matrix.column(INT, col)) is None:
            return False, col
    return True, None


def _subgroup_leq_field(gens_a: Matrix, gens_b: Matrix):
    """_subgroup_leq_int over a field: the first pivot of [B | A] right of B is the witness."""
    for c in _rref(gens_b, gens_a)[1]:
        if c >= gens_b.ncols:
            return False, gens_a.col(c - gens_b.ncols)
    return True, None


def _subgroup_leq(gens_a: Matrix, gens_b: Matrix):
    leq = _subgroup_leq_int if gens_a.ring == INT else _subgroup_leq_field
    return leq(gens_a, gens_b)


def _image_subgroup(incoming: Matrix, rel: Matrix) -> Matrix:
    return hstack(incoming.ring, [incoming, rel])


def _kernel_subgroup(outgoing: Matrix, target_rel: Matrix, rel: Matrix) -> Matrix:
    """Generators of ker(outgoing) + relations in generator coordinates."""
    ring = outgoing.ring
    kern = _kernel(ring, hstack(ring, [outgoing, target_rel]))
    proj = kern.submatrix(range(outgoing.ncols), range(kern.ncols))
    return hstack(ring, [proj, rel])


@dataclass(frozen=True)
class LESPosition:
    label: str
    group: AbGroup
    exact: bool
    defect: str | None


@dataclass(frozen=True)
class LESReport:
    kind: str
    groups: dict
    maps: dict
    positions: tuple

    @property
    def exact(self) -> bool:
        return all(p.exact for p in self.positions)


def _exact_at(label, here: HomologyData, incoming: Matrix, outgoing: Matrix, target: HomologyData):
    """Exactness of  prev --incoming--> here --outgoing--> target."""
    rel = here.relation_matrix()
    trel = target.relation_matrix()
    im = _image_subgroup(incoming, rel)
    ker = _kernel_subgroup(outgoing, trel, rel)
    ok1, w1 = _subgroup_leq(im, ker)
    ok2, w2 = _subgroup_leq(ker, im)
    if ok1 and ok2:
        return LESPosition(label, here.group, True, None)
    if not ok1:
        defect = f"image not contained in kernel; witness {list(w1)}"
    else:
        defect = f"kernel class not hit; witness {list(w2)}"
    return LESPosition(label, here.group, False, defect)


def _is_presentation_iso(m: Matrix, src: HomologyData, dst: HomologyData) -> bool:
    """Is the map of presented groups with matrix m an isomorphism?

    Onto: every target generator lies in im(m) + the target relations.
    One to one: whatever m sends into the target relations is a source
    relation.
    """
    rel_src = src.relation_matrix()
    rel_dst = dst.relation_matrix()
    onto, _ = _subgroup_leq(Matrix.identity(dst.ring, dst.ngens), _image_subgroup(m, rel_dst))
    return onto and _subgroup_leq(_kernel_subgroup(m, rel_dst, rel_src), rel_src)[0]


def _assemble_les(kind, groups, degrees, a, b, c, labels, j, k, delta) -> LESReport:
    """The sequence ... -> A_n -j-> B_n -k-> C_n -delta-> A_(n-1) -> ... over `degrees`.

    a, b and c give the HomologyData of A_n, B_n and C_n (a also one
    degree below the range) and labels(n) names the three.  j(n, g) and
    k(n, g) send a generator g to a cycle of the next group; delta(n) is
    the matrix of delta_n.  Every map is built before exactness is
    checked at B_n, at C_n and, inside the range, at A_(n-1).
    """
    maps = {}
    for n in degrees:
        maps[f"j_{n}"] = _on_generators(a[n], b[n], lambda g: j(n, g))
        maps[f"k_{n}"] = _on_generators(b[n], c[n], lambda g: k(n, g))
        maps[f"delta_{n}"] = delta(n)
    positions = []
    for n in degrees:
        jn, kn, dn = maps[f"j_{n}"], maps[f"k_{n}"], maps[f"delta_{n}"]
        _, label_b, label_c = labels(n)
        positions.append(_exact_at(label_b, b[n], jn, kn, c[n]))
        positions.append(_exact_at(label_c, c[n], kn, dn, a[n - 1]))
        if n - 1 in degrees:
            positions.append(_exact_at(labels(n - 1)[0], a[n - 1], dn, maps[f"j_{n - 1}"], b[n - 1]))
    return LESReport(kind, groups, maps, tuple(positions))


def les_of_cone(f: ComplexMap) -> LESReport:
    """The long exact sequence of the mapping cone.

    ... -> H_n(Y) -j-> H_n(f) -k-> H_(n-1)(X) -delta-> H_(n-1)(Y) -> ...
    with j(beta) = (0, beta), k(theta, eta) = theta, and delta the
    induced map of f in degree n-1 (checked against the snake recipe;
    a mismatch raises InvalidChainMap).  Exactness is checked at every
    position over the full degree range.
    """
    cone = cone_of_map(f)
    x, y = f.src, f.dst
    degrees = range(cone.lo - 1, cone.hi + 2)
    around = range(cone.lo - 2, cone.hi + 2)
    hx = {n: homology_data(x, n) for n in around}
    hy = {n: homology_data(y, n) for n in around}
    hc = {n: homology_data(cone, n) for n in around}
    groups = {}
    for n in degrees:
        groups[f"H_{n}(X)"] = hx[n].group
        groups[f"H_{n}(Y)"] = hy[n].group
        groups[f"H_{n}(cone)"] = hc[n].group
    return _assemble_les(
        "cone",
        groups,
        degrees,
        hy,
        hc,
        {n: hx[n - 1] for n in degrees},
        lambda n: (f"H_{n}(Y)", f"H_{n}(cone)", f"H_{n - 1}(X)"),
        lambda n, g: (0,) * x.rank(n - 1) + tuple(g),
        lambda n, g: cone_split(f, n, g)[0],
        lambda n: connecting_hom(f, n, cone, hx[n - 1], hy[n - 1]),
    )


def quasi_iso(f: ComplexMap) -> bool:
    """True when the cone of f has vanishing homology in every degree."""
    cone = cone_of_map(f)
    for n in range(cone.lo, cone.hi + 1):
        if not homology_at(cone, n).is_trivial:
            return False
    return True


# ---------------------------------------------------------------------------
# Kernel / cokernel sequence
# ---------------------------------------------------------------------------


def _kernel(ring, a: Matrix) -> Matrix:
    return kernel_int(a) if ring == INT else kernel_field(a)


def _solve(ring, a: Matrix, b: Matrix):
    return solve_int(a, b) if ring == INT else solve_field(a, b)


def _kernel_complex(f: ComplexMap):
    """The degreewise-kernel subcomplex, with its embedding bases."""
    ring = f.ring
    x = f.src
    bases = {}
    ranks = {}
    for n in range(x.lo, x.hi + 1):
        k = _kernel(ring, f.component(n))
        bases[n] = k
        if k.ncols:
            ranks[n] = k.ncols
    diffs = {}
    for n in ranks:
        kn = bases[n]
        km = bases.get(n - 1, Matrix.zeros(ring, x.rank(n - 1), 0))
        img = x.diff(n) @ kn
        if km.ncols == 0:
            if not img.is_zero():
                raise InvalidChainMap("kernel complex not closed under the differential")
            diffs[n] = Matrix.zeros(ring, 0, kn.ncols)
            continue
        w = _solve(ring, km, img)
        if w is None:
            raise InvalidChainMap("kernel complex not closed under the differential")
        diffs[n] = w
    kc = GradedComplex(ring, ranks, diffs)
    return kc, bases


def _coker_homology_data(f: ComplexMap, n: int) -> HomologyData:
    """Homology of the cokernel complex at degree n.

    The cokernel is a complex of presented groups Y_n / im(f_n), not free
    in general; its homology is computed from the presentation.
    """
    ring = f.ring
    y = f.dst
    g = y.rank(n)
    dn = y.diff(n)
    rel_prev = f.component(n - 1)
    rel_here = f.component(n)
    # numerator: {x : d x in im(f_(n-1))}
    stacked = hstack(dn.ring, [dn, rel_prev])
    kern = _kernel(ring, stacked)
    gl = kern.submatrix(range(g), range(kern.ncols))
    den = hstack(dn.ring, [y.diff(n + 1), rel_here])
    if ring == INT:
        s = snf(gl)
        basis = Matrix.from_columns(INT, g, [[d * v for v in s.u.col(i)] for i, d in enumerate(s.diag[: s.rank])])
        return _quotient_group_int(g, basis, _image_lattice(gl, s), den)
    return _quotient_space_field(ring, g, gl, den)


def ker_coker_les(f: ComplexMap) -> LESReport:
    """The long exact sequence relating ker f, the cone, and coker f.

    ... -> H_(n-1)(ker f) -j-> H_n(f) -k-> H_n(coker f)
        -delta-> H_(n-2)(ker f) -> ...
    with j[theta] = [(theta, 0)], k[(theta, eta)] = [eta mod f], and
    delta[eta] = [d theta] for any theta with f(theta) = d eta.

    When f is degreewise injective, k must be an isomorphism in every
    degree; when degreewise surjective, j must.  A failure raises
    InvalidChainMap.
    """
    ring = f.ring
    if ring != INT and not ring.is_field:
        raise UnsupportedRing(f"kernel/cokernel sequence over {ring} is not supported")
    cone = cone_of_map(f)
    x, y = f.src, f.dst
    kc, kbases = _kernel_complex(f)
    degrees = range(cone.lo - 1, cone.hi + 2)
    around = range(cone.lo - 2, cone.hi + 2)
    hker = {n: homology_data(kc, n) for n in range(cone.lo - 3, cone.hi + 2)}
    hcone = {n: homology_data(cone, n) for n in around}
    hcok = {n: _coker_homology_data(f, n) for n in around}

    injective = all(kbases[n].ncols == 0 for n in kbases)
    surjective = all(
        _solve(ring, f.component(n), Matrix.identity(ring, y.rank(n))) is not None
        for n in range(y.lo, y.hi + 1)
    )

    def kbasis(n):
        return kbases.get(n, Matrix.zeros(ring, x.rank(n), 0))

    zero = ring.zero()

    def lift_boundary(n, g):
        # a cycle eta of coker f goes to w with kbasis(n - 2) w = d theta, f(theta) = d eta
        deta = Matrix.column(ring, list(y.diff(n).apply(g)))
        theta = _solve(ring, f.component(n - 1), deta)
        if theta is None:
            raise InvalidChainMap("cokernel cycle does not lift")
        dtheta = x.diff(n - 1).apply(theta.col(0))
        kb = kbasis(n - 2)
        if kb.ncols == 0:
            if any(v != zero for v in dtheta):
                raise InvalidChainMap("connecting image misses the kernel complex")
            return ()
        w = _solve(ring, kb, Matrix.column(ring, list(dtheta)))
        if w is None:
            raise InvalidChainMap("connecting image misses the kernel complex")
        return w.col(0)

    groups = {}
    for n in degrees:
        groups[f"H_{n}(ker)"] = hker[n].group
        groups[f"H_{n}(f)"] = hcone[n].group
        groups[f"H_{n}(coker)"] = hcok[n].group
    rep = _assemble_les(
        "kercoker",
        groups,
        degrees,
        {n: hker[n - 1] for n in around},
        hcone,
        hcok,
        lambda n: (f"H_{n - 1}(ker)", f"H_{n}(f)", f"H_{n}(coker)"),
        lambda n, g: kbasis(n - 1).apply(g) + (zero,) * y.rank(n),
        lambda n, g: cone_split(f, n, g)[1],
        lambda n: _on_generators(hcok[n], hker[n - 2], lambda g: lift_boundary(n, g)),
    )
    if injective:
        for n in degrees:
            if not _is_presentation_iso(rep.maps[f"k_{n}"], hcone[n], hcok[n]):
                raise InvalidChainMap(f"injective specialization failed: k not iso at degree {n}")
    if surjective:
        for n in degrees:
            if not _is_presentation_iso(rep.maps[f"j_{n}"], hker[n - 1], hcone[n]):
                raise InvalidChainMap(f"surjective specialization failed: j not iso at degree {n}")
    return rep
