"""Smith normal form, homology presentations, and long exact sequences.

All integer work is exact big-integer arithmetic.  `snf` returns
A = U D V with unimodular U, V and their inverses, certified by the
products of `_check_snf`; kernels, solving and membership read them.
`smith_diagonal`, all that `homology_invariants` and so the verbs
`homology`, `cone`, `cone-space`, `cech` and `compare-cones` read,
builds no transforms.  It first takes +-1 pivots on sparse rows by row
operations only (a boundary matrix is almost all unit pivots), then
runs the dense pivot loop on the small core that is left.  Replaying
the logged row operations on a fresh copy of the matrix must show it
as [[T, X], [0, C]] with T unit upper triangular, so the diagonal is
1 for each pivot followed by the Smith diagonal of the core C, which
is certified by replaying the dense loop's log.  One
:class:`IntSolver` per matrix solves A X = B over Z and A w = c over
Q/Z from the same form: Q/Z is divisible, so the angle equation needs
only a division by the diagonal, with no modulus.  A lattice that
one Smith form produced (a kernel, or the column span of a matrix)
keeps that form's exact coordinate map, so homology presents a
quotient and expresses a cycle without running another SNF: one on
d_n for the cycle lattice and one on the boundaries in its coordinates.
A long exact sequence (`les_of_cone`, `ker_coker_les`) meets the same
matrix many times (each differential, kernel and solver system in
several groups and maps), so each such call owns one table {matrix:
certified SNFResult} and passes it to every reduction it causes; `snf`
reduces and certifies each distinct matrix once per sequence.  The
table is a local of the call, and nothing is shared outside a sequence.
A sequence reads what its certified forms already give rather than
reducing more: a solve against a kernel basis reads the lattice of the
form that produced the basis, the classes of all generators of a map
come from one coordinate product, an image lies in the next kernel when
one product lands in the target's relations (only otherwise does the
subgroup test run, for its witness), and `ker_coker_les` reads whether
f_n is onto off the form of f_n.  A matrix with no rows or no columns
is never reduced: `snf` reads its form off the shape.  Over Z a
sequence reads each complex's invariants (`homology_invariants`,
certified by replay) before it presents a group, and presents only the
nonzero ones: a zero group has no generators, and its lattice keeps
only its cycle test, d_n x = 0.  The cokernel complex Y / im f need
not be free, so its invariants are read off the cone of the inclusion
im f -> Y, a complex of free groups quasi-isomorphic to it, with im f
built from the Smith forms of the f_n in the table; a zero cokernel
group tests whether d_n y lies in im f_(n-1).  Exactness at a group
with no generators holds with no test, over every ring.

Homology groups are presented as
:class:`AbGroup` values: free rank, divisibility-ordered torsion, and
representative cycles chosen from SNF change-of-basis columns, torsion
generators first.  Exactness of long sequences is decided by
torsion-aware subgroup membership in generator coordinates, never by
rank bookkeeping alone.

Over Q and Z/p each quotient (homology group, cokernel homology,
subgroup test) is one reduced row echelon form of the side-by-side
generator matrices; its pivot columns name the basis.  Over Q the
elimination runs on integer rows, with no Fraction arithmetic, and
builds reduced values only for the callers that read them:
`kernel_field` and `solve_field` (so `HomologyData.express`).
Quotients, subgroup tests and ranks read pivot columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm
from typing import NamedTuple

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


_SWAP, _ADD, _NEG = 0, 1, 2  # the kinds of a logged operation; see _smith_eliminate


def snf(a: Matrix, forms: dict | None = None) -> SNFResult:
    """Smith normal form over Z, with both transforms and their inverses.

    Pivoting picks the minimal absolute nonzero entry of the remaining
    submatrix; the returned diagonal is nonnegative and satisfies
    d1 | d2 | ... .  U, Uinv, V and Vinv follow each operation of the
    pivot loop.  `_check_snf` certifies every result, under any
    interpreter flags, and a failure raises InvalidChainMap: the scans
    of the diagonal first, then A = U D V as one rank-r product, then
    U Uinv = I and V Vinv = I.  A matrix with no rows or no columns has
    no entry to reduce: its form is read off the shape (U, Uinv = I_m,
    V, Vinv = I_n, D = A, an empty diagonal, rank 0), with no reduction
    and so nothing to certify.  Verbs that read transforms (`snf`, `les`,
    `kercoker`, `compare-cones`, `classify`, `trivialize`, `integrality`,
    `bohr-sommerfeld`) come here; `homology`, `cone`, `cone-space` and
    `cech` read `smith_diagonal`, certified by replay instead.

    `forms`, when given, is the {Matrix: SNFResult} table of one
    `les_of_cone` or `ker_coker_les` call, which passes it to every
    reduction it causes: a matrix equal to one already in it (same ring,
    shape and entries) gets the same result back, with no second
    reduction or certificate.  A reduced form enters the table only
    after `_check_snf` has passed on it (an empty shape's form with
    none), and Matrix and SNFResult are immutable, so every shared form
    is a certified one.  With no table,
    nothing is kept.
    """
    if a.ring != INT:
        raise UnsupportedRing("snf is defined over Z")
    known = None if forms is None else forms.get(a)
    if known is not None:
        return known
    m, n = a.nrows, a.ncols
    if not (m and n):
        # no entry to reduce: the identity forms, read off the shape
        i_m, i_n = Matrix.identity(INT, m), Matrix.identity(INT, n)
        res = SNFResult(u=i_m, d=a, v=i_n, uinv=i_m, vinv=i_n, diag=(), rank=0)
    else:
        d = [list(r) for r in a.rows]
        ut, uinv, v, vinvt = ([[0] * i + [1] + [0] * (k - i - 1) for i in range(k)] for k in (m, m, n, n))
        for kind, on_rows, i, j, k in _smith_eliminate(d, m, n):
            # D' = E D F gives Uinv' = E Uinv, U'^T = E^-T U^T, V' = F^-1 V and
            # Vinv'^T = F^T Vinv^T: with U and Vinv kept transposed, all are row operations
            same, dual = (uinv, ut) if on_rows else (vinvt, v)
            if kind == _SWAP:
                same[i], same[j], dual[i], dual[j] = same[j], same[i], dual[j], dual[i]
            elif kind == _ADD:
                same[i] = [x + k * y for x, y in zip(same[i], same[j])]
                dual[j] = [x - k * y for x, y in zip(dual[j], dual[i])]
            else:
                same[i], dual[i] = [-x for x in same[i]], [-x for x in dual[i]]
        limit = min(m, n)
        res = SNFResult(
            u=Matrix._of(INT, m, m, zip(*ut)),
            d=Matrix._of(INT, m, n, d),
            v=Matrix._of(INT, n, n, v),
            uinv=Matrix._of(INT, m, m, uinv),
            vinv=Matrix._of(INT, n, n, zip(*vinvt)),
            diag=tuple(d[i][i] for i in range(limit)),
            rank=sum(1 for i in range(limit) if d[i][i]),
        )
        _check_snf(a, res)
    if forms is not None:
        forms[a] = res
    return res


def smith_diagonal(a: Matrix) -> tuple:
    """(rank, Smith diagonal) of an integer matrix, with no transforms.

    Two phases.  The unit phase (`_unit_pivots`) works on sparse rows:
    it takes +-1 pivots one at a time, each in a column with the fewest
    active nonzeros and a row with the fewest nonzeros, clears the
    pivot's column in the other active rows by row additions only, logs
    each (target row, pivot row, multiplier), and retires the pivot row.
    The core phase hands what is left, the non-pivot rows x non-pivot
    columns with their zero lines dropped, to the dense pivot loop of
    `snf`.  On a boundary matrix almost every pivot is a unit, so the
    dense loop sees a small core or none.

    Both phases are certified on every call, by code that shares nothing
    with the loops' updates; a failure raises InvalidChainMap.
    `_unit_certificate` replays the logged row operations on a fresh
    sparse copy of A and checks that pivot rows and pivot columns are
    distinct, every pivot entry is +-1, and pivot column j_k is nonzero
    only on pivot rows i_1..i_k.  Then P A = [[T, X], [0, C]] up to the
    order of lines, with P unimodular and T unit upper triangular, so
    SNF(A) = 1^p + SNF(C).  The core C is read from that replayed copy.
    Replaying the dense loop's log on a fresh copy of C with `_apply`
    must give the Smith diagonal matrix of C, as in `_check_smith_diagonal`.
    """
    if a.ring != INT:
        raise UnsupportedRing("snf is defined over Z")
    m, n = a.shape
    rows = [dict(compress(enumerate(r), r)) for r in a.rows]
    pivots, ops = _unit_pivots([dict(r) for r in rows])
    core = _unit_certificate(rows, m, n, pivots, ops)
    rank = len(pivots)
    core_diag = ()
    if core:
        mc, nc = len(core), len(core[0])
        d, replay = core, [list(r) for r in core]
        for op in _smith_eliminate(d, mc, nc):
            _apply(replay, op)
        core_diag = tuple(d[i][i] for i in range(min(mc, nc)))
        core_rank = sum(1 for x in core_diag if x)
        _check_smith_diagonal((mc, nc), (mc, nc), replay, core_diag, core_rank)
        rank += core_rank
    return rank, (1,) * len(pivots) + core_diag + (0,) * (min(m, n) - len(pivots) - len(core_diag))


def _unit_pivots(rows):
    """The unit phase of `smith_diagonal`: +-1 pivots on the sparse rows `rows`, in place.

    `rows` holds one {column: value} dict of nonzeros per row of a matrix.
    A heap orders the columns by their number of active
    nonzeros (stale entries are skipped when popped); in the first column
    that holds a +-1 entry, the unit row with the fewest nonzeros is the
    pivot.  Its column is cleared in every other active row by adding a
    multiple of the pivot row, and the pivot row is then retired: no later
    operation reads or changes it.  Only the pivot row's columns change,
    and they go back on the heap.

    Returns (pivots, ops): the (row, column) of each pivot in order, and
    each row operation (target row, pivot row, multiplier) in order.
    """
    at = {}  # column -> active rows with a nonzero in it; fill-in lands only in these columns
    for i, r in enumerate(rows):
        for j in r:
            at.setdefault(j, set()).add(i)
    heap = [(len(s), j) for j, s in at.items()]
    heapify(heap)
    pivots, ops = [], []
    while heap:
        count, j = heappop(heap)
        live = at[j]
        if count != len(live):
            continue
        p = None
        for i in live:
            if rows[i][j] in (1, -1) and (p is None or len(rows[i]) < len(rows[p])):
                p = i
        if p is None:
            continue
        prow = rows[p]
        u = prow[j]
        for i in [i for i in live if i != p]:
            ri = rows[i]
            k = -u * ri[j]
            for c, x in prow.items():
                v = ri.get(c)
                if v is None:
                    ri[c] = k * x
                    at[c].add(i)
                    continue
                v += k * x
                if v:
                    ri[c] = v
                else:
                    del ri[c]
                    at[c].discard(i)
            ops.append((i, p, k))
        pivots.append((p, j))
        for c in prow:
            at[c].discard(p)
            if at[c]:
                heappush(heap, (len(at[c]), c))
    return pivots, ops


def _unit_certificate(rows, m, n, pivots, ops):
    """Certify the unit phase on `rows`, a fresh sparse copy of A; return the dense core.

    Replays `ops` on `rows` (refusing lines outside the matrix and
    self-adds), then checks that the pivots are distinct lines, that each
    replayed pivot entry is +-1, and that pivot column j_k is nonzero only
    on pivot rows i_1..i_k.  The core is the non-pivot rows x non-pivot
    columns of the replayed copy, without its zero rows and columns.
    """
    for op in ops:
        i, p, k = op
        if not (0 <= i < m and 0 <= p < m) or i == p:
            raise InvalidChainMap(f"snf: bad logged operation {op}")
        ri = rows[i]
        for c, x in rows[p].items():
            v = ri.get(c, 0) + k * x
            if v:
                ri[c] = v
            else:
                ri.pop(c, None)
    row_at, col_at = {}, {}
    for t, (i, j) in enumerate(pivots):
        if not (0 <= i < m and 0 <= j < n):
            raise InvalidChainMap(f"snf: bad pivot {(i, j)}")
        if row_at.setdefault(i, t) != t or col_at.setdefault(j, t) != t:
            raise InvalidChainMap(f"snf: pivot {(i, j)} repeats a line")
        if rows[i].get(j) not in (1, -1):
            raise InvalidChainMap(f"snf: pivot {(i, j)} is not a unit")
    for i, r in enumerate(rows):
        t = row_at.get(i, len(pivots))
        for j in r:
            if col_at.get(j, t) < t:
                raise InvalidChainMap(f"snf: pivot column {j} is not cleared below its pivot")
    core = [r for i, r in enumerate(rows) if r and i not in row_at]
    cols = sorted(set().union(*core))
    return [[r.get(j, 0) for j in cols] for r in core]


def _smith_eliminate(d, m, n):
    """The one pivot loop: reduce the m x n row lists `d` in place to Smith normal form.

    Returns the operations applied to `d`, in order, as (kind, on_rows, i, j, k):
    swap lines i and j (_SWAP), add k times line j to line i (_ADD) or negate line i (_NEG).

    Once pivot p has cleared its row and column, the trailing block is
    scanned for an entry p does not divide.  A pivot of 1 divides every
    entry, so that scan could find nothing and is skipped; it logs no
    operation, so the log (and every result) is the same either way.
    """
    log = []

    def step(kind, on_rows, i, j, k=0):
        # the loop's own in-place update of D, then the log
        if on_rows and kind == _SWAP:
            d[i], d[j] = d[j], d[i]
        elif on_rows and kind == _ADD:
            di, dj = d[i], d[j]
            for c in range(n):
                di[c] += k * dj[c]
        elif on_rows:
            d[i] = [-x for x in d[i]]
        elif kind == _SWAP:
            for r in d:
                r[i], r[j] = r[j], r[i]
        else:
            for r in d:
                r[i] += k * r[j]
        log.append((kind, on_rows, i, j, k))

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
                step(_SWAP, True, t, i0)
            if j0 != t:
                step(_SWAP, False, t, j0)
            if d[t][t] < 0:
                step(_NEG, True, t, t)
            p = d[t][t]
            dirty = False
            for i in range(t + 1, m):
                x = d[i][t]
                if x:
                    q = x // p
                    if q:
                        step(_ADD, True, i, t, -q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                x = d[t][j]
                if x:
                    q = x // p
                    if q:
                        step(_ADD, False, j, t, -q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                piv = find_pivot(t)
                continue
            if p == 1:
                break
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
            step(_ADD, True, t, bad, 1)
            piv = (t, t)
        t += 1
    return log


def _apply(rows, op):
    """Apply a logged operation to the row lists `rows` by full lines; refuse bad lines and self-adds."""
    kind, on_rows, i, j, k = op
    size = len(rows) if on_rows else len(rows[0]) if rows else 0
    if not (0 <= i < size and 0 <= j < size) or (kind == _ADD and i == j):
        raise InvalidChainMap(f"snf: bad logged operation {op}")
    if on_rows and kind == _SWAP:
        rows[i], rows[j] = rows[j], rows[i]
    elif on_rows:
        rows[i] = [x + k * y for x, y in zip(rows[i], rows[j])] if kind == _ADD else [-x for x in rows[i]]
    elif kind == _SWAP:
        for r in rows:
            r[i], r[j] = r[j], r[i]
    else:
        for r in rows:
            r[i] = r[i] + k * r[j] if kind == _ADD else -r[i]


def _check_smith_diagonal(shape, d_shape, d_rows, diag, rank):
    """Raise InvalidChainMap unless `d_rows` (shape `d_shape`) is the Smith form `diag` of rank `rank`."""
    if any(x < 0 for x in diag):
        raise InvalidChainMap("snf: negative diagonal")
    for i in range(len(diag) - 1):
        # nonzeros divide their successors, and zeros come last
        if diag[i + 1] and not (diag[i] and diag[i + 1] % diag[i] == 0):
            raise InvalidChainMap("snf: divisibility chain broken")
    if d_shape != shape or len(diag) != min(shape):
        raise InvalidChainMap("snf: D not diagonal")
    for i, row in enumerate(d_rows):
        # diag[i] in column i (there is none when i >= n), zeros elsewhere
        if any(row[:i]) or any(row[i + 1 :]) or tuple(row[i : i + 1]) != diag[i : i + 1]:
            raise InvalidChainMap("snf: D not diagonal")
    if rank != sum(1 for x in diag if x):
        raise InvalidChainMap("snf: rank is not the number of nonzero diagonal entries")


def _check_snf(a: Matrix, r: SNFResult):
    """Raise InvalidChainMap unless `r` is a Smith normal form of `a`.

    The O(mn) scans of `_check_smith_diagonal` run first.  D is then
    zero outside its first r diagonal entries, so A = U D V is checked
    as the one m x r x n product U[:, :r] diag(d_1..d_r) V[:r, :].  It
    never reads U's columns or V's rows beyond r; U Uinv = I and
    V Vinv = I certify those, and that U and V are unimodular.
    """
    m, n = a.nrows, a.ncols
    diag = r.diag
    _check_smith_diagonal(a.shape, r.d.shape, r.d.rows, diag, r.rank)
    k = r.rank
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


def kernel_int(a: Matrix, forms: dict | None = None) -> Matrix:
    """Basis of the (saturated) integer kernel, as columns."""
    s = snf(a, forms)
    return s.vinv.submatrix(range(a.ncols), range(s.rank, a.ncols))


class IntSolver:
    """Solutions of A X = B over Z, and of A w = c over Q/Z, from one Smith form of A.

    With A = U D V, X = Vinv[:, :r] @ Y where Y holds the coordinates
    of B in the column span of A (the basis d_i U[:, i], i < r).  `back`
    keeps Vinv[:, :r].
    """

    __slots__ = ("lattice", "back")

    def __init__(self, a: Matrix, forms: dict | None = None):
        s = snf(a, forms)
        self.lattice = _image_lattice(s)
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


def solve_int(a: Matrix, b: Matrix, forms: dict | None = None) -> Matrix | None:
    """One integer solution X of A X = B, or None if none exists."""
    return IntSolver(a, forms).solve(b)


# ---------------------------------------------------------------------------
# Field elimination (Q and Z/p)
# ---------------------------------------------------------------------------


def _rref(*mats):
    """Reduced row echelon form of [M1 | M2 | ...] over Q or Z/p.

    Returns (reduced, pivot columns); ``reduced(cols)`` lists, for each
    pivot row in order, its reduced entries in columns `cols`.  Column c
    is a pivot exactly when it is not in the span of the columns before
    it.  A pivot row is zero left of its pivot, so each row update walks
    only the pivot row's nonzero entries.

    Over Q elimination is fraction-free on integer rows (integer-
    preserving as in Bareiss, Math. Comp. 22, 1968, with gcds in place of
    his exact divisions).  Each rational row is scaled once by the lcm of
    its denominators and divided by the gcd of its entries; then
    row_i <- (a/g) row_i - (f/g) pivot row, with a > 0 the pivot (the
    pivot row's sign taken out), f the entry of row_i in the pivot column
    and g = gcd(a, f).  When a/g is 1 the update walks only the pivot
    row's nonzeros, as over Z/p; otherwise row_i is scaled whole and
    divided by the gcd of its entries again, so scaling never compounds.
    The reduced form is unique, so a pivot row divided by its pivot is
    the reduced row: ``reduced`` builds one Fraction per distinct (entry,
    pivot) pair it reads, and a caller that reads only pivots builds none.
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
    if p is None:
        rows = [_primitive(_cleared(row)) for row in rows]
    pivots = []
    for c in range(sum(m.ncols for m in mats)):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        if p is None:
            a = rows[r][c]
            nz = [(j, x if a > 0 else -x) for j, x in enumerate(rows[r]) if j >= c and x]
            a = abs(a)
        else:
            inv = ring.inv(rows[r][c])
            nz = [(j, x * inv % p) for j, x in enumerate(rows[r]) if j >= c and x]
            for j, x in nz:
                rows[r][j] = x
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p is None:
                    g = gcd(a, f)
                    if g != a:
                        s = a // g
                        row = [s * x for x in row]
                    f //= g
                    for j, x in nz:
                        row[j] -= f * x
                    if g != a:
                        rows[i] = _primitive(row)
                else:
                    for j, x in nz:
                        row[j] = (row[j] - f * x) % p
        pivots.append(c)

    def reduced(cols):
        if p is not None:
            return [[row[j] for j in cols] for row in rows[: len(pivots)]]
        made, zero = {}, ring.zero()

        def value(x, a):
            return made.get((x, a)) or made.setdefault((x, a), Fraction(x, a))

        return [[value(x, row[c]) if x else zero for x in map(row.__getitem__, cols)] for row, c in zip(rows, pivots)]

    return reduced, pivots


def _cleared(row):
    """A row of Fractions times the lcm of its denominators, as integers."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def kernel_field(a: Matrix) -> Matrix:
    """Basis of the null space over a field, as columns.

    Over Q only the reduced entries in the free columns become Fractions.
    """
    reduced, pivots = _rref(a)
    free = sorted(set(range(a.ncols)) - set(pivots))
    zero, one, neg = a.ring.zero(), a.ring.one(), a.ring.neg
    out = [[zero] * len(free) for _ in range(a.ncols)]
    for k, fc in enumerate(free):
        out[fc][k] = one
    for pc, vals in zip(pivots, reduced(free)):
        out[pc] = [neg(x) if x else zero for x in vals]
    return Matrix._of(a.ring, a.ncols, len(free), out)


def solve_field(a: Matrix, b: Matrix) -> Matrix | None:
    """One field solution of A X = B, or None.

    Over Q only the reduced entries in B's columns become Fractions.
    """
    reduced, pivots = _rref(a, b)
    if pivots and pivots[-1] >= a.ncols:
        return None
    out = [[a.ring.zero()] * b.ncols for _ in range(a.ncols)]
    for pc, vals in zip(pivots, reduced(range(a.ncols, a.ncols + b.ncols))):
        out[pc] = vals
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


def _kernel_lattice(a: Matrix, forms=None) -> tuple:
    """(basis, lattice) of ker(a): columns r.. of Vinv; x = Vinv (V x) lies in it when (V x)[:r] = 0."""
    s = snf(a, forms)
    n = a.ncols
    return s.vinv.submatrix(range(n), range(s.rank, n)), _Lattice(s.v, range(s.rank, n), (1,) * (n - s.rank))


def _image_lattice(s: SNFResult) -> _Lattice:
    """Column span of A = U D V, read from its Smith form s: the span of the d_i U[:, i], i < r.

    x = U (Uinv x) lies in it when d_i divides (Uinv x)_i for i < r and
    (Uinv x)_i = 0 for i >= r.
    """
    return _Lattice(s.uinv, range(s.rank), s.diag[: s.rank])


def _canonical_sign(col):
    for x in col:
        if x:
            return 1 if x > 0 else -1
    return 1


def _quotient_group_int(ambient_rank: int, num_basis: Matrix, num: _Lattice, den_gens: Matrix, forms=None) -> HomologyData:
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
    s2 = snf(w, forms)
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


def _check_homology_ring(ring: CoeffRing):
    """Raise UnsupportedRing unless homology over `ring` is computed: Z, Q and Z/p."""
    if ring.kind == "U1":
        raise UnsupportedRing(
            "homology over the circle group is undefined; use classify on an angle "
            "cocycle: its Bockstein class lies one degree up in integer cohomology"
        )
    if ring.kind != "Z" and not ring.is_field:
        raise UnsupportedRing(f"homology over {ring} is not supported (composite modulus)")


def homology_data(c: GradedComplex, n: int, forms: dict | None = None) -> HomologyData:
    if c.ring == INT:
        return _quotient_group_int(c.rank(n), *_kernel_lattice(c.diff(n), forms), c.diff(n + 1), forms)
    _check_homology_ring(c.ring)
    return _quotient_space_field(c.ring, c.rank(n), kernel_field(c.diff(n)), c.diff(n + 1))


def homology_at(c: GradedComplex, n: int) -> AbGroup:
    """H_n of a chain-stored complex, as an AbGroup presentation."""
    return homology_data(c, n).group


class GroupInvariants(NamedTuple):
    """The isomorphism type of a homology group: free rank and torsion, as in AbGroup."""

    free_rank: int
    torsion: tuple


def homology_invariants(c: GradedComplex, degrees) -> dict:
    """{n: GroupInvariants of H_n} for each n in `degrees`, in list order.

    Each differential is read once and serves both degrees it touches:
    rank H_n = rank C_n - rank d_n - rank d_(n+1), and the torsion of
    H_n is the diagonal of d_(n+1)'s Smith form from 2 on (im d_(n+1)
    lies in ker d_n, a direct summand of C_n).  Over Z that is one
    `smith_diagonal` per differential; over Q and Z/p one `_rref` gives
    the rank.  A differential with no rows or no columns has rank 0 and
    is not reduced.  No generators are chosen: `homology_data` presents
    the group when a caller needs them.
    """
    degrees = list(degrees)
    if degrees:
        _check_homology_ring(c.ring)
    forms = {}

    def form(n):  # (rank d_n, Smith diagonal of d_n)
        if n not in forms:
            d = c.diff(n)
            if not (d.nrows and d.ncols):
                forms[n] = (0, ())
            elif c.ring == INT:
                forms[n] = smith_diagonal(d)
            else:
                forms[n] = (len(_rref(d)[1]), ())
        return forms[n]

    out = {}
    for n in degrees:
        up, diag = form(n + 1)
        out[n] = GroupInvariants(c.rank(n) - form(n)[0] - up, tuple(x for x in diag if x >= 2))
    return out


def _zero_group(ambient_rank: int, cycles: _Lattice, boundary_gens: Matrix) -> HomologyData:
    """The zero group over Z: no generators, and `cycles` as its cycle test.

    `express` and `_classes` read a vector's coordinates in `cycles`
    (InvalidChainMap when it lies outside) and send them to no generator.
    """
    group = AbGroup(0, (), ())
    return HomologyData(INT, ambient_rank, group, (), boundary_gens, cycles, Matrix.zeros(INT, 0, len(cycles.rows)))


def _presentations(c: GradedComplex, degrees, forms) -> dict:
    """{n: HomologyData of H_n(c)} for n in `degrees`, as a sequence reads them.

    Over Z the invariants come first, one certified Smith diagonal per
    differential, and only a nonzero group is presented by
    `homology_data`.  A zero group gets no generators, and its cycle
    test is d_n x = 0: the lattice of d_n's coordinates with no row
    left free.  Over Q and Z/p every group is presented, since one RREF
    per group costs about what its invariants would.
    """
    if c.ring != INT:
        return {n: homology_data(c, n, forms) for n in degrees}
    inv = homology_invariants(c, degrees)
    out = {}
    for n in degrees:
        if inv[n] != (0, ()):
            out[n] = homology_data(c, n, forms)
        else:
            out[n] = _zero_group(c.rank(n), _Lattice(c.diff(n), range(0), ()), c.diff(n + 1))
    return out


# ---------------------------------------------------------------------------
# Induced and connecting maps
# ---------------------------------------------------------------------------


def _on_generators(src_data: HomologyData, dst_data: HomologyData, fn) -> Matrix:
    """Matrix sending each generator g of src_data to the class of fn(g) in dst_data."""
    return _classes(dst_data, [fn(g) for g in src_data.group.generators])


def _classes(data: HomologyData, cycles) -> Matrix:
    """The classes of the vectors `cycles` in data's generators, as columns, each as `express` gives it.

    Over Z one `coords` product and one `to_gens` product express them all.
    """
    if data.ring != INT:
        return Matrix.from_columns(data.ring, data.ngens, [data.express(v) for v in cycles])
    y = data.lattice.coords(Matrix.from_columns(INT, data.ambient_rank, cycles))
    if y is None:
        raise InvalidChainMap("vector is not a cycle modulo boundaries")
    rows = [[c % d if d else c for c in row] for row, d in zip((data.to_gens @ y).rows, data.orders)]
    return Matrix(INT, data.ngens, y.ncols, rows)


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


def _subgroup_leq_int(gens_a: Matrix, gens_b: Matrix, forms=None):
    """Is span(cols of A) contained in span(cols of B)?  Returns (ok, witness)."""
    lat = _image_lattice(snf(gens_b, forms))
    if lat.coords(gens_a) is not None:
        return True, None
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


def _subgroup_leq(gens_a: Matrix, gens_b: Matrix, forms=None):
    return _subgroup_leq_int(gens_a, gens_b, forms) if gens_a.ring == INT else _subgroup_leq_field(gens_a, gens_b)


def _kernel_subgroup(outgoing: Matrix, target_rel: Matrix, rel: Matrix, forms=None) -> Matrix:
    """Generators of ker(outgoing) + relations in generator coordinates."""
    ring = outgoing.ring
    kern = _kernel(ring, hstack(ring, [outgoing, target_rel]), forms)
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


def _in_relations(m: Matrix, orders) -> bool:
    """Does every column of m lie in the span of the relations d_i e_i, d_i in `orders` (0 for free)?"""
    return not any(x % d if d else x for row, d in zip(m.rows, orders) for x in row)


def _exact_at(label, here: HomologyData, incoming: Matrix, outgoing: Matrix, target: HomologyData, forms):
    """Exactness of  prev --incoming--> here --outgoing--> target.

    A group with no generators is 0, and so are the image and the kernel
    in it: the position is exact with no test.  Otherwise the image lies
    in the kernel when outgoing sends it into the target's relations;
    only when it does not is the subgroup test run, for its verdict and
    its witness.
    """
    if not here.ngens:
        return LESPosition(label, here.group, True, None)
    rel = here.relation_matrix()
    trel = target.relation_matrix()
    im = hstack(incoming.ring, [incoming, rel])
    ker = _kernel_subgroup(outgoing, trel, rel, forms)
    ok1, w1 = (True, None) if _in_relations(outgoing @ im, target.orders) else _subgroup_leq(im, ker, forms)
    ok2, w2 = _subgroup_leq(ker, im, forms)
    if ok1 and ok2:
        return LESPosition(label, here.group, True, None)
    if not ok1:
        defect = f"image not contained in kernel; witness {list(w1)}"
    else:
        defect = f"kernel class not hit; witness {list(w2)}"
    return LESPosition(label, here.group, False, defect)


def _is_presentation_iso(m: Matrix, src: HomologyData, dst: HomologyData, forms=None) -> bool:
    """Is the map of presented groups with matrix m an isomorphism?

    Onto: every target generator lies in im(m) + the target relations.
    One to one: whatever m sends into the target relations is a source
    relation.
    """
    rel_src = src.relation_matrix()
    rel_dst = dst.relation_matrix()
    onto, _ = _subgroup_leq(Matrix.identity(dst.ring, dst.ngens), hstack(m.ring, [m, rel_dst]), forms)
    return onto and _subgroup_leq(_kernel_subgroup(m, rel_dst, rel_src, forms), rel_src, forms)[0]


def _assemble_les(kind, groups, degrees, a, b, c, labels, j, k, delta, forms) -> LESReport:
    """The sequence ... -> A_n -j-> B_n -k-> C_n -delta-> A_(n-1) -> ... over `degrees`.

    a, b and c give the HomologyData of A_n, B_n and C_n (a also one
    degree below the range) and labels(n) names the three.  j(n, g) and
    k(n, g) send a generator g to a cycle of the next group; delta(n) is
    the matrix of delta_n.  Every map is built before exactness is
    checked at B_n, at C_n and, inside the range, at A_(n-1), with the
    sequence's table `forms` of Smith forms.
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
        positions.append(_exact_at(label_b, b[n], jn, kn, c[n], forms))
        positions.append(_exact_at(label_c, c[n], kn, dn, a[n - 1], forms))
        if n - 1 in degrees:
            positions.append(_exact_at(labels(n - 1)[0], a[n - 1], dn, maps[f"j_{n - 1}"], b[n - 1], forms))
    return LESReport(kind, groups, maps, tuple(positions))


def les_of_cone(f: ComplexMap) -> LESReport:
    """The long exact sequence of the mapping cone.

    ... -> H_n(Y) -j-> H_n(f) -k-> H_(n-1)(X) -delta-> H_(n-1)(Y) -> ...
    with j(beta) = (0, beta), k(theta, eta) = theta, and delta the
    induced map of f in degree n-1 (checked against the snake recipe;
    a mismatch raises InvalidChainMap).  Exactness is checked at every
    position over the full degree range.  One table of certified Smith
    forms (see `snf`) serves every reduction of the sequence.  Over Z
    only the nonzero groups of X, Y and the cone are presented; a zero
    group keeps only its cycle test (see `_presentations`).
    """
    forms = {}
    cone = cone_of_map(f)
    x, y = f.src, f.dst
    degrees = range(cone.lo - 1, cone.hi + 2)
    around = range(cone.lo - 2, cone.hi + 2)
    hx = _presentations(x, around, forms)
    hy = _presentations(y, around, forms)
    hc = _presentations(cone, around, forms)
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
        forms,
    )


# ---------------------------------------------------------------------------
# Kernel / cokernel sequence
# ---------------------------------------------------------------------------


def _kernel(ring, a: Matrix, forms=None) -> Matrix:
    return kernel_int(a, forms) if ring == INT else kernel_field(a)


def _kernel_coords(ring, a: Matrix, forms):
    """(basis, coords): a basis of ker a as columns, and the map that sends columns
    to their coordinates in it (None when one lies outside).

    Over Z the coordinates are read through the lattice of the Smith form
    that gave the basis; the basis has full column rank, so they are the
    one solution there is, and no Smith form of the basis is built.
    """
    if ring == INT:
        basis, lattice = _kernel_lattice(a, forms)
        return basis, lattice.coords
    basis = kernel_field(a)
    return basis, partial(solve_field, basis)


def _kernel_complex(f: ComplexMap, forms):
    """The degreewise-kernel subcomplex, with {degree: (basis, coords)} of its embeddings (see `_kernel_coords`)."""
    ring = f.ring
    x = f.src
    bases = {n: _kernel_coords(ring, f.component(n), forms) for n in range(x.lo, x.hi + 1)}
    ranks = {n: basis.ncols for n, (basis, _) in bases.items() if basis.ncols}
    diffs = {}
    for n in ranks:
        img = x.diff(n) @ bases[n][0]
        if n - 1 not in ranks:
            if not img.is_zero():
                raise InvalidChainMap("kernel complex not closed under the differential")
            diffs[n] = Matrix.zeros(ring, 0, ranks[n])
            continue
        w = bases[n - 1][1](img)
        if w is None:
            raise InvalidChainMap("kernel complex not closed under the differential")
        diffs[n] = w
    kc = GradedComplex(ring, ranks, diffs)
    return kc, bases


def _coker_homology_data(f: ComplexMap, n: int, forms) -> HomologyData:
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
    kern = _kernel(ring, stacked, forms)
    gl = kern.submatrix(range(g), range(kern.ncols))
    den = hstack(dn.ring, [y.diff(n + 1), rel_here])
    if ring == INT:
        s = snf(gl, forms)
        return _quotient_group_int(g, _image_basis(s), _image_lattice(s), den, forms)
    return _quotient_space_field(ring, g, gl, den)


def _image_basis(s: SNFResult) -> Matrix:
    """The basis d_i U[:, i], i < r, of the column span of A = U D V, as columns."""
    return Matrix.from_columns(INT, s.u.nrows, [[d * v for v in s.u.col(i)] for i, d in enumerate(s.diag[: s.rank])])


def _image_inclusion(f: ComplexMap, forms) -> ComplexMap:
    """The inclusion im f -> Y over Z, with im f a complex of free groups.

    Degree n of im f has the basis of `_image_basis` from the Smith form
    of f_n, and its differential is d_Y on that basis, read in the image
    lattice of f_(n-1).  A read that fails raises InvalidChainMap; the
    constructors then check d d = 0 and d i = i d.
    """
    y = f.dst
    forms_of = {n: snf(f.component(n), forms) for n in range(y.lo - 1, y.hi + 1)}
    incl = {n: _image_basis(forms_of[n]) for n in range(y.lo, y.hi + 1)}
    diffs = {}
    for n, basis in incl.items():
        w = _image_lattice(forms_of[n - 1]).coords(y.diff(n) @ basis)
        if w is None:
            raise InvalidChainMap("image of f is not a subcomplex")
        diffs[n] = w
    image = GradedComplex(INT, {n: b.ncols for n, b in incl.items()}, diffs)
    return ComplexMap(image, y, incl)


def _coker_presentations(f: ComplexMap, degrees, forms) -> dict:
    """{n: HomologyData of H_n(coker f)} for n in `degrees`, as `ker_coker_les` reads them.

    Over Z, H_n(coker f) is H_n of the cone of the inclusion im f -> Y
    (the cone of an injective chain map is quasi-isomorphic to its
    quotient), and that cone is a complex of free groups: its invariants
    come first, and only a nonzero group is presented by
    `_coker_homology_data`.  A zero group gets no generators, and its
    cycle test is "d_n y lies in im f_(n-1)", read through the Smith
    form of f_(n-1).  Over Q and Z/p every group is presented.
    """
    if f.ring != INT:
        return {n: _coker_homology_data(f, n, forms) for n in degrees}
    inv = homology_invariants(cone_of_map(_image_inclusion(f, forms)), degrees)
    y = f.dst
    out = {}
    for n in degrees:
        if inv[n] != (0, ()):
            out[n] = _coker_homology_data(f, n, forms)
        else:
            s = snf(f.component(n - 1), forms)
            cycles = _Lattice(s.uinv @ y.diff(n), range(s.rank), s.diag[: s.rank])
            out[n] = _zero_group(y.rank(n), cycles, hstack(INT, [y.diff(n + 1), f.component(n)]))
    return out


def _onto(a: Matrix, forms) -> bool:
    """Is A onto?  Over Z, A X = I is solvable exactly when A's Smith form has
    rank = rows and every invariant factor 1; over a field, when rank = rows."""
    if a.ring != INT:
        return len(_rref(a)[1]) == a.nrows
    s = snf(a, forms)
    return s.rank == a.nrows and all(d == 1 for d in s.diag)


def ker_coker_les(f: ComplexMap) -> LESReport:
    """The long exact sequence relating ker f, the cone, and coker f.

    ... -> H_(n-1)(ker f) -j-> H_n(f) -k-> H_n(coker f)
        -delta-> H_(n-2)(ker f) -> ...
    with j[theta] = [(theta, 0)], k[(theta, eta)] = [eta mod f], and
    delta[eta] = [d theta] for any theta with f(theta) = d eta.

    When f is degreewise injective, k must be an isomorphism in every
    degree; when degreewise surjective, j must.  A failure raises
    InvalidChainMap.  One table of certified Smith forms (see `snf`)
    serves every reduction of the sequence.  Over Z only the nonzero
    groups of ker f, the cone and coker f are presented: the cokernel's
    invariants are read off the cone of the inclusion im f -> Y (see
    `_coker_presentations`), and a zero group keeps only its cycle test.
    """
    ring = f.ring
    if ring != INT and not ring.is_field:
        raise UnsupportedRing(f"kernel/cokernel sequence over {ring} is not supported")
    forms = {}
    cone = cone_of_map(f)
    x, y = f.src, f.dst
    kc, kbases = _kernel_complex(f, forms)
    degrees = range(cone.lo - 1, cone.hi + 2)
    around = range(cone.lo - 2, cone.hi + 2)
    hker = _presentations(kc, range(cone.lo - 3, cone.hi + 2), forms)
    hcone = _presentations(cone, around, forms)
    hcok = _coker_presentations(f, around, forms)

    injective = all(basis.ncols == 0 for basis, _ in kbases.values())
    surjective = all(_onto(f.component(n), forms) for n in range(y.lo, y.hi + 1))

    def kbasis(n):
        return kbases[n][0] if n in kbases else Matrix.zeros(ring, x.rank(n), 0)

    zero = ring.zero()

    def delta(n):
        # each generator eta of H_n(coker f) goes to w with kbasis(n - 2) w = d theta, f(theta) = d eta;
        # all generators lift in one solve, and read their coordinates w in one call
        gens = hcok[n].group.generators
        deta = Matrix.from_columns(ring, y.rank(n - 1), [y.diff(n).apply(g) for g in gens])
        fn = f.component(n - 1)
        theta = solve_int(fn, deta, forms) if ring == INT else solve_field(fn, deta)
        if theta is None:
            raise InvalidChainMap("cokernel cycle does not lift")
        dtheta = x.diff(n - 1) @ theta
        if kbasis(n - 2).ncols == 0:
            if not dtheta.is_zero():
                raise InvalidChainMap("connecting image misses the kernel complex")
            return Matrix.zeros(ring, hker[n - 2].ngens, len(gens))
        w = kbases[n - 2][1](dtheta)
        if w is None:
            raise InvalidChainMap("connecting image misses the kernel complex")
        return _classes(hker[n - 2], w.columns())

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
        delta,
        forms,
    )
    if injective:
        for n in degrees:
            if not _is_presentation_iso(rep.maps[f"k_{n}"], hcone[n], hcok[n], forms):
                raise InvalidChainMap(f"injective specialization failed: k not iso at degree {n}")
    if surjective:
        for n in degrees:
            if not _is_presentation_iso(rep.maps[f"j_{n}"], hker[n - 1], hcone[n], forms):
                raise InvalidChainMap(f"surjective specialization failed: j not iso at degree {n}")
    return rep
