"""Smith normal form, homology presentations, and long exact sequences.

All integer work is exact big-integer arithmetic.  `snf` returns
A = U D V with unimodular U, V and their inverses, certified by the
products of `_check_snf`; kernels, solving and membership read them.
Every read of a form -- a lattice's coordinates, a solve, the classes
of a map, a group's generators, a subcomplex's differential -- is one
``@``, which walks only nonzero entries (`matrix.product_nonzeros`).
Only the certificate multiplies densely (`_dense_product`, whose
docstring says why).
`smith_diagonal`, all that `homology_invariants` and so the verbs
`homology`, `cone`, `cone-space`, `cech` and `compare-cones` read,
builds no transforms.  It first takes +-1 pivots on sparse rows by row
operations only (a boundary matrix is almost all unit pivots), then
runs the dense pivot loop on the small core that is left.  Replaying
the logged row operations on a fresh copy of the matrix must show it
as [[T, X], [0, C]] with T unit upper triangular, so the diagonal is
1 for each pivot followed by the Smith diagonal of the core C, which
is certified by replaying the dense loop's log.

Over Q and Z/p the form of a matrix is its reduced row echelon form
(`_rref`), exact but not certified.  Every ring reads one coordinate
path: the ring picks only how a kernel (`_kernel_lattice`) or an image
(`_image`) is built, and each gives a `_Lattice`, the exact coordinate
map of its form.  One :class:`Solver` per matrix solves A X = B over
any of these rings, and A w = c over Q/Z for an integer A: Q/Z is
divisible, so the angle equation needs only a division by the diagonal.
Homology presents a quotient and expresses a cycle with no further
reduction: one form of d_n for the cycle lattice and one of the
boundaries in its coordinates.
A long exact sequence (`les_of_cone`, `ker_coker_les`) meets the same
matrix many times, so each such call owns one table of forms and passes
it to every reduction it causes (see `snf`); nothing is shared outside
a sequence.  A sequence reads what its forms already give rather than
reducing more: a solve against a kernel basis reads the lattice of the
form that produced the basis, the classes of all generators of a map
come from one coordinate product, an image lies in the next kernel when
one product lands in the target's relations (only otherwise does the
subgroup test run, for its witness), and `ker_coker_les` reads whether
f_n is onto off its image lattice.  Every group a sequence prints is the
homology of a free complex, presented by one routine (`_presentations`):
it reads the complex's invariants first (`homology_invariants`) and
presents only the nonzero groups; a zero group has no generators, and
its lattice keeps only its cycle test, d_n x = 0.  Over Z a nonzero
group is presented on a smaller complex: the +-1 incidences of the
complex are cancelled by the sparse pivots of `_unit_pivots`
(`_unit_reduction`), which give the reduced complex and chain maps
f: reduced -> C and g: C -> reduced.  None of it is trusted: both maps
and the reduced complex pass the checked constructors, g f = 1 is
checked, and the reduced complex must have the invariants of C, so H(f)
is an isomorphism with inverse H(g) (`_reduced`).  The generators are
f of the reduced group's, and a cycle x is read as g x
(`_read_through`).  So only the small differentials that are left get
Smith forms with transforms, certified densely: on sd(T(4)) -> T(4)
`les_of_cone` over Z went from 20 s to 0.04 s (Python 3.11, 2-core VM).
ker f and im f are free subcomplexes of X and Y, built by one routine
(`_subcomplex`) from the forms of the f_n.  Over Z that form is
`_unit_form`: the +-1 pivots of f_n, taken on sparse rows by
`_unit_pivots`, give its kernel basis and the preimages of its image by
back substitution, and only the rest, the non-pivot rows x non-pivot
columns, gets a Smith form.  Its certificate always runs, with sparse
products only.  On sd(T(4)) -> T(4) `ker_coker_les` over Z went from
4.4 s to 0.05 s, and on sd(T(6)) -> T(6) from 53 s to 0.23 s (same VM).
The cokernel complex Y / im f need not be free,
so its homology is that of the cone of the inclusion im f -> Y, a
complex of free groups quasi-isomorphic to it because the inclusion is
injective.  Exactness at a group with no generators holds with no test.

Homology groups are presented as
:class:`AbGroup` values: free rank, divisibility-ordered torsion, and
representative cycles chosen from SNF change-of-basis columns, torsion
generators first.  Exactness of long sequences is decided by
torsion-aware subgroup membership in generator coordinates, never by
rank bookkeeping alone.

Over Q the elimination runs on integer rows and builds Fractions only
for the reduced entries a caller reads; ranks read pivot columns only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, lcm
from typing import NamedTuple

from .chain import ComplexMap, GradedComplex, cone_of_map
from .coeffs import INT, RAT, CoeffRing
from .errors import (
    InvalidChainMap,
    RingMismatch,
    ShapeMismatch,
    UnsupportedRing,
)
from .matrix import Matrix, hstack, product_nonzeros, vstack

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

    `forms`, when given, is the table of one `les_of_cone` or
    `ker_coker_les` call, which passes it to every reduction it causes:
    an integer matrix equal to one already in it (same ring, shape and
    entries) gets the same result back, with no second reduction or
    certificate.  A reduced form enters the table only after
    `_check_snf` has passed on it (an empty shape's form with none), and
    Matrix and SNFResult are immutable, so every shared integer form is
    a certified one.  The same table keeps the sequence's field
    reductions (`_rref`), keyed by their blocks: exact, and read by the
    same coordinate path, but not certified; its certified
    reductions of integer complexes (`_reduced`), keyed by their
    lowest degree and differentials; and the certified kernel and image
    of each integer map f_n of `ker_coker_les` (`_unit_form`), keyed by
    the map.  With no table, nothing is kept.
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
    core_rows, core_cols = _unit_certificate(rows, m, n, pivots, ops)
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
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
    """Certify the unit phase on `rows`, a fresh sparse copy of A; return the lines of the core.

    Replays `ops` on `rows` in place (refusing lines outside the matrix
    and self-adds), so `rows` ends as P A, P the product of the
    operations.  Then checks that the pivots are distinct lines, that
    each replayed pivot entry is +-1, and that pivot column j_k is nonzero
    only on pivot rows i_1..i_k.  The core is the non-pivot rows x
    non-pivot columns of the replayed rows, without its zero rows and
    columns: returned as (its rows, its columns), each in index order.
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
    core = [i for i, r in enumerate(rows) if r and i not in row_at]
    return core, sorted(set().union(*map(rows.__getitem__, core)))


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
    V Vinv = I certify those, and that U and V are unimodular.  All
    three products run the dense loop of `_dense_product`.
    """
    m, n = a.nrows, a.ncols
    diag = r.diag
    _check_smith_diagonal(a.shape, r.d.shape, r.d.rows, diag, r.rank)
    k = r.rank
    scaled_v = Matrix._of(INT, k, n, [[d * x for x in row] for d, row in zip(diag[:k], r.v.rows)])
    if _dense_product(r.u.submatrix(range(m), range(k)), scaled_v) != a:
        raise InvalidChainMap("snf: A != U D V")
    if _dense_product(r.u, r.uinv) != Matrix.identity(INT, m):
        raise InvalidChainMap("snf: U inverse wrong")
    if _dense_product(r.v, r.vinv) != Matrix.identity(INT, n):
        raise InvalidChainMap("snf: V inverse wrong")


def _dense_product(a: Matrix, b: Matrix) -> Matrix:
    """A B over Z by the dense row-by-column loop, zeros included: the product of `_check_snf` only.

    Every other product is ``@``, which walks only nonzeros.  The
    certificate keeps this loop because the benchmark harness
    (`bench/worker.py`) keeps every pass's results, `SNFResult`s with
    their four transforms most of all, until it exits.  With ``@`` here,
    the integer ladder (`z-ladder`, 10 s runs, Python 3.11 on a 2-core
    VM) ran 18 passes instead of 6-7 at about 246 ops/s instead of 88,
    and its peak memory read 66.4 MB instead of 40-42 MB, far past its
    bound, with no change in what one pass keeps.  Once the harness keeps
    one pass (ROADMAP item 1), this helper goes and `_check_snf` uses
    ``@``.
    """
    add, mul, zero = INT.add, INT.mul, INT.zero()
    bcols = list(zip(*b.rows))
    out = []
    for r in a.rows:
        row = []
        for c in range(b.ncols):
            acc = zero
            for x, y in zip(r, bcols[c] if bcols else ()):
                acc = add(acc, mul(x, y))
            row.append(acc)
        out.append(row)
    return Matrix._of(INT, a.nrows, b.ncols, out)


# ---------------------------------------------------------------------------
# Lattice utilities on top of SNF
# ---------------------------------------------------------------------------


def kernel_int(a: Matrix, forms: dict | None = None) -> Matrix:
    """Basis of ker(a), as columns: saturated over Z, the RREF basis over a field (see `_kernel_lattice`)."""
    return _kernel_lattice(a, forms)[0]


class Solver:
    """Solutions of A X = B over A's ring, and of A w = c over Q/Z for integer A, from one form of A.

    X = back @ Y, where Y holds the coordinates of B in the column span
    of A and `back` sends them to a preimage (see `_image`).
    """

    __slots__ = ("lattice", "back")

    def __init__(self, a: Matrix, forms: dict | None = None):
        self.lattice, self.back = _image(a, forms)

    def solve(self, b: Matrix) -> Matrix | None:
        """One solution X, or None if none exists."""
        if b.nrows != self.lattice.to.nrows:
            raise ShapeMismatch(f"solve: {self.lattice.to.nrows} rows vs rhs {b.shape}")
        y = self.lattice.coords(b)
        return None if y is None else self.back @ y

    def solve_mod_one(self, c) -> tuple | None:
        """One rational w with A w = c (mod 1), or None if none exists; A is an integer matrix.

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


def solve(a: Matrix, b: Matrix, forms: dict | None = None) -> Matrix | None:
    """One solution X of A X = B over A's ring, or None if none exists."""
    return Solver(a, forms).solve(b)


# ---------------------------------------------------------------------------
# Field elimination (Q and Z/p)
# ---------------------------------------------------------------------------


def _rref(*mats, forms=None):
    """Reduced row echelon form of [M1 | M2 | ...] over Q or Z/p.

    Returns (reduced, pivot columns); ``reduced(cols)`` lists, for each
    pivot row in order, its reduced entries in columns `cols`.  Column c
    is a pivot exactly when it is not in the span of the columns before
    it.  A pivot row is zero left of its pivot, so each row update walks
    only the pivot row's nonzero entries.  `forms`, when given, is the
    table of one sequence (see `snf`): equal blocks, in the same order,
    get the result it already holds back, with no second elimination.

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
    known = None if forms is None else forms.get(mats)
    if known is not None:
        return known
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
            inv = pow(rows[r][c], -1, p)
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

    if forms is not None:
        forms[mats] = reduced, pivots
    return reduced, pivots


def _cleared(row):
    """A row of Fractions times the lcm of its denominators, as integers."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


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

    Every ring reads one coordinate path: ``lattice`` is the cycle
    lattice ker d_n with its coordinate map (see `_kernel_lattice`), and
    ``to_gens`` sends lattice coordinates to generator coordinates
    (before the torsion reduction).  Over Z ``to_gens`` comes from the
    Smith form of the boundaries in lattice coordinates (certified);
    over Q and Z/p it is the generators' pivot rows of the RREF of
    [den | num] that chose them (exact, not certified), built when a
    cycle is first expressed.  A zero group has no generators, and its
    lattice keeps only the cycle test d_n x = 0 (`_zero_group`).
    """

    def __init__(self, ring, ambient_rank, group, orders, boundary_gens, lattice, to_gens):
        self.ring = ring
        self.ambient_rank = ambient_rank
        self.group = group
        self.orders = orders  # per kept generator: d_i for torsion, 0 for free
        self.boundary_gens = boundary_gens  # ambient x b
        self.lattice = lattice
        self._to_gens = to_gens  # a Matrix, or a function that builds it when first read

    @property
    def to_gens(self) -> Matrix:
        if not isinstance(self._to_gens, Matrix):
            self._to_gens = self._to_gens()
        return self._to_gens

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
        are canonicalized into [0, d_i).  Two products with stored
        forms, and no elimination.
        """
        if len(vec) != self.ambient_rank:
            raise ShapeMismatch(f"cycle length {len(vec)} vs ambient {self.ambient_rank}")
        y = self.lattice.coords(Matrix.column(self.ring, list(vec)))
        if y is None:
            raise InvalidChainMap("vector is not a cycle modulo boundaries")
        coords = self.to_gens.apply(y.col(0))
        return tuple(c % d if d else c for c, d in zip(coords, self.orders))


class _Lattice(NamedTuple):
    """The exact coordinate map of the form (a Smith form or an RREF) that produced a lattice.

    x lies in the lattice exactly when, in ``t = to @ x``, row
    ``rows[j]`` is divisible by ``scale[j]`` for every j and every other
    row is zero; its coordinates in the basis of that form are then the
    quotients t[rows[j]] / scale[j], then its entries in the rows
    `free`.  Every ring reads this one path; a Smith form is certified,
    an RREF exact but not certified.  The basis itself is not kept.
    The product walks only the nonzeros of ``to`` and of x, so reading
    the sparse columns of an f_n or a boundary through a kernel's form
    costs what they hold, not their shape.
    """

    to: Matrix
    rows: range
    scale: tuple
    free: tuple = ()

    def coords(self, x: Matrix) -> Matrix | None:
        """Coordinates of the columns of x in the lattice basis, or None if one lies outside."""
        t = self.to @ x
        if any(any(t.rows[i]) for i in range(t.nrows) if i not in self.rows):
            return None
        out = []
        for i, d in zip(self.rows, self.scale):
            row = t.rows[i]
            if d != 1:
                if any(v % d for v in row):
                    return None
                row = [v // d for v in row]
            out.append(row)
        out += map(x.rows.__getitem__, self.free)
        return Matrix._of(self.to.ring, len(out), x.ncols, out)


def _kernel_lattice(a: Matrix, forms=None) -> tuple:
    """(basis, lattice) of ker(a), as columns and their coordinate map.

    Over Z: columns r.. of Vinv, from a = U D V; x = Vinv (V x) lies in
    it when (V x)[:r] = 0.  Over a field, from one RREF of a: free column
    f gives e_f minus its reduced entries in the pivot rows, so x lies in
    it when a x = 0, and its free entries are its coordinates.
    """
    n = a.ncols
    if a.ring == INT:
        s = snf(a, forms)
        return s.vinv.submatrix(range(n), range(s.rank, n)), _Lattice(s.v, range(s.rank, n), (1,) * (n - s.rank))
    reduced, pivots = _rref(a, forms=forms)
    free = sorted(set(range(n)) - set(pivots))
    zero, one, neg = a.ring.zero(), a.ring.one(), a.ring.neg
    out = [[zero] * len(free) for _ in range(n)]
    for k, fc in enumerate(free):
        out[fc][k] = one
    for pc, vals in zip(pivots, reduced(free)):
        out[pc] = [neg(x) if x else zero for x in vals]
    return Matrix._of(a.ring, n, len(free), out), _Lattice(a, range(0), (), tuple(free))


def _image(a: Matrix, forms=None) -> tuple:
    """(lattice, back) of the column span of a: for y the coordinates of x, a (back y) = x.

    Over Z, from a = U D V: basis d_i U[:, i], i < r, and x lies in it
    when d_i divides (Uinv x)_i, i < r, and (Uinv x)[r:] = 0; back is
    Vinv[:, :r].  Over a field, from one RREF of [a | I] = [R | P]
    (P a = R): basis the pivot columns of a, x lies in it when
    (P x)[r:] = 0, with coordinates (P x)[:r]; back is e_piv.
    """
    m, n = a.shape
    if a.ring == INT:
        s = snf(a, forms)
        return _Lattice(s.uinv, range(s.rank), s.diag[: s.rank]), s.vinv.submatrix(range(n), range(s.rank))
    reduced, pivots = _rref(a, Matrix.identity(a.ring, m), forms=forms)
    r = sum(1 for c in pivots if c < n)
    zero, one = a.ring.zero(), a.ring.one()
    back = [[zero] * r for _ in range(n)]
    for j, c in enumerate(pivots[:r]):
        back[c][j] = one
    return _Lattice(Matrix._of(a.ring, m, m, reduced(range(n, n + m))), range(r), (1,) * r), Matrix._of(a.ring, n, r, back)


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


def _quotient_space_field(ambient: int, num_basis: Matrix, num: _Lattice, den: Matrix, forms=None) -> HomologyData:
    """span(num_basis)/span(den) over a field, den inside it, by one RREF of [den | num_basis].

    Pivot columns in den form ``boundary_gens``; pivot columns in
    num_basis extend them to a basis of its span and are the generators.
    A column is the sum of the pivot columns weighted by its pivot-row
    entries, so the generators' pivot rows, read in num_basis's columns,
    are ``to_gens``, built when a cycle is first expressed.
    """
    ring, b, k = den.ring, den.ncols, num_basis.ncols
    reduced, pivots = _rref(den, num_basis, forms=forms)
    base = [c for c in pivots if c < b]
    keep = [c - b for c in pivots if c >= b]
    group = AbGroup(len(keep), (), tuple(num_basis.col(j) for j in keep), ring)

    def to_gens():
        return Matrix._of(ring, len(keep), k, reduced(range(b, b + k))[len(base) :])

    return HomologyData(ring, ambient, group, (0,) * len(keep), den.submatrix(range(ambient), base), num, to_gens)


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
    _check_homology_ring(c.ring)
    quotient = _quotient_group_int if c.ring == INT else _quotient_space_field
    return quotient(c.rank(n), *_kernel_lattice(c.diff(n), forms), c.diff(n + 1), forms)


def homology_at(c: GradedComplex, n: int) -> AbGroup:
    """H_n of a chain-stored complex, as an AbGroup presentation."""
    return homology_data(c, n).group


class GroupInvariants(NamedTuple):
    """The isomorphism type of a homology group: free rank and torsion, as in AbGroup."""

    free_rank: int
    torsion: tuple


def homology_invariants(c: GradedComplex, degrees, forms: dict | None = None) -> dict:
    """{n: GroupInvariants of H_n} for each n in `degrees`, in list order.

    Each differential is read once and serves both degrees it touches:
    rank H_n = rank C_n - rank d_n - rank d_(n+1), and the torsion of
    H_n is the diagonal of d_(n+1)'s Smith form from 2 on (im d_(n+1)
    lies in ker d_n, a direct summand of C_n).  Over Z that is one
    `smith_diagonal` per differential; over Q and Z/p one `_rref` gives
    the rank.  A differential with no rows or no columns has rank 0 and
    is not reduced.  No generators are chosen: `homology_data` presents
    the group when a caller needs them.

    `forms`, when given, is a sequence's table (see `snf`): over Q and
    Z/p each rank is read from the RREF the table holds, the one that
    `_kernel_lattice` reads when the group is presented, so equal
    differentials are eliminated once.  Over Z the Smith diagonal has no
    transforms, and the table keeps none.
    """
    degrees = list(degrees)
    if degrees:
        _check_homology_ring(c.ring)
    ranks = {}

    def form(n):  # (rank d_n, Smith diagonal of d_n)
        if n not in ranks:
            d = c.diff(n)
            if not (d.nrows and d.ncols):
                ranks[n] = (0, ())
            elif c.ring == INT:
                ranks[n] = smith_diagonal(d)
            else:
                ranks[n] = (len(_rref(d, forms=forms)[1]), ())
        return ranks[n]

    out = {}
    for n in degrees:
        up, diag = form(n + 1)
        out[n] = GroupInvariants(c.rank(n) - form(n)[0] - up, tuple(x for x in diag if x >= 2))
    return out


def _zero_group(c: GradedComplex, n: int) -> HomologyData:
    """H_n(c) known to be 0: no generators, and d_n x = 0 as its cycle test.

    The test is the lattice of d_n's coordinates with no row left free:
    `express` and `_classes` read a vector's coordinates in it
    (InvalidChainMap when d_n does not kill it) and send them to no
    generator.  It carries c's ring, over Z, Q and Z/p alike.
    """
    cycles = _Lattice(c.diff(n), range(0), ())
    return HomologyData(c.ring, c.rank(n), AbGroup(0, (), (), c.ring), (), c.diff(n + 1), cycles, Matrix.zeros(c.ring, 0, 0))


def _presentations(c: GradedComplex, degrees, forms) -> dict:
    """{n: HomologyData of H_n(c)} for n in `degrees`, as a sequence reads them.

    The invariants come first (`homology_invariants`: one certified
    Smith diagonal per differential over Z, one rank over Q and Z/p from
    the RREF in the table `forms`), and only a nonzero group is
    presented.  A zero group gets no generators and keeps only its cycle
    test (`_zero_group`).  Over Z a nonzero group is presented on the
    certified reduction of c (`_reduced`), read back in c
    (`_read_through`); a complex with no +-1 incidence, and every group
    over Q and Z/p, by `homology_data` on c itself.
    """
    inv = homology_invariants(c, degrees, forms)
    nonzero = [n for n in degrees if inv[n] != (0, ())]
    red = _reduced(c, forms) if nonzero and c.ring == INT else None
    if red is not None and homology_invariants(red.small, nonzero) != {n: inv[n] for n in nonzero}:
        raise InvalidChainMap("reduction: the reduced complex has other homology")
    out = {}
    for n in degrees:
        if n not in nonzero:
            out[n] = _zero_group(c, n)
        else:
            out[n] = homology_data(c, n, forms) if red is None else _read_through(red, n, forms)
    return out


# ---------------------------------------------------------------------------
# Reduction of integer complexes by +-1 pivots
# ---------------------------------------------------------------------------


class _Reduction(NamedTuple):
    """A smaller complex with chain maps f: small -> c and g: c -> small, g f = 1."""

    small: GradedComplex
    f: ComplexMap
    g: ComplexMap


def _unit_reduction(c: GradedComplex) -> tuple:
    """Cancel the +-1 incidences of the integer complex c: (diffs, f, g), by degree.

    From the top degree down, `_unit_pivots` runs on d_n without the
    columns of the cells already paired one degree up; each pivot pairs
    a cell of degree n with one of degree n - 1, and the cells in no
    pair are critical.  This is Gaussian elimination of a chain complex
    (Kaczynski, Mischaikow and Mrozek, *Computational Homology* (2004);
    Skoldberg, Trans. AMS 358 (2006)):

    - the reduced d_n is the Schur complement the pivots leave on the
      critical rows and columns of d_n;
    - f_n sends a critical cell k to the chain v with v_k = 1, zero on
      the other critical cells and on the cells paired upward, whose
      entries on the pivot columns make d_n v vanish on the pivot rows
      (`_pivot_columns`);
    - g_n sends a chain to its critical entries after the row
      operations of d_(n+1)'s pivots (`_operation_rows`).

    Nothing here is checked; `_reduced` certifies the result.
    """
    paired = {n: set() for n in c.degrees()}
    elim = {}
    for n in range(c.hi, c.lo, -1):
        rows = [{j: x for j, x in compress(enumerate(r), r) if j not in paired[n]} for r in c.diff(n).rows]
        pivots, ops = _unit_pivots(rows)
        elim[n] = rows, pivots, ops
        paired[n].update(j for _, j in pivots)
        paired[n - 1].update(i for i, _ in pivots)
    crit = {n: [k for k in range(c.rank(n)) if k not in paired[n]] for n in c.degrees()}
    none = ([], [], [])
    diffs, f, g = {}, {}, {}
    for n, k in crit.items():
        rows, pivots, _ = elim.get(n, none)
        f[n] = _pivot_columns(rows, pivots, [({j: 1}, {}) for j in k], c.rank(n))
        _, pivots_up, ops_up = elim.get(n + 1, none)
        g[n] = _operation_rows(ops_up, pivots_up, k, c.rank(n))
        if n - 1 in crit:
            diffs[n] = Matrix._of(INT, len(crit[n - 1]), len(k), [[rows[i].get(j, 0) for j in k] for i in crit[n - 1]])
    return diffs, f, g


def _pivot_columns(rows, pivots, cols, size) -> Matrix:
    """Columns that solve the eliminated pivot rows `rows` by back substitution, one per entry of `cols`.

    An entry of `cols` is (fixed, target): the column's entries off the
    pivot columns, as {column: value}, and the value each pivot row must
    take on it, as {pivot index: value} (0 where missing).  The pivot
    rows as `_unit_pivots` left them are unit upper triangular on the
    pivot columns in pivot order, so the pivot columns' entries follow by
    back substitution: the latest pivot row whose residual is nonzero
    fixes its pivot column's entry, which changes only the residuals of
    earlier pivot rows.  f_n of `_unit_reduction` has ({k: 1}, {}) for
    each critical cell k; `_unit_form` solves for kernel vectors and
    preimages.
    """
    on = {}  # column -> [(pivot index, entry)] over the pivot rows
    for t, (i, _) in enumerate(pivots):
        for j, x in rows[i].items():
            on.setdefault(j, []).append((t, x))
    out = [[0] * len(cols) for _ in range(size)]
    for m, (fixed, target) in enumerate(cols):
        res = {t: -v for t, v in target.items()}
        for k, v in fixed.items():
            out[k][m] = v
            for t, x in on.get(k, ()):
                res[t] = res.get(t, 0) + v * x
        heap = [-t for t in res]
        heapify(heap)
        while heap:
            t = -heappop(heap)
            r = res.pop(t)
            if not r:
                continue
            i, j = pivots[t]
            z = out[j][m] = -rows[i][j] * r
            for s, x in on[j]:
                if s < t:
                    if s not in res:
                        res[s] = 0
                        heappush(heap, -s)
                    res[s] += z * x
    return Matrix._of(INT, size, len(cols), out)


def _operation_rows(ops, pivots, crit, size) -> Matrix:
    """Rows `crit` of P, the product of the row operations `ops` of `_unit_pivots` on `size` rows.

    An operation (i, p, k) adds k times row p, retired right after, so
    row i of the product is e_i plus k times row p of it for each such
    operation.  Only the pivot rows that a row of `crit` reaches are
    built, in pivot order.  g_n of `_unit_reduction` is the critical rows
    of P; `_unit_form` reads all of P.
    """
    into = {}
    for i, p, k in ops:
        into.setdefault(i, []).append((p, k))
    need, todo = set(), list(crit)
    while todo:
        for p, _ in into.get(todo.pop(), ()):
            if p not in need:
                need.add(p)
                todo.append(p)
    made = {}

    def row(i):
        r = {i: 1}
        for p, k in into.get(i, ()):
            for j, x in made[p].items():
                r[j] = r.get(j, 0) + k * x
        return r

    for p, _ in pivots:
        if p in need:
            made[p] = row(p)
    out = []
    for i in crit:
        r = row(i)
        out.append([r.get(j, 0) for j in range(size)])
    return Matrix._of(INT, len(crit), size, out)


def _reduced(c: GradedComplex, forms) -> _Reduction | None:
    """The certified reduction of the integer complex c, or None when no +-1 incidence pairs two cells.

    `_unit_reduction` is not trusted: the reduced complex and both maps
    go through the checked constructors (d d = 0, d f = f d, d g = g d),
    and g f = 1 is checked in every degree; a failure raises
    InvalidChainMap.  Then H(g) H(f) = 1, so H(f) is a split injection,
    and once `_presentations` has checked that the reduced complex has
    the invariants of c it is onto (a split injection between isomorphic
    finitely generated groups is), with inverse H(g).  The table `forms`
    keeps the reduction, so equal complexes of one sequence are reduced
    once.
    """
    key = ("reduced", c.lo) + tuple(c.diff(n) for n in range(c.lo, c.hi + 2))
    if key in forms:
        return forms[key]
    diffs, f, g = _unit_reduction(c)
    red = None
    if any(fn.ncols < fn.nrows for fn in f.values()):
        small = GradedComplex(INT, {n: m.ncols for n, m in f.items()}, diffs)
        red = _Reduction(small, ComplexMap(small, c, f), ComplexMap(c, small, g))
        for n, fn in f.items():
            if g[n] @ fn != Matrix.identity(INT, fn.ncols):
                raise InvalidChainMap(f"reduction: g f != 1 at degree {n}")
    forms[key] = red
    return red


def _read_through(red: _Reduction, n: int, forms) -> HomologyData:
    """H_n of red's complex c, presented on red.small and read in c.

    The generators are the images under f of the reduced group's, with
    the same orders; a cycle x of c has the coordinates of g x.  H(f) and
    H(g) are inverse isomorphisms (see `_reduced`), so those images
    generate H_n(c) with those orders, and [x] = [f g x].
    """
    data = homology_data(red.small, n, forms)
    c = red.f.dst
    gens = red.f.component(n) @ data.gen_matrix
    group = AbGroup(data.group.free_rank, data.group.torsion, tuple(gens.columns()))
    # one coordinate map: the rows of d_n test d_n x = 0, then the reduced lattice reads g x
    d, low = c.diff(n), data.lattice
    to = vstack(INT, [d, low.to @ red.g.component(n)])
    lattice = _Lattice(to, range(d.nrows + low.rows.start, d.nrows + low.rows.stop), low.scale)
    return HomologyData(INT, c.rank(n), group, data.orders, c.diff(n + 1), lattice, data.to_gens)


# ---------------------------------------------------------------------------
# Kernel and image of an integer matrix by +-1 pivots
# ---------------------------------------------------------------------------


class _UnitForm(NamedTuple):
    """The kernel and image of an integer matrix a, read through its +-1 pivots (see `_unit_form`)."""

    basis: Matrix  # a basis of ker a, as columns
    kernel: _Lattice  # coordinates in `basis`
    image: _Lattice  # coordinates in the column span of a
    back: Matrix  # a (back y) = x when y are the image coordinates of x


def _unit_form(a: Matrix, forms: dict) -> _UnitForm:
    """Kernel and image of the integer matrix a, with a Smith form of the rest of its +-1 pivots only.

    `_unit_pivots` runs on the sparse rows of a, and the replay of
    `_unit_certificate` gives R = P a, P the product of its row
    operations (`_operation_rows`).  Up to the order of lines R is
    [[T, X], [0, C]]: T unit upper triangular on the pivot rows and
    columns in pivot order, and C the rest, the non-pivot rows x
    non-pivot columns.  Only the core of C, its nonzero lines, gets a
    Smith form C = U D V of rank r (`snf`, certified).  Then:

    - ker a: x lies in it exactly when a x = 0, and its entries off the
      pivot columns, which lie in ker C, fix it.  The basis is C's
      kernel basis (columns r.. of Vinv on the core columns, then a unit
      vector for each zero column of C), completed on the pivot columns
      by back substitution (`_pivot_columns`); the coordinates of x are
      (V x)[r:] on the core columns, then x on the zero columns.
    - im a: x lies in it exactly when y = P x has its rest in im C.  Its
      coordinates are y on the pivot rows in pivot order, then
      (Uinv y)_i / d_i, i < r, on the core rows; y is 0 on the zero rows
      of C.  `back` sends the coordinate of pivot t to the back
      substitution of e_t on the pivot rows, and coordinate i of the core
      to Vinv[:, i], completed the same way.

    The certificate runs on every call, and a failure raises
    InvalidChainMap: the replay checks of `_unit_certificate`; P unit
    triangular in pivot order (non-pivot rows last) and P a = R; a K = 0
    and K, off the pivot columns, equal to C's kernel basis; and the
    image lattice reading a @ back as the identity.  The sequence's
    table `forms` keeps the result, keyed by a, as it keeps `_reduced`.
    """
    key = ("unit form", a)
    if key in forms:
        return forms[key]
    m, n = a.shape
    rows = [dict(compress(enumerate(r), r)) for r in a.rows]
    pivots, ops = _unit_pivots([dict(r) for r in rows])
    core_rows, core_cols = _unit_certificate(rows, m, n, pivots, ops)  # `rows` is now R
    p = _operation_rows(ops, pivots, range(m), m)
    order = [i for i, _ in pivots]
    at = {i: t for t, i in enumerate(order)}
    for i, row in enumerate(p.rows):
        t = at.get(i, len(order))  # the non-pivot rows come last
        if row[i] != 1 or any(x and j != i and at.get(j, t) >= t for j, x in enumerate(row)):
            raise InvalidChainMap("unit form: P is not unit triangular in pivot order")
    if product_nonzeros([(p, a)]) != {(i, j): x for i, r in enumerate(rows) for j, x in r.items()}:
        raise InvalidChainMap("unit form: P a is not the replayed rows")
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    s = snf(Matrix._of(INT, len(core_rows), len(core_cols), core), forms)
    r, k = s.rank, len(core_cols)
    off = sorted(set(range(n)).difference(j for _, j in pivots))
    zero_cols = sorted(set(off).difference(core_cols))

    def on_core(col):  # a column of the core's form, as {column of a: value}
        return {core_cols[q]: x for q, x in enumerate(col) if x}

    # ker a: the rest's kernel basis, completed on the pivot columns
    rest = [on_core(s.vinv.col(c)) for c in range(r, k)] + [{j: 1} for j in zero_cols]
    basis = _pivot_columns(rows, pivots, [(fixed, {}) for fixed in rest], n)
    want = {j: [0] * len(rest) for j in off}
    for c, col in enumerate(rest):
        for j, x in col.items():
            want[j][c] = x
    if product_nonzeros([(a, basis)]) or any(basis.rows[j] != tuple(want[j]) for j in off):
        raise InvalidChainMap("unit form: the kernel basis is not the rest's, completed in ker a")
    v = [[0] * n for _ in range(k)]
    for out, row in zip(v, s.v.rows):
        for j, x in zip(core_cols, row):
            out[j] = x
    kernel = _Lattice(vstack(INT, [a, Matrix._of(INT, k, n, v)]), range(m + r, m + k), (1,) * (k - r), tuple(zero_cols))
    # im a: P x read on the pivot rows, through Uinv on the core rows, and 0 on the rest's zero rows
    zero_rows = sorted(set(range(m)).difference(order, core_rows))
    cols = range(m)
    to = vstack(INT, [p.submatrix(order, cols), s.uinv @ p.submatrix(core_rows, cols), p.submatrix(zero_rows, cols)])
    image = _Lattice(to, range(len(order) + r), (1,) * len(order) + s.diag[:r])
    preimages = [({}, {t: 1}) for t in range(len(order))] + [(on_core(s.vinv.col(i)), {}) for i in range(r)]
    back = _pivot_columns(rows, pivots, preimages, n)
    if image.coords(a @ back) != Matrix.identity(INT, len(order) + r):
        raise InvalidChainMap("unit form: the image lattice does not read a @ back as the identity")
    forms[key] = out = _UnitForm(basis, kernel, image, back)
    return out


# ---------------------------------------------------------------------------
# Induced and connecting maps
# ---------------------------------------------------------------------------


def _on_generators(src_data: HomologyData, dst_data: HomologyData, fn) -> Matrix:
    """Matrix sending each generator g of src_data to the class of its image in dst_data.

    `fn` maps the generators, as the columns of one matrix, to their
    images, as the columns of another: a chain map is one sparse ``@``,
    and one `_classes` reads every class.  With no generators `fn` is
    not called.
    """
    if not src_data.ngens:
        return Matrix.zeros(dst_data.ring, dst_data.ngens, 0)
    return _classes(dst_data, fn(src_data.gen_matrix))


def _classes(data: HomologyData, cycles: Matrix) -> Matrix:
    """The classes of the columns of `cycles` in data's generators, as columns, each as `express` gives it.

    One `coords` product and one `to_gens` product express them all, over every ring.
    """
    if not cycles.ncols:
        return Matrix.zeros(data.ring, data.ngens, 0)
    y = data.lattice.coords(cycles)
    if y is None:
        raise InvalidChainMap("vector is not a cycle modulo boundaries")
    rows = [[c % d if d else c for c in row] for row, d in zip((data.to_gens @ y).rows, data.orders)]
    return Matrix(data.ring, data.ngens, y.ncols, rows)


def induced_map(f: ComplexMap, n: int, src_data: HomologyData | None = None, dst_data: HomologyData | None = None) -> Matrix:
    """Matrix of H_n(f) in the chosen generator bases."""
    if src_data is None:
        src_data = homology_data(f.src, n)
    if dst_data is None:
        dst_data = homology_data(f.dst, n)
    fn = f.component(n)
    return _on_generators(src_data, dst_data, lambda gens: fn @ gens)


def _split(chains: Matrix, k: int) -> tuple:
    """Cone chains as columns, split into their first k rows and the rest, as `cone_split` splits one."""
    cols = range(chains.ncols)
    return chains.submatrix(range(k), cols), chains.submatrix(range(k, chains.nrows), cols)


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

    def snake(gens):
        # the cycles (gamma, 0) of the cone, pushed through its differential
        chains = vstack(gens.ring, [gens, Matrix.zeros(gens.ring, f.dst.rank(n), gens.ncols)])
        theta, eta = _split(cone.diff(n) @ chains, f.src.rank(n - 2))
        if not theta.is_zero():
            raise InvalidChainMap("snake lift failed: source component of boundary nonzero")
        return eta

    delta = _on_generators(x_data, y_data, snake)
    if delta != induced_map(f, n - 1, x_data, y_data):
        raise InvalidChainMap("connecting map disagrees with the induced map")
    return delta


# ---------------------------------------------------------------------------
# Exactness checking
# ---------------------------------------------------------------------------


def _subgroup_leq(gens_a: Matrix, gens_b: Matrix, forms=None):
    """Is span(cols of A) contained in span(cols of B)?  Returns (ok, the first column of A outside)."""
    lat = _image(gens_b, forms)[0]
    if lat.coords(gens_a) is not None:
        return True, None
    for col in gens_a.columns():
        if lat.coords(Matrix.column(gens_a.ring, col)) is None:
            return False, col
    return True, None


def _kernel_subgroup(outgoing: Matrix, target_rel: Matrix, rel: Matrix, forms=None) -> Matrix:
    """Generators of ker(outgoing) + relations in generator coordinates."""
    ring = outgoing.ring
    kern = kernel_int(hstack(ring, [outgoing, target_rel]), forms)
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
    k(n, g) send the generators, the columns of g, to cycles of the next
    group, as the columns of a matrix (see `_on_generators`); delta(n) is
    the matrix of delta_n.  Every map is built before exactness is
    checked at B_n, at C_n and, inside the range, at A_(n-1), with the
    sequence's table `forms` of Smith forms and RREFs.
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
    position over the full degree range.  One table of forms (see
    `snf`) serves every reduction of the sequence.  Only the
    nonzero groups of X, Y and the cone are presented; a zero group
    keeps only its cycle test (see `_presentations`).
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
        lambda n, g: vstack(g.ring, [Matrix.zeros(g.ring, x.rank(n - 1), g.ncols), g]),
        lambda n, g: _split(g, x.rank(n - 1))[0],
        lambda n: connecting_hom(f, n, cone, hx[n - 1], hy[n - 1]),
        forms,
    )


# ---------------------------------------------------------------------------
# Kernel / cokernel sequence
# ---------------------------------------------------------------------------


def _kernel_coords(a: Matrix, forms):
    """(basis, coords): a basis of ker a as columns, and the map that sends columns
    to their coordinates in it (None when one lies outside), read through the
    lattice of the form that gave the basis, with no form of the basis built.
    Over Z the form is `_unit_form`, over a field `_kernel_lattice`."""
    basis, lattice = _unit_form(a, forms)[:2] if a.ring == INT else _kernel_lattice(a, forms)
    return basis, lattice.coords


def _image_form(a: Matrix, forms) -> tuple:
    """(lattice, back) of the column span of a map f_n: `_unit_form` over Z, `_image` over a field."""
    return _unit_form(a, forms)[2:] if a.ring == INT else _image(a, forms)


def _image_coords(a: Matrix, forms):
    """(basis, coords) of the column span of a, as `_kernel_coords` gives them for its kernel.

    The basis is a @ back (see `_image_form`).
    """
    lattice, back = _image_form(a, forms)
    return a @ back, lattice.coords


def _subcomplex(c: GradedComplex, parts: dict, message: str) -> ComplexMap:
    """The inclusion of the free subcomplex of c with basis parts[n][0] in degree n.

    parts[n] is (basis, coords) as `_kernel_coords` gives it.  The
    differential of degree n is d_c on that basis, read in coordinates one
    degree down; a read that fails raises InvalidChainMap(message).  The
    constructors then check d d = 0 and d i = i d.
    """
    ranks = {n: basis.ncols for n, (basis, _) in parts.items() if basis.ncols}
    diffs = {}
    for n in ranks:
        img = c.diff(n) @ parts[n][0]
        if n - 1 in ranks:
            w = parts[n - 1][1](img)
        else:
            w = Matrix.zeros(c.ring, 0, ranks[n]) if img.is_zero() else None
        if w is None:
            raise InvalidChainMap(message)
        diffs[n] = w
    sub = GradedComplex(c.ring, ranks, diffs)
    return ComplexMap(sub, c, {n: parts[n][0] for n in ranks})


def _onto(a: Matrix, forms) -> bool:
    """Is A onto?  A X = I is solvable exactly when A's image lattice has
    rank = rows and every scale 1 (every invariant factor 1 over Z)."""
    lattice = _image_form(a, forms)[0]
    return len(lattice.rows) == a.nrows and all(d == 1 for d in lattice.scale)


def ker_coker_les(f: ComplexMap) -> LESReport:
    """The long exact sequence relating ker f, the cone, and coker f.

    ... -> H_(n-1)(ker f) -j-> H_n(f) -k-> H_n(coker f)
        -delta-> H_(n-2)(ker f) -> ...
    with j[theta] = [(theta, 0)], k[(theta, eta)] = [eta mod f], and
    delta[eta] = [d theta] for any theta with f(theta) = d eta.

    ker f and im f are free subcomplexes of X and Y (`_subcomplex`), read
    off the forms of the f_n: over Z `_unit_form`, over a field the RREF
    of `_kernel_lattice` and `_image`.  The cokernel Y / im f need not be
    free, so H_n(coker f) is H_n of the cone of the inclusion iota: im f -> Y, a
    complex of free groups quasi-isomorphic to it because iota is
    injective.  k sends (theta, eta) to (the coordinates of f theta in the
    image basis, eta), a chain map of cones since iota q = f; delta reads
    the eta part of a generator of H_n(cone(iota)).  All three complexes
    are presented by `_presentations`, over Z, Q and Z/p alike.

    When f is degreewise injective, k must be an isomorphism in every
    degree; when degreewise surjective, j must.  A failure raises
    InvalidChainMap.  One table of forms (see `snf`) serves every
    reduction of the sequence.
    """
    ring = f.ring
    _check_homology_ring(ring)
    forms = {}
    cone = cone_of_map(f)
    x, y = f.src, f.dst
    kparts = {n: _kernel_coords(f.component(n), forms) for n in range(x.lo, x.hi + 1)}
    kernel = _subcomplex(x, kparts, "kernel complex not closed under the differential")
    iparts = {n: _image_coords(f.component(n), forms) for n in range(y.lo, y.hi + 1)}
    iota = _subcomplex(y, iparts, "image of f is not a subcomplex")
    degrees = range(cone.lo - 1, cone.hi + 2)
    around = range(cone.lo - 2, cone.hi + 2)
    hker = _presentations(kernel.src, range(cone.lo - 3, cone.hi + 2), forms)
    hcone = _presentations(cone, around, forms)
    hcok = _presentations(cone_of_map(iota), around, forms)

    injective = all(basis.ncols == 0 for basis, _ in kparts.values())
    surjective = all(_onto(f.component(n), forms) for n in range(y.lo, y.hi + 1))

    def k(n, g):
        theta, eta = _split(g, x.rank(n - 1))
        if not iota.src.rank(n - 1):
            return eta
        q = iparts[n - 1][1](f.component(n - 1) @ theta)
        if q is None:
            raise InvalidChainMap("f theta does not lie in the image of f")
        return vstack(ring, [q, eta])

    def delta(n):
        # each generator (q, eta) of H_n(coker f) goes to the coordinates w of d theta in the
        # kernel basis of degree n - 2, where f(theta) = d eta;
        # all generators lift in one read of f_(n-1)'s image form, and read their coordinates w in one call
        etas = _split(hcok[n].gen_matrix, iota.src.rank(n - 1))[1]
        deta = y.diff(n) @ etas
        lattice, back = _image_form(f.component(n - 1), forms)
        coords = lattice.coords(deta)
        if coords is None:
            raise InvalidChainMap("cokernel cycle does not lift")
        theta = back @ coords
        dtheta = x.diff(n - 1) @ theta
        if not kernel.src.rank(n - 2):
            if not dtheta.is_zero():
                raise InvalidChainMap("connecting image misses the kernel complex")
            return Matrix.zeros(ring, hker[n - 2].ngens, etas.ncols)
        w = kparts[n - 2][1](dtheta)
        if w is None:
            raise InvalidChainMap("connecting image misses the kernel complex")
        return _classes(hker[n - 2], w)

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
        lambda n, g: vstack(ring, [kernel.component(n - 1) @ g, Matrix.zeros(ring, y.rank(n), g.ncols)]),
        k,
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
