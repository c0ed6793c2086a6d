"""Exact matrices over a coefficient ring.

Entries are raw normalized values (int / Fraction / residue int) and the
ring travels with the matrix.  Storage is dense, but every product walks
only nonzero entries, since boundary matrices have at most n + 2
nonzeros per column and the forms read through them are mostly zero:
:func:`product_nonzeros` is the one product of two matrices.  ``@`` is
that walk with its zeros filled in, and the identity checks of ``chain``
(d d = 0, d f = f d, h d + d h = f - g) read its entries directly.
:meth:`Matrix.zapply` is the one matrix-vector product (``apply`` is
``zapply`` over the matrix's own ring).  The one dense product left is
`homology._check_snf`'s, and its docstring says why.

Shape conventions follow the rest of the package: a map between free
modules is stored as a (target rank) x (source rank) matrix acting on
column vectors.

Entries are normalized once, where they come from outside:
``Matrix(...)`` (and ``from_rows``, ``from_columns``, ``column``)
passes every entry through ``CoeffRing.normalize``, as does
``change_ring``, which reads integers as values of another ring.
``Matrix._of`` is the trusted build: it stores rows exactly as given and
checks only the shape.  It is for entries that ring arithmetic on
normalized values produced -- products, sums, negations, copies and
re-slicings of normalized matrices, ``zero()``/``one()``, and the
integer or field values of the eliminations in ``homology`` -- which are
already of the stored type.
"""

from __future__ import annotations

from itertools import chain

from .coeffs import INT, CoeffRing
from .errors import MulOnAngleQ, RingMismatch, ShapeMismatch


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "rows", "_hash")

    def __init__(self, ring: CoeffRing, nrows: int, ncols: int, rows):
        if nrows < 0 or ncols < 0:
            raise ShapeMismatch("negative matrix dimension")
        norm = ring.normalize
        self._set(ring, nrows, ncols, tuple(tuple(map(norm, r)) for r in rows))

    @classmethod
    def _of(cls, ring: CoeffRing, nrows: int, ncols: int, rows) -> "Matrix":
        """The trusted build: rows of already normalized values, stored as they are."""
        m = cls.__new__(cls)
        m._set(ring, nrows, ncols, tuple(map(tuple, rows)))
        return m

    def _set(self, ring, nrows, ncols, rows):
        if len(rows) != nrows or any(len(r) != ncols for r in rows):
            raise ShapeMismatch(
                f"rows do not match declared shape {nrows}x{ncols}"
            )
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self._hash = None  # computed on first use; rows never change

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rows(cls, ring: CoeffRing, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(ring, nrows, ncols, rows)

    @classmethod
    def from_columns(cls, ring: CoeffRing, nrows: int, cols) -> "Matrix":
        """The matrix whose j-th column is cols[j]; nrows fixes the shape when cols is empty."""
        cols = [tuple(c) for c in cols]
        if any(len(c) != nrows for c in cols):
            raise ShapeMismatch(f"columns do not all have length {nrows}")
        return cls(ring, nrows, len(cols), list(zip(*cols)) if cols else [()] * nrows)

    @classmethod
    def zeros(cls, ring: CoeffRing, nrows: int, ncols: int) -> "Matrix":
        return cls._of(ring, nrows, ncols, [(ring.zero(),) * ncols] * nrows)

    @classmethod
    def identity(cls, ring: CoeffRing, n: int) -> "Matrix":
        z, o = ring.zero(), ring.one()
        return cls._of(
            ring, n, n, [[o if i == j else z for j in range(n)] for i in range(n)]
        )

    @classmethod
    def column(cls, ring: CoeffRing, vec) -> "Matrix":
        return cls(ring, len(vec), 1, [[v] for v in vec])

    # -- basics -------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def col(self, j: int):
        return tuple(r[j] for r in self.rows)

    def columns(self):
        return [self.col(j) for j in range(self.ncols)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        """Hashed once, on first use: the tables of `homology` look a key up and then store it.

        Integer and residue rows hash as they are, which is faster in C than
        any walk that drops their zeros.  A Fraction's hash costs a modular
        inverse, so Q and U1 keys, mostly zeros, hash only their nonzero
        entries, in order; equal matrices still hash equal.
        """
        if self._hash is None:
            rows = self.rows
            if self.ring.kind in ("Q", "U1"):
                rows = tuple(filter(None, chain.from_iterable(rows)))
            self._hash = hash((self.ring, self.shape, rows))
        return self._hash

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols}, [{body}])"

    def is_zero(self) -> bool:
        z = self.ring.zero()
        return all(v == z for r in self.rows for v in r)

    # -- arithmetic ---------------------------------------------------------

    def _check_same(self, other: "Matrix"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.shape != other.shape:
            raise ShapeMismatch(f"{self.shape} vs {other.shape}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same(other)
        add = self.ring.add
        return Matrix._of(
            self.ring,
            self.nrows,
            self.ncols,
            [
                [add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self) -> "Matrix":
        neg = self.ring.neg
        return Matrix._of(
            self.ring, self.nrows, self.ncols, [[neg(v) for v in r] for r in self.rows]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def scale(self, c) -> "Matrix":
        c = self.ring.normalize(c)
        mul = self.ring.mul
        return Matrix._of(
            self.ring, self.nrows, self.ncols, [[mul(c, v) for v in r] for r in self.rows]
        )

    def zscale(self, n: int) -> "Matrix":
        n = INT.normalize(n)
        zm = self.ring.zmul
        return Matrix._of(
            self.ring, self.nrows, self.ncols, [[zm(n, v) for v in r] for r in self.rows]
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """The product, built from `product_nonzeros`: it reads only nonzero entries of either factor."""
        entries = product_nonzeros([(self, other)])
        zero = self.ring.zero()
        rows = [[zero] * other.ncols for _ in range(self.nrows)]
        for (i, j), v in entries.items():
            rows[i][j] = v
        return Matrix._of(self.ring, self.nrows, other.ncols, rows)

    def transpose(self) -> "Matrix":
        rows = [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return Matrix._of(self.ring, self.ncols, self.nrows, rows)

    # -- structural helpers -------------------------------------------------

    def apply(self, vec):
        """Matrix times column vector, returned as a tuple of values."""
        return self.zapply(self.ring, vec)

    def zapply(self, ring: CoeffRing, vec):
        """Matrix times a column vector over `ring`, returned as a tuple of values.

        The matrix is over `ring` itself or over Z; integer entries act
        through the Z-module structure, which is what lets integer
        coboundary matrices act on angle-valued cochains.  The walk reads
        only nonzero entries, in plain int / Fraction arithmetic, and
        normalizes each row's sum once.
        """
        if self.ring != ring and self.ring != INT:
            raise RingMismatch(f"a matrix over {self.ring} cannot act on a vector over {ring}")
        if self.ring.kind == "U1":
            raise MulOnAngleQ("the circle group has no ring multiplication")
        if len(vec) != self.ncols:
            raise ShapeMismatch(f"vector length {len(vec)} vs {self.shape}")
        vec = [ring.normalize(v) for v in vec]
        return tuple(ring.normalize(sum(a * b for a, b in zip(r, vec) if a)) for r in self.rows)

    def change_ring(self, ring: CoeffRing) -> "Matrix":
        return Matrix(ring, self.nrows, self.ncols, self.rows)

    def submatrix(self, row_idx, col_idx) -> "Matrix":
        rows = [[self.rows[i][j] for j in col_idx] for i in row_idx]
        return Matrix._of(self.ring, len(row_idx), len(col_idx), rows)

    def to_lists(self):
        return [list(r) for r in self.rows]


def product_nonzeros(pairs) -> dict:
    """The nonzero entries {(i, j): value} of the sum A_1 B_1 + ... + A_k B_k of `pairs`.

    Exact over Z, Q and Z/n; it reads only the nonzero entries of each
    factor, and its values have the stored type of the ring (a Fraction
    over Q).  Every pair is checked as ``A @ B`` checks it
    (`RingMismatch`, then `ShapeMismatch`), and each product after the
    first as ``+`` checks it against the sum so far, in that order; the
    circle group has no product of two values, so a pair over U1 then
    raises `MulOnAngleQ`.  An empty `pairs` has no entries.  This is the
    one product of two matrices: ``@`` is this walk with its zeros
    filled in.
    """
    ring = shape = None
    acc = {}  # row -> {column: running sum}, in plain int / Fraction arithmetic
    for a, b in pairs:
        if a.ring != b.ring:
            raise RingMismatch(f"{a.ring} vs {b.ring}")
        if a.ncols != b.nrows:
            raise ShapeMismatch(f"{a.shape} @ {b.shape}")
        if shape is None:
            ring, shape = a.ring, (a.nrows, b.ncols)
        elif a.ring != ring:
            raise RingMismatch(f"{ring} vs {a.ring}")
        elif (a.nrows, b.ncols) != shape:
            raise ShapeMismatch(f"{shape} vs {(a.nrows, b.ncols)}")
        if ring.kind == "U1":
            raise MulOnAngleQ("the circle group has no ring multiplication")
        brows = [[(j, y) for j, y in enumerate(r) if y] for r in b.rows]
        for i, r in enumerate(a.rows):
            row = acc.setdefault(i, {})
            for k, x in enumerate(r):
                if x:
                    for j, y in brows[k]:
                        row[j] = row.get(j, 0) + x * y
    # Z/n sums are reduced once at the end, which gives the same residue as
    # reducing after every step; the zero of every ring here is falsy.
    mod = ring.modulus if ring is not None and ring.kind == "Zmod" else None
    out = {}
    for i, row in acc.items():
        for j, v in row.items():
            if mod is not None:
                v %= mod
            if v:
                out[i, j] = v
    return out


def hstack(ring: CoeffRing, mats) -> Matrix:
    mats = list(mats)
    if not mats:
        return Matrix.zeros(ring, 0, 0)
    nrows = mats[0].nrows
    for m in mats:
        if m.nrows != nrows:
            raise ShapeMismatch("hstack: row counts differ")
        if m.ring != ring:
            raise RingMismatch("hstack: mixed rings")
    rows = [[x for m in mats for x in m.rows[i]] for i in range(nrows)]
    return Matrix._of(ring, nrows, sum(m.ncols for m in mats), rows)


def vstack(ring: CoeffRing, mats) -> Matrix:
    mats = list(mats)
    if not mats:
        return Matrix.zeros(ring, 0, 0)
    ncols = mats[0].ncols
    for m in mats:
        if m.ncols != ncols:
            raise ShapeMismatch("vstack: column counts differ")
        if m.ring != ring:
            raise RingMismatch("vstack: mixed rings")
    rows = [r for m in mats for r in m.rows]
    return Matrix._of(ring, sum(m.nrows for m in mats), ncols, rows)


def block(ring: CoeffRing, grid) -> Matrix:
    """Assemble a block matrix from a 2-d grid of matrices."""
    return vstack(ring, [hstack(ring, row) for row in grid])


def from_int_matrix(m: Matrix, ring: CoeffRing) -> Matrix:
    """Reinterpret an integer matrix over another ring via n -> n.1."""
    if m.ring != INT:
        raise RingMismatch("expected an integer matrix")
    if ring == INT or ring.kind == "U1":
        # Nothing to convert over Z; integer matrices act on U1 vectors as they are.
        return m
    return m.change_ring(ring)
