"""Graded complexes, chain maps, cones and duals.

A single storage orientation is used: every complex is a chain complex,
with the differential lowering degree by one.  A cochain complex (X^*, d)
is stored reindexed as X~_n = X^(-n) with boundary d^(-n).

The two cone constructions are

    Cone_n(f)  = X_(n-1) (+) Y_n      d(theta, eta) = (d theta, f theta - d eta)
    Cone^n(f)  = Y^(n-1) (+) X^n      d(alpha, beta) = (f beta - d alpha, d beta)

for a chain map f: X -> Y and a cochain map f: X -> Y respectively; in
chain storage the cochain cone differential is [[-d_Y, f], [0, d_X]].

Every complex, chain map and homotopy is checked when it is built.  Only
`_of`, the trusted build of a complex or chain map derived from checked
data (a ring map, shift, cone or transpose of one), stores it unchecked.

Duality is the plain transpose.  With the printed conventions the dual
of the chain cone and the cochain cone of the dual map agree only up to
the degreewise sign isomorphism diag((-1)^(m+1) I, (-1)^m I);
:func:`verify_cone_duality` compares through that fixed matrix and
returns the (all zero) residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .coeffs import INT, CoeffRing
from .errors import (
    DegreeMismatch,
    InvalidChainMap,
    InvalidHomotopy,
    RingMismatch,
    ShapeMismatch,
)
from .matrix import Matrix, block, from_int_matrix, product_nonzeros


def mat_ring(ring: CoeffRing) -> CoeffRing:
    """Ring used for differential matrices: Z when coefficients are U1."""
    return INT if ring.kind == "U1" else ring


def _trusted(cls, *args):
    """The trusted build: `_set` without the check, for data derived from checked data."""
    obj = cls.__new__(cls)
    obj._set(*args)
    return obj


class GradedComplex:
    """A bounded complex of free modules in chain orientation."""

    __slots__ = ("ring", "_ranks", "_diffs", "_empty", "lo", "hi")

    def __init__(self, ring: CoeffRing, ranks: Mapping[int, int], diffs: Mapping[int, Matrix]):
        self._set(ring, ranks, diffs)
        self._validate()

    _of = classmethod(_trusted)

    def _set(self, ring, ranks, diffs):
        self.ring = ring
        self._ranks = {int(n): int(r) for n, r in ranks.items() if r}
        self._diffs = {int(n): m for n, m in diffs.items() if m.nrows or m.ncols}
        degs = list(self._ranks) or [0]
        self.lo = min(degs)
        self.hi = max(degs)
        # every degree lo..hi+1 holds its differential, zero or not, and outside it
        # C_n = C_(n-1) = 0, so `diff` builds nothing
        for n in range(self.lo, self.hi + 2):
            if n not in self._diffs:
                self._diffs[n] = Matrix.zeros(mat_ring(ring), self.rank(n - 1), self.rank(n))
        self._empty = Matrix.zeros(mat_ring(ring), 0, 0)

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def diff(self, n: int) -> Matrix:
        return self._diffs.get(n, self._empty)

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def _validate(self):
        """Ring and shape of every differential, then d d = 0 on the nonzero entries of each product."""
        mr = mat_ring(self.ring)
        for n, m in self._diffs.items():
            if m.ring != mr:
                raise RingMismatch(f"differential at degree {n} is over {m.ring}, expected {mr}")
            if m.shape != (self.rank(n - 1), self.rank(n)):
                raise ShapeMismatch(
                    f"differential at degree {n} has shape {m.shape}, "
                    f"expected {(self.rank(n - 1), self.rank(n))}"
                )
        for n in range(self.lo + 1, self.hi + 2):  # d_(lo-1) d_lo has no entries
            if product_nonzeros([(self.diff(n - 1), self.diff(n))]):
                raise InvalidChainMap(f"d d != 0 at degree {n}")

    def __eq__(self, other):
        return (
            isinstance(other, GradedComplex)
            and self.ring == other.ring
            and self._ranks == other._ranks
            and all(self.diff(n) == other.diff(n) for n in range(min(self.lo, other.lo), max(self.hi, other.hi) + 2))
        )

    def __repr__(self):
        rks = ", ".join(f"{n}:{self._ranks[n]}" for n in sorted(self._ranks))
        return f"GradedComplex({self.ring}, ranks={{{rks}}})"


def from_int_complex(c: GradedComplex, ring: CoeffRing) -> GradedComplex:
    """An integer complex read over `ring` through n -> n.1.

    A ring map keeps d d = 0, so the result is not checked again.
    """
    if c.ring != INT:
        raise RingMismatch("expected an integer complex")
    if ring == INT:
        return c
    diffs = {n: from_int_matrix(m, ring) for n, m in c._diffs.items()}
    return GradedComplex._of(ring, c._ranks, diffs)


def shift(c: GradedComplex, s: int) -> GradedComplex:
    """Degree shift: shift(C, s)_n = C_(n-s), differential carried unchanged."""
    ranks = {n + s: c.rank(n) for n in c.degrees()}
    diffs = {n + s: c.diff(n) for n in c.degrees() if c.diff(n).nrows or c.diff(n).ncols}
    return GradedComplex._of(c.ring, ranks, diffs)


class ComplexMap:
    """A degreewise map of complexes commuting with the differentials."""

    __slots__ = ("src", "dst", "_mats")

    def __init__(self, src: GradedComplex, dst: GradedComplex, mats: Mapping[int, Matrix]):
        self._set(src, dst, mats)
        self._validate()

    _of = classmethod(_trusted)

    def _set(self, src, dst, mats):
        if src.ring != dst.ring:
            raise RingMismatch("chain map between complexes over different rings")
        self.src = src
        self.dst = dst
        self._mats = {int(n): m for n, m in mats.items() if m.nrows or m.ncols}

    @property
    def ring(self) -> CoeffRing:
        return self.src.ring

    def component(self, n: int) -> Matrix:
        m = self._mats.get(n)
        if m is None:
            m = Matrix.zeros(mat_ring(self.ring), self.dst.rank(n), self.src.rank(n))
        return m

    def degrees(self):
        lo = min(self.src.lo, self.dst.lo)
        hi = max(self.src.hi, self.dst.hi)
        return range(lo, hi + 1)

    def _validate(self):
        """Ring and shape of every component, then d f = f d on the nonzero entries of both products."""
        mr = mat_ring(self.ring)
        for n, m in self._mats.items():
            if m.ring != mr:
                raise RingMismatch(f"map component at degree {n} over {m.ring}, expected {mr}")
            if m.shape != (self.dst.rank(n), self.src.rank(n)):
                raise InvalidChainMap(
                    f"component at degree {n} has shape {m.shape}, "
                    f"expected {(self.dst.rank(n), self.src.rank(n))}"
                )
        for n in self.degrees():
            dy, fn, fm, dx = self.dst.diff(n), self.component(n), self.component(n - 1), self.src.diff(n)
            lhs = product_nonzeros([(dy, fn)])
            if lhs != product_nonzeros([(fm, dx)]) or (dy.nrows, fn.ncols) != (fm.nrows, dx.ncols):
                raise InvalidChainMap(f"d f != f d at degree {n}")

    def __eq__(self, other):
        return (
            isinstance(other, ComplexMap)
            and self.src == other.src
            and self.dst == other.dst
            and all(self.component(n) == other.component(n) for n in self.degrees())
        )


def from_int_map(f: ComplexMap, ring: CoeffRing) -> ComplexMap:
    """An integer chain map read over `ring` through n -> n.1, with its source and target.

    A ring map keeps d d = 0 and every commuting square d f = f d, so
    the checks `f` passed over Z hold over `ring` and are not run again.
    """
    if f.ring != INT:
        raise RingMismatch("expected an integer chain map")
    if ring == INT:
        return f
    mats = {n: from_int_matrix(m, ring) for n, m in f._mats.items()}
    return ComplexMap._of(from_int_complex(f.src, ring), from_int_complex(f.dst, ring), mats)


@dataclass(frozen=True)
class Homotopy:
    """h: X_n -> Y_(n+1) with h d + d h = f - g, recorded with f and g and checked when built."""

    f: ComplexMap
    g: ComplexMap
    mats: Mapping[int, Matrix] = field(default_factory=dict)

    def component(self, n: int) -> Matrix:
        m = self.mats.get(n)
        if m is None:
            m = Matrix.zeros(mat_ring(self.f.ring), self.f.dst.rank(n + 1), self.f.src.rank(n))
        return m

    def __post_init__(self):
        """Ring and shape of every component, then h d + d h = f - g in every degree, compared on nonzero entries."""
        f, g = self.f, self.g
        if f.src != g.src or f.dst != g.dst:
            raise InvalidHomotopy("f and g do not share source and target")
        x, y = f.src, f.dst
        mr = mat_ring(f.ring)
        for n, m in self.mats.items():
            if m.ring != mr:
                raise InvalidHomotopy(f"map component at degree {n} over {m.ring}, expected {mr}")
            if m.shape != (y.rank(n + 1), x.rank(n)):
                raise InvalidHomotopy(
                    f"component at degree {n} has shape {m.shape}, expected {(y.rank(n + 1), x.rank(n))}"
                )
        for n in f.degrees():
            h, d = self.component(n - 1), x.diff(n)
            lhs = product_nonzeros([(h, d), (y.diff(n + 1), self.component(n))])
            rhs = f.component(n) - g.component(n)
            entries = {(i, j): v for i, r in enumerate(rhs.rows) for j, v in enumerate(r) if v}
            if lhs != entries or (h.nrows, d.ncols) != rhs.shape:
                raise InvalidHomotopy(f"h d + d h != f - g at degree {n}")


# ---------------------------------------------------------------------------
# Cones
# ---------------------------------------------------------------------------


def cone_of_map(f: ComplexMap) -> GradedComplex:
    """Algebraic mapping cone of a chain map.

    Cone_n = X_(n-1) (+) Y_n with block differential
    [[d_X, 0], [f, -d_Y]]; columns and rows are ordered source block
    first.
    """
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    ranks = {}
    for n in range(min(x.lo + 1, y.lo), max(x.hi + 1, y.hi) + 1):
        r = x.rank(n - 1) + y.rank(n)
        if r:
            ranks[n] = r
    diffs = {}
    for n in ranks:
        dx, dy = x.diff(n - 1), y.diff(n)
        diffs[n] = block(mr, [[dx, Matrix.zeros(mr, dx.nrows, dy.ncols)], [f.component(n - 1), -dy]])
    return GradedComplex._of(f.ring, ranks, diffs)


def cone_split(f: ComplexMap, n: int, vec):
    """Split a Cone_n(f) coordinate vector into (theta, eta)."""
    rx = f.src.rank(n - 1)
    if len(vec) != rx + f.dst.rank(n):
        raise ShapeMismatch("cone vector has wrong length")
    return tuple(vec[:rx]), tuple(vec[rx:])


def cone_of_cochain_map(f: ComplexMap) -> GradedComplex:
    """Cone of a cochain map, stored in chain orientation.

    The input is the chain-stored form f~: X~ -> Y~ of a cochain map
    f: X^* -> Y^*.  The output D satisfies D_m = Y~_(m+1) (+) X~_m,
    which is Cone^(-m)(f) = Y^(-m-1) (+) X^(-m) on the nose, with
    differential [[-d_Y, f], [0, d_X]]; rows and columns are ordered
    target block first.
    """
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    ranks = {}
    for m in range(min(y.lo - 1, x.lo), max(y.hi - 1, x.hi) + 1):
        r = y.rank(m + 1) + x.rank(m)
        if r:
            ranks[m] = r
    diffs = {}
    for m in ranks:
        dy, dx = y.diff(m + 1), x.diff(m)
        diffs[m] = block(mr, [[-dy, f.component(m)], [Matrix.zeros(mr, dx.nrows, dy.ncols), dx]])
    return GradedComplex._of(f.ring, ranks, diffs)


def cochain_cone_split(f: ComplexMap, q: int, vec):
    """Split a Cone^q coordinate vector into (alpha, beta).

    alpha lives in Y^(q-1) (the target's lower cochain group), beta in
    X^q; in chain storage these are Y~_(1-q) and X~_(-q).
    """
    ry = f.dst.rank(1 - q)
    if len(vec) != ry + f.src.rank(-q):
        raise ShapeMismatch("cone vector has wrong length")
    return tuple(vec[:ry]), tuple(vec[ry:])


def homotopy_cone_iso(h: Homotopy):
    """The cone isomorphism induced by a chain homotopy.

    For h with h d + d h = f - g, F(theta, eta) = (theta, -h(theta) + eta)
    is an isomorphism Cone(f) -> Cone(g) with inverse
    (theta, eta) |-> (theta, h(theta) + eta).  Returns (F, F_inverse),
    both checked chain maps.
    """
    f, g = h.f, h.g
    cf = cone_of_map(f)
    cg = cone_of_map(g)
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    fwd = {}
    bwd = {}
    for n in cf.degrees():
        eye_x = Matrix.identity(mr, x.rank(n - 1))
        eye_y = Matrix.identity(mr, y.rank(n))
        hm = h.component(n - 1)
        top = [eye_x, Matrix.zeros(mr, x.rank(n - 1), y.rank(n))]
        fwd[n] = block(mr, [top, [-hm, eye_y]])
        bwd[n] = block(mr, [top, [hm, eye_y]])
    forward = ComplexMap(cf, cg, fwd)
    backward = ComplexMap(cg, cf, bwd)
    return forward, backward


# ---------------------------------------------------------------------------
# Duals and the Kronecker pairing
# ---------------------------------------------------------------------------


def dual_complex(c: GradedComplex) -> GradedComplex:
    """Hom(-, R) of a chain complex, stored reindexed.

    The dual cochain group (X')^q = Hom(X_q, R) sits in chain degree -q,
    and the dual differential is the plain transpose of d_(q+1).
    """
    ranks = {-n: c.rank(n) for n in c.degrees()}
    diffs = {}
    for m in range(-c.hi, -c.lo + 1):
        t = c.diff(-m + 1).transpose()
        if t.nrows or t.ncols:
            diffs[m] = t
    return GradedComplex._of(c.ring, ranks, diffs)


def dual_map(f: ComplexMap) -> ComplexMap:
    """f': Y' -> X', the degreewise transpose of f."""
    mats = {}
    for m in range(-max(f.src.hi, f.dst.hi), -min(f.src.lo, f.dst.lo) + 1):
        t = f.component(-m).transpose()
        if t.nrows or t.ncols:
            mats[m] = t
    return ComplexMap._of(dual_complex(f.dst), dual_complex(f.src), mats)


@dataclass(frozen=True)
class ConeElement:
    """An element (theta, eta) of Cone_n(f), or a cochain (alpha, beta).

    For the chain cone, theta has X_(n-1) coordinates and eta Y_n ones.
    A cochain-cone element of Cone^n(f') is carried by the same type with
    theta = alpha (dual X_(n-1) coordinates) and eta = beta (dual Y_n).
    """

    ring: CoeffRing
    degree: int
    theta: tuple
    eta: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(self.ring.normalize(v) for v in self.theta))
        object.__setattr__(self, "eta", tuple(self.ring.normalize(v) for v in self.eta))


def _pairing_ring(a: CoeffRing, b: CoeffRing) -> CoeffRing:
    if a == b:
        return a
    kinds = {a.kind, b.kind}
    if kinds == {"Z", "Q"}:
        return a if a.kind == "Q" else b
    if kinds == {"Z", "U1"}:
        return a if a.kind == "U1" else b
    raise RingMismatch(f"no Kronecker pairing between {a} and {b}")


def kronecker(x: ConeElement, y: ConeElement):
    """<(alpha, beta), (theta, eta)> = <alpha, theta> - <beta, eta>.

    x is the cochain-side element, y the chain-side one; the value lands
    in the common coefficient system.  Integer chains pair with rational
    or angle cochains through the Z-module structure.  Here alpha is the
    source block; `geo.is_integral` puts alpha on the target and reports
    alpha(eta) - beta(theta), minus this pairing of (beta, alpha).
    """
    if x.degree != y.degree:
        raise DegreeMismatch(f"pairing degree {x.degree} against {y.degree}")
    if len(x.theta) != len(y.theta) or len(x.eta) != len(y.eta):
        raise ShapeMismatch("cone element shapes differ")
    ring = _pairing_ring(x.ring, y.ring)
    acc = ring.zero()
    for a, t in zip(x.theta, y.theta):
        term = _zpair(ring, x.ring, a, y.ring, t)
        acc = ring.add(acc, term)
    for b, e in zip(x.eta, y.eta):
        term = _zpair(ring, x.ring, b, y.ring, e)
        acc = ring.sub(acc, term)
    return acc


def _zpair(out: CoeffRing, ra: CoeffRing, a, rb: CoeffRing, b):
    """Product of a and b inside `out`, using zmul when one side is Z."""
    if ra == rb == out:
        return out.mul(a, b)
    if ra.kind == "Z":
        return out.zmul(a, out.normalize(b))
    if rb.kind == "Z":
        return out.zmul(b, out.normalize(a))
    return out.mul(out.normalize(a), out.normalize(b))


def verify_cone_duality(f: ComplexMap):
    """Check Cone^*(f') = (Cone_*(f))' through the documented sign matrix.

    Returns the per-degree residual matrices of

        cone_of_cochain_map(dual_map(f)).diff(m)
        - T_(m-1) @ dual_complex(cone_of_map(f)).diff(m) @ T_m

    with T_m = diag((-1)^(m+1) I, (-1)^m I) on the (source', target')
    blocks.  All residuals must vanish; a nonzero residual raises.
    """
    lhs = cone_of_cochain_map(dual_map(f))
    rhs = dual_complex(cone_of_map(f))
    x = f.src
    mr = mat_ring(f.ring)
    residuals = {}
    lo = min(lhs.lo, rhs.lo)
    hi = max(lhs.hi, rhs.hi)

    def sign_matrix(m: int) -> Matrix:
        nx = x.rank(-m - 1)
        ny = f.dst.rank(-m)
        s = -1 if m % 2 else 1
        diag = [-s] * nx + [s] * ny
        rows = [[diag[i] if i == j else 0 for j in range(len(diag))] for i in range(len(diag))]
        return Matrix(mr, len(diag), len(diag), rows)

    for m in range(lo, hi + 1):
        if lhs.rank(m) != rhs.rank(m) or lhs.rank(m - 1) != rhs.rank(m - 1):
            raise ShapeMismatch(f"cone duality rank mismatch at degree {m}")
        res = lhs.diff(m) - sign_matrix(m - 1) @ rhs.diff(m) @ sign_matrix(m)
        residuals[m] = res
        if not res.is_zero():
            raise InvalidChainMap(f"cone duality residual nonzero at degree {m}")
    return residuals
