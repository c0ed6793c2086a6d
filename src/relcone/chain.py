"""Graded complexes, chain maps, cones and duals.

A single storage orientation is used: every complex is a chain complex,
with the differential lowering degree by one.  A cochain complex (X^*, d)
is stored reindexed as X~_n = X^(-n) with boundary d^(-n); the converters
:func:`cochain_complex` / :func:`cochain_view` realize that shift and
round-trip bit-exactly.

The two cone constructions are

    Cone_n(f)  = X_(n-1) (+) Y_n      d(theta, eta) = (d theta, f theta - d eta)
    Cone^n(f)  = Y^(n-1) (+) X^n      d(alpha, beta) = (f beta - d alpha, d beta)

for a chain map f: X -> Y and a cochain map f: X -> Y respectively.  The
cochain cone is the chain cone re-sliced: the plain block swap
(a, b) -> (b, a) together with the degree shift Cone~(f)_n =
Cone(f~)_(n+1) intertwines the two differentials exactly, with no
auxiliary signs, so each cochain cone differential is a submatrix of a
chain cone differential.

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
from .matrix import Matrix, block, from_int_matrix


def mat_ring(ring: CoeffRing) -> CoeffRing:
    """Ring used for differential matrices: Z when coefficients are U1."""
    return INT if ring.kind == "U1" else ring


class GradedComplex:
    """A bounded complex of free modules in chain orientation."""

    __slots__ = ("ring", "_ranks", "_diffs", "lo", "hi")

    def __init__(self, ring: CoeffRing, ranks: Mapping[int, int], diffs: Mapping[int, Matrix], validate: bool = True):
        self.ring = ring
        self._ranks = {int(n): int(r) for n, r in ranks.items() if r}
        self._diffs = {int(n): m for n, m in diffs.items() if m.nrows or m.ncols}
        degs = list(self._ranks) or [0]
        self.lo = min(degs)
        self.hi = max(degs)
        if validate:
            self._validate()

    def rank(self, n: int) -> int:
        return self._ranks.get(n, 0)

    def diff(self, n: int) -> Matrix:
        m = self._diffs.get(n)
        if m is None:
            m = Matrix.zeros(mat_ring(self.ring), self.rank(n - 1), self.rank(n))
        return m

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def total_rank(self) -> int:
        return sum(self._ranks.values())

    def _validate(self):
        mr = mat_ring(self.ring)
        for n, m in self._diffs.items():
            if m.ring != mr:
                raise RingMismatch(f"differential at degree {n} is over {m.ring}, expected {mr}")
            if m.shape != (self.rank(n - 1), self.rank(n)):
                raise ShapeMismatch(
                    f"differential at degree {n} has shape {m.shape}, "
                    f"expected {(self.rank(n - 1), self.rank(n))}"
                )
        for n in range(self.lo, self.hi + 2):
            prod = self.diff(n - 1) @ self.diff(n)
            if not prod.is_zero():
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

    A ring map keeps d d = 0, so the result is not validated again.
    """
    if c.ring != INT:
        raise RingMismatch("expected an integer complex")
    if ring == INT:
        return c
    diffs = {n: from_int_matrix(m, ring) for n, m in c._diffs.items()}
    return GradedComplex(ring, c._ranks, diffs, validate=False)


def shift(c: GradedComplex, s: int) -> GradedComplex:
    """Degree shift: shift(C, s)_n = C_(n-s), differential carried unchanged."""
    ranks = {n + s: c.rank(n) for n in c.degrees()}
    diffs = {n + s: c.diff(n) for n in c.degrees() if c.diff(n).nrows or c.diff(n).ncols}
    return GradedComplex(c.ring, ranks, diffs, validate=False)


class ComplexMap:
    """A degreewise map of complexes commuting with the differentials."""

    __slots__ = ("src", "dst", "_mats")

    def __init__(self, src: GradedComplex, dst: GradedComplex, mats: Mapping[int, Matrix], validate: bool = True):
        if src.ring != dst.ring:
            raise RingMismatch("chain map between complexes over different rings")
        self.src = src
        self.dst = dst
        self._mats = {int(n): m for n, m in mats.items() if m.nrows or m.ncols}
        if validate:
            self._validate()

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
            lhs = self.dst.diff(n) @ self.component(n)
            rhs = self.component(n - 1) @ self.src.diff(n)
            if lhs != rhs:
                raise InvalidChainMap(f"d f != f d at degree {n}")

    def __eq__(self, other):
        return (
            isinstance(other, ComplexMap)
            and self.src == other.src
            and self.dst == other.dst
            and all(self.component(n) == other.component(n) for n in self.degrees())
        )


def identity_map(c: GradedComplex) -> ComplexMap:
    mats = {n: Matrix.identity(mat_ring(c.ring), c.rank(n)) for n in c.degrees()}
    return ComplexMap(c, c, mats, validate=False)


def compose(g: ComplexMap, f: ComplexMap) -> ComplexMap:
    """g after f."""
    if f.dst is not g.src and f.dst != g.src:
        raise InvalidChainMap("composition target/source mismatch")
    mats = {n: g.component(n) @ f.component(n) for n in f.degrees()}
    return ComplexMap(f.src, g.dst, mats, validate=False)


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
    return ComplexMap(from_int_complex(f.src, ring), from_int_complex(f.dst, ring), mats, validate=False)


@dataclass(frozen=True)
class Homotopy:
    """h: X_n -> Y_(n+1) with h d + d h = f - g, recorded with f and g."""

    f: ComplexMap
    g: ComplexMap
    mats: Mapping[int, Matrix] = field(default_factory=dict)

    def component(self, n: int) -> Matrix:
        m = self.mats.get(n)
        if m is None:
            m = Matrix.zeros(mat_ring(self.f.ring), self.f.dst.rank(n + 1), self.f.src.rank(n))
        return m

    def validate(self):
        f, g = self.f, self.g
        if f.src != g.src or f.dst != g.dst:
            raise InvalidHomotopy("f and g do not share source and target")
        x, y = f.src, f.dst
        for n in f.degrees():
            lhs = self.component(n - 1) @ x.diff(n)
            lhs = lhs + y.diff(n + 1) @ self.component(n)
            rhs = f.component(n) - g.component(n)
            if lhs != rhs:
                raise InvalidHomotopy(f"h d + d h != f - g at degree {n}")
        return self


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
        dx = x.diff(n - 1)
        dy = y.diff(n)
        fm = f.component(n - 1)
        top = [dx, Matrix.zeros(mr, dx.nrows, dy.ncols)]
        bot = [fm, -dy]
        diffs[n] = block(mr, [top, bot])
    return GradedComplex(f.ring, ranks, diffs, validate=False)


def cone_inclusion(f: ComplexMap, cone: GradedComplex | None = None) -> ComplexMap:
    """j: Y -> Cone(f), beta |-> (0, beta).

    With the differential (theta, eta) |-> (d theta, f theta - d eta)
    this anticommutes on the nose (d j = -j d), which is why validation
    is skipped; it still carries cycles to cycles and boundaries to
    boundaries, so the induced map on homology is the usual one.
    """
    if cone is None:
        cone = cone_of_map(f)
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    mats = {}
    for n in cone.degrees():
        zero = Matrix.zeros(mr, x.rank(n - 1), y.rank(n))
        eye = Matrix.identity(mr, y.rank(n))
        mats[n] = block(mr, [[zero], [eye]])
    return ComplexMap(y, cone, mats, validate=False)


def cone_projection(f: ComplexMap, cone: GradedComplex | None = None) -> ComplexMap:
    """k: Cone(f) -> X shifted up by one, (theta, eta) |-> theta."""
    if cone is None:
        cone = cone_of_map(f)
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    xs = shift(x, 1)
    mats = {}
    for n in cone.degrees():
        eye = Matrix.identity(mr, x.rank(n - 1))
        zero = Matrix.zeros(mr, x.rank(n - 1), y.rank(n))
        mats[n] = block(mr, [[eye, zero]])
    return ComplexMap(cone, xs, mats, validate=False)


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
    which is Cone^(-m)(f) = Y^(-m-1) (+) X^(-m) on the nose.  It is
    cone_of_map(f~) moved down one degree with its two blocks swapped:
    each differential is a re-sliced chain cone differential.
    """
    x, y = f.src, f.dst
    chain_cone = cone_of_map(f)

    def order(m):
        # Cone_(m+1)(f~) = X~_m (+) Y~_(m+1), listed Y~ block first
        rx = x.rank(m)
        return list(range(rx, rx + y.rank(m + 1))) + list(range(rx))

    ranks = {n - 1: r for n, r in chain_cone._ranks.items()}
    diffs = {m: chain_cone.diff(m + 1).submatrix(order(m - 1), order(m)) for m in ranks}
    return GradedComplex(f.ring, ranks, diffs, validate=False)


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
    both validated chain maps.
    """
    h.validate()
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
# Cochain reindexing converters
# ---------------------------------------------------------------------------


def cochain_complex(ring: CoeffRing, ranks_by_codeg: Mapping[int, int], d_by_codeg: Mapping[int, Matrix]) -> GradedComplex:
    """Store a cochain complex (X^*, d) as the chain complex X~_n = X^(-n)."""
    ranks = {-q: r for q, r in ranks_by_codeg.items()}
    diffs = {-q: m for q, m in d_by_codeg.items()}
    return GradedComplex(ring, ranks, diffs)


def cochain_view(c: GradedComplex):
    """Inverse of :func:`cochain_complex`; returns (ranks, d) by codegree."""
    ranks = {-n: c.rank(n) for n in c.degrees() if c.rank(n)}
    d = {}
    for n in c.degrees():
        m = c.diff(n)
        if m.nrows and m.ncols:
            d[-n] = m
    return ranks, d


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
    return GradedComplex(c.ring, ranks, diffs, validate=False)


def dual_map(f: ComplexMap) -> ComplexMap:
    """f': Y' -> X', the degreewise transpose of f."""
    mats = {}
    for m in range(-max(f.src.hi, f.dst.hi), -min(f.src.lo, f.dst.lo) + 1):
        t = f.component(-m).transpose()
        if t.nrows or t.ncols:
            mats[m] = t
    return ComplexMap(dual_complex(f.dst), dual_complex(f.src), mats, validate=False)


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
    or angle cochains through the Z-module structure.
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
