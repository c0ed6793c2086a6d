"""Cech cochains on covers and the relative cone of a cover map.

A cover is presented combinatorially by its nerve: one vertex per cover
set, one simplex per declared nonempty intersection.  Cochains assign a
coefficient to each nonempty (p+1)-fold overlap, antisymmetrically in
the listing order.  A map of covered spaces that sends each source set
into a target set induces a pullback on cochains, and the mapping cone
of that pullback computes the cohomology of the map: classes that
restrict to zero upstairs together with a reason why.

All coboundary and pullback matrices are integer matrices acting
through the Z-module structure of the coefficients, so the same code
path serves Z, Q, Z/n and the circle group.

Covers and cover maps are immutable, and each compiles its integer data
once, on first use, into its `view`: these are the only compiled objects
in the package.  A :class:`CoverView` holds the nerve's cochain complex;
a :class:`CoverMapView` holds the pullback matrices and, built on first
use, the relative Cech cone, the chain cone of the pushforward, each
cone's integer homology, and one solver per degree of the relative
cone: a single Smith form of its differential that answers both
integer witnesses and angle witnesses, the latter solved over Q/Z
directly.  No matrix is kept beside its transpose.  Every check (d d =
0, the cochain-map identity, the Smith form postconditions) runs once
per view, or once per solver, instead of once per call.
Everything in this module and in `geo` reads these views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .chain import (
    ComplexMap,
    GradedComplex,
    cone_of_cochain_map,
    cone_of_map,
    dual_complex,
    dual_map,
    from_int_complex,
    from_int_map,
)
from .coeffs import INT, RAT, U1, CoeffRing
from .errors import (
    CoverMismatch,
    DegreeMismatch,
    InvalidChainMap,
    NotACocycle,
    RingMismatch,
    ShapeMismatch,
    UnsupportedRing,
)
from .homology import AbGroup, HomologyData, IntSolver, homology_at, homology_data
from .matrix import Matrix
from .simplicial import (
    Frozen,
    SimplicialComplex,
    SimplicialMap,
    _sort_sign,
    chain_complex,
    nerve,
    pushforward_matrices,
)


class Cover(Frozen):
    """An open cover, known only through its nerve.

    The view is a :class:`CoverView`, compiled on first use.
    """

    __slots__ = ("nerve", "_view")

    def __init__(self, nerve_complex: SimplicialComplex):
        self._init(nerve=nerve_complex, _view=None)

    @property
    def view(self) -> "CoverView":
        return self._keep("_view", lambda: CoverView(self))

    @property
    def absolute(self) -> "CoverMap":
        """The empty cover mapped into this one, made on first use and kept in the view.

        Its cone is this cover's cochain complex, so absolute classes and
        witnesses run the relative code and share one cone per cover.
        """
        view = self.view
        if view.absolute is None:
            view.absolute = CoverMap(Cover(nerve([], [])), self, {})
        return view.absolute

    @classmethod
    def from_sets(cls, sets, intersections) -> "Cover":
        return cls(nerve(sets, intersections))

    @property
    def names(self) -> tuple:
        return self.nerve.vertices

    @property
    def dim(self) -> int:
        return self.nerve.dim

    def rank(self, p: int) -> int:
        """Number of stored p-fold-overlap simplices."""
        return self.nerve.n_rank(p)

    def overlaps(self, p: int) -> tuple:
        """The p-simplices of the nerve as name tuples, in basis order."""
        return tuple(self.nerve.labels(s) for s in self.nerve.simplices(p))

    def intersections(self) -> tuple:
        """All multi-set overlaps as sorted index tuples (serialized form)."""
        out = []
        for n in range(1, self.nerve.dim + 1):
            out.extend(self.nerve.simplices(n))
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, Cover):
            return NotImplemented
        return self is other or self.nerve == other.nerve

    def __repr__(self):
        return f"Cover({len(self.names)} sets, nerve dim {self.dim})"


class CoverMap(Frozen):
    """A refinement-style map of covers.

    `assignment` sends each source set name to a target set name, and
    must carry nonempty overlaps to nonempty overlaps; that is exactly
    the condition that it defines a simplicial map of nerves.  It is the
    read-only vertex map of `nerve_map`.  The view is a
    :class:`CoverMapView`, compiled on first use.
    """

    __slots__ = ("src", "dst", "nerve_map", "_view")

    def __init__(self, src: Cover, dst: Cover, assignment: Mapping):
        self._init(src=src, dst=dst, nerve_map=SimplicialMap(src.nerve, dst.nerve, assignment), _view=None)

    @classmethod
    def _of_nerve_map(cls, src: Cover, dst: Cover, nerve_map: SimplicialMap) -> "CoverMap":
        """The cover map whose nerve map is `nerve_map`, already validated between the two nerves."""
        m = cls.__new__(cls)
        m._init(src=src, dst=dst, nerve_map=nerve_map, _view=None)
        return m

    @property
    def assignment(self) -> Mapping:
        return self.nerve_map.vmap

    @property
    def view(self) -> "CoverMapView":
        return self._keep("_view", lambda: CoverMapView(self))

    def __call__(self, name):
        return self.assignment[name]

    def __eq__(self, other):
        if not isinstance(other, CoverMap):
            return NotImplemented
        return self is other or (
            self.src == other.src
            and self.dst == other.dst
            and self.assignment == other.assignment
        )

    def __repr__(self):
        return f"CoverMap({len(self.src.names)} -> {len(self.dst.names)} sets)"


class CoverView:
    """A cover's compiled integer data.

    `cochains` is the dual of the nerve's validated integer chain
    complex, in chain storage (degree -p): its differential at chain
    degree -p is the coboundary C^p -> C^(p+1).  The chain complex is
    its dual again, rebuilt where a chain cone needs it.  `absolute`
    holds :attr:`Cover.absolute` once it is made; it refers back to the
    cover, so it is only made for absolute classes.
    """

    __slots__ = ("cochains", "absolute")

    def __init__(self, cover: Cover):
        self.cochains = dual_complex(chain_complex(cover.nerve, INT))
        self.absolute = None

    def rank(self, p: int) -> int:
        return self.cochains.rank(-p)

    def coboundary(self, p: int) -> Matrix:
        """d: C^p -> C^(p+1) over Z."""
        return self.cochains.diff(-p)


class CoverMapView:
    """A cover map's compiled integer data.

    `pull_map` is the pullback C^p(dst) -> C^p(src) as an integer
    cochain map between the two covers' `cochains` (chain degree -p):
    its components are the transposes of the nerve map's pushforward,
    checked once, when the view is made, to commute with the
    coboundaries.  One memo keeps what is built on first use: `cone`,
    the relative Cech cone, with its integer homology `data(n)` and the
    solvers `solver(n)` of its differentials, which every witness reads;
    and `chain_cone`, the mapping cone of the pushforward, with its integer
    homology `chain_data(n)`.  Other rings read these integer matrices
    through `zapply` or the ring map (`cone_map`).
    """

    __slots__ = ("src", "dst", "pull_map", "_memo")

    def __init__(self, m: CoverMap):
        self.src = m.src.view
        self.dst = m.dst.view
        pulls = {-p: t.transpose() for p, t in pushforward_matrices(m.nerve_map).items()}
        self.pull_map = ComplexMap(self.dst.cochains, self.src.cochains, pulls)  # raises unless d f = f d
        self._memo = {}

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def pull(self, p: int) -> Matrix:
        """The pullback C^p(dst) -> C^p(src) over Z."""
        return self.pull_map.component(-p)

    def cone_map(self, ring: CoeffRing) -> ComplexMap:
        """The pullback as a cochain map over `ring`, read from the checked integer map."""
        return from_int_map(self.pull_map, ring)

    @property
    def cone(self) -> GradedComplex:
        return self._once("cone", lambda: cone_of_cochain_map(self.cone_map(INT)))

    def data(self, n: int) -> HomologyData:
        return self._once(("data", n), lambda: homology_data(self.cone, n))

    def solver(self, n: int) -> IntSolver:
        """Integer and angle solutions of cone.diff(n) w = u, from one Smith form kept per degree."""
        return self._once(("solver", n), lambda: IntSolver(self.cone.diff(n)))

    @property
    def chain_cone(self) -> GradedComplex:
        """Cone of the pushforward, the dual of the checked pullback on the nerves' chains."""
        return self._once("chain_cone", lambda: cone_of_map(dual_map(self.cone_map(INT))))

    def chain_data(self, n: int) -> HomologyData:
        return self._once(("chain_data", n), lambda: homology_data(self.chain_cone, n))


def compose_cover_maps(outer: CoverMap, inner: CoverMap) -> CoverMap:
    if inner.dst != outer.src:
        raise CoverMismatch("composition needs inner.dst == outer.src")
    return CoverMap(inner.src, outer.dst, {n: outer(inner(n)) for n in inner.src.names})


class CechCochain:
    """A p-cochain on a cover, stored on sorted overlap tuples.

    Values are looked up and assigned antisymmetrically: listing the
    same sets in a different order flips the sign by the permutation
    parity, and a listing with a repeated set reads as zero.
    """

    def __init__(self, cover: Cover, degree: int, ring: CoeffRing, values: Mapping = ()):
        # degree -1 is the always-zero slot below degree 0; it keeps the
        # source side of cone-degree-0 elements representable
        if degree < -1:
            raise DegreeMismatch("cochain degree must be >= -1")
        self.cover = cover
        self.degree = degree
        self.ring = ring
        vals: Dict[tuple, object] = {}
        for key, raw in dict(values).items():
            idx, sign = self._resolve(key)
            v = ring.normalize(raw)
            if sign < 0:
                v = ring.neg(v)
            if idx in vals:
                v = ring.add(vals[idx], v)
            vals[idx] = v
        self._vals = {k: v for k, v in vals.items() if v != ring.zero()}

    def _resolve(self, key) -> Tuple[tuple, int]:
        """Sorted index tuple and parity sign for a name listing."""
        names = (key,) if not isinstance(key, tuple) else key
        if len(names) != self.degree + 1:
            raise DegreeMismatch(
                f"key {names!r} has {len(names)} sets; degree {self.degree} needs {self.degree + 1}"
            )
        k = self.cover.nerve
        try:
            idx = tuple(k._index[n] for n in names)
        except KeyError as bad:
            raise CoverMismatch(f"unknown cover set {bad.args[0]!r}") from None
        if len(set(idx)) != len(idx):
            raise CoverMismatch(f"listing {names!r} repeats a cover set")
        if not k.has(names):
            raise CoverMismatch(f"sets {names!r} have no recorded common overlap")
        return tuple(sorted(idx)), _sort_sign(idx)

    def value(self, key):
        """The coefficient on a listing of sets, with antisymmetric sign."""
        names = (key,) if not isinstance(key, tuple) else key
        if len(set(names)) != len(names):
            if len(names) != self.degree + 1:
                raise DegreeMismatch(f"listing {names!r} has the wrong length")
            return self.ring.zero()
        idx, sign = self._resolve(names)
        v = self._vals.get(idx, self.ring.zero())
        return self.ring.neg(v) if sign < 0 else v

    def vector(self) -> tuple:
        z = self.ring.zero()
        return tuple(self._vals.get(s, z) for s in self.cover.nerve.simplices(self.degree))

    @classmethod
    def from_vector(cls, cover: Cover, degree: int, ring: CoeffRing, vec) -> "CechCochain":
        """Values on the degree-p overlaps in nerve order; each one is normalized."""
        return cls._of(cover, degree, ring, [ring.normalize(v) for v in vec])

    @classmethod
    def _of(cls, cover: Cover, degree: int, ring: CoeffRing, vec) -> "CechCochain":
        """The trusted build: values that ring arithmetic on normalized values produced, stored as they are."""
        out = cls(cover, degree, ring)
        simplices = cover.nerve.simplices(degree)
        if len(vec) != len(simplices):
            raise DegreeMismatch(f"vector length {len(vec)} vs {len(simplices)} overlaps")
        z = ring.zero()
        out._vals = {s: v for s, v in zip(simplices, vec) if v != z}
        return out

    def items(self):
        """(name tuple, value) pairs on the stored sorted listings."""
        k = self.cover.nerve
        return tuple((k.labels(s), v) for s, v in sorted(self._vals.items()))

    @property
    def is_zero(self) -> bool:
        return not self._vals

    def _like(self, other: "CechCochain"):
        if self.cover != other.cover:
            raise CoverMismatch("cochains live on different covers")
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine {self.ring} with {other.ring}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "CechCochain") -> "CechCochain":
        self._like(other)
        vec = [self.ring.add(a, b) for a, b in zip(self.vector(), other.vector())]
        return CechCochain._of(self.cover, self.degree, self.ring, vec)

    def __neg__(self) -> "CechCochain":
        vec = [self.ring.neg(a) for a in self.vector()]
        return CechCochain._of(self.cover, self.degree, self.ring, vec)

    def __sub__(self, other: "CechCochain") -> "CechCochain":
        return self + (-other)

    def zscale(self, k: int) -> "CechCochain":
        """Integer multiple, defined over every coefficient module."""
        k = INT.normalize(k)
        vec = [self.ring.zmul(k, a) for a in self.vector()]
        return CechCochain._of(self.cover, self.degree, self.ring, vec)

    def __eq__(self, other):
        if not isinstance(other, CechCochain):
            return NotImplemented
        return (
            self.cover == other.cover
            and self.degree == other.degree
            and self.ring == other.ring
            and self._vals == other._vals
        )

    def __repr__(self):
        return f"CechCochain(deg {self.degree}, {self.ring}, {len(self._vals)} nonzero)"


def cech_diff(c: CechCochain) -> CechCochain:
    """Alternating-sum coboundary, one degree up."""
    m = c.cover.view.coboundary(c.degree)
    return CechCochain._of(c.cover, c.degree + 1, c.ring, m.zapply(c.ring, c.vector()))


def pullback(m: CoverMap, c: CechCochain) -> CechCochain:
    """Pull a target-cover cochain back along a cover map.

    The value on a source overlap is the value on the image overlap;
    listings whose image repeats a set read as zero.
    """
    if c.cover != m.dst:
        raise CoverMismatch("cochain does not live on the map's target cover")
    t = m.view.pull(c.degree)
    return CechCochain._of(m.src, c.degree, c.ring, t.zapply(c.ring, c.vector()))


def cover_cochain_complex(cover: Cover, ring: CoeffRing) -> GradedComplex:
    """The cochain complex of the nerve, in chain storage (degree -p)."""
    return from_int_complex(cover.view.cochains, ring)


def relative_cone_complex(m: CoverMap, ring: CoeffRing) -> GradedComplex:
    """Cone of the pullback: degree q holds C^(q-1)(source) + C^q(target).

    Stored in chain orientation, so the degree-q cohomology of the map
    is the homology of this complex at chain degree -q.
    """
    return from_int_complex(m.view.cone, ring)


def relative_cohomology(m: CoverMap, ring: CoeffRing, q: int) -> AbGroup:
    if ring == INT:
        return m.view.data(-q).group
    return homology_at(relative_cone_complex(m, ring), -q)


class RelCechCochain:
    """A relative q-cochain: s of degree q-1 on the source cover, t of
    degree q on the target cover, tied to the cover map they refine."""

    def __init__(self, m: CoverMap, s: CechCochain, t: CechCochain):
        if s.cover != m.src:
            raise CoverMismatch("s must live on the source cover")
        if t.cover != m.dst:
            raise CoverMismatch("t must live on the target cover")
        if s.ring != t.ring:
            raise RingMismatch(f"s over {s.ring} but t over {t.ring}")
        if s.degree + 1 != t.degree:
            raise DegreeMismatch(f"degrees ({s.degree}, {t.degree}) are not (q-1, q)")
        self.m = m
        self.s = s
        self.t = t

    @property
    def degree(self) -> int:
        return self.t.degree

    @property
    def ring(self) -> CoeffRing:
        return self.s.ring

    def vector(self) -> tuple:
        """Coordinates in the cone basis: s block then t block."""
        return self.s.vector() + self.t.vector()

    @classmethod
    def from_vector(cls, m: CoverMap, q: int, ring: CoeffRing, vec) -> "RelCechCochain":
        """Split a cone vector: the source cover's (q-1)-overlaps come first; each value is normalized."""
        return cls._of(m, q, ring, [ring.normalize(v) for v in vec])

    @classmethod
    def _of(cls, m: CoverMap, q: int, ring: CoeffRing, vec) -> "RelCechCochain":
        """from_vector for trusted values, as `CechCochain._of`."""
        split = m.src.rank(q - 1)
        if len(vec) != split + m.dst.rank(q):
            raise ShapeMismatch("cone vector has wrong length")
        s = CechCochain._of(m.src, q - 1, ring, vec[:split])
        t = CechCochain._of(m.dst, q, ring, vec[split:])
        return cls(m, s, t)

    @property
    def is_zero(self) -> bool:
        return self.s.is_zero and self.t.is_zero

    def _like(self, other: "RelCechCochain"):
        if self.m != other.m:
            raise CoverMismatch("relative cochains refine different cover maps")

    def __add__(self, other: "RelCechCochain") -> "RelCechCochain":
        self._like(other)
        return RelCechCochain(self.m, self.s + other.s, self.t + other.t)

    def __neg__(self) -> "RelCechCochain":
        return RelCechCochain(self.m, -self.s, -self.t)

    def __sub__(self, other: "RelCechCochain") -> "RelCechCochain":
        return self + (-other)

    def zscale(self, k: int) -> "RelCechCochain":
        return RelCechCochain(self.m, self.s.zscale(k), self.t.zscale(k))

    def __eq__(self, other):
        if not isinstance(other, RelCechCochain):
            return NotImplemented
        return self.m == other.m and self.s == other.s and self.t == other.t

    def __repr__(self):
        return f"RelCechCochain(deg {self.degree}, {self.ring})"


def rel_diff(u: RelCechCochain) -> RelCechCochain:
    """Cone differential: d(s, t) = (pullback(t) - ds, dt)."""
    s2 = pullback(u.m, u.t) - cech_diff(u.s)
    t2 = cech_diff(u.t)
    return RelCechCochain(u.m, s2, t2)


def is_rel_cocycle(u: RelCechCochain) -> bool:
    return rel_diff(u).is_zero


def lift_angles(c: CechCochain) -> CechCochain:
    """Canonical rational lift of an angle-valued cochain.

    A stored angle is already its representative in [0, 1), so the lift
    keeps each value as a rational; reducing it mod 1 gives the angle
    back, and the lift of a sum differs from the sum of the lifts by
    0 or -1 on each overlap.
    """
    if c.ring != U1:
        raise RingMismatch("lift_angles expects an angle-valued cochain")
    return CechCochain.from_vector(c.cover, c.degree, RAT, c.vector())


@dataclass(frozen=True)
class BocksteinResult:
    """Integer cocycle measuring the failure of an angle cocycle to lift.

    `pair` is the integer relative cocycle d(lift), one degree up;
    `coords` are its class coordinates in the generator basis of `data`,
    the integer cohomology of the cone in that degree.
    """

    pair: RelCechCochain
    coords: tuple
    data: HomologyData

    @property
    def group(self) -> AbGroup:
        return self.data.group

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)


def _integer_rel_cochain(m: CoverMap, q: int, vec) -> RelCechCochain:
    if any(v.denominator != 1 for v in vec):
        raise InvalidChainMap("connecting cocycle came out non-integral")
    return RelCechCochain._of(m, q, INT, [int(v) for v in vec])


def bockstein(u: RelCechCochain) -> BocksteinResult:
    """Connecting homomorphism of 0 -> Z -> Q -> Q/Z -> 0 on the cone.

    Lifts the angle-valued cocycle to rational cochains, applies the
    cone differential, and reads off the resulting integer cocycle one
    degree up together with its integer cohomology class.  The class
    does not depend on the chosen lift; this is re-checked against a
    shifted lift on every call, and a mismatch raises InvalidChainMap.
    The integer cone homology one degree up comes from the map's view.
    """
    if u.ring != U1:
        raise UnsupportedRing("the connecting map applies to angle-valued cocycles")
    if not is_rel_cocycle(u):
        raise NotACocycle("relative cochain is not closed")
    q = u.degree
    lift = RelCechCochain(u.m, lift_angles(u.s), lift_angles(u.t))
    w = _integer_rel_cochain(u.m, q + 1, rel_diff(lift).vector())
    data = u.m.view.data(-(q + 1))
    coords = data.express(w.vector())
    ones_s = CechCochain.from_vector(u.m.src, q - 1, RAT, [1] * u.m.src.rank(q - 1))
    ones_t = CechCochain.from_vector(u.m.dst, q, RAT, [-1] * u.m.dst.rank(q))
    shifted = RelCechCochain(u.m, lift.s + ones_s, lift.t + ones_t)
    w2 = _integer_rel_cochain(u.m, q + 1, rel_diff(shifted).vector())
    if data.express(w2.vector()) != coords:
        raise InvalidChainMap("connecting class depended on the lift")
    return BocksteinResult(w, coords, data)


def star_cover(k: SimplicialComplex) -> Cover:
    """The cover by open vertex stars; its nerve is the complex itself."""
    return Cover(k)


def star_cover_map(phi: SimplicialMap) -> CoverMap:
    """Star covers turn a simplicial map into a cover map via its vertex map.

    Made once per map and kept by it, so every pair of cochains on one
    map's star covers shares one cover map and its view.  Its nerve map
    is phi itself, so the view's chain cone is the cone of phi's chain map.
    """
    return phi._keep("_star", lambda: CoverMap._of_nerve_map(star_cover(phi.src), star_cover(phi.dst), phi))
