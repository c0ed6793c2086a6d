"""Cech cochains on covers and the relative cone of a cover map.

A cover is presented combinatorially by its nerve: one vertex per cover
set, one simplex per declared nonempty intersection.  Cochains assign a
coefficient to each nonempty (p+1)-fold overlap, antisymmetrically in
the listing order.  A map of covered spaces that sends each source set
into a target set induces a pullback on cochains, and the mapping cone
of that pullback computes the cohomology of the map: classes that
restrict to zero upstairs together with a reason why.  Its differential
is d(s, t) = (f^*t - ds, dt).

A cochain stores only its coordinate tuple: a Cech cochain on the
p-overlaps, in the nerve's basis order, and a relative cochain on the
cone basis, the source block first.  Both types share one base class,
so one sum, negation, integer multiple and equality serves both.
Coboundaries and cone differentials are integer matrices acting on the
tuple through the Z-module structure of the coefficients, so one code
path serves Z, Q, Z/n and the circle group.

Covers and cover maps are immutable, and each compiles one field, on
first use: these are the only compiled objects in the package.  A cover
map keeps its relative Cech cone, and one memo of what is read from it:
its integer homology, one solver per degree (one Smith form answering
integer witnesses and, over Q/Z, angle witnesses), and the chain cone of
the pushforward with its integer homology.  A cover keeps its absolute
map, the empty cover mapped into it, whose cone is the cover's own
cochain complex; coboundaries, the `cech` verb and absolute classes all
read that cone.  Every relative differential, pullback and closedness
check is one product with a differential of a cone.  No matrix is kept
beside its transpose, and every check (d d = 0, the chain-map identity,
the Smith form postconditions) runs once per cone or solver built.
Everything in this module and in `geo` reads these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from .chain import GradedComplex, cone_of_cochain_map, cone_of_map, dual_map, from_int_complex
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
from .homology import AbGroup, HomologyData, Solver, homology_at, homology_data
from .simplicial import (
    Frozen,
    SimplicialComplex,
    SimplicialMap,
    _sort_sign,
    chain_map,
    nerve,
)


class Cover(Frozen):
    """An open cover, known only through its nerve.

    Its one compiled field is `absolute`, the empty cover mapped into
    this one, made on first use and kept in its own slot.  That map's
    cone is this cover's cochain complex: at chain degree -p its
    differential is the coboundary C^p -> C^(p+1) over Z.  Coboundaries,
    `cover_cochain_complex` and absolute classes and witnesses all read
    it, so a cover builds its nerve complex once.
    """

    __slots__ = ("nerve", "_absolute")

    def __init__(self, nerve_complex: SimplicialComplex):
        self._init(nerve=nerve_complex, _absolute=None)

    @property
    def absolute(self) -> "CoverMap":
        return self._keep("_absolute", lambda: CoverMap(Cover(nerve([], [])), self, {}))

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
    """A refinement-style map of covers, and its relative Cech cone.

    `assignment` sends each source set name to a target set name, and
    must carry nonempty overlaps to nonempty overlaps; that is exactly
    the condition that it defines a simplicial map of nerves.  It is the
    read-only vertex map of `nerve_map`.

    The one compiled field, `cone`, is the cone of the pullback, in chain
    storage: at chain degree -q it holds C^(q-1)(src) + C^q(dst), and its
    differential there is d(s, t) = (f^*t - ds, dt).  It is built on first
    read as the cochain cone of the transposed pushforward on the nerves'
    integer chains, which is checked then as a chain map (d d = 0 on both
    sides, d f = f d).  Nothing built on the way (the chain map, its
    transpose, the covers' cochain complexes) is kept.  Every other ring
    reads the cone's integer matrices through `zapply` or n -> n.1.

    One memo keeps what is read on first use: the cone's integer homology
    `data(n)`, the solvers `solver(n)` of its differentials, which every
    witness reads, and `chain_cone`, the mapping cone of the pushforward,
    with its integer homology `chain_data(n)`.  The pushforward is checked
    again when the chain cone is built.
    """

    __slots__ = ("src", "dst", "nerve_map", "_cone", "_memo")

    def __init__(self, src: Cover, dst: Cover, assignment: Mapping):
        self._init(src=src, dst=dst, nerve_map=SimplicialMap(src.nerve, dst.nerve, assignment), _cone=None, _memo={})

    @classmethod
    def _of(cls, src: Cover, dst: Cover, nerve_map: SimplicialMap) -> "CoverMap":
        """The trusted build: the cover map whose nerve map is `nerve_map`, a checked map of the two nerves."""
        m = cls.__new__(cls)
        m._init(src=src, dst=dst, nerve_map=nerve_map, _cone=None, _memo={})
        return m

    @property
    def assignment(self) -> Mapping:
        return self.nerve_map.vmap

    @property
    def cone(self) -> GradedComplex:
        return self._keep("_cone", lambda: cone_of_cochain_map(dual_map(chain_map(self.nerve_map, INT))))

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def data(self, n: int) -> HomologyData:
        return self._once(("data", n), lambda: homology_data(self.cone, n))

    def solver(self, n: int) -> Solver:
        """Integer and angle solutions of cone.diff(n) w = u, from one Smith form kept per degree."""
        return self._once(("solver", n), lambda: Solver(self.cone.diff(n)))

    @property
    def chain_cone(self) -> GradedComplex:
        """Cone of the pushforward on the nerves' integer chains, built and checked on first use."""
        return self._once("chain_cone", lambda: cone_of_map(chain_map(self.nerve_map, INT)))

    def chain_data(self, n: int) -> HomologyData:
        return self._once(("chain_data", n), lambda: homology_data(self.chain_cone, n))

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


def compose_cover_maps(outer: CoverMap, inner: CoverMap) -> CoverMap:
    if inner.dst != outer.src:
        raise CoverMismatch("composition needs inner.dst == outer.src")
    return CoverMap(inner.src, outer.dst, {n: outer(inner(n)) for n in inner.src.names})


class _Cochain:
    """A cochain over `ring` on `space`, stored only as its coordinate tuple.

    The space is a cover (for a :class:`CechCochain`) or a cover map (for
    a :class:`RelCechCochain`).  Each subclass names the basis of the
    tuple through `_check`, which refuses a degree or a length that does
    not fit its space, and adds the readers of that basis.  Everything
    else is shared: `vector()` returns the tuple, and sums, negation and
    integer multiples build the next tuple from it by ring arithmetic.
    """

    __slots__ = ("space", "degree", "ring", "_vec")
    _apart: str  # the CoverMismatch message for cochains on two spaces

    def _set(self, space, degree: int, ring: CoeffRing, vec):
        self._check(space, degree, len(vec))
        self.space = space
        self.degree = degree
        self.ring = ring
        self._vec = tuple(vec)

    @classmethod
    def from_vector(cls, space, degree: int, ring: CoeffRing, vec):
        """Coordinates in the subclass's basis; each one is normalized."""
        return cls._of(space, degree, ring, [ring.normalize(v) for v in vec])

    @classmethod
    def _of(cls, space, degree: int, ring: CoeffRing, vec):
        """The trusted build: values that ring arithmetic on normalized values produced, stored as they are."""
        out = cls.__new__(cls)
        out._set(space, degree, ring, vec)
        return out

    def vector(self) -> tuple:
        return self._vec

    @property
    def is_zero(self) -> bool:
        return not any(self._vec)  # every stored zero (0 or Fraction(0)) is falsy

    def _like(self, other: "_Cochain"):
        if self.space != other.space:
            raise CoverMismatch(self._apart)
        if self.ring != other.ring:
            raise RingMismatch(f"cannot combine {self.ring} with {other.ring}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other):
        self._like(other)
        vec = [self.ring.add(a, b) for a, b in zip(self._vec, other._vec)]
        return self._of(self.space, self.degree, self.ring, vec)

    def __neg__(self):
        return self._of(self.space, self.degree, self.ring, [self.ring.neg(a) for a in self._vec])

    def __sub__(self, other):
        return self + (-other)

    def zscale(self, k: int):
        """Integer multiple, defined over every coefficient module."""
        k = INT.normalize(k)
        return self._of(self.space, self.degree, self.ring, [self.ring.zmul(k, a) for a in self._vec])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.space == other.space
            and self.degree == other.degree
            and self.ring == other.ring
            and self._vec == other._vec
        )

    def __repr__(self):
        return f"{type(self).__name__}(deg {self.degree}, {self.ring}, {sum(1 for v in self._vec if v)} nonzero)"


class CechCochain(_Cochain):
    """A p-cochain on a cover: its coordinate tuple on the p-overlaps, in nerve basis order.

    Values are read and given by name antisymmetrically: listing the same
    sets in a different order flips the sign by the permutation parity,
    and a listing with a repeated set reads as zero.
    """

    __slots__ = ()
    cover = _Cochain.space  # the same slot, under the name readers use
    _apart = "cochains live on different covers"

    def __init__(self, cover: Cover, degree: int, ring: CoeffRing, values: Mapping = ()):
        self._set(cover, degree, ring, (ring.zero(),) * cover.nerve.n_rank(degree))
        vec = list(self._vec)
        for key, raw in dict(values).items():
            pos, sign = self._resolve(key)
            v = ring.normalize(raw)
            vec[pos] = ring.add(vec[pos], ring.neg(v) if sign < 0 else v)
        self._vec = tuple(vec)

    @staticmethod
    def _check(cover: Cover, degree: int, n: int):
        # degree -1 is the always-zero slot below degree 0; it keeps the
        # source side of cone-degree-0 elements representable
        if degree < -1:
            raise DegreeMismatch("cochain degree must be >= -1")
        rank = cover.nerve.n_rank(degree)
        if n != rank:
            raise DegreeMismatch(f"vector length {n} vs {rank} overlaps")

    def _resolve(self, key) -> Tuple[int, int]:
        """Basis position and parity sign for a name listing."""
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
        try:
            pos = k.index_of(self.degree, tuple(sorted(idx)))
        except KeyError:
            raise CoverMismatch(f"sets {names!r} have no recorded common overlap") from None
        return pos, _sort_sign(idx)

    def value(self, key):
        """The coefficient on a listing of sets, with antisymmetric sign."""
        names = (key,) if not isinstance(key, tuple) else key
        if len(set(names)) != len(names):
            if len(names) != self.degree + 1:
                raise DegreeMismatch(f"listing {names!r} has the wrong length")
            return self.ring.zero()
        pos, sign = self._resolve(names)
        v = self._vec[pos]
        return self.ring.neg(v) if sign < 0 else v

    def items(self):
        """(name tuple, value) pairs on the nonzero overlaps, in nerve order."""
        k = self.cover.nerve
        return tuple((k.labels(s), v) for s, v in zip(k.simplices(self.degree), self._vec) if v)


def cech_diff(c: CechCochain) -> CechCochain:
    """Alternating-sum coboundary, one degree up: a differential of the cover's absolute cone."""
    m = c.cover.absolute.cone.diff(-c.degree)
    return CechCochain._of(c.cover, c.degree + 1, c.ring, m.zapply(c.ring, c.vector()))


def pullback(m: CoverMap, c: CechCochain) -> CechCochain:
    """Pull a target-cover cochain back along a cover map.

    The value on a source overlap is the value on the image overlap;
    listings whose image repeats a set read as zero.  It is the source
    block of the relative cone differential applied to (0, c), which
    also serves degree -1, where every cochain is zero.
    """
    if c.cover != m.dst:
        raise CoverMismatch("cochain does not live on the map's target cover")
    q, ring = c.degree, c.ring
    vec = m.cone.diff(-q).zapply(ring, (ring.zero(),) * m.src.rank(q - 1) + c.vector())
    return CechCochain._of(m.src, q, ring, vec[: m.src.rank(q)])


def cover_cochain_complex(cover: Cover, ring: CoeffRing) -> GradedComplex:
    """The cochain complex of the nerve, in chain storage (degree -p): the cover's absolute cone."""
    return from_int_complex(cover.absolute.cone, ring)


def relative_cone_complex(m: CoverMap, ring: CoeffRing) -> GradedComplex:
    """Cone of the pullback: degree q holds C^(q-1)(source) + C^q(target).

    Stored in chain orientation, so the degree-q cohomology of the map
    is the homology of this complex at chain degree -q.
    """
    return from_int_complex(m.cone, ring)


def relative_cohomology(m: CoverMap, ring: CoeffRing, q: int) -> AbGroup:
    if ring == INT:
        return m.data(-q).group
    return homology_at(relative_cone_complex(m, ring), -q)


class RelCechCochain(_Cochain):
    """A relative q-cochain on a cover map: its cone vector.

    The tuple is in the basis of `CoverMap.cone` at chain degree -q:
    the source cover's (q-1)-overlaps come first, then the target
    cover's q-overlaps.  `s` and `t` read those two blocks as cochains
    on the two covers; the constructor takes them and stores their join.
    """

    __slots__ = ()
    m = _Cochain.space  # the same slot, under the name readers use
    _apart = "relative cochains refine different cover maps"

    def __init__(self, m: CoverMap, s: CechCochain, t: CechCochain):
        if s.cover != m.src:
            raise CoverMismatch("s must live on the source cover")
        if t.cover != m.dst:
            raise CoverMismatch("t must live on the target cover")
        if s.ring != t.ring:
            raise RingMismatch(f"s over {s.ring} but t over {t.ring}")
        if s.degree + 1 != t.degree:
            raise DegreeMismatch(f"degrees ({s.degree}, {t.degree}) are not (q-1, q)")
        self._set(m, t.degree, t.ring, s.vector() + t.vector())

    @staticmethod
    def _check(m: CoverMap, q: int, n: int):
        if q < 0:
            raise DegreeMismatch("relative cochain degree must be >= 0")
        if n != m.src.rank(q - 1) + m.dst.rank(q):
            raise ShapeMismatch("cone vector has wrong length")

    @property
    def s(self) -> CechCochain:
        """The source block: a (q-1)-cochain on the source cover."""
        m, q = self.m, self.degree
        return CechCochain._of(m.src, q - 1, self.ring, self._vec[: m.src.rank(q - 1)])

    @property
    def t(self) -> CechCochain:
        """The target block: a q-cochain on the target cover."""
        m, q = self.m, self.degree
        return CechCochain._of(m.dst, q, self.ring, self._vec[m.src.rank(q - 1) :])


def rel_diff(u: RelCechCochain) -> RelCechCochain:
    """Cone differential: d(s, t) = (pullback(t) - ds, dt).

    One product of the map's cone differential at chain degree -q with
    the stored cone vector.
    """
    q = u.degree
    return RelCechCochain._of(u.m, q + 1, u.ring, u.m.cone.diff(-q).zapply(u.ring, u.vector()))


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
    The integer cone homology one degree up is the map's `data`.
    """
    if u.ring != U1:
        raise UnsupportedRing("the connecting map applies to angle-valued cocycles")
    if not is_rel_cocycle(u):
        raise NotACocycle("relative cochain is not closed")
    q = u.degree
    lift = RelCechCochain(u.m, lift_angles(u.s), lift_angles(u.t))
    w = _integer_rel_cochain(u.m, q + 1, rel_diff(lift).vector())
    data = u.m.data(-(q + 1))
    coords = data.express(w.vector())
    # the lift shifted by +1 on the source block and -1 on the target block
    split = u.m.src.rank(q - 1)
    vec = lift.vector()
    shifted = RelCechCochain.from_vector(u.m, q, RAT, [v + 1 for v in vec[:split]] + [v - 1 for v in vec[split:]])
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
    map's star covers shares one cover map and its cone.  Its nerve map
    is phi itself, so the map's chain cone is the cone of phi's chain map.
    """
    return phi._keep("_star", lambda: CoverMap._of(star_cover(phi.src), star_cover(phi.dst), phi))
