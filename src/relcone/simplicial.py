"""Simplicial complexes and maps, cylinders, cones, and nerves.

Everything is finite and ordered: a complex fixes a total order on its
vertices at construction time, and that order drives every boundary
sign.  The cylinder and cone constructions introduce fresh labels
("x:v" for the source copy, "y:w" for the target copy, "*" for the cone
apex) so that the result is again a plain labeled complex.  One
builder, `_incidence`, fills every simplex-indexed matrix (boundaries,
pushforwards, the cone comparison) with plain ints, so index lookup and
orientation sign live in one place and no entry is normalized.  Chain
complexes and chain maps are built and checked over Z only; every other
ring reads the checked integer data through n -> n.1.

Simplicial maps are immutable (:class:`Frozen`, shared with covers and
cover maps) and compile nothing themselves.  A map keeps only its star
cover map, made once by :func:`relcone.cech.star_cover_map`; the chain
cone and its homology, which the integrality checks read, live in that
cover map's view (see `cech`).
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations, starmap
from operator import gt
from types import MappingProxyType
from typing import Dict, Mapping

from .chain import ComplexMap, GradedComplex, cone_of_map, from_int_complex, from_int_map
from .coeffs import INT, CoeffRing
from .errors import (
    InconsistentIntersections,
    InvalidChainMap,
    InvalidComplex,
    InvalidSimplicialMap,
)
from .homology import GroupInvariants, _is_presentation_iso, _on_generators, homology_data, homology_invariants
from .matrix import Matrix


class SimplicialComplex:
    """A finite simplicial complex over an ordered vertex list.

    `facets` is any generating family; the complex is its downward
    closure.  Isolated vertices must be listed as singleton facets.
    """

    def __init__(self, vertices, facets):
        verts = tuple(vertices)
        if len(set(verts)) != len(verts):
            raise InvalidComplex("duplicate vertex labels")
        self.vertices = verts
        self._index = {v: i for i, v in enumerate(verts)}
        by_dim: Dict[int, set] = {}
        for facet in facets:
            labels = tuple(facet)
            if len(set(labels)) != len(labels):
                raise InvalidComplex(f"facet {labels!r} repeats a vertex")
            try:
                idx = tuple(sorted(self._index[v] for v in labels))
            except KeyError as bad:
                raise InvalidComplex(f"facet vertex {bad.args[0]!r} is not declared") from None
            for k in range(1, len(idx) + 1):
                for face in combinations(idx, k):
                    by_dim.setdefault(k - 1, set()).add(face)
        self._by_dim = {n: tuple(sorted(s)) for n, s in by_dim.items()}

    @property
    def dim(self) -> int:
        return max(self._by_dim, default=-1)

    def simplices(self, n: int) -> tuple:
        """Index tuples of the n-simplices, ascending and lex-sorted."""
        return self._by_dim.get(n, ())

    def n_rank(self, n: int) -> int:
        return len(self.simplices(n))

    def index_of(self, n: int, simplex: tuple) -> int:
        """Position of an index tuple among the n-simplices; KeyError if it is not one."""
        ts = self.simplices(n)
        j = bisect_left(ts, simplex)
        if j == len(ts) or ts[j] != simplex:
            raise KeyError(simplex)
        return j

    def labels(self, simplex: tuple) -> tuple:
        return tuple(self.vertices[i] for i in simplex)

    def has(self, labels) -> bool:
        try:
            key = tuple(sorted(self._index[v] for v in labels))
            self.index_of(len(key) - 1, key)
        except KeyError:
            return False
        return True

    def facets(self) -> tuple:
        """Maximal simplices by label, by dimension and then in basis order.

        The complex is closed under faces, so a simplex is maximal when no
        simplex one dimension up has it as a face.
        """
        out = []
        for n in sorted(self._by_dim):
            covered = {t[:i] + t[i + 1 :] for t in self.simplices(n + 1) for i in range(n + 2)}
            out.extend(self.labels(s) for s in self._by_dim[n] if s not in covered)
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self.vertices == other.vertices and self._by_dim == other._by_dim

    def __repr__(self):
        counts = {n: len(ts) for n, ts in sorted(self._by_dim.items())}
        return f"SimplicialComplex({len(self.vertices)} vertices, simplices {counts})"


class Frozen:
    """A value whose fields never change, so data compiled from it never goes stale.

    Subclasses list their fields in `__slots__` and set them once through
    `_init`.  A field set to None there may be filled once, on first use,
    through `_keep`; reassigning or deleting a field raises AttributeError.
    """

    __slots__ = ()

    def _init(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _keep(self, name: str, build):
        """Field `name`, set to `build()` on the first read that finds it None, and kept."""
        value = getattr(self, name)
        if value is None:
            value = build()
            object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class SimplicialMap(Frozen):
    """A vertex map whose simplex images are simplices (maybe degenerate).

    `vmap` is a read-only mapping.  `_star` holds the map's star cover
    map once :func:`relcone.cech.star_cover_map` has made it.
    """

    __slots__ = ("src", "dst", "vmap", "_star")

    def __init__(self, src: SimplicialComplex, dst: SimplicialComplex, vmap: Mapping):
        vmap = MappingProxyType(dict(vmap))
        for v in src.vertices:
            if v not in vmap:
                raise InvalidSimplicialMap(f"vertex {v!r} has no image")
            if vmap[v] not in dst._index:
                raise InvalidSimplicialMap(f"image {vmap[v]!r} is not a target vertex")
        for labels in src.facets():
            image = set(vmap[v] for v in labels)
            if not dst.has(image):
                raise InvalidSimplicialMap(f"image of {labels!r} is not a simplex")
        self._init(src=src, dst=dst, vmap=vmap, _star=None)

    def __call__(self, v):
        return self.vmap[v]

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return self is other or (self.src == other.src and self.dst == other.dst and self.vmap == other.vmap)

    def __repr__(self):
        return f"SimplicialMap({len(self.src.vertices)} -> {len(self.dst.vertices)} vertices)"


# ---------------------------------------------------------------------------
# Chain complexes and chain maps
# ---------------------------------------------------------------------------


def _incidence(k: SimplicialComplex, n: int, columns) -> Matrix:
    """The integer matrix into C_n(k) whose column j sums c * sign * e_s over the (seq, c) in columns[j].

    `seq` lists the vertex indices of an n-simplex s of k in any order;
    sign is the parity of the permutation that sorts it.  Every c is an
    int, so the sums are stored as they are, with no `normalize` pass.
    """
    columns = list(columns)
    rows = [[0] * len(columns) for _ in range(k.n_rank(n))]
    for j, terms in enumerate(columns):
        for seq, c in terms:
            key = tuple(sorted(seq))
            rows[k.index_of(n, key)][j] += c if key == seq else c * _sort_sign(seq)  # a sorted tuple has sign +1
    return Matrix._of(INT, len(rows), len(columns), rows)


def chain_complex(k: SimplicialComplex, ring: CoeffRing, augmented: bool = False) -> GradedComplex:
    """Simplicial chains over `ring`; rank(n) = number of n-simplices.

    With `augmented`, degree -1 holds the empty simplex and d_0 is the
    augmentation row; its homology is reduced homology.  The complex is
    built and its d d = 0 checked over Z, on every call; another ring
    reads it through n -> n.1 (:func:`relcone.chain.from_int_complex`),
    which keeps d d = 0, so the check is not repeated there.
    """
    ranks = {n: k.n_rank(n) for n in range(k.dim + 1)}
    faces = lambda s: [(s[:i] + s[i + 1 :], (-1) ** i) for i in range(len(s))]
    diffs = {n: _incidence(k, n - 1, map(faces, k.simplices(n))) for n in range(1, k.dim + 1)}
    if augmented:
        ranks[-1] = 1
        if k.n_rank(0):
            diffs[0] = Matrix(INT, 1, k.n_rank(0), [[1] * k.n_rank(0)])
    return from_int_complex(GradedComplex(INT, ranks, diffs), ring)


def pushforward_matrices(phi: SimplicialMap) -> Dict[int, Matrix]:
    """The integer matrices of the pushforward C_n(src) -> C_n(dst), n = 0..src.dim.

    Degenerate simplices go to zero; nothing is validated here.
    """
    image = [phi.dst._index[phi.vmap[v]] for v in phi.src.vertices]
    images = lambda n: ([image[i] for i in s] for s in phi.src.simplices(n))
    columns = lambda n: [[(q, 1)] if len(set(q)) == len(q) else [] for q in images(n)]
    return {n: _incidence(phi.dst, n, columns(n)) for n in range(phi.src.dim + 1)}


def chain_map(phi: SimplicialMap, ring: CoeffRing, augmented: bool = False) -> ComplexMap:
    """Pushforward on chains; degenerate simplices go to zero.

    The map and both chain complexes are built and checked over Z (d d
    = 0 on each side, d f = f d in every degree), on every call; another
    ring reads them through n -> n.1 (:func:`relcone.chain.from_int_map`),
    which keeps every one of those identities, so no check is repeated.
    """
    mats = pushforward_matrices(phi)
    if augmented:
        mats[-1] = Matrix.identity(INT, 1)
    f = ComplexMap(chain_complex(phi.src, INT, augmented), chain_complex(phi.dst, INT, augmented), mats)
    return from_int_map(f, ring)


def _sort_sign(seq) -> int:
    """Parity of the permutation sorting `seq` (distinct entries)."""
    return (-1) ** sum(starmap(gt, combinations(seq, 2)))


# ---------------------------------------------------------------------------
# Cylinder, cone space, prisms
# ---------------------------------------------------------------------------

APEX = "*"


def _xl(v) -> str:
    return f"x:{v}"


def _yl(w) -> str:
    return f"y:{w}"


def _prism_tuples(phi: SimplicialMap, simplex_labels):
    """The prism family (v0..vi, phi(vi)'..phi(vn)') over one simplex.

    Yields (i, labels); degenerate tuples (collapsed y-part collisions)
    are skipped, which is exactly the glued-cylinder identification.
    """
    n = len(simplex_labels) - 1
    for i in range(n + 1):
        labels = [_xl(v) for v in simplex_labels[: i + 1]]
        labels += [_yl(phi.vmap[v]) for v in simplex_labels[i:]]
        if len(set(labels)) == len(labels):
            yield i, tuple(labels)


def _prism_terms(phi: SimplicialMap, ambient: SimplicialComplex, simplex_labels) -> list:
    """The signed prism over one simplex, as `_incidence` terms of `ambient`."""
    return [([ambient._index[v] for v in labels], (-1) ** i) for i, labels in _prism_tuples(phi, simplex_labels)]


def _cylinder_family(phi: SimplicialMap):
    """The cylinder's vertex labels and a generating family: the target copy and every prism."""
    src, dst = phi.src, phi.dst
    owner = {}
    for label, v in [(_xl(v), v) for v in src.vertices] + [(_yl(w), w) for w in dst.vertices]:
        if label in owner:
            raise InvalidComplex(f"vertices {owner[label]!r} and {v!r} share the cylinder label {label!r}")
        owner[label] = v
    facets = [tuple(_yl(w) for w in f) for f in dst.facets()]
    facets += [t for n in range(src.dim + 1) for s in src.simplices(n) for _, t in _prism_tuples(phi, src.labels(s))]
    return list(owner), facets


def mapping_cylinder(phi: SimplicialMap):
    """Prism-decomposed cylinder glued to the target along phi.

    Returns (cylinder, include_src, include_dst); the source copy sits
    at the free end and the target absorbs the glued end.
    """
    cyl = SimplicialComplex(*_cylinder_family(phi))
    inc_src = SimplicialMap(phi.src, cyl, {v: _xl(v) for v in phi.src.vertices})
    inc_dst = SimplicialMap(phi.dst, cyl, {w: _yl(w) for w in phi.dst.vertices})
    return cyl, inc_src, inc_dst


def mapping_cone_space(phi: SimplicialMap) -> SimplicialComplex:
    """Cylinder with the free source end coned off by a fresh apex.

    Attaching the cone over the source copy is the homotopy-correct
    model of collapsing that end to a point, and it stays simplicial.
    The apex comes first in the vertex order.
    """
    verts, facets = _cylinder_family(phi)
    facets += [(APEX,)] + [(APEX,) + tuple(_xl(v) for v in f) for f in phi.src.facets()]
    return SimplicialComplex([APEX] + verts, facets)


def _faces(k: SimplicialComplex, n: int) -> list:
    """The (n-1)-simplices of k by label; for n = 0, the empty simplex, whose apex join is the apex."""
    return [k.labels(s) for s in k.simplices(n - 1)] if n else [()]


# ---------------------------------------------------------------------------
# Comparison of the algebraic cone with the cone space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeComparison:
    """The two groups of one degree n and whether l induces an isomorphism between them.

    `iso` is True when the cone of the twisted comparison has H_n = H_(n+1)
    = 0, or, where that cone has homology there, when the induced map on
    presentations is an isomorphism.
    """

    algebraic: GroupInvariants  # H_n of the algebraic cone
    reduced: GroupInvariants  # reduced H_n of the cone space
    iso: bool


@dataclass(frozen=True)
class ConeComparison:
    """Per-degree comparison, and whether the (-1)^n twist of l passed its chain-map check.

    That check, d (twist l) = (twist l) d with shapes, is the identity
    d l + l d = 0 of the raw comparison with the sign moved.  When it
    fails, no degree is compared and every `iso` is False.
    """

    degrees: Dict[int, DegreeComparison]
    strict_chain_map: bool

    @property
    def iso(self) -> bool:
        return self.strict_chain_map and all(d.iso for d in self.degrees.values())


def _comparison_map(phi: SimplicialMap, space: SimplicialComplex, top: int) -> Dict[int, Matrix]:
    """The raw comparison l of :func:`compare_cones` in degrees -1..top, column by column."""
    lt = {-1: Matrix(INT, 1, 1, [[-1]])}  # the empty target simplex
    for n in range(0, top + 1):
        cols = [
            [([space._index[v] for v in (APEX, *map(_xl, f))], 1)] + _prism_terms(phi, space, f)
            for f in _faces(phi.src, n)
        ]
        cols += [[([space._index[_yl(w)] for w in phi.dst.labels(t)], -1)] for t in phi.dst.simplices(n)]
        lt[n] = _incidence(space, n, cols)
    return lt


def compare_cones(phi: SimplicialMap) -> ConeComparison:
    """Match H_n(phi) with the reduced homology of the cone space.

    The raw comparison l(x, y) = (apex join + prism)(x) - (y-copy of y)
    satisfies d l + l d = 0 exactly, so its (-1)^n twist is a strict
    chain map from the augmented algebraic cone to the augmented chains
    of the cone space; it is checked once, as a `ComplexMap`.  Only the
    augmented cone is built: its part X_-1 + Y_-1 = (Z -> Z, the
    identity) is an acyclic subcomplex with the plain cone as quotient,
    so its H_n is H_n(phi) in every degree.

    The groups are invariants only (`homology_invariants`).  The
    isomorphism certificate is the cone M of the twisted l: by the long
    exact sequence H_(n+1)(M) -> H_n(alg) -> H_n(space) -> H_n(M), l
    induces an isomorphism in degree n when H_n(M) = H_(n+1)(M) = 0.  A
    degree that certificate leaves open, which only a comparison that is
    not a quasi-isomorphism has, is decided on full presentations: the
    images of the generators and `_is_presentation_iso`.
    """
    conea = cone_of_map(chain_map(phi, INT, augmented=True))
    space = mapping_cone_space(phi)
    caug = chain_complex(space, INT, augmented=True)
    twisted = {n: (m if n % 2 == 0 else -m) for n, m in _comparison_map(phi, space, conea.hi).items()}
    window = range(0, max(conea.hi, caug.hi) + 1)
    algebraic = homology_invariants(conea, window)
    reduced = homology_invariants(caug, window)
    try:
        lmap = ComplexMap(conea, caug, twisted)
    except InvalidChainMap:
        return ConeComparison({n: DegreeComparison(algebraic[n], reduced[n], False) for n in window}, False)

    cone = homology_invariants(cone_of_map(lmap), range(0, window.stop + 1))
    degrees = {}
    for n in window:
        iso = cone[n] == cone[n + 1] == (0, ())
        if not iso:
            da = homology_data(conea, n)
            db = homology_data(caug, n)
            iso = _is_presentation_iso(_on_generators(da, db, lmap.component(n).apply), da, db)
        degrees[n] = DegreeComparison(algebraic[n], reduced[n], iso)
    return ConeComparison(degrees, True)


# ---------------------------------------------------------------------------
# Nerves
# ---------------------------------------------------------------------------


def nerve(sets, intersections) -> SimplicialComplex:
    """Nerve of a cover given by declared nonempty intersections.

    `sets` are the cover-set names (one vertex each); `intersections`
    are index tuples into that list, each meaning the named sets meet.
    Singleton intersections are implicit.  The data must already be
    downward-consistent: every sub-tuple of a declared tuple of size
    >= 2 must itself be declared.
    """
    names = list(sets)
    if len(set(names)) != len(names):
        raise InconsistentIntersections("duplicate cover set names")
    declared = set()
    for tup in intersections:
        idx = tuple(sorted(tup))
        if len(idx) < 2:
            continue
        if len(set(idx)) != len(idx):
            raise InconsistentIntersections(f"intersection {tuple(tup)!r} repeats a set")
        if not all(isinstance(i, int) and 0 <= i < len(names) for i in idx):
            raise InconsistentIntersections(f"intersection {tuple(tup)!r} indexes outside the cover")
        declared.add(idx)
    for idx in declared:
        for k in range(2, len(idx)):
            for face in combinations(idx, k):
                if face not in declared:
                    raise InconsistentIntersections(
                        f"face {face} of declared intersection {idx} is missing"
                    )
    facets = [(n,) for n in names]
    facets += [tuple(names[i] for i in idx) for idx in sorted(declared)]
    return SimplicialComplex(names, facets)
