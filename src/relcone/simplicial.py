"""Simplicial complexes and maps, cylinders, cones, and nerves.

Everything is finite and ordered: a complex fixes a total order on its
vertices at construction time, and that order drives every boundary
sign.  The cylinder and cone constructions introduce fresh labels
("x:v" for the source copy, "y:w" for the target copy, "*" for the cone
apex) so that the result is again a plain labeled complex.

Simplicial maps are immutable (:class:`Frozen`, shared with covers and
cover maps) and compile nothing themselves.  A map keeps only its star
cover map, made once by :func:`relcone.cech.star_cover_map`; the chain
cone and its homology, which the integrality checks read, live in that
cover map's view (see `cech`).
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Dict, Mapping

from .chain import ComplexMap, GradedComplex, cone_of_map, mat_ring
from .coeffs import INT, CoeffRing
from .errors import (
    InconsistentIntersections,
    InvalidChainMap,
    InvalidComplex,
    InvalidSimplicialMap,
)
from .homology import AbGroup, _is_presentation_iso, _on_generators, homology_at, homology_data
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
        if ts[j : j + 1] != (simplex,):
            raise KeyError(simplex)
        return j

    def labels(self, simplex: tuple) -> tuple:
        return tuple(self.vertices[i] for i in simplex)

    def label_simplex(self, labels) -> tuple:
        return tuple(sorted(self._index[v] for v in labels))

    def has(self, labels) -> bool:
        try:
            key = self.label_simplex(labels)
            self.index_of(len(key) - 1, key)
        except KeyError:
            return False
        return True

    def facets(self) -> tuple:
        """Maximal simplices by label, deterministically ordered."""
        out = []
        for n in sorted(self._by_dim):
            for s in self._by_dim[n]:
                if not any(
                    set(s) < set(t) for m in self._by_dim if m > n for t in self._by_dim[m]
                ):
                    out.append(self.labels(s))
        return tuple(out)

    def euler_characteristic(self) -> int:
        return sum((-1) ** n * len(ts) for n, ts in self._by_dim.items())

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


def identity_simplicial(k: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(k, k, {v: v for v in k.vertices})


# ---------------------------------------------------------------------------
# Chain complexes and chain maps
# ---------------------------------------------------------------------------


def chain_complex(k: SimplicialComplex, ring: CoeffRing, augmented: bool = False) -> GradedComplex:
    """Simplicial chains over `ring`; rank(n) = number of n-simplices.

    With `augmented`, degree -1 holds the empty simplex and d_0 is the
    augmentation row; its homology is reduced homology.
    """
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


def pushforward_matrices(phi: SimplicialMap, ring: CoeffRing = INT) -> Dict[int, Matrix]:
    """The matrices of the pushforward C_n(src) -> C_n(dst), n = 0..src.dim.

    Degenerate simplices go to zero; nothing is validated here.
    """
    mr = mat_ring(ring)
    mats = {}
    for n in range(phi.src.dim + 1):
        rows = [[0] * phi.src.n_rank(n) for _ in range(phi.dst.n_rank(n))]
        for j, s in enumerate(phi.src.simplices(n)):
            image = [phi.dst._index[phi.vmap[phi.src.vertices[i]]] for i in s]
            if len(set(image)) != len(image):
                continue
            rows[phi.dst.index_of(n, tuple(sorted(image)))][j] = _sort_sign(image)
        mats[n] = Matrix(mr, phi.dst.n_rank(n), phi.src.n_rank(n), rows)
    return mats


def chain_map(phi: SimplicialMap, ring: CoeffRing, augmented: bool = False) -> ComplexMap:
    """Pushforward on chains; degenerate simplices go to zero."""
    src = chain_complex(phi.src, ring, augmented)
    dst = chain_complex(phi.dst, ring, augmented)
    mats = pushforward_matrices(phi, ring)
    if augmented:
        mats[-1] = Matrix.identity(mat_ring(ring), 1)
    return ComplexMap(src, dst, mats)


def _sort_sign(seq) -> int:
    """Parity of the permutation sorting `seq` (distinct entries)."""
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Cylinder, cone space, cone operator, prisms
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


def mapping_cylinder(phi: SimplicialMap):
    """Prism-decomposed cylinder glued to the target along phi.

    Returns (cylinder, include_src, include_dst); the source copy sits
    at the free end and the target absorbs the glued end.
    """
    src, dst = phi.src, phi.dst
    verts = [_xl(v) for v in src.vertices] + [_yl(w) for w in dst.vertices]
    facets = [tuple(_yl(w) for w in f) for f in dst.facets()]
    for n in range(src.dim + 1):
        for s in src.simplices(n):
            for _, labels in _prism_tuples(phi, src.labels(s)):
                facets.append(labels)
    cyl = SimplicialComplex(verts, facets)
    inc_src = SimplicialMap(src, cyl, {v: _xl(v) for v in src.vertices})
    inc_dst = SimplicialMap(dst, cyl, {w: _yl(w) for w in dst.vertices})
    return cyl, inc_src, inc_dst


def mapping_cone_space(phi: SimplicialMap) -> SimplicialComplex:
    """Cylinder with the free source end coned off by a fresh apex.

    Attaching the cone over the source copy is the homotopy-correct
    model of collapsing that end to a point, and it stays simplicial.
    The apex comes first in the vertex order.
    """
    cyl, _, _ = mapping_cylinder(phi)
    verts = [APEX] + list(cyl.vertices)
    facets = [(APEX,)] + list(cyl.facets())
    for f in phi.src.facets():
        facets.append((APEX,) + tuple(_xl(v) for v in f))
    return SimplicialComplex(verts, facets)


def simplicial_cone(k: SimplicialComplex):
    """Plain cone: apex joined to every simplex.  Returns (cone, apex)."""
    if APEX in k._index:
        raise InvalidComplex("complex already uses the apex label")
    verts = [APEX] + list(k.vertices)
    facets = [(APEX,)] + [(APEX,) + tuple(f) for f in k.facets()]
    return SimplicialComplex(verts, facets), APEX


def cone_operator(k: SimplicialComplex):
    """The join-with-apex operator h against the plain cone of k.

    Returns (cone, h) where h[n]: C~_(n-1)(k) -> C~_n(cone) on augmented
    chains; h sends a simplex to its apex join (sign +1 because the
    apex is first in the order) and the empty simplex to the apex.
    The identity h d + d h = k-inclusion is exact; tests assert it.
    """
    cone, apex = simplicial_cone(k)
    h = {}
    col = [0] * cone.n_rank(0)
    col[cone.index_of(0, (cone._index[apex],))] = 1
    h[0] = Matrix(INT, cone.n_rank(0), 1, [[v] for v in col])
    for n in range(1, k.dim + 2):
        rows = [[0] * k.n_rank(n - 1) for _ in range(cone.n_rank(n))]
        for j, s in enumerate(k.simplices(n - 1)):
            joined = cone.label_simplex((apex,) + k.labels(s))
            rows[cone.index_of(n, joined)][j] = 1
        h[n] = Matrix(INT, cone.n_rank(n), k.n_rank(n - 1), rows)
    return cone, h


def prism_operator(phi: SimplicialMap, ambient: SimplicialComplex, ring: CoeffRing = INT) -> Dict[int, Matrix]:
    """P[n]: C_n(src) -> C_(n+1)(ambient) over the cylinder prisms.

    ambient is any complex containing the cylinder (the cylinder itself
    or a cone space built on it).  Satisfies dP + Pd = (y-copy of phi)
    minus (x-copy inclusion); tests assert the identity degreewise.
    """
    mr = mat_ring(ring)
    src = phi.src
    out = {}
    for n in range(src.dim + 1):
        cols = []
        for s in src.simplices(n):
            col = [0] * ambient.n_rank(n + 1)
            for i, labels in _prism_tuples(phi, src.labels(s)):
                idx = [ambient._index[v] for v in labels]
                col[ambient.index_of(n + 1, tuple(sorted(idx)))] += (-1) ** i * _sort_sign(idx)
            cols.append(col)
        out[n] = Matrix.from_columns(mr, ambient.n_rank(n + 1), cols)
    return out


# ---------------------------------------------------------------------------
# Comparison of the algebraic cone with the cone space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeComparison:
    algebraic: AbGroup  # H_n of the algebraic cone
    reduced: AbGroup  # reduced H_n of the cone space
    matrix: Matrix  # generator images under the comparison map
    iso: bool


@dataclass(frozen=True)
class ConeComparison:
    degrees: Dict[int, DegreeComparison]
    printed_identity: bool  # d l + l d = 0 for the raw comparison map
    strict_chain_map: bool  # the (-1)^n twist of l commutes on the nose

    @property
    def iso(self) -> bool:
        return (
            self.printed_identity
            and self.strict_chain_map
            and all(d.iso for d in self.degrees.values())
        )


def compare_cones(phi: SimplicialMap) -> ConeComparison:
    """Match H_n(phi) with the reduced homology of the cone space.

    The raw comparison l(x, y) = (apex join + prism)(x) - (y-copy of y)
    satisfies d l + l d = 0 exactly; its (-1)^n twist is a strict chain
    map from the augmented algebraic cone to the augmented chains of
    the cone space, and induces isomorphisms degreewise.  Both facts
    plus the generator-level isomorphism go into the report.
    """
    f = chain_map(phi, INT)
    fa = chain_map(phi, INT, augmented=True)
    cone = cone_of_map(f)
    conea = cone_of_map(fa)
    space = mapping_cone_space(phi)
    caug = chain_complex(space, INT, augmented=True)
    prism = prism_operator(phi, space)
    src, dst = phi.src, phi.dst

    lt = {}
    for n in range(conea.lo, conea.hi + 1):
        rows = caug.rank(n)
        cols = []
        if n == 0:
            col = [0] * rows
            col[space.index_of(0, (space._index[APEX],))] = 1
            cols.append(col)  # empty source simplex -> apex
        else:
            for j, s in enumerate(src.simplices(n - 1)):
                col = [0] * rows
                joined = space.label_simplex((APEX,) + tuple(_xl(v) for v in src.labels(s)))
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
                key = space.label_simplex(tuple(_yl(w) for w in dst.labels(t)))
                col[space.index_of(n, key)] = -1
                cols.append(col)
        lt[n] = Matrix.from_columns(INT, rows, cols)

    printed = all(
        caug.diff(n) @ lt[n] == -(lt.get(n - 1, Matrix.zeros(INT, caug.rank(n - 1), conea.rank(n - 1))) @ conea.diff(n))
        for n in conea.degrees()
    )
    twisted = {n: (m if n % 2 == 0 else -m) for n, m in lt.items()}
    try:
        lmap = ComplexMap(conea, caug, twisted)
        strict = True
    except InvalidChainMap:
        lmap = ComplexMap(conea, caug, twisted, validate=False)
        strict = False

    degrees = {}
    top = max(cone.hi, caug.hi)
    for n in range(0, top + 1):
        alg = homology_at(cone, n)
        da = homology_data(conea, n)
        db = homology_data(caug, n)
        ok = strict and alg.free_rank == da.group.free_rank and alg.torsion == da.group.torsion
        mtx = _on_generators(da, db, lmap.component(n).apply) if ok else Matrix.zeros(INT, db.ngens, 0)
        iso = ok and _is_presentation_iso(mtx, da, db)
        degrees[n] = DegreeComparison(alg, db.group, mtx, iso)
    return ConeComparison(degrees, printed, strict)


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
