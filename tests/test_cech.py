"""Cover cochains, pullbacks, relative cones, and the connecting map."""

import random
from fractions import Fraction as F

import pytest

from relcone import cech
from relcone.cech import (
    CechCochain,
    Cover,
    CoverMap,
    RelCechCochain,
    bockstein,
    cech_diff,
    compose_cover_maps,
    cover_cochain_complex,
    is_rel_cocycle,
    lift_angles,
    pullback,
    rel_diff,
    relative_cohomology,
    relative_cone_complex,
    star_cover,
    star_cover_map,
)
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.errors import (
    CoverMismatch,
    DegreeMismatch,
    InconsistentIntersections,
    InvalidChainMap,
    InvalidSimplicialMap,
    NotACocycle,
    RingMismatch,
    UnsupportedRing,
)
from relcone.homology import HomologyData, homology_at, les_of_cone
from relcone.simplicial import SimplicialMap
from relcone import fixtures as FX


def triangle_cover() -> Cover:
    """Three arcs covering a circle; pairwise overlaps, no triple point."""
    return Cover.from_sets(["0", "1", "2"], [(0, 1), (1, 2), (0, 2)])


def disk_cover() -> Cover:
    """The three arcs thickened into a disk plus an interior set."""
    return Cover.from_sets(
        ["a", "b", "c", "in"],
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
    )


def disk_cover_map() -> CoverMap:
    return CoverMap(triangle_cover(), disk_cover(), {"0": "a", "1": "b", "2": "c"})


def identity_cover_map(cov: Cover) -> CoverMap:
    return CoverMap(cov, cov, {n: n for n in cov.names})


def collapse_cover_map() -> CoverMap:
    """Path cover onto an edge cover; one overlap collapses to a point."""
    path = Cover.from_sets(["a", "b", "c"], [(0, 1), (1, 2)])
    edge = Cover.from_sets(["x", "y"], [(0, 1)])
    return CoverMap(path, edge, {"a": "x", "b": "y", "c": "y"})


def suspension_cover_map() -> CoverMap:
    return star_cover_map(FX.suspended_degree_two())


def gerbe_cocycle() -> RelCechCochain:
    """Half-angle relative 2-cocycle over the suspended doubling map."""
    m = suspension_cover_map()
    h = F(1, 2)
    t = CechCochain(m.dst, 2, U1, {("w0", "w1", "n"): h})
    s = CechCochain(
        m.src,
        1,
        U1,
        {
            ("v0", "v1"): F(3, 4),
            ("v0", "v5"): F(3, 4),
            ("v0", "n"): F(3, 4),
            ("v0", "s"): F(3, 4),
            ("v1", "n"): h,
            ("v2", "n"): h,
            ("v3", "n"): h,
        },
    )
    return RelCechCochain(m, s, t)


def random_cochain(rng, cover: Cover, p: int, ring) -> CechCochain:
    vec = []
    for _ in range(cover.rank(p)):
        if ring == RAT or ring == U1:
            vec.append(F(rng.randint(-6, 6), rng.randint(1, 5)))
        else:
            vec.append(rng.randint(-6, 6))
    return CechCochain.from_vector(cover, p, ring, [ring.normalize(v) for v in vec])


# ---------------------------------------------------------------------------
# Covers and cover maps
# ---------------------------------------------------------------------------


def test_cover_shape():
    c = triangle_cover()
    assert c.names == ("0", "1", "2")
    assert c.dim == 1
    assert c.rank(0) == 3 and c.rank(1) == 3 and c.rank(2) == 0
    assert c.overlaps(1) == (("0", "1"), ("0", "2"), ("1", "2"))
    assert c.intersections() == ((0, 1), (0, 2), (1, 2))


def test_cover_requires_downward_consistent_data():
    with pytest.raises(InconsistentIntersections):
        Cover.from_sets(["a", "b", "c"], [(0, 1, 2)])


def test_cover_map_accepts_refinements_and_rejects_others():
    m = disk_cover_map()
    assert m("0") == "a"
    path = Cover.from_sets(["a", "b", "c"], [(0, 1), (1, 2)])
    with pytest.raises(InvalidSimplicialMap):
        # arcs 0 and 2 meet, but their images a and c do not
        CoverMap(triangle_cover(), path, {"0": "a", "1": "b", "2": "c"})


def test_cover_map_composition():
    m = disk_cover_map()
    i = identity_cover_map(triangle_cover())
    assert compose_cover_maps(m, i) == m
    with pytest.raises(CoverMismatch):
        compose_cover_maps(i, m)


# ---------------------------------------------------------------------------
# Cochains and the coboundary
# ---------------------------------------------------------------------------


def test_coboundary_on_vertex_weights():
    c = CechCochain(triangle_cover(), 0, INT, {("0",): 0, ("1",): 1, ("2",): 2})
    d = cech_diff(c)
    # basis order (0,1), (0,2), (1,2); (dc)(i,j) = c_j - c_i
    assert d.vector() == (1, 2, 1)
    assert d.value(("2", "0")) == -2
    assert d.value(("1", "1")) == 0
    assert cech_diff(d).is_zero


def test_antisymmetric_storage_and_lookup():
    c = CechCochain(triangle_cover(), 1, INT, {("1", "0"): 4})
    assert c.value(("0", "1")) == -4
    assert c.value(("1", "0")) == 4
    accumulated = CechCochain(triangle_cover(), 1, INT, {("0", "1"): 3})
    assert (c + accumulated).value(("0", "1")) == -1


def test_cochain_rejects_bad_keys():
    cov = triangle_cover()
    with pytest.raises(CoverMismatch):
        CechCochain(cov, 0, INT, {("9",): 1})
    with pytest.raises(CoverMismatch):
        CechCochain(cov, 2, INT, {("0", "1", "2"): 1})  # no triple overlap recorded
    with pytest.raises(CoverMismatch):
        CechCochain(cov, 1, INT, {("0", "0"): 1})
    with pytest.raises(DegreeMismatch):
        CechCochain(cov, 1, INT, {("0",): 1})


def test_cochain_vector_roundtrip_and_ops():
    cov = disk_cover()
    rng = random.Random(11)
    a = random_cochain(rng, cov, 1, INT)
    b = random_cochain(rng, cov, 1, INT)
    assert CechCochain.from_vector(cov, 1, INT, a.vector()) == a
    assert (a - b) + b == a
    assert a.zscale(3).vector() == tuple(3 * v for v in a.vector())
    with pytest.raises(DegreeMismatch):
        CechCochain.from_vector(cov, 1, INT, (1, 2))
    with pytest.raises(RingMismatch):
        a + random_cochain(rng, cov, 1, RAT)
    with pytest.raises(CoverMismatch):
        a + random_cochain(rng, triangle_cover(), 1, INT)


def test_diff_squares_to_zero_many_rings():
    rng = random.Random(23)
    covers = [triangle_cover(), disk_cover(), suspension_cover_map().src]
    for cov in covers:
        for ring in (INT, RAT, ZMOD(5), U1):
            for p in range(cov.dim + 1):
                c = random_cochain(rng, cov, p, ring)
                assert cech_diff(cech_diff(c)).is_zero


# ---------------------------------------------------------------------------
# Pullback
# ---------------------------------------------------------------------------


def test_pullback_copies_values():
    m = disk_cover_map()
    c = CechCochain(disk_cover(), 1, INT, {("a", "b"): 7, ("b", "in"): 9})
    p = pullback(m, c)
    assert p.value(("0", "1")) == 7
    assert p.value(("1", "2")) == 0  # image (b, c) holds value 0


def test_pullback_collapse_reads_zero():
    m = collapse_cover_map()
    c = CechCochain(m.dst, 1, INT, {("x", "y"): 5})
    p = pullback(m, c)
    assert p.value(("a", "b")) == 5
    assert p.value(("b", "c")) == 0  # image (y, y) is degenerate
    with pytest.raises(CoverMismatch):
        pullback(m, CechCochain(m.src, 1, INT))


def test_pullback_commutes_with_diff():
    rng = random.Random(37)
    maps = [disk_cover_map(), suspension_cover_map(), collapse_cover_map()]
    for m in maps:
        for ring in (INT, RAT, ZMOD(7), U1):
            for p in range(m.dst.dim + 1):
                c = random_cochain(rng, m.dst, p, ring)
                assert cech_diff(pullback(m, c)) == pullback(m, cech_diff(c))


# ---------------------------------------------------------------------------
# The relative cone and its cohomology
# ---------------------------------------------------------------------------


def test_identity_cover_map_has_trivial_cone():
    for cov in (triangle_cover(), disk_cover(), suspension_cover_map().src):
        m = identity_cover_map(cov)
        for q in range(cov.dim + 2):
            assert relative_cohomology(m, INT, q).is_trivial
            assert relative_cohomology(m, RAT, q).is_trivial


def test_disk_pair_cohomology_is_a_single_integer_class():
    m = disk_cover_map()
    got = [relative_cohomology(m, INT, q) for q in range(4)]
    assert [g.free_rank for g in got] == [0, 0, 1, 0]
    assert all(g.torsion == () for g in got)
    assert relative_cohomology(m, RAT, 2).free_rank == 1
    assert relative_cohomology(m, ZMOD(5), 2).free_rank == 1


def test_circle_to_point_cover_shifts_the_circle_class():
    pt = Cover.from_sets(["pt"], [])
    m = CoverMap(triangle_cover(), pt, {"0": "pt", "1": "pt", "2": "pt"})
    got = [relative_cohomology(m, INT, q) for q in range(3)]
    assert [g.free_rank for g in got] == [0, 0, 1]
    assert all(g.torsion == () for g in got)


def test_suspension_pair_cohomology_is_two_torsion():
    m = suspension_cover_map()
    got = [relative_cohomology(m, INT, q) for q in range(5)]
    assert [(g.free_rank, g.torsion) for g in got] == [
        (0, ()),
        (0, ()),
        (0, ()),
        (0, (2,)),
        (0, ()),
    ]


def test_relative_cone_les_is_exact():
    for m in (disk_cover_map(), suspension_cover_map(), collapse_cover_map()):
        assert les_of_cone(m.view.cone_map(INT)).exact
        assert les_of_cone(m.view.cone_map(RAT)).exact


def test_rel_diff_matches_the_cone_matrix():
    rng = random.Random(41)
    m = suspension_cover_map()
    cone = relative_cone_complex(m, INT)
    for q in range(1, 3):
        s = random_cochain(rng, m.src, q - 1, INT)
        t = random_cochain(rng, m.dst, q, INT)
        u = RelCechCochain(m, s, t)
        assert rel_diff(u).vector() == cone.diff(-q).apply(u.vector())


def test_relative_cochain_validation_and_ops():
    m = suspension_cover_map()
    s = CechCochain(m.src, 1, U1)
    t = CechCochain(m.dst, 2, U1)
    u = RelCechCochain(m, s, t)
    assert u.degree == 2 and u.is_zero
    with pytest.raises(DegreeMismatch):
        RelCechCochain(m, CechCochain(m.src, 0, U1), t)
    with pytest.raises(CoverMismatch):
        RelCechCochain(m, CechCochain(m.dst, 1, U1), t)
    with pytest.raises(RingMismatch):
        RelCechCochain(m, CechCochain(m.src, 1, INT), t)
    v = gerbe_cocycle()
    assert (v - v).is_zero
    assert RelCechCochain.from_vector(m, 2, U1, v.vector()) == v


# ---------------------------------------------------------------------------
# The connecting map
# ---------------------------------------------------------------------------


def test_lift_angles_reduces_back():
    cov = triangle_cover()
    c = CechCochain(cov, 1, U1, {("0", "1"): F(3, 4), ("1", "2"): F(1, 3)})
    lifted = lift_angles(c)
    assert lifted.ring == RAT
    assert all(0 <= v < 1 for v in lifted.vector())
    back = CechCochain.from_vector(cov, 1, U1, [U1.normalize(v) for v in lifted.vector()])
    assert back == c
    with pytest.raises(RingMismatch):
        lift_angles(CechCochain(cov, 1, INT))


def test_gerbe_cocycle_is_closed_and_detects_the_torsion_class():
    u = gerbe_cocycle()
    assert is_rel_cocycle(u)
    b = bockstein(u)
    assert b.group.free_rank == 0 and b.group.torsion == (2,)
    assert b.coords == (1,)
    assert not b.is_zero
    assert b.pair.t.is_zero
    assert b.pair.s.items() == ((("v3", "v4", "n"), 1),)


def test_gerbe_square_trivial_class():
    u = gerbe_cocycle()
    sq = u.zscale(2)
    assert sq.t.is_zero  # doubled half-angles vanish; the square is (2s, 0)
    assert is_rel_cocycle(sq)
    assert bockstein(sq).is_zero


def test_bockstein_kills_coboundaries():
    rng = random.Random(53)
    m = suspension_cover_map()
    for _ in range(5):
        s = random_cochain(rng, m.src, 0, U1)
        t = random_cochain(rng, m.dst, 1, U1)
        u = rel_diff(RelCechCochain(m, s, t))
        assert is_rel_cocycle(u)
        assert bockstein(u).is_zero


def test_bockstein_requires_an_angle_cocycle():
    m = suspension_cover_map()
    s = CechCochain(m.src, 1, U1, {("v0", "v1"): F(1, 3)})
    t = CechCochain(m.dst, 2, U1)
    with pytest.raises(NotACocycle):
        bockstein(RelCechCochain(m, s, t))
    zi = RelCechCochain(m, CechCochain(m.src, 1, INT), CechCochain(m.dst, 2, INT))
    with pytest.raises(UnsupportedRing):
        bockstein(zi)


def test_bockstein_raises_on_a_non_integral_connecting_cocycle(monkeypatch):
    u = gerbe_cocycle()
    real = cech.lift_angles

    def off_by_half(c):
        # half a turn too much on one source overlap: no longer a lift
        lift = real(c)
        if c.cover != u.m.src:
            return lift
        vec = list(lift.vector())
        vec[0] += F(1, 2)
        return CechCochain.from_vector(c.cover, c.degree, RAT, vec)

    monkeypatch.setattr(cech, "lift_angles", off_by_half)
    with pytest.raises(InvalidChainMap, match="non-integral"):
        bockstein(u)


def test_bockstein_raises_when_the_class_depends_on_the_lift(monkeypatch):
    u = gerbe_cocycle()
    calls = []

    def fickle(self, vec):
        calls.append(vec)
        return (len(calls),)

    monkeypatch.setattr(HomologyData, "express", fickle)
    with pytest.raises(InvalidChainMap, match="depended on the lift"):
        bockstein(u)
    assert len(calls) == 2


def test_bockstein_natural_under_deck_rotation():
    # rotating the source sphere half a turn commutes with the doubling
    # map on the nose, so the rotated cocycle represents the same class
    u = gerbe_cocycle()
    m = u.m
    rot = {f"v{i}": f"v{(i + 3) % 6}" for i in range(6)}
    rot.update({"n": "n", "s": "s"})
    r = CoverMap(m.src, m.src, rot)
    assert compose_cover_maps(m, r) == m
    rotated = RelCechCochain(m, pullback(r, u.s), u.t)
    assert is_rel_cocycle(rotated)
    assert bockstein(rotated).coords == bockstein(u).coords


def test_star_cover_nerve_is_the_complex():
    k = FX.projective_plane()
    cov = star_cover(k)
    assert cov.nerve == k
    m = star_cover_map(FX.disk_inclusion())
    assert m.src.nerve == FX.disk_inclusion().src
    assert m("v0") == "v0"
