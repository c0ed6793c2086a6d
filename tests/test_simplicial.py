"""Simplicial layer: complexes, maps, cylinders, cones, comparison, nerves."""

import pytest

from relcone.chain import cone_of_map
from relcone.coeffs import INT, RAT, ZMOD
from relcone.errors import InconsistentIntersections, InvalidComplex, InvalidSimplicialMap
from relcone.fixtures import (
    constant_map,
    cycle_complex,
    degree_map,
    disk_complex,
    disk_inclusion,
    point_complex,
    projective_plane,
    suspended_degree_two,
    suspension,
)
from relcone.homology import homology_at, quasi_iso
from relcone.matrix import Matrix
from relcone.simplicial import (
    SimplicialComplex,
    SimplicialMap,
    chain_complex,
    chain_map,
    compare_cones,
    cone_operator,
    identity_simplicial,
    mapping_cone_space,
    mapping_cylinder,
    nerve,
    prism_operator,
)

from oracles import RP2_BETTI_F2, RP2_BETTI_Q, degree_map_cone_homology

FIXTURE_MAPS = {
    "d0": degree_map(0),
    "d1": degree_map(1),
    "d2": degree_map(2),
    "d3": degree_map(3),
    "disk": disk_inclusion(),
    "susp-d2": suspended_degree_two(),
    "const": constant_map(),
}


def test_closure_and_counts():
    disk = disk_complex()
    assert disk.n_rank(0) == 7 and disk.n_rank(1) == 12 and disk.n_rank(2) == 6
    # every face of every simplex is present
    for n in range(1, disk.dim + 1):
        for s in disk.simplices(n):
            for drop in range(len(s)):
                assert disk.has(disk.labels(s[:drop] + s[drop + 1 :]))


def test_facets_are_maximal():
    assert set(disk_complex().facets()) == {
        ("v0", "v1", "c"),
        ("v1", "v2", "c"),
        ("v2", "v3", "c"),
        ("v3", "v4", "c"),
        ("v4", "v5", "c"),
        ("v0", "v5", "c"),
    }
    mixed = SimplicialComplex(["a", "b", "c"], [("a", "b"), ("c",)])
    assert set(mixed.facets()) == {("a", "b"), ("c",)}


def test_complex_rejects_malformed_input():
    with pytest.raises(InvalidComplex):
        SimplicialComplex(["a", "a"], [])
    with pytest.raises(InvalidComplex):
        SimplicialComplex(["a", "b"], [("a", "a")])
    with pytest.raises(InvalidComplex):
        SimplicialComplex(["a"], [("a", "b")])


def test_simplicial_map_validation():
    hexagon = cycle_complex(6)
    triangle = cycle_complex(3, "w")
    with pytest.raises(InvalidSimplicialMap):
        SimplicialMap(triangle, hexagon, {"w0": "v0", "w1": "v2", "w2": "v4"})
    with pytest.raises(InvalidSimplicialMap):
        SimplicialMap(triangle, triangle, {"w0": "w0"})
    with pytest.raises(InvalidSimplicialMap):
        SimplicialMap(triangle, triangle, {"w0": "bad", "w1": "w1", "w2": "w2"})
    # degenerate images are fine as long as the image set is a simplex
    SimplicialMap(triangle, triangle, {"w0": "w0", "w1": "w0", "w2": "w1"})


def test_chain_complex_ranks_and_boundary():
    rp2 = projective_plane()
    c = chain_complex(rp2, INT)
    assert [c.rank(n) for n in range(3)] == [6, 15, 10]
    assert c.diff(1) @ c.diff(2) == Matrix.zeros(INT, 6, 10)


def test_circle_homology_plain_and_reduced():
    c = chain_complex(cycle_complex(3), INT)
    assert homology_at(c, 0).describe() == "Z"
    assert homology_at(c, 1).describe() == "Z"
    ca = chain_complex(cycle_complex(3), INT, augmented=True)
    assert homology_at(ca, 0).is_trivial
    assert homology_at(ca, 1).describe() == "Z"


def test_point_homology():
    c = chain_complex(point_complex(), INT)
    assert homology_at(c, 0).describe() == "Z"


def test_rp2_homology_over_three_coefficient_rings():
    rp2 = chain_complex(projective_plane(), INT)
    assert [homology_at(rp2, n).describe() for n in range(3)] == ["Z", "Z/2", "0"]
    rp2_q = chain_complex(projective_plane(), RAT)
    assert tuple(homology_at(rp2_q, n).free_rank for n in range(3)) == RP2_BETTI_Q
    assert [homology_at(rp2_q, n).describe() for n in range(3)] == ["Q", "0", "0"]
    rp2_f2 = chain_complex(projective_plane(), ZMOD(2))
    assert tuple(homology_at(rp2_f2, n).free_rank for n in range(3)) == RP2_BETTI_F2
    assert [homology_at(rp2_f2, n).describe() for n in range(3)] == ["Z/2", "Z/2", "Z/2"]
    rp2_f3 = chain_complex(projective_plane(), ZMOD(3))
    assert [homology_at(rp2_f3, n).describe() for n in range(3)] == ["Z/3", "0", "0"]
    assert homology_at(rp2_f3, 0).ring == ZMOD(3) and homology_at(rp2, 0).ring == INT


def test_chain_map_identity_and_degenerate():
    ident = chain_map(identity_simplicial(cycle_complex(3)), INT)
    for n in range(2):
        assert ident.component(n) == Matrix.identity(INT, 3)
    const = chain_map(constant_map(), INT)
    assert const.component(1) == Matrix.zeros(INT, 0, 3)


def test_chain_map_signs_on_orientation_reversal():
    tri = cycle_complex(3, "v")
    dst = cycle_complex(3, "w")
    flip = SimplicialMap(tri, dst, {"v0": "w0", "v1": "w2", "v2": "w1"})
    f1 = chain_map(flip, INT).component(1)
    src_idx = {s: j for j, s in enumerate(tri.simplices(1))}
    dst_idx = {s: j for j, s in enumerate(dst.simplices(1))}
    # (v0,v1) -> (w0,w2) keeps order, (v1,v2) -> (w2,w1) swaps it
    assert f1.entry(dst_idx[(0, 2)], src_idx[(0, 1)]) == 1
    assert f1.entry(dst_idx[(1, 2)], src_idx[(1, 2)]) == -1


def test_degree_two_map_doubles_the_cycle():
    d2 = degree_map(2)
    f = chain_map(d2, INT)
    src, dst = d2.src, d2.dst
    cycle = [0] * src.n_rank(1)
    for i in range(6):
        a, b = sorted((src._index[f"v{i}"], src._index[f"v{(i + 1) % 6}"]))
        sign = 1 if src._index[f"v{i}"] < src._index[f"v{(i + 1) % 6}"] else -1
        cycle[src.index_of(1, (a, b))] = sign
    image = f.component(1).apply(cycle)
    target = [0] * dst.n_rank(1)
    for i in range(3):
        a, b = sorted((dst._index[f"w{i}"], dst._index[f"w{(i + 1) % 3}"]))
        sign = 1 if dst._index[f"w{i}"] < dst._index[f"w{(i + 1) % 3}"] else -1
        target[dst.index_of(1, (a, b))] = sign
    assert list(image) == [2 * v for v in target]


@pytest.mark.parametrize("name", sorted(FIXTURE_MAPS))
def test_cylinder_deformation_retracts_to_target(name):
    phi = FIXTURE_MAPS[name]
    cyl, _, inc_dst = mapping_cylinder(phi)
    assert quasi_iso(chain_map(inc_dst, INT))


@pytest.mark.parametrize("name", sorted(FIXTURE_MAPS))
def test_prism_identity(name):
    phi = FIXTURE_MAPS[name]
    cyl, inc_src, inc_dst = mapping_cylinder(phi)
    prisms = prism_operator(phi, cyl)
    ccyl = chain_complex(cyl, INT)
    csrc = chain_complex(phi.src, INT)
    top = chain_map(inc_dst, INT)
    from relcone.chain import compose

    glued = compose(top, chain_map(phi, INT))
    free = chain_map(inc_src, INT)
    for n in range(phi.src.dim + 1):
        lhs = ccyl.diff(n + 1) @ prisms[n]
        if n >= 1:
            lhs = lhs + prisms[n - 1] @ csrc.diff(n)
        assert lhs == glued.component(n) - free.component(n)


def test_cone_space_of_identity_is_contractible():
    cf = mapping_cone_space(identity_simplicial(cycle_complex(3)))
    c = chain_complex(cf, INT, augmented=True)
    for n in range(0, 3):
        assert homology_at(c, n).is_trivial


@pytest.mark.parametrize("d", [0, 1, 2, 3, 6])
def test_cone_space_matches_circle_degree_oracle(d):
    cf = mapping_cone_space(degree_map(d))
    c = chain_complex(cf, INT, augmented=True)
    for n, (free, torsion) in degree_map_cone_homology(d).items():
        g = homology_at(c, n)
        assert (g.free_rank, g.torsion) == (free, torsion)


def test_cone_space_of_constant_map_is_a_sphere():
    cf = mapping_cone_space(constant_map())
    c = chain_complex(cf, INT, augmented=True)
    assert homology_at(c, 0).is_trivial
    assert homology_at(c, 1).is_trivial
    assert homology_at(c, 2).describe() == "Z"


@pytest.mark.parametrize("build", [lambda: cycle_complex(3), disk_complex, projective_plane])
def test_cone_operator_identity(build):
    k = build()
    cone, h = cone_operator(k)
    ck = chain_complex(k, INT, augmented=True)
    cc = chain_complex(cone, INT, augmented=True)
    inc = chain_map(SimplicialMap(k, cone, {v: v for v in k.vertices}), INT, augmented=True)
    for m in range(-1, k.dim + 1):
        lhs = cc.diff(m + 1) @ h[m + 1]
        if m >= 0:
            lhs = lhs + h[m] @ ck.diff(m)
        assert lhs == inc.component(m)


def test_cone_of_a_vertex_is_an_edge():
    k = point_complex()
    cone, h = cone_operator(k)
    assert cone.has(("*", "pt"))
    assert list(h[1].col(0)) == [1]  # one edge, hit once


@pytest.mark.parametrize("d", range(7))
def test_compare_cones_degree_family(d):
    rep = compare_cones(degree_map(d))
    assert rep.printed_identity and rep.strict_chain_map and rep.iso
    oracle = degree_map_cone_homology(d)
    for n, (free, torsion) in oracle.items():
        got = rep.degrees[n].algebraic
        assert (got.free_rank, got.torsion) == (free, torsion)
        red = rep.degrees[n].reduced
        assert (red.free_rank, red.torsion) == (free, torsion)


@pytest.mark.parametrize("name", ["disk", "susp-d2", "const"])
def test_compare_cones_other_fixtures(name):
    rep = compare_cones(FIXTURE_MAPS[name])
    assert rep.iso
    expected = {
        "disk": {2: (1, ())},
        "susp-d2": {2: (0, (2,))},
        "const": {2: (1, ())},
    }[name]
    for n, (free, torsion) in expected.items():
        got = rep.degrees[n].algebraic
        assert (got.free_rank, got.torsion) == (free, torsion)


def test_compare_cones_identity_trivial():
    rep = compare_cones(identity_simplicial(cycle_complex(3)))
    assert rep.iso
    assert all(d.algebraic.is_trivial and d.reduced.is_trivial for d in rep.degrees.values())


def test_algebraic_cone_groups_match_cone_space_for_degree_maps():
    # same content as compare_cones but computed without the comparison map
    for d in [0, 2, 3]:
        phi = degree_map(d)
        cone = cone_of_map(chain_map(phi, INT))
        space = chain_complex(mapping_cone_space(phi), INT, augmented=True)
        for n in range(0, 3):
            a = homology_at(cone, n)
            b = homology_at(space, n)
            assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def test_nerve_of_three_arc_cover_is_triangle():
    n = nerve(["a0", "a1", "a2"], [(0, 1), (1, 2), (0, 2)])
    assert n == SimplicialComplex(["a0", "a1", "a2"], [("a0", "a1"), ("a1", "a2"), ("a0", "a2")])
    c = chain_complex(n, INT)
    assert homology_at(c, 1).describe() == "Z"


def test_nerve_of_tetrahedral_cover_is_sphere():
    sets = ["u0", "u1", "u2", "u3"]
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    triples = [(i, j, k) for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4)]
    n = nerve(sets, pairs + triples)
    c = chain_complex(n, INT)
    assert homology_at(c, 2).describe() == "Z"
    assert homology_at(c, 1).is_trivial


def test_nerve_of_disk_cover_is_contractible():
    # 3 boundary arcs + interior set meeting everything, no 4-fold overlap
    sets = ["a0", "a1", "a2", "inner"]
    tuples = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 1, 3), (1, 2, 3), (0, 2, 3)]
    n = nerve(sets, tuples)
    c = chain_complex(n, INT, augmented=True)
    for q in range(0, 3):
        assert homology_at(c, q).is_trivial


def test_nerve_rejects_inconsistent_data():
    with pytest.raises(InconsistentIntersections):
        nerve(["a", "b", "c"], [(0, 1, 2)])  # faces (0,1),(1,2),(0,2) undeclared
    with pytest.raises(InconsistentIntersections):
        nerve(["a", "b"], [(0, 0)])
    with pytest.raises(InconsistentIntersections):
        nerve(["a", "b"], [(0, 5)])
    with pytest.raises(InconsistentIntersections):
        nerve(["a", "a"], [])


def test_suspension_of_circle_is_a_sphere():
    s2 = suspension(cycle_complex(3))
    c = chain_complex(s2, INT, augmented=True)
    assert homology_at(c, 1).is_trivial
    assert homology_at(c, 2).describe() == "Z"
