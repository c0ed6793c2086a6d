"""Covers and cover maps compile their integer data once: one cone per cover map.

Every result read from a cover map's cone is checked against the routines in
`oracles.py` that rebuild the nerve complexes, the pullback and the
relative cone on each call: coboundaries, pullbacks, relative
cohomology, classes, Bockstein classes, witnesses and equivalence
verdicts, over Z, Zmod:2 and U1, on the fixture cover maps and on star
covers of seeded degree-d maps.  The relative differential, the
pullback and the closedness checks, which all read one differential of
the map's cone, are checked over Z, Q, Zmod:3 and U1 against the
block formula (pullback(t) - ds, dt) in every degree up to dim + 1, and
`bohr_sommerfeld` refuses in that formula's order: isotropy (the source
block) before closedness (the target block).  The chain cone homology
that the integrality checks read is checked against a rebuilt chain
cone of the nerve map.  Build counts pin the compile-once behaviour (one
checked pushforward per cone, and one nerve complex per cover, whose
absolute map's cone serves coboundaries, the cochain complex and
absolute classes and witnesses alike), and mutation of a compiled object
raises.
"""

import random
import sys
from fractions import Fraction as F

import pytest

import oracles
from helpers import count_calls, seeded_degree_map
from relcone import cech, geo, homology, simplicial
from relcone.cech import (
    CechCochain,
    Cover,
    CoverMap,
    RelCechCochain,
    bockstein,
    cech_diff,
    is_rel_cocycle,
    pullback,
    rel_diff,
    relative_cohomology,
    star_cover,
    star_cover_map,
)
from relcone.chain import ComplexMap, cone_of_map
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.errors import NontrivialClass, NotClosed, NotIsotropic
from relcone.fixtures import (
    circle_doubling_cover_map,
    disk_cover,
    disk_cover_map,
    disk_inclusion,
    point_into_circle_cover_map,
    suspension_cover_map,
    three_arc_cover,
)
from relcone.homology import HomologyData, Solver, homology_at, homology_data
from relcone.matrix import Matrix
from relcone.simplicial import chain_map

Z2 = ZMOD(2)


def cover_maps():
    rng = random.Random(5150)
    out = {
        "disk": disk_cover_map(),
        "pt-circle": point_into_circle_cover_map(),
        "circle-d2": circle_doubling_cover_map(),
        "susp-d2": suspension_cover_map(),
    }
    for d in (1, 3, 4):
        out[f"star-d{d}"] = star_cover_map(seeded_degree_map(rng, d))
    return out


MAPS = sorted(cover_maps())


def random_cochain(rng, cover, p, ring):
    if ring == INT:
        vec = [rng.randint(-3, 3) for _ in range(cover.rank(p))]
    elif ring.kind == "Zmod":
        vec = [rng.randrange(ring.modulus) for _ in range(cover.rank(p))]
    elif ring == RAT:
        vec = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cover.rank(p))]
    else:
        vec = [F(rng.randrange(12), 12) for _ in range(cover.rank(p))]
    return CechCochain.from_vector(cover, p, ring, vec)


def random_low(rng, m, q, ring):
    """A relative (q-1)-cochain."""
    return RelCechCochain(m, random_cochain(rng, m.src, q - 2, ring), random_cochain(rng, m.dst, q - 1, ring))


def cocycles(rng, m, ring):
    """Closed relative q-cochains in every degree: coboundaries, and pullback-closed pairs (0, t)."""
    out = []
    for q in range(1, m.dst.dim + 2):
        for _ in range(3):
            out.append(rel_diff(random_low(rng, m, q, ring)))
    for q in range(1, m.dst.dim + 1):
        t = random_cochain(rng, m.dst, q, ring)
        if cech_diff(t).is_zero:
            u = RelCechCochain(m, CechCochain(m.src, q - 1, ring), t)
            if rel_diff(u).is_zero:
                out.append(u)
    return out


def shifted(rng, c, k):
    """k times a cocycle plus a random coboundary."""
    u = c.u.zscale(k) + rel_diff(random_low(rng, c.u.m, c.u.degree, c.u.ring))
    return type(c)(u.m, u.s, u.t)


@pytest.mark.parametrize("name", MAPS)
def test_coboundary_and_pullback_match_the_rebuilt_matrices(name):
    m = cover_maps()[name]
    rng = random.Random(name)
    for ring in (INT, Z2, U1):
        for cover in (m.src, m.dst):
            for p in range(-1, cover.dim + 1):
                c = random_cochain(rng, cover, p, ring)
                want = oracles.nerve_coboundary(cover, p).zapply(ring, c.vector())
                assert cech_diff(c).vector() == want
        for p in range(m.dst.dim + 1):
            c = random_cochain(rng, m.dst, p, ring)
            assert pullback(m, c).vector() == oracles.pullback_matrix(m, p).zapply(ring, c.vector())


@pytest.mark.parametrize("name", MAPS)
def test_rel_diff_and_pullback_match_the_block_formula(name):
    """One product with the cone differential against (pullback(t) - ds, dt) assembled from rebuilt blocks."""
    m = cover_maps()[name]
    rng = random.Random(f"blocks-{name}")
    top = max(m.src.dim, m.dst.dim) + 1
    for ring in (INT, RAT, ZMOD(3), U1):
        for p in range(-1, top + 1):
            c = random_cochain(rng, m.dst, p, ring)
            assert pullback(m, c).vector() == oracles.pullback_matrix(m, p).zapply(ring, c.vector())
        for q in range(top + 1):
            u = RelCechCochain(m, random_cochain(rng, m.src, q - 1, ring), random_cochain(rng, m.dst, q, ring))
            want = oracles.rel_diff_by_blocks(u)
            assert rel_diff(u).vector() == want
            assert is_rel_cocycle(u) == (not any(want))
            closed = RelCechCochain.from_vector(m, q + 1, ring, want)
            assert is_rel_cocycle(closed) and not any(oracles.rel_diff_by_blocks(closed))
            pair = RelCechCochain(m, CechCochain(m.src, q - 1, ring), u.t)
            assert pullback(m, u.t).vector() == oracles.rel_diff_by_blocks(pair)[: m.src.rank(q)]


def test_bohr_sommerfeld_refuses_in_the_block_formula_order():
    """NotIsotropic when the source block of d(0, omega) is nonzero, else NotClosed when its target block is."""
    from relcone.fixtures import fixture_registry

    rng = random.Random(31)
    registry = fixture_registry()
    maps = [registry[name][1]() for name in ("fix-disk", "fix-susp-d2")] + [seeded_degree_map(rng, 2)]
    seen = set()
    for phi in maps:
        m = star_cover_map(phi)
        for q in range(m.dst.dim + 1):
            n = m.dst.rank(q)
            omegas = [CechCochain.from_vector(m.dst, q, RAT, [int(i == j) for i in range(n)]) for j in range(n)]
            for omega in omegas + [random_cochain(rng, m.dst, q, RAT)]:
                want = oracles.rel_diff_by_blocks(RelCechCochain(m, CechCochain(m.src, q - 1, RAT), omega))
                split = m.src.rank(q)
                if any(want[:split]):
                    with pytest.raises(NotIsotropic, match="^omega pulls back nonzero along the map$"):
                        geo.bohr_sommerfeld(omega, phi)
                    seen.add("not isotropic")
                elif any(want[split:]):
                    with pytest.raises(NotClosed, match="^omega is not closed$"):
                        geo.bohr_sommerfeld(omega, phi)
                    seen.add("not closed")
                else:
                    assert geo.bohr_sommerfeld(omega, phi).degree == q
                    seen.add("checked")
    assert seen == {"not isotropic", "not closed", "checked"}


@pytest.mark.parametrize("name", MAPS)
def test_relative_cohomology_matches_the_rebuilt_cone(name):
    m = cover_maps()[name]
    for ring in (INT, Z2):
        cone = oracles.relative_cone(m, ring)
        for q in range(m.dst.dim + 3):
            assert relative_cohomology(m, ring, q) == homology_at(cone, -q)
        assert cech.relative_cone_complex(m, ring) == cone
    for ring in (INT, Z2, U1):
        assert cech.relative_cone_complex(m, ring) == oracles.relative_cone(m, ring)


@pytest.mark.parametrize("name", MAPS)
def test_classes_and_witnesses_match_the_rebuilt_cone(name):
    m = cover_maps()[name]
    rng = random.Random(f"classes-{name}")
    for ring in (INT, U1):
        for u in cocycles(rng, m, ring):
            rep = geo._class_report(u, "x", "Phi")
            assert (rep.coords, rep.orders, rep.group) == oracles.rel_class(u)
            if ring == U1:
                assert bockstein(u).coords == oracles.rel_class(u)[0]
            w = geo._witness(u)
            want = oracles.rel_witness_vector(u)
            if want is None:
                assert w is None
            else:
                assert w.vector() == want and rel_diff(w) == u


def fixture_cocycles():
    from relcone.fixtures import half_gerbe_cocycle, half_line_bundle_cocycle, winding_function_cocycle

    return {
        "winding": winding_function_cocycle(),
        "half-bundle": half_line_bundle_cocycle(),
        "half-gerbe": half_gerbe_cocycle(),
    }


@pytest.mark.parametrize("name", ["winding", "half-bundle", "half-gerbe"])
def test_classify_trivialize_and_equivalence_match_the_oracle(name):
    base = fixture_cocycles()[name]
    rng = random.Random(f"geo-{name}")
    for k in range(-1, 4):
        c = shifted(rng, base, k)
        rep = geo.classify(c)
        assert (rep.coords, rep.orders, rep.group) == oracles.rel_class(c.u)
        want = oracles.rel_witness_vector(c.u)
        try:
            w = geo.trivialize(c)
        except NontrivialClass as e:
            assert want is None and e.cls == rep
        else:
            assert w.vector() == want and rel_diff(w) == c.u
        c2 = shifted(rng, base, k + rng.randrange(3))
        ok, w = geo.is_equivalent(c, c2)
        diff = geo.group_op(c, geo.inverse(c2))
        assert ok == (oracles.rel_witness_vector(diff.u) is not None)
        if ok:
            assert rel_diff(w) == diff.u


@pytest.mark.parametrize("name", ["winding", "half-bundle", "half-gerbe"])
def test_many_classes_on_one_map_build_each_complex_once(monkeypatch, name):
    base = fixture_cocycles()[name]
    rng = random.Random(f"count-{name}")
    cones = count_calls(monkeypatch, cech, "cone_of_cochain_map")
    nerves = count_calls(monkeypatch, simplicial, "chain_complex")
    checks = count_calls(monkeypatch, ComplexMap, "_validate")
    inputs = [shifted(rng, base, k) for k in range(6)]  # a fresh map: the inputs' rel_diff builds its cone
    m = base.cover_map
    assert all(c.cover_map is m for c in inputs)
    assert (len(cones), len(nerves), len(checks)) == (1, 2, 1)  # one checked pushforward, between two nerves
    solvers = count_calls(monkeypatch, cech, "Solver")
    smiths = count_calls(monkeypatch, homology, "snf")
    for _ in range(2):
        for c in inputs:
            geo.classify(c)
            try:
                geo.trivialize(c)
            except NontrivialClass:
                pass
            geo.is_equivalent(c, inputs[0])
    assert (len(cones), len(nerves), len(checks)) == (1, 2, 1)  # nothing more is built for any verdict
    # integer and angle witnesses alike: one solver, so one Smith form, for the one witness degree,
    # however many solves and denominators there are
    n = 1 - base.u.degree
    assert solvers == [(m.cone.diff(n),)]
    assert sum(a is m.cone.diff(n) for a, *_ in smiths) == 1
    if base.u.ring == U1:
        denominators = {x.denominator for c in inputs for x in c.u.vector()}
        assert len(denominators) > 1


def test_a_fresh_cover_map_builds_each_nerve_complex_once(monkeypatch):
    cones = count_calls(monkeypatch, cech, "cone_of_cochain_map")
    nerves = count_calls(monkeypatch, simplicial, "chain_complex")
    checks = count_calls(monkeypatch, ComplexMap, "_validate")
    m = suspension_cover_map()
    rng = random.Random(77)
    for _ in range(5):
        u = rel_diff(random_low(rng, m, 2, INT))
        geo._class_report(u, "x", "Phi")
        assert rel_diff(geo._witness(u)) == u
    assert sorted(k.n_rank(0) for k, *_ in nerves) == sorted([m.src.rank(0), m.dst.rank(0)])
    assert len(cones) == len(checks) == 1


def test_absolute_calls_on_one_cover_build_its_cone_once(monkeypatch):
    cones = count_calls(monkeypatch, cech, "cone_of_cochain_map")
    cov = star_cover(suspension_cover_map().dst.nerve)
    t = CechCochain(cov, 2, U1, {("w0", "w1", "n"): F(1, 2)})
    for _ in range(4):
        assert geo.absolute_classify(t).is_zero
        with pytest.raises(NontrivialClass):
            geo.absolute_trivialize(t)
    assert len(cones) == 1
    assert cov.absolute is cov.absolute


def test_an_absolute_class_builds_the_nerve_complex_once(monkeypatch):
    """Closedness is read off the absolute map's cone, the only cochain complex a cover compiles."""
    cov = star_cover(suspension_cover_map().dst.nerve)
    t = CechCochain(cov, 2, U1, {("w0", "w1", "n"): F(1, 2)})
    nerves = count_calls(monkeypatch, simplicial, "chain_complex")
    geo.absolute_classify(t)
    assert [k for k, *_ in nerves if k.n_rank(0)] == [cov.nerve]
    assert cov.rank(0) == 5


def count_nerve_complexes(monkeypatch):
    """The complex argument of every `simplicial.chain_complex` call, under whatever name a module imported it."""
    calls = []
    real = simplicial.chain_complex

    def counted(k, *args, **kwargs):
        calls.append(k)
        return real(k, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "relcone" or name.startswith("relcone."):
            for attr, obj in list(vars(mod).items()):
                if obj is real:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("build", [three_arc_cover, disk_cover], ids=["circle", "disk"])
def test_coboundaries_cochains_and_absolute_classes_share_one_cone(monkeypatch, build):
    """The absolute map's cone is the one cochain complex a cover compiles, for every reader."""
    cov = build()
    cones = count_calls(monkeypatch, cech, "cone_of_cochain_map")
    nerves = count_nerve_complexes(monkeypatch)
    rng = random.Random(f"absolute-{build.__name__}")
    closed = []
    for q in range(cov.dim + 1):
        for ring in (INT, U1):
            for t in (cech_diff(random_cochain(rng, cov, q - 1, ring)), random_cochain(rng, cov, q, ring)):
                if cech_diff(t).is_zero:
                    closed.append(t)
    assert cech.cover_cochain_complex(cov, INT) is cov.absolute.cone
    for t in closed:
        geo.absolute_classify(t)
        try:
            geo.absolute_trivialize(t)
        except NontrivialClass:
            pass
    assert len(cones) == 1
    assert [k for k in nerves if k.n_rank(0)] == [cov.nerve]  # the empty source's nerve aside


def test_simplicial_map_builds_its_chain_cone_once(monkeypatch):
    from relcone.fixtures import disk_area_values

    phi = disk_inclusion()
    cones = count_calls(monkeypatch, cech, "cone_of_map")
    nerves = count_calls(monkeypatch, simplicial, "chain_complex")
    checks = count_calls(monkeypatch, ComplexMap, "_validate")
    for total in (F(1), F(1, 2), F(3)):
        pair = geo.RelRealCochainPair.from_values(phi, 2, disk_area_values(total), {})
        assert pair.m is star_cover_map(phi)
        rep = geo.is_integral(pair)
        assert [p.value for p in rep.pairings] == [total] and rep.integral == (total.denominator == 1)
    assert len(cones) == 1
    # the closedness check builds the Cech cone and the pairing the chain cone, each from
    # one checked pushforward between the two nerve complexes
    assert len(checks) == 2 and len(nerves) == 4


def test_pairs_and_classes_on_one_star_cover_map_share_one_view(monkeypatch):
    from relcone.fixtures import disk_area_values

    phi = disk_inclusion()
    nerves = count_calls(monkeypatch, simplicial, "chain_complex")
    checks = count_calls(monkeypatch, ComplexMap, "_validate")
    chain_cones = count_calls(monkeypatch, cech, "cone_of_map")
    cech_cones = count_calls(monkeypatch, cech, "cone_of_cochain_map")
    homologies = count_calls(monkeypatch, cech, "homology_data")
    for total in (F(1), F(1, 2)):
        assert geo.is_integral(geo.RelRealCochainPair.from_values(phi, 2, disk_area_values(total), {})).pairings
    m = star_cover_map(phi)
    assert m.chain_data(1).group.is_trivial  # a second degree reuses the chain cone
    rng = random.Random(2718)
    for ring, cls in ((INT, geo.RelFunctionCocycle), (U1, geo.RelLineBundleCocycle)):
        u = rel_diff(random_low(rng, m, 1, ring))
        c = cls(m, u.s, u.t)
        assert geo.classify(c).is_zero
        assert rel_diff(geo.trivialize(c)) == u
    assert len(nerves) == 4  # both nerve complexes, once for each cone
    assert len(checks) == 2  # the pushforward, checked once as a chain map for each cone
    assert len(chain_cones) == 1 and len(cech_cones) == 1
    assert len(homologies) == 4  # chain degrees 2 and 1, Cech cone degrees -1 and -2


@pytest.mark.parametrize("name", MAPS)
def test_chain_data_matches_the_rebuilt_chain_cone(name):
    m = cover_maps()[name]
    cone = cone_of_map(chain_map(m.nerve_map, INT))
    degrees = range(-1, m.dst.dim + 3)
    for n in degrees:
        m.data(n)  # the shared memo must keep the two cones' homology apart
    for n in degrees:
        got, want = m.chain_data(n), homology_data(cone, n)
        assert (got.group, got.orders) == (want.group, want.orders)  # the group compares its generators too


def test_compiled_objects_reject_mutation():
    m = disk_cover_map()
    m.cone  # a built cone must never see its inputs change
    with pytest.raises(TypeError):
        m.assignment["U0"] = "U1"
    with pytest.raises(AttributeError):
        m.src = m.dst
    with pytest.raises(AttributeError):
        m.assignment = {}
    with pytest.raises(AttributeError):
        del m.dst
    with pytest.raises(AttributeError):
        m.src.nerve = m.dst.nerve
    with pytest.raises(AttributeError):
        m.src.extra = 1
    phi = disk_inclusion()
    with pytest.raises(TypeError):
        phi.vmap["v0"] = "c"
    with pytest.raises(AttributeError):
        phi.dst = phi.src
    nerve_map = m.nerve_map
    with pytest.raises(TypeError):
        nerve_map.vmap["U0"] = "U1"


def test_star_cover_map_reuses_phi(monkeypatch):
    from relcone import simplicial

    phi = seeded_degree_map(random.Random(77), 3)
    made = []
    real = simplicial.SimplicialMap.__init__
    monkeypatch.setattr(simplicial.SimplicialMap, "__init__", lambda self, *a: made.append(a) or real(self, *a))
    m = star_cover_map(phi)
    assert made == []
    assert m.nerve_map is phi and m.assignment is phi.vmap
    assert (m.src.nerve, m.dst.nerve) == (phi.src, phi.dst)
    assert m == CoverMap(m.src, m.dst, dict(phi.vmap))


def test_read_only_maps_keep_their_equality_and_serialization():
    from relcone import jsonio

    m = disk_cover_map()
    again = jsonio.cover_map_from_json(jsonio.cover_map_to_json(m))
    assert again == m and again is not m
    assert m("U0") == "U0" and m.assignment == m.nerve_map.vmap
    assert CoverMap(m.src, m.dst, dict(m.assignment)) == m
    assert Cover(m.src.nerve) == m.src


def reachable(root):
    """Every object reachable from root through slots, instance dicts, mappings and sequences."""
    seen, stack, out = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen:
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, Matrix):
            continue
        if isinstance(x, dict):
            stack += list(x.values())
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack += list(x)
        elif type(x).__module__.startswith("relcone"):
            slots = [n for c in type(x).__mro__ for n in getattr(c, "__slots__", ())]
            stack += [getattr(x, n) for n in slots if hasattr(x, n)]
            stack += list(getattr(x, "__dict__", {}).values())
    return out


def matrices(root):
    return [x for x in reachable(root) if isinstance(x, Matrix)]


def test_a_view_keeps_no_matrix_twice_or_beside_its_transpose():
    m = suspension_cover_map()
    rng = random.Random(91)
    witness_degrees = set()
    for ring in (INT, U1):
        for u in cocycles(rng, m, ring):
            geo._class_report(u, "x", "Phi")
            geo._witness(u)
            witness_degrees.add(1 - u.degree)
    compiled = (m.nerve_map, m.cone, m._memo)  # what the map holds beside its two covers
    # one solver per witness degree, shared by both rings
    assert sorted(key[1] for key in m._memo if key[0] == "solver") == sorted(witness_degrees)
    assert any(isinstance(x, HomologyData) for x in reachable(compiled))
    kept = {id(a): a for a in matrices(compiled) if not a.is_zero()}
    by_entries = {}
    for a in kept.values():
        by_entries.setdefault((a.shape, a.rows), []).append(id(a))
    assert [ids for ids in by_entries.values() if len(ids) > 1] == []
    for a_id, a in kept.items():
        t = a.transpose()
        assert by_entries.get((t.shape, t.rows), [a_id]) == [a_id], a.shape  # only a symmetric one is its own
    for x in reachable(compiled):
        if isinstance(x, HomologyData) and x.lattice is not None:
            assert [id(a) for a in matrices(x.lattice)] == [id(x.lattice.to)]  # a coordinate map, no basis
        if isinstance(x, Solver):
            assert {id(a) for a in matrices(x)} == {id(x.lattice.to), id(x.back)}
