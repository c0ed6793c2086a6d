"""Cocycle-level geometry: classification, witnesses, integrality."""

import random
from fractions import Fraction as F

import pytest

import oracles
from helpers import identity_simplicial
from relcone.cech import (
    CechCochain,
    Cover,
    CoverMap,
    RelCechCochain,
    cech_diff,
    cover_cochain_complex,
    lift_angles,
    rel_diff,
    star_cover,
    star_cover_map,
)
from relcone.coeffs import INT, RAT, U1
from relcone.errors import (
    CoverMismatch,
    DegreeMismatch,
    InvalidChainMap,
    NontrivialClass,
    NotACocycle,
    NotClosed,
    NotIsotropic,
    RingMismatch,
    UnsupportedRing,
)
from relcone import geo
from relcone.geo import (
    COCYCLE_KINDS,
    RelFunctionCocycle,
    RelGerbeCocycle,
    RelLineBundleCocycle,
    RelRealCochainPair,
    absolute_classify,
    absolute_trivialize,
    bohr_sommerfeld,
    classify,
    dixmier_douady,
    group_op,
    inverse,
    is_equivalent,
    is_integral,
    trivialize,
    validate,
)
from relcone.homology import Solver, homology_data, kernel_int
from relcone.matrix import Matrix, hstack
from relcone.simplicial import SimplicialComplex, SimplicialMap
from relcone import fixtures as FX


# ---------------------------------------------------------------------------
# Fixture builders
# ---------------------------------------------------------------------------


def point_into_circle() -> CoverMap:
    circle = Cover.from_sets(["U0", "U1", "U2"], [(0, 1), (1, 2), (0, 2)])
    pt = Cover.from_sets(["P"], [])
    return CoverMap(pt, circle, {"P": "U0"})


def winding_function(m: CoverMap = None) -> RelFunctionCocycle:
    m = m or point_into_circle()
    return RelFunctionCocycle(
        m, CechCochain(m.src, 0, INT), CechCochain(m.dst, 1, INT, {("U0", "U1"): 1})
    )


def half_line_bundle() -> RelLineBundleCocycle:
    m = star_cover_map(FX.degree_map(2))
    f = CechCochain(m.src, 0, U1, {("v1",): F(1, 2), ("v2",): F(1, 2), ("v3",): F(1, 2)})
    g = CechCochain(m.dst, 1, U1, {("w0", "w1"): F(1, 2)})
    return RelLineBundleCocycle(m, f, g)


def half_gerbe() -> RelGerbeCocycle:
    m = star_cover_map(FX.suspended_degree_two())
    s = CechCochain(
        m.src,
        1,
        U1,
        {
            ("v0", "v1"): F(3, 4),
            ("v0", "v5"): F(3, 4),
            ("v0", "n"): F(3, 4),
            ("v0", "s"): F(3, 4),
            ("v1", "n"): F(1, 2),
            ("v2", "n"): F(1, 2),
            ("v3", "n"): F(1, 2),
        },
    )
    t = CechCochain(m.dst, 2, U1, {("w0", "w1", "n"): F(1, 2)})
    return RelGerbeCocycle(m, s, t)


def rand_u1(rng) -> F:
    return F(rng.randint(0, 11), 12)


def random_cochain(rng, cover, p, ring) -> CechCochain:
    if ring == INT:
        vec = [rng.randint(-4, 4) for _ in range(cover.rank(p))]
    else:
        vec = [ring.normalize(rand_u1(rng)) for _ in range(cover.rank(p))]
    return CechCochain.from_vector(cover, p, ring, vec)


def random_gerbe(rng, base: RelGerbeCocycle) -> RelGerbeCocycle:
    """A valid random cocycle: multiple of the base plus a coboundary."""
    m = base.cover_map
    low = RelCechCochain(m, random_cochain(rng, m.src, 0, U1), random_cochain(rng, m.dst, 1, U1))
    u = base.u.zscale(rng.randint(0, 3)) + rel_diff(low)
    return RelGerbeCocycle(m, u.s, u.t)


def random_line_bundle(rng, base: RelLineBundleCocycle) -> RelLineBundleCocycle:
    m = base.cover_map
    low = RelCechCochain(
        m, CechCochain(m.src, -1, U1), random_cochain(rng, m.dst, 0, U1)
    )
    u = base.u.zscale(rng.randint(0, 3)) + rel_diff(low)
    return RelLineBundleCocycle(m, u.s, u.t)


def random_function(rng, m: CoverMap) -> RelFunctionCocycle:
    # on the point-into-circle map every integer pair is closed
    return RelFunctionCocycle(
        m, random_cochain(rng, m.src, 0, INT), random_cochain(rng, m.dst, 1, INT)
    )


def area_values(total):
    sixth = F(total) / 6
    return {
        ("v0", "v1", "c"): sixth,
        ("v1", "v2", "c"): sixth,
        ("v2", "v3", "c"): sixth,
        ("v3", "v4", "c"): sixth,
        ("v4", "v5", "c"): sixth,
        ("v0", "v5", "c"): -sixth,
    }


def canonical_sum(coords1, coords2, orders):
    out = []
    for a, b, d in zip(coords1, coords2, orders):
        out.append((a + b) % d if d else a + b)
    return tuple(out)


# ---------------------------------------------------------------------------
# Types and validation
# ---------------------------------------------------------------------------


def test_cocycle_type_checks():
    m = point_into_circle()
    with pytest.raises(RingMismatch):
        RelFunctionCocycle(m, CechCochain(m.src, 0, U1), CechCochain(m.dst, 1, INT))
    with pytest.raises(DegreeMismatch):
        RelFunctionCocycle(m, CechCochain(m.src, 0, INT), CechCochain(m.dst, 0, INT))
    fn = winding_function(m)
    assert fn.cover_map == m
    assert fn.a.value(("U0", "U1")) == 1 and fn.b.is_zero
    gb = half_gerbe()
    assert gb.s.degree == 1 and gb.t.degree == 2
    assert set(COCYCLE_KINDS) == {"function", "line_bundle", "gerbe"}


def test_validate_localizes_defects():
    gb = half_gerbe()
    assert validate(gb).valid
    m = gb.cover_map
    zero = RelGerbeCocycle(m, CechCochain(m.src, 1, U1), CechCochain(m.dst, 2, U1))
    assert validate(zero).valid
    # breaking t alone must show up as source defects (pullback mismatch)
    broken = RelGerbeCocycle(m, gb.s, CechCochain(m.dst, 2, U1))
    rep = validate(broken)
    assert not rep.valid
    assert rep.defects and all(d.side == "source" for d in rep.defects)
    for d in rep.defects:
        assert d.value != 0 and len(d.overlap) == 3


def test_group_op_and_inverse():
    rng = random.Random(7)
    gb = half_gerbe()
    assert group_op(gb, inverse(gb)).u.is_zero
    for _ in range(5):
        a = random_gerbe(rng, gb)
        b = random_gerbe(rng, gb)
        assert validate(group_op(a, b)).valid
        assert validate(inverse(a)).valid
    with pytest.raises(TypeError):
        group_op(gb, winding_function())


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def test_function_classify_winding_generator():
    fn = winding_function()
    rep = classify(fn)
    assert rep.coords == (1,) and rep.orders == (0,)
    assert rep.basis == "H^1(Phi,Z)" and not rep.is_zero
    assert rep.torsion_orders == ()


def test_function_branch_shift_is_trivial():
    m = point_into_circle()
    c = RelFunctionCocycle(
        m, CechCochain(m.src, 0, INT, {("P",): 5}), CechCochain(m.dst, 1, INT)
    )
    assert classify(c).is_zero
    w = trivialize(c)
    assert rel_diff(w) == c.u


def test_line_bundle_classifies_to_two_torsion():
    rep = classify(half_line_bundle())
    assert rep.coords == (1,) and rep.orders == (2,)
    assert rep.basis == "H^2(Phi,Z)"
    assert rep.torsion_orders == (2,)


def test_gerbe_classifies_to_two_torsion():
    rep = classify(half_gerbe())
    assert rep.coords == (1,) and rep.orders == (2,)
    assert rep.basis == "H^3(Phi,Z)"


def test_classify_rejects_invalid():
    gb = half_gerbe()
    m = gb.cover_map
    broken = RelGerbeCocycle(m, gb.s, CechCochain(m.dst, 2, U1))
    with pytest.raises(NotACocycle):
        classify(broken)


def test_classify_is_a_homomorphism():
    rng = random.Random(19)
    gb = half_gerbe()
    lb = half_line_bundle()
    fm = point_into_circle()
    for _ in range(10):
        for make in (
            lambda: (random_gerbe(rng, gb), random_gerbe(rng, gb)),
            lambda: (random_line_bundle(rng, lb), random_line_bundle(rng, lb)),
            lambda: (random_function(rng, fm), random_function(rng, fm)),
        ):
            c1, c2 = make()
            r1, r2 = classify(c1), classify(c2)
            rsum = classify(group_op(c1, c2))
            assert rsum.coords == canonical_sum(r1.coords, r2.coords, r1.orders)


def test_classify_natural_under_deck_rotation():
    # a half-turn of the source sphere commutes with the doubling map,
    # so precomposing the source data cannot move the class
    gb = half_gerbe()
    m = gb.cover_map
    rot = {f"v{i}": f"v{(i + 3) % 6}" for i in range(6)}
    rot.update({"n": "n", "s": "s"})
    r = CoverMap(m.src, m.src, rot)
    from relcone.cech import compose_cover_maps, pullback

    assert compose_cover_maps(m, r) == m
    rotated = RelGerbeCocycle(m, pullback(r, gb.s), gb.t)
    assert classify(rotated).coords == classify(gb).coords


# ---------------------------------------------------------------------------
# Trivialization and equivalence
# ---------------------------------------------------------------------------


def test_trivialize_agrees_with_zero_class():
    rng = random.Random(29)
    gb = half_gerbe()
    with pytest.raises(NontrivialClass) as exc:
        trivialize(gb)
    assert exc.value.cls.coords == (1,)
    with pytest.raises(NontrivialClass):
        trivialize(winding_function())
    sq = group_op(gb, gb)
    assert sq.t.is_zero  # doubled half-angles vanish: the square is (2s, 0)
    assert classify(sq).is_zero
    w = trivialize(sq)
    assert rel_diff(w) == sq.u
    for _ in range(5):
        c = random_gerbe(rng, gb)
        rep = classify(c)
        if rep.is_zero:
            assert rel_diff(trivialize(c)) == c.u
        else:
            with pytest.raises(NontrivialClass):
                trivialize(c)


def test_line_bundle_square_witness_lives_in_cone_degree_zero():
    sq = group_op(half_line_bundle(), half_line_bundle())
    w = trivialize(sq)
    assert w.s.degree == -1 and w.s.is_zero
    assert w.t.degree == 0
    assert rel_diff(w) == sq.u


def test_is_equivalent():
    rng = random.Random(31)
    gb = half_gerbe()
    same, w = is_equivalent(gb, gb)
    assert same and w.is_zero
    m = gb.cover_map
    for _ in range(5):
        low = RelCechCochain(
            m, random_cochain(rng, m.src, 0, U1), random_cochain(rng, m.dst, 1, U1)
        )
        u2 = gb.u + rel_diff(low)
        shifted = RelGerbeCocycle(m, u2.s, u2.t)
        ok, w = is_equivalent(gb, shifted)
        assert ok and rel_diff(w) == (gb.u - shifted.u)
    zero = RelGerbeCocycle(m, CechCochain(m.src, 1, U1), CechCochain(m.dst, 2, U1))
    ok, w = is_equivalent(gb, zero)
    assert not ok and w is None


def test_trivialize_raises_on_a_non_witness(monkeypatch):
    sq = group_op(half_gerbe(), half_gerbe())
    assert not sq.u.is_zero
    # the view's solver answers with zeros, which bound nothing here
    monkeypatch.setattr(Solver, "solve_mod_one", lambda self, c: [0] * self.back.nrows)
    with pytest.raises(InvalidChainMap, match="non-witness"):
        trivialize(sq)


def test_solve_mod_one_direct():
    # one Smith form answers every right-hand side, whatever its denominators: no modulus is chosen
    two = Solver(Matrix(INT, 1, 1, [[2]]))
    for target in (F(1, 2), F(1, 3), F(5, 7), F(3)):
        (w,) = two.solve_mod_one([target])
        assert w == target / 2 and (2 * w - target).denominator == 1
    zero = Solver(Matrix(INT, 1, 1, [[0]]))
    assert zero.solve_mod_one([F(1, 3)]) is None
    assert zero.solve_mod_one([F(2, 1)]) is not None
    # torsion in the cokernel: [[2, 0], [0, 6]] w = (1/2, 1/4) has w = (1/4, 1/24)
    a = Solver(Matrix.from_rows(INT, [[2, 0], [0, 6]]))
    assert a.solve_mod_one([F(1, 2), F(1, 4)]) == (F(1, 4), F(1, 24))
    # a row of zeros asks for an integer there
    tall = Solver(Matrix.from_rows(INT, [[3], [0]]))
    assert tall.solve_mod_one([F(1, 5), F(1, 2)]) is None
    assert tall.solve_mod_one([F(1, 5), F(4)]) == (F(1, 15),)


# ---------------------------------------------------------------------------
# Absolute classification
# ---------------------------------------------------------------------------


def test_absolute_two_torsion_cocycle_on_projective_plane():
    cov = star_cover(FX.projective_plane())
    data = homology_data(cover_cochain_complex(cov, INT), -2)
    assert data.group.torsion == (2,)
    gen = CechCochain.from_vector(cov, 2, INT, data.group.generators[0])
    rep = absolute_classify(gen)
    assert rep.coords == (1,) and rep.basis == "H^2(N,Z)"
    with pytest.raises(NontrivialClass):
        absolute_trivialize(gen)
    double = gen.zscale(2)
    w = absolute_trivialize(double)
    assert cech_diff(w) == double


def test_absolute_angle_cocycles_on_projective_plane_all_trivialize():
    # H^2 with angle coefficients vanishes here, so classify and
    # trivialize must agree on every closed angle cochain
    rng = random.Random(43)
    cov = star_cover(FX.projective_plane())
    for _ in range(5):
        t = random_cochain(rng, cov, 2, U1)  # top degree: closed for free
        rep = absolute_classify(t)
        assert rep.is_zero  # H^3 of a surface cover is trivial
        w = absolute_trivialize(t)
        assert cech_diff(w) == t


def test_absolute_rational_obstruction_is_reported_with_zero_class():
    # on a sphere cover a half-volume angle 2-cocycle has zero integer
    # class one degree up but is still not a coboundary; the failure
    # report carries that zero class rather than inventing torsion
    cov = star_cover_map(FX.suspended_degree_two()).dst
    t = CechCochain(cov, 2, U1, {("w0", "w1", "n"): F(1, 2)})
    rep = absolute_classify(t)
    assert rep.is_zero
    with pytest.raises(NontrivialClass) as exc:
        absolute_trivialize(t)
    assert exc.value.cls.is_zero


def test_absolute_closedness_is_refused_before_the_ring():
    """An open cochain is refused as not closed over every ring; a closed one over Q as unsupported."""
    cov = star_cover(FX.projective_plane())
    for verb in (absolute_classify, absolute_trivialize):
        for ring, value in ((INT, 1), (RAT, F(1, 3)), (U1, F(1, 3))):
            with pytest.raises(NotACocycle, match="^cochain is not closed$"):
                verb(CechCochain(cov, 1, ring, {cov.overlaps(1)[0]: value}))
        with pytest.raises(UnsupportedRing):
            verb(CechCochain(cov, 1, RAT))


def closed_cochains(rng, cov, q, ring):
    """Seeded closed q-cochains: integer kernel vectors, or angles k/n with d k = 0 mod n."""
    d = cover_cochain_complex(cov, INT).diff(-q)  # C^q -> C^(q+1)
    out = []
    for n in (1, 1, 1) if ring == INT else (2, 3, 4):
        gens = kernel_int(hstack(INT, [d, Matrix.identity(INT, d.nrows).zscale(n)]) if n > 1 else d)
        coeffs = [rng.randint(-3, 3) for _ in range(gens.ncols)]
        vec = [sum(gens.entry(r, j) * coeffs[j] for j in range(gens.ncols)) for r in range(d.ncols)]
        out.append(CechCochain.from_vector(cov, q, ring, [ring.normalize(F(v, n)) for v in vec]))
    return out


FIXTURE_COVERS = {
    "rp2": lambda: star_cover(FX.projective_plane()),
    "suspension": lambda: FX.suspension_cover_map().dst,
    "disk": FX.disk_cover,
    "three-arc": FX.three_arc_cover,
}


@pytest.mark.parametrize("name", sorted(FIXTURE_COVERS))
def test_absolute_classes_match_the_cover_cohomology(name):
    rng = random.Random(sum(map(ord, name)))
    cov = FIXTURE_COVERS[name]()
    for q in range(cov.dim + 1):
        for ring in (INT, U1):
            for t in closed_cochains(rng, cov, q, ring):
                rep = absolute_classify(t)
                if ring == INT:
                    data = homology_data(cover_cochain_complex(cov, INT), -q)
                    cycle, degree = t.vector(), q
                else:
                    data = homology_data(cover_cochain_complex(cov, INT), -(q + 1))
                    cycle, degree = [int(v) for v in cech_diff(lift_angles(t)).vector()], q + 1
                assert rep.basis == f"H^{degree}(N,Z)" and rep.kind == "absolute"
                assert rep.coords == data.express(cycle)
                assert (rep.orders, rep.group) == (data.orders, data.group)
                try:
                    w = absolute_trivialize(t)
                except NontrivialClass as e:
                    assert e.cls == rep
                    if ring == INT:
                        assert not rep.is_zero
                else:
                    assert rep.is_zero and w.degree == q - 1 and cech_diff(w) == t


def test_absolute_degree_zero_cocycles():
    cov = FX.three_arc_cover()
    for ring in (INT, U1):
        w = absolute_trivialize(CechCochain(cov, 0, ring))
        assert w == CechCochain(cov, -1, ring)
    ones = CechCochain.from_vector(cov, 0, INT, [1, 1, 1])
    with pytest.raises(NontrivialClass) as exc:
        absolute_trivialize(ones)
    assert exc.value.cls.coords == (1,) and exc.value.cls.basis == "H^0(N,Z)"
    third = CechCochain.from_vector(cov, 0, U1, [F(1, 3)] * 3)
    with pytest.raises(NontrivialClass) as exc:
        absolute_trivialize(third)
    assert exc.value.cls.is_zero and exc.value.cls.basis == "H^1(N,Z)"


def test_dixmier_douady_of_the_gerbe_target_vanishes():
    rep = dixmier_douady(half_gerbe())
    assert rep.basis == "H^3(N,Z)" and rep.group.is_trivial and rep.coords == ()


# ---------------------------------------------------------------------------
# Integrality and Bohr-Sommerfeld
# ---------------------------------------------------------------------------


def test_disk_area_pairings_are_exact():
    inc = FX.disk_inclusion()
    full = is_integral(RelRealCochainPair.from_values(inc, 2, area_values(1), {}))
    assert full.integral
    assert [(p.order, p.value) for p in full.pairings] == [(0, F(1))]
    half = is_integral(RelRealCochainPair.from_values(inc, 2, area_values(F(1, 2)), {}))
    assert not half.integral
    assert [(p.order, p.value, p.ok) for p in half.pairings] == [(0, F(1, 2), False)]
    assert len(half.pairings[0].cycle) > 0


def test_integrality_requires_closedness():
    # on a self-map the source side has 2-overlaps, so the matching
    # condition pullback(alpha) = d(beta) has actual content
    idd = identity_simplicial(FX.disk_complex())
    m = star_cover_map(idd)
    alpha = CechCochain(m.dst, 2, RAT, {("v0", "v1", "c"): 1})
    beta = CechCochain(m.src, 1, RAT)
    with pytest.raises(NotClosed):
        is_integral(RelRealCochainPair(idd, alpha, beta))


def test_integrality_invariant_under_coboundary_shifts():
    rng = random.Random(47)
    inc = FX.disk_inclusion()
    m = star_cover_map(inc)
    for total in (1, F(1, 2)):
        base = RelRealCochainPair.from_values(inc, 2, area_values(total), {})
        want = [(p.order, p.value) for p in is_integral(base).pairings]
        for _ in range(10):
            low = RelCechCochain(
                m, random_cochain(rng, m.src, 0, RAT), random_cochain(rng, m.dst, 1, RAT)
            )
            shifted = base.shift_by_coboundary(low)
            got = is_integral(shifted)
            assert [(p.order, p.value) for p in got.pairings] == want
            assert got.integral == (total == 1)


def test_integrality_pairings_match_the_plain_sum():
    """Every `is_integral` value is alpha(eta) - beta(theta), summed over plain lists.

    On the disk-area pairs (totals 1 and 1/2), their seeded coboundary
    shifts, and the golden pair and form fixtures.
    """
    rng = random.Random(47)
    inc = FX.disk_inclusion()
    m = star_cover_map(inc)
    cases = []
    for total in (1, F(1, 2)):
        base = RelRealCochainPair.from_values(inc, 2, area_values(total), {})
        cases.append(base)
        for _ in range(10):
            low = RelCechCochain(
                m, random_cochain(rng, m.src, 0, RAT), random_cochain(rng, m.dst, 1, RAT)
            )
            cases.append(base.shift_by_coboundary(low))
    cases = [(p, is_integral(p)) for p in cases]
    for kind, build in FX.fixture_registry().values():
        if kind == "pair":
            p = build()
            cases.append((p, is_integral(p)))
        elif kind == "form":
            phi, omega = build()
            p = RelRealCochainPair(phi, omega, CechCochain(star_cover_map(phi).src, omega.degree - 1, RAT))
            cases.append((p, bohr_sommerfeld(omega, phi)))
    assert len(cases) == 26
    for p, rep in cases:
        split = p.phi.src.n_rank(p.degree - 1)
        assert rep.pairings
        for g in rep.pairings:
            assert g.value == oracles.real_pairing(p.alpha.vector(), p.beta.vector(), g.cycle, split)
    assert {p.pairings[0].value for _, p in cases} == {1, F(1, 2)}


def test_torsion_generators_pair_to_zero():
    # rational pairings annihilate torsion: d*value = <pair, boundary> = 0
    rng = random.Random(53)
    phi = FX.suspended_degree_two()
    m = star_cover_map(phi)
    zero = RelRealCochainPair.from_values(phi, 2, {}, {})
    for _ in range(5):
        low = RelCechCochain(
            m, random_cochain(rng, m.src, 0, RAT), random_cochain(rng, m.dst, 1, RAT)
        )
        rep = is_integral(zero.shift_by_coboundary(low))
        assert [p.order for p in rep.pairings] == [2]
        assert all(p.value == 0 and p.ok for p in rep.pairings)


def test_real_pair_validation():
    inc = FX.disk_inclusion()
    m = star_cover_map(inc)
    with pytest.raises(RingMismatch):
        RelRealCochainPair(inc, CechCochain(m.dst, 2, INT), CechCochain(m.src, 1, RAT))
    with pytest.raises(CoverMismatch):
        RelRealCochainPair(inc, CechCochain(m.src, 2, RAT), CechCochain(m.src, 1, RAT))
    with pytest.raises(DegreeMismatch):
        RelRealCochainPair(inc, CechCochain(m.dst, 2, RAT), CechCochain(m.src, 0, RAT))


def test_bohr_sommerfeld_disk():
    inc = FX.disk_inclusion()
    m = star_cover_map(inc)
    assert bohr_sommerfeld(CechCochain(m.dst, 2, RAT), inc).integral
    assert bohr_sommerfeld(CechCochain(m.dst, 2, RAT, area_values(1)), inc).integral
    rep = bohr_sommerfeld(CechCochain(m.dst, 2, RAT, area_values(F(1, 2))), inc)
    assert not rep.integral
    assert rep.pairings[0].value == F(1, 2)


def test_bohr_sommerfeld_rejects_non_isotropic():
    idd = identity_simplicial(FX.disk_complex())
    omega = CechCochain(star_cover_map(idd).dst, 2, RAT, area_values(1))
    with pytest.raises(NotIsotropic):
        bohr_sommerfeld(omega, idd)


def test_bohr_sommerfeld_rejects_non_closed():
    tetra = SimplicialComplex(["A", "B", "C", "D"], [("A", "B", "C", "D")])
    cmap = SimplicialMap(FX.point_complex(), tetra, {"pt": "A"})
    omega = CechCochain(star_cover_map(cmap).dst, 2, RAT, {("A", "B", "C"): 1})
    with pytest.raises(NotClosed):
        bohr_sommerfeld(omega, cmap)
