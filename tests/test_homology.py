import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import (
    flip,
    random_block_complex,
    random_chain_map,
    random_degreewise,
    random_unimodular,
    random_vector,
    torus,
)
from oracles import (
    SNF_2x2_DIAG,
    SNF_2x2_EXAMPLE,
    SNF_3x3_DIAG,
    SNF_3x3_EXAMPLE,
    betti_numbers_field,
    check_snf_full,
    det_int,
    first_column_outside_span,
    greedy_quotient_field,
    rank_mod_p,
    rank_rational,
    smith_diagonal_via_minors,
)
from relcone.chain import ComplexMap, GradedComplex, cone_of_map, identity_map
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone import homology
from relcone.errors import InvalidChainMap, UnsupportedRing
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import (
    AbGroup,
    IntSolver,
    _check_snf,
    _quotient_space_field,
    _subgroup_leq_field,
    connecting_hom,
    homology_at,
    homology_data,
    induced_map,
    kernel_field,
    kernel_int,
    ker_coker_les,
    les_of_cone,
    quasi_iso,
    snf,
    solve_field,
    solve_int,
)
from relcone.matrix import Matrix, block, hstack
from relcone.simplicial import chain_complex


def rand_int_matrix(rng, m, n, bound=5):
    return Matrix(INT, m, n, [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)])


def circle_complex(ring=INT):
    return GradedComplex(ring, {0: 1, 1: 1}, {})


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def test_snf_frozen_examples():
    s = snf(Matrix.from_rows(INT, [list(r) for r in SNF_2x2_EXAMPLE]))
    assert s.diag == SNF_2x2_DIAG
    s = snf(Matrix.from_rows(INT, [list(r) for r in SNF_3x3_EXAMPLE]))
    assert s.diag == SNF_3x3_DIAG
    assert snf(Matrix.identity(INT, 2)).diag == (1, 1)
    assert snf(Matrix.zeros(INT, 2, 3)).diag == (0, 0)


def test_snf_random_properties():
    rng = random.Random(101)
    for _ in range(120):
        m, n = rng.randrange(0, 6), rng.randrange(0, 6)
        a = rand_int_matrix(rng, m, n)
        s = snf(a)
        assert s.u @ s.d @ s.v == a
        assert abs(det_int(s.u.to_lists())) == 1
        assert abs(det_int(s.v.to_lists())) == 1
        for i in range(len(s.diag) - 1):
            if s.diag[i + 1]:
                assert s.diag[i + 1] % s.diag[i] == 0
        if m <= 4 and n <= 4:
            assert s.diag == smith_diagonal_via_minors(a.to_lists())


# Feeds _check_snf one corrupted Smith form per postcondition, and counts
# the checks snf runs; prints the messages and the count as JSON.
CORRUPT_SNF_SCRIPT = """
import json
from dataclasses import replace
from relcone import homology
from relcone.coeffs import INT
from relcone.errors import InvalidChainMap
from relcone.homology import SNFResult, _check_snf, snf
from relcone.matrix import Matrix

def fake(rows, diag):
    a = Matrix.from_rows(INT, rows)
    eye = Matrix.identity(INT, a.nrows)
    return a, SNFResult(eye, a, eye, eye, eye, diag, sum(1 for x in diag if x))

a = Matrix.from_rows(INT, [[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
r = snf(a)
flip = Matrix.from_rows(INT, [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])
negated = replace(r, u=r.u @ flip, d=flip @ r.d, uinv=flip @ r.uinv, diag=(-r.diag[0],) + r.diag[1:])
cases = [
    (a, replace(r, v=flip @ r.v)),
    (a, replace(r, uinv=flip @ r.uinv)),
    (a, replace(r, vinv=flip @ r.vinv)),
    (a, negated),
    fake([[2, 0], [0, 3]], (2, 3)),
    fake([[0, 0], [0, 3]], (0, 3)),
    fake([[1, 1], [0, 1]], (1, 1)),
]
# rank 2 of 3: the rank-r product reads neither row 2 of V nor column 2 of U
b = Matrix.from_rows(INT, [[2, 4, 4], [-6, 6, 12], [-4, 10, 16]])
s = snf(b)
last = Matrix.from_rows(INT, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
off_diag = Matrix.from_rows(INT, [[s.diag[0] + 1, 0, 0], [0, s.diag[1], 0], [0, 0, 0]])
extra = [
    (b, replace(s, v=last @ s.v, u=s.u @ last, vinv=s.vinv @ last, uinv=last @ s.uinv)),  # still valid
    (b, replace(s, v=last @ s.v)),
    (b, replace(s, u=s.u @ last)),
    (b, replace(s, d=off_diag)),
    (b, replace(s, rank=3)),
    (b, replace(s, rank=1)),
]

def message(x, res):
    try:
        _check_snf(x, res)
    except InvalidChainMap as e:
        return str(e)
    return None

out = [message(*c) for c in cases]
more = [s.rank] + [message(*c) for c in extra]
checks = []
homology._check_snf = lambda x, res: checks.append(x)
snf(a)
print(json.dumps([out, len(checks), more]))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_a_corrupted_smith_form_raises_under_every_interpreter_flag(optimize):
    src = os.path.dirname(os.path.dirname(homology.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-c", CORRUPT_SNF_SCRIPT], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    messages, checks, more = json.loads(proc.stdout)
    assert messages == [
        "snf: A != U D V",
        "snf: U inverse wrong",
        "snf: V inverse wrong",
        "snf: negative diagonal",
        "snf: divisibility chain broken",
        "snf: divisibility chain broken",
        "snf: D not diagonal",
    ]
    assert checks == 1
    assert more == [
        2,
        None,
        "snf: V inverse wrong",
        "snf: U inverse wrong",
        "snf: D not diagonal",
        "snf: rank is not the number of nonzero diagonal entries",
        "snf: rank is not the number of nonzero diagonal entries",
    ]


def _nudged(mat, rng):
    rows = mat.to_lists()
    i, j = rng.randrange(mat.nrows), rng.randrange(mat.ncols)
    rows[i][j] += rng.choice([-1, 1])
    return Matrix(INT, mat.nrows, mat.ncols, rows)


def _tail_block(n, r, e):
    """diag(I_r, e): acts on the rows or columns >= r only."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - r):
        rows[r + i][r:] = e.rows[i]
    return Matrix(INT, n, n, rows)


def _variants(rng, s):
    """Smith forms of the same matrix (valid) and forms with one factor off (not)."""
    m, n, r = s.d.nrows, s.d.ncols, s.rank
    out = [s]
    e, einv = random_unimodular(rng, m - r)
    b, binv = _tail_block(m, r, e), _tail_block(m, r, einv)
    out += [replace(s, u=s.u @ b, uinv=binv @ s.uinv), replace(s, u=s.u @ b), replace(s, uinv=binv @ s.uinv)]
    f, finv = random_unimodular(rng, n - r)
    c, cinv = _tail_block(n, r, f), _tail_block(n, r, finv)
    out += [replace(s, v=c @ s.v, vinv=s.vinv @ cinv), replace(s, v=c @ s.v), replace(s, vinv=s.vinv @ cinv)]
    if r:
        i = rng.randrange(r)
        fm, fn = flip(m, i), flip(n, i)
        out += [
            replace(s, u=s.u @ fm, uinv=fm @ s.uinv, v=fn @ s.v, vinv=s.vinv @ fn),  # sign moved from U to V
            replace(s, u=s.u @ fm, uinv=fm @ s.uinv),
            replace(s, d=fm @ s.d, diag=tuple(-x if j == i else x for j, x in enumerate(s.diag))),
            replace(s, d=s.d.zscale(2), diag=tuple(2 * x for x in s.diag)),
        ]
    for name in ("u", "d", "v", "uinv", "vinv"):
        mat = getattr(s, name)
        if mat.nrows and mat.ncols:
            out.append(replace(s, **{name: _nudged(mat, rng)}))
    return out


def _accepts(check, a, s):
    try:
        check(a, s)
    except InvalidChainMap:
        return False
    return True


def test_rank_r_certificate_agrees_with_the_full_product():
    """The diagonal scans plus one rank-r product accept exactly the forms the three full products accept."""
    rng = random.Random(4200)
    mats = [rand_int_matrix(rng, rng.randrange(0, 7), rng.randrange(0, 7), rng.choice([1, 3, 9])) for _ in range(60)]
    mats += [Matrix.zeros(INT, 3, 4), Matrix.identity(INT, 3)]
    complexes = [chain_complex(build(), INT) for kind, build in fixture_registry().values() if kind == "complex"]
    complexes += [chain_complex(torus(3), INT), chain_complex(projective_plane(), INT)]
    mats += [c.diff(n) for c in complexes for n in c.degrees()]
    verdicts = []
    for a in mats:
        for form in _variants(rng, snf(a)):
            old = _accepts(check_snf_full, a, form)
            assert _accepts(_check_snf, a, form) == old, (a, form)
            verdicts.append(old)
    assert verdicts.count(True) > 150 and verdicts.count(False) > 300


def test_kernel_int_spans_null_space():
    rng = random.Random(102)
    for _ in range(40):
        a = rand_int_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        k = kernel_int(a)
        assert (a @ k).is_zero()
        assert k.ncols == a.ncols - snf(a).rank
        # saturated: any rational kernel vector scaled integral is expressible
        for j in range(k.ncols):
            assert solve_int(k, Matrix.column(INT, k.col(j))) is not None


def test_solve_int_round_trip_and_failure():
    rng = random.Random(103)
    for _ in range(40):
        a = rand_int_matrix(rng, rng.randrange(1, 5), rng.randrange(1, 5))
        x0 = rand_int_matrix(rng, a.ncols, 2)
        b = a @ x0
        x = solve_int(a, b)
        assert x is not None and a @ x == b
    assert solve_int(Matrix.from_rows(INT, [[2]]), Matrix.from_rows(INT, [[1]])) is None
    assert solve_int(Matrix.zeros(INT, 1, 1), Matrix.from_rows(INT, [[3]])) is None


def test_solve_int_mod():
    # over Q/Z, 2 w = 1/5 is solvable (divisibility), while 0 w = 1/3 is not
    solver = IntSolver(Matrix.from_rows(INT, [[2]]))
    w = solver.solve_mod_one([Fraction(1, 5)])
    assert w == (Fraction(1, 10),)
    assert solver.solve_mod_one([Fraction(7, 2)]) == (Fraction(7, 4),)
    zero = IntSolver(Matrix.zeros(INT, 1, 1))
    assert zero.solve_mod_one([Fraction(1, 3)]) is None
    assert zero.solve_mod_one([Fraction(2)]) == (0,)


def test_field_kernel_and_solve():
    for ring in (RAT, ZMOD(5)):
        a = Matrix.from_rows(ring, [[1, 2], [2, 4]])
        k = kernel_field(a)
        assert k.ncols == 1 and (a @ k).is_zero()
        assert a.ncols - k.ncols == 1  # rank by rank-nullity
        b = Matrix.from_rows(ring, [[3], [6]])
        x = solve_field(a, b)
        assert x is not None and a @ x == b
        bad = Matrix.from_rows(ring, [[3], [2]])
        assert solve_field(a, bad) is None


# ---------------------------------------------------------------------------
# Homology groups
# ---------------------------------------------------------------------------


def test_homology_of_circle_complex():
    c = circle_complex()
    h0, h1 = homology_at(c, 0), homology_at(c, 1)
    assert (h0.free_rank, h0.torsion) == (1, ())
    assert (h1.free_rank, h1.torsion) == (1, ())
    assert h1.generators == ((1,),)


def test_homology_two_term_multiplication():
    c = GradedComplex(INT, {0: 1, 1: 1}, {1: Matrix.from_rows(INT, [[2]])})
    h0 = homology_at(c, 0)
    assert (h0.free_rank, h0.torsion) == (0, (2,))
    assert homology_at(c, 1).is_trivial


def test_homology_matches_block_construction():
    rng = random.Random(104)
    for _ in range(40):
        xd = random_block_complex(rng, 0, 3)
        for n in range(0, 4):
            h = homology_at(xd.chain, n)
            assert (h.free_rank, h.torsion) == xd.expected_homology(n)
            data = homology_data(xd.chain, n)
            dn = xd.chain.diff(n)
            for g in h.generators:
                assert all(v == 0 for v in dn.apply(g))
            # coordinates of each generator come back as a delta vector
            for i, g in enumerate(h.generators):
                coords = data.express(g)
                want = tuple(1 if j == i else 0 for j in range(len(h.generators)))
                assert coords == want


def test_homology_express_mods_out_boundaries_and_torsion():
    c = GradedComplex(INT, {0: 1, 1: 1}, {1: Matrix.from_rows(INT, [[3]])})
    data = homology_data(c, 0)
    assert data.group.torsion == (3,)
    g = data.group.generators[0]
    shifted = tuple(v + 3 * g[0] for v in g)  # plus a boundary
    assert data.express(shifted) == data.express(g)
    assert data.express(tuple(4 * v for v in g)) == data.express(g)


def test_field_homology_dimensions_match_rank_oracle():
    rng = random.Random(105)
    for _ in range(20):
        xd = random_block_complex(rng, 0, 3)
        c = xd.chain
        for p in (None, 5):
            ring = RAT if p is None else ZMOD(p)
            diffs = {n: c.diff(n).change_ring(ring) for n in c.degrees() if c.diff(n).ncols and c.diff(n).nrows}
            cf = GradedComplex(ring, {n: c.rank(n) for n in c.degrees()}, diffs)
            for n in range(0, 4):
                h = homology_at(cf, n)
                dn = c.diff(n).to_lists()
                dn1 = c.diff(n + 1).to_lists()
                rkf = rank_rational if p is None else (lambda m: rank_mod_p(m, p))
                r1 = rkf(dn) if dn and dn[0] else 0
                r2 = rkf(dn1) if dn1 and dn1[0] else 0
                assert h.free_rank == c.rank(n) - r1 - r2
                assert h.torsion == ()


def test_homology_unsupported_rings():
    c = circle_complex(U1)
    with pytest.raises(UnsupportedRing):
        homology_at(c, 0)
    c6 = circle_complex(ZMOD(6))
    with pytest.raises(UnsupportedRing):
        homology_at(c6, 0)


def test_abgroup_descriptions():
    g = AbGroup(1, (2, 4), ((1, 0), (0, 1), (1, 1)))
    assert g.describe() == "Z/2 + Z/4 + Z"
    assert g.order() is None
    assert AbGroup(0, (3,), ((1,),)).order() == 3
    assert AbGroup(0, (), ()).is_trivial


# ---------------------------------------------------------------------------
# Induced and connecting maps
# ---------------------------------------------------------------------------


def test_induced_map_identity_and_zero():
    rng = random.Random(106)
    xd = random_block_complex(rng, 0, 3)
    c = xd.chain
    i = identity_map(c)
    z = ComplexMap(c, c, {})
    for n in range(0, 4):
        h = homology_at(c, n)
        ind = induced_map(i, n)
        assert ind == Matrix.identity(INT, len(h.generators))
        assert induced_map(z, n).is_zero()


def test_induced_map_degree_two_circle():
    c = circle_complex()
    f = ComplexMap(c, c, {0: Matrix.identity(INT, 1), 1: Matrix.from_rows(INT, [[2]])})
    assert induced_map(f, 1) == Matrix.from_rows(INT, [[2]])
    assert induced_map(f, 0) == Matrix.from_rows(INT, [[1]])


def test_connecting_hom_equals_induced():
    rng = random.Random(107)
    for _ in range(15):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        f = random_chain_map(rng, xd, yd)
        for n in range(0, 5):
            delta = connecting_hom(f, n)
            assert delta == induced_map(f, n - 1)


# ---------------------------------------------------------------------------
# Long exact sequences
# ---------------------------------------------------------------------------


def test_les_of_cone_degree_two_circle():
    c = circle_complex()
    f = ComplexMap(c, c, {0: Matrix.identity(INT, 1), 1: Matrix.from_rows(INT, [[2]])})
    rep = les_of_cone(f)
    assert rep.exact
    cone = cone_of_map(f)
    h1 = homology_at(cone, 1)
    assert (h1.free_rank, h1.torsion) == (0, (2,))
    assert homology_at(cone, 0).is_trivial
    assert homology_at(cone, 2).is_trivial
    # the multiplication-by-2 segment appears as the degree-1 connecting map
    assert rep.maps["delta_2"] == Matrix.from_rows(INT, [[2]])


def test_les_of_cone_zero_map_splits():
    rng = random.Random(108)
    xd = random_block_complex(rng, 0, 2)
    yd = random_block_complex(rng, 0, 2)
    f = ComplexMap(xd.chain, yd.chain, {})
    rep = les_of_cone(f)
    assert rep.exact
    cone = cone_of_map(f)
    for n in range(0, 4):
        h = homology_at(cone, n)
        fx, tx = xd.expected_homology(n - 1)
        fy, ty = yd.expected_homology(n)
        assert h.free_rank == fx + fy
        from helpers import canonical_torsion

        assert h.torsion == canonical_torsion(list(tx) + list(ty))


def test_les_of_cone_random_maps_exact():
    rng = random.Random(109)
    for _ in range(30):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        f = random_chain_map(rng, xd, yd)
        rep = les_of_cone(f)
        assert rep.exact, [p.defect for p in rep.positions if not p.exact]


def test_les_of_cone_over_field():
    rng = random.Random(110)
    xd = random_block_complex(rng, 0, 2)
    c = xd.chain
    diffs = {n: c.diff(n).change_ring(RAT) for n in c.degrees() if c.diff(n).nrows and c.diff(n).ncols}
    cq = GradedComplex(RAT, {n: c.rank(n) for n in c.degrees()}, diffs)
    f = identity_map(cq)
    rep = les_of_cone(f)
    assert rep.exact


# ---------------------------------------------------------------------------
# Kernel/cokernel sequence
# ---------------------------------------------------------------------------


def direct_sum(a: GradedComplex, b: GradedComplex):
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    ranks = {}
    diffs = {}
    for n in range(lo, hi + 1):
        r = a.rank(n) + b.rank(n)
        if r:
            ranks[n] = r
        grid = [
            [a.diff(n), Matrix.zeros(INT, a.rank(n - 1), b.rank(n))],
            [Matrix.zeros(INT, b.rank(n - 1), a.rank(n)), b.diff(n)],
        ]
        m = block(INT, grid)
        if m.nrows and m.ncols:
            diffs[n] = m
    total = GradedComplex(INT, ranks, diffs)
    proj = {}
    for n in range(lo, hi + 1):
        eye = Matrix.identity(INT, a.rank(n))
        proj[n] = hstack(INT, [eye, Matrix.zeros(INT, a.rank(n), b.rank(n))])
    return total, ComplexMap(total, a, proj)


def test_ker_coker_injective_multiplication():
    c = GradedComplex(INT, {0: 1}, {})
    f = ComplexMap(c, c, {0: Matrix.from_rows(INT, [[2]])})
    rep = ker_coker_les(f)
    assert rep.exact
    assert rep.groups["H_0(coker)"].torsion == (2,)
    assert rep.groups["H_0(f)"].torsion == (2,)
    assert rep.groups["H_0(ker)"].is_trivial


def test_ker_coker_surjective_projections():
    rng = random.Random(111)
    for _ in range(10):
        xd = random_block_complex(rng, 0, 2)
        yd = random_block_complex(rng, 0, 2)
        total, proj = direct_sum(xd.chain, yd.chain)
        rep = ker_coker_les(proj)
        assert rep.exact
        # surjective specialization: H_n(f) = H_(n-1)(ker f) checked inside;
        # the kernel complex here is the second summand
        for n in range(0, 3):
            hk = rep.groups[f"H_{n}(ker)"]
            assert (hk.free_rank, hk.torsion) == yd.expected_homology(n)


def test_ker_coker_random_maps_exact():
    rng = random.Random(112)
    for _ in range(20):
        xd = random_block_complex(rng, 0, 2)
        yd = random_block_complex(rng, 0, 2)
        f = random_chain_map(rng, xd, yd)
        rep = ker_coker_les(f)
        assert rep.exact, [p.defect for p in rep.positions if not p.exact]


def test_ker_coker_over_rationals():
    rng = random.Random(113)
    xd = random_block_complex(rng, 0, 2)
    c = xd.chain
    diffs = {n: c.diff(n).change_ring(RAT) for n in c.degrees() if c.diff(n).nrows and c.diff(n).ncols}
    cq = GradedComplex(RAT, {n: c.rank(n) for n in c.degrees()}, diffs)
    f = ComplexMap(cq, cq, {n: Matrix.identity(RAT, cq.rank(n)).scale(Fraction(3)) for n in cq.degrees() if cq.rank(n)})
    rep = ker_coker_les(f)
    assert rep.exact
    for n in range(0, 3):
        assert rep.groups[f"H_{n}(f)"].is_trivial


def presented(ring, orders):
    """HomologyData of H_0 with one generator per entry of orders (0 = free)."""
    tors = [i for i, o in enumerate(orders) if o]
    rows = [[orders[i] if i == t else 0 for t in tors] for i in range(len(orders))]
    c = GradedComplex(ring, {0: len(orders), 1: len(tors)}, {1: Matrix(ring, len(orders), len(tors), rows)})
    data = homology_data(c, 0)
    assert data.orders == tuple(orders)
    return data


# (source orders, target orders, matrix in generator coordinates, iso?)
PRESENTATION_CASES_ANY_RING = [
    ((0, 0), (0, 0), [[1, 1], [0, -1]], True),
    ((0,), (0,), [[0]], False),
    ((0,), (0, 0), [[1], [0]], False),  # not onto
    ((0, 0), (0,), [[1, 0]], False),  # not one to one
    ((), (), [], True),  # zero groups
]
PRESENTATION_CASES_FIELD = [
    ((0, 0), (0, 0), [[1, 1], [0, 2]], True),
]
PRESENTATION_CASES_Z = [
    ((0, 0), (0, 0), [[1, 1], [0, 2]], False),  # index 2: not onto
    ((2, 0), (2, 0), [[1, 1], [0, 1]], True),
    ((4,), (4,), [[3]], True),
    ((4,), (4,), [[2]], False),  # x2 on Z/4
    ((2,), (4,), [[2]], False),  # Z/2 -> Z/4: one to one, not onto
    ((0,), (2,), [[1]], False),  # Z -> Z/2: onto, not one to one
    ((4,), (2,), [[1]], False),  # Z/4 -> Z/2: onto, not one to one
]


@pytest.mark.parametrize("ring", [INT, RAT, ZMOD(3)], ids=str)
def test_is_presentation_iso_direct_cases(ring):
    cases = PRESENTATION_CASES_ANY_RING + (PRESENTATION_CASES_Z if ring == INT else PRESENTATION_CASES_FIELD)
    for src_orders, dst_orders, rows, expected in cases:
        src, dst = presented(ring, src_orders), presented(ring, dst_orders)
        m = Matrix(ring, dst.ngens, src.ngens, rows)
        assert homology._is_presentation_iso(m, src, dst) is expected, (src_orders, dst_orders, rows)


def test_ker_coker_isomorphism_gives_trivial_groups():
    rng = random.Random(114)
    xd = random_block_complex(rng, 0, 2)
    f = identity_map(xd.chain)
    rep = ker_coker_les(f)
    assert rep.exact
    for key, g in rep.groups.items():
        assert g.is_trivial, key


# ---------------------------------------------------------------------------
# Quasi-isomorphisms and the five lemma
# ---------------------------------------------------------------------------


def test_quasi_iso_basics():
    rng = random.Random(115)
    xd = random_block_complex(rng, 0, 3)
    assert quasi_iso(identity_map(xd.chain))
    c = circle_complex()
    f = ComplexMap(c, c, {0: Matrix.identity(INT, 1), 1: Matrix.from_rows(INT, [[2]])})
    assert not quasi_iso(f)


def test_quasi_iso_homotopy_perturbation_of_identity():
    rng = random.Random(116)
    for _ in range(10):
        xd = random_block_complex(rng, 0, 3)
        c = xd.chain
        hmats = random_degreewise(rng, c, c, degree_shift=1)

        def hcomp(n):
            m = hmats.get(n)
            return m if m is not None else Matrix.zeros(INT, c.rank(n + 1), c.rank(n))

        mats = {}
        for n in c.degrees():
            mats[n] = Matrix.identity(INT, c.rank(n)) - (hcomp(n - 1) @ c.diff(n) + c.diff(n + 1) @ hcomp(n))
        g = ComplexMap(c, c, mats)
        assert quasi_iso(g)


# ---------------------------------------------------------------------------
# Field elimination against the incremental-rank reference
# ---------------------------------------------------------------------------

FIELDS = [(RAT, None), (ZMOD(2), 2), (ZMOD(3), 3), (ZMOD(5), 5)]


def over_field(c: GradedComplex, ring) -> GradedComplex:
    diffs = {n: c.diff(n).change_ring(ring) for n in c.degrees() if c.diff(n).nrows and c.diff(n).ncols}
    return GradedComplex(ring, {n: c.rank(n) for n in c.degrees()}, diffs)


def from_columns(ring, nrows, cols):
    return Matrix(ring, nrows, len(cols), [[col[i] for col in cols] for i in range(nrows)])


@pytest.mark.parametrize("ring,p", FIELDS)
def test_field_homology_matches_greedy_reference(ring, p):
    rng = random.Random(f"field-homology-{ring}")
    for trial in range(10):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        c = xd.chain if trial % 2 else cone_of_map(random_chain_map(rng, xd, yd))
        cf = over_field(c, ring)
        degrees = range(cf.lo - 1, cf.hi + 2)
        betti = betti_numbers_field(
            {n: cf.rank(n) for n in degrees}, {n: cf.diff(n).to_lists() for n in degrees}, p
        )
        for n in degrees:
            data = homology_data(cf, n)
            kern = kernel_field(cf.diff(n))
            gens, base = greedy_quotient_field(kern.columns(), cf.diff(n + 1).columns(), p)
            assert data.group.generators == tuple(gens)
            assert data.boundary_gens.columns() == base
            assert data.group.free_rank == betti[n]


@pytest.mark.parametrize("ring,p", FIELDS)
def test_field_quotient_matches_greedy_reference_on_edge_shapes(ring, p):
    rng = random.Random(f"field-quotient-{ring}")

    def rand(m, n):
        return Matrix(ring, m, n, [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(m)])

    cases = [
        (0, rand(0, 3), rand(0, 2)),  # zero-rank ambient
        (4, rand(4, 0), rand(4, 0)),  # empty num and den
        (4, rand(4, 3), rand(4, 0)),  # empty den
    ]
    for _ in range(20):
        amb = rng.randrange(1, 6)
        num = rand(amb, rng.randrange(0, 6))
        cases.append((amb, num, num @ rand(num.ncols, rng.randrange(0, 5))))
    for amb, num, den in cases:
        data = _quotient_space_field(ring, amb, num, den)
        gens, base = greedy_quotient_field(num.columns(), den.columns(), p)
        assert data.group.generators == tuple(gens)
        assert data.gen_matrix.columns() == gens
        assert data.boundary_gens.columns() == base
        assert data.boundary_gens.shape == (amb, len(base))


@pytest.mark.parametrize("ring,p", FIELDS)
def test_field_subgroup_witness_matches_reference(ring, p):
    rng = random.Random(f"field-leq-{ring}")
    for _ in range(40):
        amb = rng.randrange(0, 5)
        bcols = [tuple(rng.randrange(-2, 3) for _ in range(amb)) for _ in range(rng.randrange(0, 4))]
        b = from_columns(ring, amb, bcols)
        inside = b @ Matrix(ring, b.ncols, 2, [[rng.randrange(-2, 3) for _ in range(2)] for _ in range(b.ncols)])
        acols = inside.columns() + [tuple(rng.randrange(-2, 3) for _ in range(amb)) for _ in range(rng.randrange(0, 3))]
        rng.shuffle(acols)
        a = from_columns(ring, amb, acols)
        want = first_column_outside_span(a.columns(), b.columns(), p)
        assert _subgroup_leq_field(a, b) == (want is None, want)


# ---------------------------------------------------------------------------
# Result guards raise InvalidChainMap, also under python -O
# ---------------------------------------------------------------------------


def test_quotient_group_int_guard_raises():
    # (1, 0) is outside ker [1 -1] = span (1, 1); 1 is outside the image 2Z of [2]
    two = Matrix.from_rows(INT, [[2]])
    cases = [
        (homology._kernel_lattice(Matrix.from_rows(INT, [[1, -1]])), Matrix.from_rows(INT, [[1], [0]])),
        ((two, homology._image_lattice(two)), Matrix.from_rows(INT, [[1]])),
    ]
    for (basis, num), den in cases:
        with pytest.raises(InvalidChainMap, match="denominator not contained"):
            homology._quotient_group_int(den.nrows, basis, num, den)


def test_kernel_complex_guard_raises(monkeypatch):
    c = GradedComplex(INT, {0: 1, 1: 1}, {1: Matrix.from_rows(INT, [[0]])})
    zero = ComplexMap(c, c, {})
    monkeypatch.setattr(homology, "_solve", lambda *args: None)
    with pytest.raises(InvalidChainMap, match="kernel complex not closed"):
        ker_coker_les(zero)


def test_kercoker_lift_guard_raises(monkeypatch):
    c = GradedComplex(INT, {0: 1}, {})
    f = ComplexMap(c, c, {0: Matrix.from_rows(INT, [[2]])})
    monkeypatch.setattr(homology, "_solve", lambda *args: None)
    with pytest.raises(InvalidChainMap, match="cokernel cycle does not lift"):
        ker_coker_les(f)


def test_kercoker_connecting_guard_raises(monkeypatch):
    # H_2(coker) has a generator whose lift lands in degree 0, where the
    # kernel complex is nonzero; only that last solve is made to fail
    x = GradedComplex(INT, {0: 1, 1: 1}, {})
    y = GradedComplex(INT, {1: 1, 2: 1}, {})
    f = ComplexMap(x, y, {})
    comps = [f.component(n) for n in range(-1, 4)]
    real_solve, real_kernel_complex = homology._solve, homology._kernel_complex
    armed = []

    def kernel_complex(g):
        out = real_kernel_complex(g)
        armed.append(True)
        return out

    def solve(ring, a, b):
        if armed and a not in comps:
            return None
        return real_solve(ring, a, b)

    monkeypatch.setattr(homology, "_kernel_complex", kernel_complex)
    monkeypatch.setattr(homology, "_solve", solve)
    with pytest.raises(InvalidChainMap, match="connecting image misses"):
        ker_coker_les(f)
