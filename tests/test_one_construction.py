"""Each derived object has one construction, checked against the other.

The cochain cone is assembled block by block, [[-d_Y, f], [0, d_X]]; it
is compared with the chain cone re-sliced, kept in `oracles.py`, on
seeded cochain maps, their duals and the pullback of every fixture and
star cover map, over Z, Zmod:2 and U1, and a Cech cone build is pinned
to make no matrix products.
Integer solving and membership read lattice coordinates; they are
compared with the row-by-row division by the Smith diagonal kept in
`oracles.py` on zero, rank-deficient, wide and tall matrices.  The
direct angle solve over Q/Z, which reads one Smith form of A for every
right-hand side, is compared with a fresh solve of [A | kI] per call,
some of the matrices having elementary divisors other than 1.
"""

import random
from fractions import Fraction as F
from math import lcm

import pytest

import oracles
from helpers import random_block_complex, random_chain_map
from oracles import cochain_cone_by_reslice, solve_int_via_diagonal
from relcone.cech import star_cover_map
from relcone.chain import ComplexMap, cone_of_cochain_map, dual_map, from_int_complex
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.errors import ShapeMismatch
from relcone.fixtures import fixture_registry, suspension_cover_map
from relcone.homology import Solver, _subgroup_leq, snf, solve
from relcone.matrix import Matrix, from_int_matrix
from relcone.simplicial import chain_map

RINGS = [INT, ZMOD(2), U1]


def over(f: ComplexMap, ring) -> ComplexMap:
    """An integer chain map read over `ring`."""
    mats = {n: from_int_matrix(f.component(n), ring) for n in f.degrees()}
    return ComplexMap._of(from_int_complex(f.src, ring), from_int_complex(f.dst, ring), mats)


def seeded_maps():
    rng = random.Random(4242)
    out = []
    for i in range(8):
        lo = rng.randrange(-4, 1)
        xd = random_block_complex(rng, lo, lo + rng.randrange(1, 4))
        yd = random_block_complex(rng, lo, lo + rng.randrange(1, 4))
        f = random_chain_map(rng, xd, yd)
        out += [(f"seeded {i}", f), (f"seeded dual {i}", dual_map(f))]
    return out


def cover_maps():
    out = {}
    for name, (kind, build) in fixture_registry().items():
        if kind == "covermap":
            out[name] = build()
        elif kind == "map":
            out[f"star {name}"] = star_cover_map(build())
    return out


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_cochain_cone_matches_block_assembly_on_seeded_maps(ring):
    for name, f in seeded_maps():
        g = over(f, ring)
        assert cone_of_cochain_map(g) == cochain_cone_by_reslice(g), name


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_cochain_cone_matches_block_assembly_on_cover_map_pullbacks(ring):
    for name, m in cover_maps().items():
        f = dual_map(chain_map(m.nerve_map, ring))
        assert cone_of_cochain_map(f) == cochain_cone_by_reslice(f), name


def test_a_cech_cone_build_makes_no_matrix_products(monkeypatch):
    m = suspension_cover_map()
    f = dual_map(chain_map(m.nerve_map, U1))
    calls = []
    real = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.shape, other.shape))
        return real(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert m.cone.total_rank() > 0  # the map builds its cone, and checks the pushforward, here
    assert cone_of_cochain_map(f).total_rank() > 0
    assert calls == []


# ---------------------------------------------------------------------------
# Integer solving and membership
# ---------------------------------------------------------------------------


def random_matrix(rng, m, n, bound=3):
    return Matrix(INT, m, n, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def seeded_matrices():
    """Zero, rank-deficient, wide and tall integer matrices, some with torsion in their cokernel."""
    rng = random.Random(9001)
    out = [Matrix.zeros(INT, 3, 2), Matrix.zeros(INT, 0, 2), Matrix.zeros(INT, 2, 0)]
    for _ in range(6):
        m, n, r = rng.randint(2, 5), rng.randint(2, 5), rng.randint(1, 2)
        out.append(random_matrix(rng, m, r) @ random_matrix(rng, r, n))  # rank at most r
    for _ in range(4):
        out.append(random_matrix(rng, 2, rng.randint(3, 5)))  # wide
        out.append(random_matrix(rng, rng.randint(3, 5), 2))  # tall
        out.append(random_matrix(rng, 3, 3).zscale(rng.choice([2, 3, 4])))
    return rng, out


def right_hand_sides(rng, a, k):
    """Members a @ x, and shifted or random columns that are often not."""
    member = a @ random_matrix(rng, a.ncols, k)
    return [member, member + random_matrix(rng, a.nrows, k, 1), random_matrix(rng, a.nrows, k)]


def test_solve_int_matches_diagonal_division():
    rng, mats = seeded_matrices()
    seen = set()
    for a in mats:
        solver = Solver(a)
        for k in (1, 2, 3):
            for b in right_hand_sides(rng, a, k):
                want = solve_int_via_diagonal(a, b)
                assert solve(a, b) == want == solver.solve(b), (a, b)
                if want is not None:
                    assert a @ want == b
                seen.add(want is None)
        with pytest.raises(ShapeMismatch):
            solver.solve(Matrix.zeros(INT, a.nrows + 1, 1))
    assert seen == {True, False}


def test_member_int_and_subgroup_test_match_diagonal_division():
    rng, mats = seeded_matrices()
    verdicts = set()
    witnesses = set()
    for b_gens in mats:
        solver = Solver(b_gens)
        for rhs in right_hand_sides(rng, b_gens, 3):
            cols = rhs.columns()
            members = [solve_int_via_diagonal(b_gens, Matrix.column(INT, c)) is not None for c in cols]
            assert [solver.solve(Matrix.column(INT, c)) is not None for c in cols] == members
            want = (True, None) if all(members) else (False, cols[members.index(False)])
            assert _subgroup_leq(rhs, b_gens) == want
            verdicts.update(members)
            witnesses.add(members.index(False) if not all(members) else None)
    assert verdicts == {True, False}
    assert {0, 1} <= witnesses


def rational_targets(rng, a):
    """Images a @ x of rational x (always solvable mod 1), one shifted at random, and a random rational vector."""
    def rational(n):
        return [F(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n)]

    image = list(a.zapply(RAT, rational(a.ncols)))
    return [image, [x + y for x, y in zip(image, rational(a.nrows))], rational(a.nrows)]


def test_solve_mod_one_matches_the_augmented_route():
    """One Smith form of A answers A w = c (mod 1) for every c, as a fresh [A | kI] solve per c decides."""
    rng, mats = seeded_matrices()
    seen = set()
    for a in mats:
        diag = snf(a).diag
        exponent = lcm(1, *(d for d in diag if d))
        solver = Solver(a)  # one Smith form, reused for every right-hand side below
        for _ in range(3):
            for c in rational_targets(rng, a):
                got = solver.solve_mod_one(c)
                want = oracles.solve_mod_one(a, c, exponent)
                assert (got is None) == (want is None), (a, c)
                for w in (got, want):
                    if w is not None:
                        assert all((x - y).denominator == 1 for x, y in zip(a.zapply(RAT, w), c)), (a, c, w)
                seen.add((exponent > 1, got is None))
        with pytest.raises(ShapeMismatch):
            solver.solve_mod_one([F(0)] * (a.nrows + 1))
    assert seen == {(True, False), (True, True), (False, False), (False, True)}
