"""Each derived object has one construction, checked against the other.

The cochain cone is the chain cone re-sliced; it is compared with the
block assembly kept in `oracles.py` on seeded cochain maps, their duals
and the pullback of every fixture and star cover map, over Z, Zmod:2
and U1, and a Cech cone build is pinned to make no matrix products.
Integer solving and membership read lattice coordinates; they are
compared with the row-by-row division by the Smith diagonal kept in
`oracles.py` on zero, rank-deficient, wide and tall matrices.  A
modular solver, built from one Smith form of [A | kI] and reused for
every right-hand side, is compared with a fresh solve of the augmented
system per call.
"""

import random

import pytest

from helpers import random_block_complex, random_chain_map
from oracles import cochain_cone_by_blocks, solve_int_mod, solve_int_via_diagonal
from relcone.cech import star_cover_map
from relcone.chain import ComplexMap, cone_of_cochain_map, dual_map, from_int_complex
from relcone.coeffs import INT, U1, ZMOD
from relcone.errors import ShapeMismatch
from relcone.fixtures import fixture_registry, suspension_cover_map
from relcone.homology import _subgroup_leq_int, member_int, mod_solver, snf, solve_int
from relcone.matrix import Matrix, from_int_matrix

RINGS = [INT, ZMOD(2), U1]


def over(f: ComplexMap, ring) -> ComplexMap:
    """An integer chain map read over `ring`."""
    mats = {n: from_int_matrix(f.component(n), ring) for n in f.degrees()}
    return ComplexMap(from_int_complex(f.src, ring), from_int_complex(f.dst, ring), mats, validate=False)


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
        assert cone_of_cochain_map(g) == cochain_cone_by_blocks(g), name


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_cochain_cone_matches_block_assembly_on_cover_map_pullbacks(ring):
    for name, m in cover_maps().items():
        f = m.view.cone_map(ring)
        assert cone_of_cochain_map(f) == cochain_cone_by_blocks(f), name


def test_a_cech_cone_build_makes_no_matrix_products(monkeypatch):
    m = suspension_cover_map()
    view = m.view  # compiling the view checks its matrices, with products
    calls = []
    real = Matrix.__matmul__

    def counted(self, other):
        calls.append((self.shape, other.shape))
        return real(self, other)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    assert view.cone.total_rank() > 0
    assert cone_of_cochain_map(view.cone_map(U1)).total_rank() > 0
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
        s = snf(a)
        for k in (1, 2, 3):
            for b in right_hand_sides(rng, a, k):
                want = solve_int_via_diagonal(a, b)
                assert solve_int(a, b) == want == solve_int(a, b, s), (a, b)
                if want is not None:
                    assert a @ want == b
                seen.add(want is None)
        with pytest.raises(ShapeMismatch):
            solve_int(a, Matrix.zeros(INT, a.nrows + 1, 1), s)
    assert seen == {True, False}


def test_member_int_and_subgroup_test_match_diagonal_division():
    rng, mats = seeded_matrices()
    verdicts = set()
    witnesses = set()
    for b_gens in mats:
        s = snf(b_gens)
        for rhs in right_hand_sides(rng, b_gens, 3):
            cols = rhs.columns()
            members = [solve_int_via_diagonal(b_gens, Matrix.column(INT, c)) is not None for c in cols]
            assert [member_int(b_gens, c) for c in cols] == members
            assert [member_int(b_gens, c, s) for c in cols] == members
            want = (True, None) if all(members) else (False, cols[members.index(False)])
            assert _subgroup_leq_int(rhs, b_gens) == want
            verdicts.update(members)
            witnesses.add(members.index(False) if not all(members) else None)
    assert verdicts == {True, False}
    assert {0, 1} <= witnesses


def test_mod_solver_matches_a_fresh_augmented_solve():
    rng, mats = seeded_matrices()
    seen = set()
    for a in mats:
        for k in (1, 2, 4, 6, 9):
            solver = mod_solver(a, k)  # one Smith form, reused for every right-hand side below
            for ncols in (1, 2):
                for b in right_hand_sides(rng, a, ncols):
                    want = solve_int_mod(a, b, k)
                    assert solver.solve(b) == want, (a, b, k)
                    if want is not None:
                        assert all(x % k == 0 for row in (a @ want - b).rows for x in row)
                    seen.add((k == 1, want is None))
            with pytest.raises(ShapeMismatch):
                solver.solve(Matrix.zeros(INT, a.nrows + 1, 1))
            with pytest.raises(ShapeMismatch):
                solve_int_mod(a, Matrix.zeros(INT, a.nrows + 1, 1), k)
    assert seen == {(True, False), (False, False), (False, True)}  # k = 1 always solves
    with pytest.raises(ShapeMismatch, match="modulus must be positive"):
        mod_solver(mats[3], 0)
