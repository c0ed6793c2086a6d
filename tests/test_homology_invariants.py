"""`homology_invariants`: rank and torsion from one reduction per differential.

The invariant-only verbs (`homology`, `cone`, `cone-space`, `cech`) print
what this routine returns.  It is checked against answers that do not
come from it: the construction of seeded block complexes, the
presentation path `homology_at`, Smith diagonals from minor gcds, and
Betti numbers by plain Gaussian elimination.  Counting tests pin one
`smith_diagonal` per differential, shared by the two degrees that read
it, and no `snf` or `homology_data` call.
"""

import io
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest

from helpers import count_calls, random_block_complex, random_chain_map
from oracles import betti_numbers_field, smith_diagonal_via_minors
from relcone import cli, homology
from relcone.chain import GradedComplex, cone_of_map, from_int_complex
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.errors import UnsupportedRing
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import homology_at, homology_invariants
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, mapping_cone_space

FIELDS = [(RAT, None), (ZMOD(2), 2), (ZMOD(3), 3)]


def as_pair(g):
    return (g.free_rank, g.torsion)


def block_inputs(seed, count):
    """`count` seeded block complexes with their known groups, and after every third the cone of a map out of it."""
    rng = random.Random(seed)
    for trial in range(count):
        xd = random_block_complex(rng, rng.randrange(-2, 1), rng.randrange(1, 4))
        yield xd.chain, xd.expected_homology
        if trial % 3 == 0:
            yield cone_of_map(random_chain_map(rng, xd, random_block_complex(rng, 0, 3))), None


def test_integer_groups_match_the_construction_and_the_presentation():
    checked = 0
    for c, expected in block_inputs("invariants-z", 210):
        degrees = list(range(c.lo - 1, c.hi + 2))
        got = homology_invariants(c, degrees)
        assert list(got) == degrees
        for n in degrees:
            assert as_pair(got[n]) == as_pair(homology_at(c, n)), n
            if expected is not None:
                assert as_pair(got[n]) == expected(n), n
        checked += expected is not None
    assert checked == 210


def test_integer_torsion_matches_minor_gcds_on_small_differentials():
    rng = random.Random("invariants-minors")
    seen = 0
    for _ in range(120):
        c = random_block_complex(rng, 0, 2, max_free=1, max_pairs=2, kmax=12).chain
        for n in range(c.lo, c.hi + 1):
            up = c.diff(n + 1)
            if not (up.nrows and up.ncols) or min(up.shape) > 4:
                continue
            want = tuple(d for d in smith_diagonal_via_minors(up.to_lists()) if d >= 2)
            assert homology_invariants(c, [n])[n].torsion == want
            seen += 1
    assert seen >= 100


@pytest.mark.parametrize("ring,p", FIELDS, ids=["Q", "Zmod:2", "Zmod:3"])
def test_field_ranks_match_gaussian_elimination(ring, p):
    for c, _ in block_inputs(f"invariants-{ring}", 45):
        degrees = list(range(c.lo - 1, c.hi + 2))
        betti = betti_numbers_field({n: c.rank(n) for n in degrees}, {n: c.diff(n).to_lists() for n in degrees}, p)
        got = homology_invariants(from_int_complex(c, ring), degrees)
        assert {n: g.free_rank for n, g in got.items()} == betti
        assert all(g.torsion == () for g in got.values())


def test_empty_and_gapped_complexes():
    empty = GradedComplex(INT, {}, {})
    assert homology_invariants(empty, [-1, 0, 1]) == {-1: (0, ()), 0: (0, ()), 1: (0, ())}
    assert homology_invariants(empty, []) == {}
    # ranks only at -2, 3 and 4, with d_4 = [2 4]: nothing links the gap
    gapped = GradedComplex(INT, {-2: 2, 3: 1, 4: 2}, {4: Matrix(INT, 1, 2, [[2, 4]])})
    got = homology_invariants(gapped, range(-3, 6))
    assert {n: as_pair(g) for n, g in got.items()} == {n: as_pair(homology_at(gapped, n)) for n in range(-3, 6)}
    assert as_pair(got[-2]) == (2, ()) and as_pair(got[3]) == (0, (2,)) and as_pair(got[4]) == (1, ())


@pytest.mark.parametrize("ring", [ZMOD(4), ZMOD(6), U1], ids=str)
def test_unsupported_rings_refuse_with_the_presentation_message(ring):
    c = chain_complex(projective_plane(), ring)
    with pytest.raises(UnsupportedRing) as want:
        homology_at(c, 0)
    with pytest.raises(UnsupportedRing) as got:
        homology_invariants(c, [0])
    assert str(got.value) == str(want.value)
    assert homology_invariants(c, []) == {}  # nothing asked, nothing refused, as before


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("fx"))
    assert run_cli("fixtures", "emit", "--out", out)[0] == 0
    return out


def test_degree_outside_the_range_prints_no_group(fx):
    for verb, name in [("homology", "rp2"), ("cone", "fix-d2"), ("cone-space", "fix-d2"), ("cech", "covermap-disk")]:
        for ring in ("Z", "Q", "Zmod:4"):
            code, out, _ = run_cli(verb, "--ring", ring, "--degree", "17", f"{fx}/{name}.json")
            assert code == 0 and '"H":{}' in out, (verb, ring)


@pytest.mark.parametrize("ring,message", [
    ("Zmod:4", "relcone: error: homology over Zmod:4 is not supported (composite modulus)\n"),
    ("U1", "relcone: error: homology over the circle group is undefined; use classify on an angle "
           "cocycle: its Bockstein class lies one degree up in integer cohomology\n"),
], ids=["Zmod:4", "U1"])
def test_cli_refusals_are_one_line_and_exit_one(fx, ring, message):
    for verb, name in [("homology", "rp2"), ("cone", "fix-d2"), ("cone-space", "fix-d2"), ("cech", "covermap-disk"),
                       ("les", "fix-d2"), ("kercoker", "fix-d2")]:
        assert run_cli(verb, "--ring", ring, f"{fx}/{name}.json") == (1, "", message), verb


def degrees_of(calls, c, window):
    """The degree n of the differential d_n of c that each call reduced."""
    return sorted(n for (m,) in calls for n in window if c.diff(n) == m)


def test_cone_space_reduces_each_differential_of_its_window_once(monkeypatch, fx):
    space = mapping_cone_space(fixture_registry()["fix-d3"][1]())
    reduced = chain_complex(space, INT, augmented=True)
    window = range(0, space.dim + 2)  # degrees 0..dim read d_0..d_(dim+1)
    diagonals = count_calls(monkeypatch, homology, "smith_diagonal")
    smiths = count_calls(monkeypatch, homology, "snf")
    presentations = count_calls(monkeypatch, homology, "homology_data")
    assert run_cli("cone-space", f"{fx}/fix-d3.json")[0] == 0
    nonempty = [n for n in window if reduced.diff(n).nrows and reduced.diff(n).ncols]
    assert nonempty == list(range(0, space.dim + 1))  # d_(dim+1) has no columns and needs no form
    assert len(diagonals) == len(nonempty)
    assert degrees_of(diagonals, reduced, window) == nonempty
    assert smiths == [] and presentations == []


def test_homology_at_one_degree_reduces_its_two_differentials(monkeypatch, fx):
    c = chain_complex(projective_plane(), INT)
    diagonals = count_calls(monkeypatch, homology, "smith_diagonal")
    smiths = count_calls(monkeypatch, homology, "snf")
    presentations = count_calls(monkeypatch, homology, "homology_data")
    code, out, _ = run_cli("homology", "--degree", "1", f"{fx}/rp2.json")
    assert (code, out) == (0, '{"H":{"1":{"rank":0,"torsion":[2]}}}\n')
    assert degrees_of(diagonals, c, range(0, 4)) == [1, 2]
    assert len(diagonals) == 2
    assert smiths == [] and presentations == []
