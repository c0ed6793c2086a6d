"""Integer sequences present their groups on a certified reduction of each complex.

Over Z, `les_of_cone` and `ker_coker_les` present every nonzero group on
the complex left after cancelling +-1 incidences (`homology._reduced`),
read back through the chain maps f and g of that reduction;
`test_sequence_routes.py` compares the reports with the route that
presents on the complex itself (`oracles.UNREDUCED_ROUTE`).  Here: a
reduction leaves no +-1 entry and keeps the invariants, a complex with
no +-1 entry is presented on itself, equal complexes of one sequence are
reduced once while complexes with the same matrices in other degrees are
reduced apart, and a reduction engine that flips the sign of an entry of
g, or drops a pair without its Schur update, is refused by the
certificate, and on the command line as exit 1 with one line.
"""

import json
import random

import pytest

from helpers import random_block_complex, torus
from oracles import UNREDUCED_ROUTE
from relcone import cli, homology, jsonio
from relcone.chain import ComplexMap, GradedComplex, cone_of_map
from relcone.coeffs import INT
from relcone.errors import InvalidChainMap
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import ker_coker_les, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map


def fixture_maps():
    return [(name, chain_map(build(), INT)) for name, (kind, build) in fixture_registry().items() if kind == "map"]


def test_a_reduction_is_certified_and_leaves_no_unit():
    rng = random.Random(4400)
    complexes = [chain_complex(torus(3), INT), chain_complex(projective_plane(), INT)]
    complexes += [random_block_complex(rng, 0, 3).chain for _ in range(6)]
    complexes += [cone_of_map(f) for _, f in fixture_maps()]
    shrunk = 0
    for c in complexes:
        red = homology._reduced(c, {})
        if red is None:
            continue
        small = red.small
        shrunk += small.total_rank() < c.total_rank()
        assert not [x for n in small.degrees() for r in small.diff(n).rows for x in r if x in (1, -1)], c
        degrees = range(c.lo - 1, c.hi + 2)
        assert homology.homology_invariants(small, degrees) == homology.homology_invariants(c, degrees)
    assert shrunk > 10


def test_a_complex_with_no_unit_is_presented_on_itself():
    c = GradedComplex(INT, {0: 1, 1: 1}, {1: Matrix.from_rows(INT, [[2]])})
    assert homology._reduced(c, {}) is None
    for k in (0, 1, 3):
        f = ComplexMap(c, c, {0: Matrix.from_rows(INT, [[k]]), 1: Matrix.from_rows(INT, [[k]])})
        for sequence in (les_of_cone, ker_coker_les):
            got = sequence(f)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(homology, "_presentations", UNREDUCED_ROUTE["_presentations"])
                assert sequence(f) == got


def test_equal_complexes_of_one_sequence_are_reduced_once(monkeypatch):
    calls = []
    real = homology._unit_reduction
    monkeypatch.setattr(homology, "_unit_reduction", lambda c: calls.append(c) or real(c))
    c = chain_complex(torus(3), INT)
    les_of_cone(ComplexMap(c, c, {n: Matrix.identity(INT, c.rank(n)) for n in c.degrees()}))
    assert calls == [c]  # X and Y are equal and reduced once; the cone is acyclic and not reduced


# The zero map from X, with d_1 = (1, -1)^T in degrees 0..1, to the same complex one degree up
SHIFTED = {
    "src": {"ring": "Z", "ranks": {"0": 2, "1": 1}, "diff": {"1": [[1], [-1]]}},
    "dst": {"ring": "Z", "ranks": {"1": 2, "2": 1}, "diff": {"2": [[1], [-1]]}},
    "mat": {},
}


def test_complexes_with_equal_differentials_in_other_degrees_are_reduced_apart(tmp_path, capsys):
    f = jsonio.chain_map_from_json(SHIFTED)
    assert f.src.lo != f.dst.lo and f.src.diff(1) == f.dst.diff(2)
    for sequence in (les_of_cone, ker_coker_les):
        got = sequence(f)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_presentations", UNREDUCED_ROUTE["_presentations"])
            assert sequence(f) == got, sequence.__name__
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(SHIFTED))
    for verb in ("les", "kercoker"):
        assert cli.main([verb, str(path)]) == 0, verb
        assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------------
# Engines the certificate must refuse
# ---------------------------------------------------------------------------


# the library's engine and pivot search, as the mutants below wrap them
REAL_REDUCTION, REAL_PIVOTS = homology._unit_reduction, homology._unit_pivots


def flipping(entry):
    """A reduction engine that negates the `entry`-th nonzero entry of g, counted over degrees in order."""

    def engine(c):
        diffs, f, g = REAL_REDUCTION(c)
        at = [(n, i, j) for n in sorted(g) for i, r in enumerate(g[n].rows) for j, x in enumerate(r) if x]
        n, i, j = at[entry % len(at)]
        rows = [list(r) for r in g[n].rows]
        rows[i][j] = -rows[i][j]
        g[n] = Matrix(INT, g[n].nrows, g[n].ncols, rows)
        return diffs, f, g

    return engine


def dropping_a_pair(rows):
    """`_unit_pivots` that takes its first pivot with a nonzero Schur update, but skips the update."""
    for p, r in enumerate(rows):
        for j, u in r.items():
            if u in (1, -1) and len(r) > 1 and any(j in q for i, q in enumerate(rows) if i != p):
                kept = rows[p]
                rows[p] = {}
                for q in rows:
                    q.pop(j, None)
                pivots, ops = REAL_PIVOTS(rows)
                rows[p] = kept
                return [(p, j)] + pivots, ops
    return REAL_PIVOTS(rows)


def without_schur_updates():
    """A reduction engine whose pivot search is `dropping_a_pair`; `smith_diagonal` keeps the real one."""

    def engine(c):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(homology, "_unit_pivots", dropping_a_pair)
            return REAL_REDUCTION(c)

    return engine


def to_nothing(c):
    """A reduction engine that pairs every cell away: g f = 1 holds on the empty complex."""
    return {}, {n: Matrix.zeros(INT, c.rank(n), 0) for n in c.degrees()}, {n: Matrix.zeros(INT, 0, c.rank(n)) for n in c.degrees()}


REFUSED = "reduction: |d d != 0|d f != f d"


def test_every_sign_flip_in_g_is_refused(monkeypatch):
    for name in ("fix-d2", "fix-susp-d2"):
        f = chain_map(fixture_registry()[name][1](), INT)
        entries = sum(1 for m in REAL_REDUCTION(f.src)[2].values() for r in m.rows for x in r if x)
        assert entries > 3, name
        for entry in range(entries):
            monkeypatch.setattr(homology, "_unit_reduction", flipping(entry))
            with pytest.raises(InvalidChainMap, match=REFUSED):
                les_of_cone(f)


def test_a_pair_dropped_without_its_schur_update_is_refused(monkeypatch):
    monkeypatch.setattr(homology, "_unit_reduction", without_schur_updates())
    for name in ("fix-d2", "fix-susp-d2", "fix-disk"):
        f = chain_map(fixture_registry()[name][1](), INT)
        with pytest.raises(InvalidChainMap, match=REFUSED):
            les_of_cone(f)


def test_a_reduction_that_loses_homology_is_refused(monkeypatch):
    monkeypatch.setattr(homology, "_unit_reduction", to_nothing)
    for name in ("fix-d2", "fix-susp-d2"):
        f = chain_map(fixture_registry()[name][1](), INT)
        with pytest.raises(InvalidChainMap, match="reduction: the reduced complex has other homology"):
            les_of_cone(f)


@pytest.mark.parametrize(
    "engine",
    [lambda: flipping(0), without_schur_updates, lambda: to_nothing],
    ids=["sign flip in g", "no Schur update", "no cell left"],
)
def test_a_refused_reduction_exits_one_with_one_line(engine, tmp_path, capsys, monkeypatch):
    assert cli.main(["fixtures", "emit", "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(homology, "_unit_reduction", engine())
    capsys.readouterr()
    assert cli.main(["les", str(tmp_path / "fix-d2.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("relcone: error: ") and captured.err.count("\n") == 1, captured.err
