"""A zero group that a long exact sequence reads off the invariants keeps its cycle test.

Over Z, `les_of_cone` and `ker_coker_les` present no zero group: it has
no generators, and its lattice only tests whether a vector is a cycle.
For X, Y, the cone and the kernel complex that test is d_n v = 0; for the
cokernel it is "d_n y lies in im f_(n-1)", read through the Smith form
of f_(n-1).  Each zero group must accept and refuse the same vectors as
the full presentation, with the same InvalidChainMap, and a cokernel
whose image complex cannot be read is refused on the command line too.
"""

import random
from types import SimpleNamespace

import pytest

from helpers import random_simplicial_map, random_vector
from relcone import cli, homology
from relcone.coeffs import INT
from relcone.errors import InvalidChainMap, RelconeError
from relcone.fixtures import fixture_registry
from relcone.homology import _classes, _coker_homology_data, homology_data, ker_coker_les, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_map

NOT_A_CYCLE = "vector is not a cycle modulo boundaries"


def integer_maps():
    maps = [chain_map(build(), INT) for kind, build in fixture_registry().values() if kind == "map"]
    return maps + [chain_map(random_simplicial_map(random.Random(s)), INT) for s in range(40)]


def recording(monkeypatch, name):
    """Record (argument, degree, HomologyData) for every group `homology.name` presents from here on."""
    seen = []
    real = getattr(homology, name)

    def record(arg, degrees, forms):
        out = real(arg, degrees, forms)
        seen.extend((arg, n, data) for n, data in out.items())
        return out

    monkeypatch.setattr(homology, name, record)
    return seen


def outcome(fn, vec):
    try:
        return "ok", fn(vec)
    except RelconeError as e:
        return type(e), str(e)


def test_a_zero_group_refuses_what_is_not_a_cycle(monkeypatch):
    rng = random.Random(4300)
    seen = recording(monkeypatch, "_presentations")
    for f in integer_maps():
        les_of_cone(f)
        ker_coker_les(f)
    refused = accepted = 0
    for c, n, data in seen:
        if data.ngens:
            continue
        full = homology_data(c, n)
        assert full.group.is_trivial and data.group == full.group
        boundary = c.diff(n + 1).apply(random_vector(rng, c.rank(n + 1)))
        for vec in (random_vector(rng, c.rank(n)), boundary):
            got = outcome(data.express, vec)
            assert got == outcome(full.express, vec), (c, n, vec)
            assert got[0] == "ok" or got == (InvalidChainMap, NOT_A_CYCLE)
            if any(c.diff(n).apply(vec)):
                refused += 1
                with pytest.raises(InvalidChainMap, match=NOT_A_CYCLE):
                    _classes(data, [vec])
            else:
                accepted += 1
                assert _classes(data, [vec]) == Matrix.zeros(INT, 0, 1)
    assert refused > 100 and accepted > 100, (refused, accepted)


def test_a_zero_cokernel_group_refuses_what_misses_the_image(monkeypatch):
    rng = random.Random(4301)
    seen = recording(monkeypatch, "_coker_presentations")
    for f in integer_maps():
        ker_coker_les(f)
    refused = accepted = through_image = 0
    for f, n, data in seen:
        if data.ngens:
            continue
        full = _coker_homology_data(f, n, {})
        assert full.group.is_trivial and data.group == full.group
        y = f.dst
        # a boundary plus an image: d_n of it lies in im f_(n-1)
        lifted = f.component(n).apply(random_vector(rng, f.src.rank(n)))
        boundary = y.diff(n + 1).apply(random_vector(rng, y.rank(n + 1)))
        for vec in (random_vector(rng, y.rank(n)), tuple(a + b for a, b in zip(lifted, boundary))):
            got = outcome(data.express, vec)
            assert got == outcome(full.express, vec), (f, n, vec)
            if got[0] == "ok":
                accepted += 1
                through_image += any(y.diff(n).apply(vec))  # no cycle of Y, yet a cycle mod im f
                assert _classes(data, [vec]) == Matrix.zeros(INT, 0, 1)
            else:
                refused += 1
                assert got == (InvalidChainMap, NOT_A_CYCLE)
                with pytest.raises(InvalidChainMap, match=NOT_A_CYCLE):
                    _classes(data, [vec])
    assert refused > 30 and accepted > 100 and through_image > 30, (refused, accepted, through_image)


def refuse_every_image_read(monkeypatch):
    """Make every coordinate read in the column span of a Smith form fail."""
    monkeypatch.setattr(homology, "_image_lattice", lambda s: SimpleNamespace(coords=lambda x: None))


def test_an_image_that_cannot_be_read_is_refused(monkeypatch):
    f = chain_map(fixture_registry()["fix-d2"][1](), INT)
    refuse_every_image_read(monkeypatch)
    with pytest.raises(InvalidChainMap, match="image of f is not a subcomplex"):
        ker_coker_les(f)


def test_an_image_that_cannot_be_read_exits_one_with_one_line(tmp_path, capsys, monkeypatch):
    assert cli.main(["fixtures", "emit", "--out", str(tmp_path)]) == 0
    refuse_every_image_read(monkeypatch)
    capsys.readouterr()
    assert cli.main(["kercoker", str(tmp_path / "fix-d2.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "relcone: error: image of f is not a subcomplex\n"
