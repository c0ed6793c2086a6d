"""Codec round-trips and canonical-bytes checks for the JSON layer."""

import pytest

from helpers import chain_map_to_json, identity_simplicial
from relcone import jsonio
from relcone.coeffs import INT, RAT, ZMOD
from relcone.errors import ParseError
from relcone.fixtures import (
    degree_map,
    disk_inclusion,
    fixture_registry,
    half_gerbe_cocycle,
    projective_plane,
)
from relcone.simplicial import chain_complex, chain_map


@pytest.mark.parametrize("ring", [INT, RAT, ZMOD(5)])
def test_complex_roundtrip(ring):
    c = chain_complex(projective_plane(), ring)
    back = jsonio.complex_from_json(jsonio.loads(jsonio.dumps(jsonio.complex_to_json(c))))
    assert back == c


def test_chain_map_roundtrip():
    f = chain_map(degree_map(3), INT)
    back = jsonio.chain_map_from_json(jsonio.loads(jsonio.dumps(chain_map_to_json(f))))
    assert back.src == f.src and back.dst == f.dst
    assert all(back.component(n) == f.component(n) for n in f.degrees())


def test_simplicial_map_roundtrip_with_integer_labels():
    phi = identity_simplicial(projective_plane())
    back = jsonio.simplicial_map_from_json(jsonio.simplicial_map_to_json(phi))
    assert back == phi
    assert all(isinstance(v, int) for v in back.src.vertices)


def test_every_fixture_roundtrips():
    parsers = {
        "complex": jsonio.simplicial_from_json,
        "map": jsonio.simplicial_map_from_json,
        "cover": jsonio.cover_from_json,
        "covermap": jsonio.cover_map_from_json,
        "cocycle": jsonio.cocycle_from_json,
        "pair": jsonio.pair_from_json,
        "form": jsonio.form_from_json,
    }
    for name, (kind, build) in fixture_registry().items():
        obj = build()
        text = jsonio.dumps(jsonio.fixture_to_json(kind, obj))
        back = parsers[kind](jsonio.loads(text))
        if kind == "form":
            omega, phi = back
            assert (phi, omega) == obj, name
            again = jsonio.dumps(jsonio.form_to_json(phi, omega))
        elif kind == "pair":
            assert (back.phi, back.alpha, back.beta) == (obj.phi, obj.alpha, obj.beta), name
            again = jsonio.dumps(jsonio.pair_to_json(back))
        else:
            assert back == obj, name
            again = jsonio.dumps(jsonio.fixture_to_json(kind, back))
        assert again == text, name


def test_cocycle_keeps_kind_and_rejects_unknown():
    g = half_gerbe_cocycle()
    doc = jsonio.cocycle_to_json(g)
    assert doc["kind"] == "gerbe"
    assert jsonio.cocycle_from_json(doc) == g
    doc["kind"] = "bundle-gerbe-module"
    with pytest.raises(ParseError):
        jsonio.cocycle_from_json(doc)


def test_dumps_is_insertion_order_independent():
    a = {"b": 1, "a": [2, 3]}
    b = {"a": [2, 3], "b": 1}
    assert jsonio.dumps(a) == jsonio.dumps(b) == '{"a":[2,3],"b":1}\n'


def test_scalars_survive_nonint_rings():
    from fractions import Fraction

    from relcone.matrix import Matrix

    m = Matrix.from_rows(RAT, [[Fraction(1, 3), Fraction(-2)]])
    rows = jsonio.matrix_rows(m)
    assert rows == [["1/3", "-2/1"]]
    assert jsonio.matrix_from_rows(RAT, rows, "m") == m

    z = Matrix.from_rows(ZMOD(7), [[3, 6]])
    back = jsonio.matrix_from_rows(ZMOD(7), jsonio.matrix_rows(z), "z")
    assert back == z


def test_malformed_inputs_raise_parse_errors():
    with pytest.raises(ParseError):
        jsonio.loads("{nope")
    with pytest.raises(ParseError):
        jsonio.complex_from_json({"ring": "Z", "ranks": {"0": "x"}, "diff": {}})
    with pytest.raises(ParseError):
        jsonio.complex_from_json({"ring": "Z", "ranks": {"0": 1, "1": 1}, "diff": {"1": [[1, 2]]}})
    with pytest.raises(ParseError):
        jsonio.cover_from_json({"sets": ["a", "b"], "intersections": [[0, "b"]]})
    with pytest.raises(ParseError):
        # d d != 0 is an input error, not a crash
        jsonio.complex_from_json(
            {"ring": "Z", "ranks": {"0": 1, "1": 1, "2": 1}, "diff": {"1": [[1]], "2": [[1]]}}
        )
    err = None
    try:
        jsonio.loads('{"a": }')
    except ParseError as e:
        err = e
    assert err is not None and err.line == 1 and err.col is not None
