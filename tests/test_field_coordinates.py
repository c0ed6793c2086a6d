"""Over Q and Z/p a group expresses cycles by the same lattice path as over Z.

A field `HomologyData` keeps the cycle lattice of one RREF of d_n (a
cycle's coordinates are its free entries) and, as `to_gens`, the
generators' pivot rows of the RREF of [boundaries | cycle basis].
`express` and `_classes` must give what the earlier route gives, one
RREF of [generators | boundaries | v] per vector
(`oracles.express_via_solve_field`), on random cycles of random block
complexes and of the X, Y and cone of every fixture map, over Q, Z/2,
Z/3 and Z/5; a vector that is not a cycle must be refused with the same
InvalidChainMap by both.  Inside one long exact sequence the table of
forms (see `snf`) keeps the field reductions too, the ranks that
`homology_invariants` reads among them, so no blocks are eliminated
twice in one sequence.
"""

import random
from collections import Counter

import pytest

from helpers import random_block_complex, random_chain_map, random_vector
from oracles import express_via_solve_field
from relcone import homology
from relcone.chain import cone_of_map, from_int_complex
from relcone.coeffs import RAT, ZMOD, parse_ring
from relcone.errors import InvalidChainMap, RelconeError
from relcone.fixtures import fixture_registry
from relcone.homology import _classes, homology_data, ker_coker_les, kernel_int, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_map

FIELDS = (RAT, ZMOD(2), ZMOD(3), ZMOD(5))
NOT_A_CYCLE = "vector is not a cycle modulo boundaries"


def field_complexes(ring):
    """(name, complex) over `ring`: random block complexes and their map cones, and X, Y and the cone of each fixture map."""
    rng = random.Random(f"field-coordinates-{ring}")
    out = []
    for i in range(6):
        xd, yd = random_block_complex(rng, 0, 3), random_block_complex(rng, 0, 3)
        out.append((f"block {i}", from_int_complex(xd.chain, ring)))
        out.append((f"block cone {i}", from_int_complex(cone_of_map(random_chain_map(rng, xd, yd)), ring)))
    for name, (kind, build) in fixture_registry().items():
        if kind == "map":
            f = chain_map(build(), ring)
            out += [(f"X of {name}", f.src), (f"Y of {name}", f.dst), (f"cone of {name}", cone_of_map(f))]
    return rng, out


def outcome(fn, vec):
    try:
        return "ok", fn(vec)
    except RelconeError as e:
        return type(e), str(e)


@pytest.mark.parametrize("ring", FIELDS, ids=str)
def test_field_express_and_classes_match_the_solve_route(ring):
    rng, complexes = field_complexes(ring)
    expressed = refused = 0
    for name, c in complexes:
        for n in range(c.lo - 1, c.hi + 2):
            data = homology_data(c, n)
            basis, up = kernel_int(c.diff(n)), c.diff(n + 1)
            cycles = list(data.group.generators)
            for _ in range(3):
                z = basis.apply(random_vector(rng, basis.ncols))
                b = up.apply(random_vector(rng, up.ncols))
                cycles.append(tuple(ring.add(x, y) for x, y in zip(z, b)))
            want = [express_via_solve_field(data, v) for v in cycles]
            assert [data.express(v) for v in cycles] == want, (name, n)
            assert _classes(data, Matrix.from_columns(ring, c.rank(n), cycles)) == Matrix.from_columns(ring, data.ngens, want), (name, n)
            expressed += len(cycles)
            vec = random_vector(rng, c.rank(n))
            got = outcome(data.express, vec)
            assert got == outcome(lambda v: express_via_solve_field(data, v), vec), (name, n, vec)
            if got[0] != "ok":
                assert got == (InvalidChainMap, NOT_A_CYCLE)
                with pytest.raises(InvalidChainMap, match=NOT_A_CYCLE):
                    _classes(data, Matrix.from_columns(ring, c.rank(n), cycles + [vec]))
                refused += 1
    assert expressed > 300 and refused > 20, (expressed, refused)


def recording_eliminations(monkeypatch):
    """Record the blocks of every `_rref` that eliminates (no table, or one that does not answer it); count the answered."""
    done, answered = [], Counter()
    real = homology._rref

    def rref(*mats, forms=None):
        if forms is not None and mats in forms:
            answered[mats] += 1
        else:
            done.append(mats)
        return real(*mats, forms=forms)

    monkeypatch.setattr(homology, "_rref", rref)
    return done, answered


@pytest.mark.parametrize("ring", ["Q", "Zmod:3"])
def test_a_sequence_eliminates_no_field_matrix_twice_for_one_purpose(monkeypatch, ring):
    """No blocks are eliminated twice in one sequence, the ranks of the invariants included.

    With those ranks outside the table, 22 of the 174 eliminations of
    `les_of_cone` over Q on these maps repeated one already made.
    """
    maps = [(name, chain_map(build(), parse_ring(ring))) for name, (kind, build) in fixture_registry().items() if kind == "map"]
    assert len(maps) == 10
    done, answered = recording_eliminations(monkeypatch)
    for name, f in maps:
        for sequence in (les_of_cone, ker_coker_les):
            done.clear()
            sequence(f)
            again = [mats for mats, k in Counter(done).items() if k > 1]
            assert done and again == [], (name, sequence.__name__, [[m.shape for m in mats] for mats in again])
    assert sum(answered.values()) > 100  # the table answers what would be eliminated again
