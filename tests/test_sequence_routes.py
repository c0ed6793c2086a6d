"""Both long exact sequences give the same reports by their batched reads and by the per-column route.

`les_of_cone` and `ker_coker_les` express all generators of a map with
one coordinate product, solve against a kernel basis through the
lattice of the Smith form that gave it, decide image inside kernel
from the target's relations and read surjectivity off a Smith form.
`oracles.PER_COLUMN_ROUTE` keeps the earlier reads: one `express` per
generator, a solve against each kernel basis, a subgroup test for every
image inside its kernel and a solve of f_n X = I.  Whole reports must
agree, groups, maps, positions, defects and witnesses included, on the
fixture maps and multiples of an identity over four rings, on the
random simplicial maps of the tier-1 run and on sequences made not
exact, so that the witness path runs.
"""

import random

import pytest

from helpers import random_simplicial_map
from oracles import PER_COLUMN_ROUTE
from relcone import homology
from relcone.chain import ComplexMap
from relcone.coeffs import parse_ring
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import ker_coker_les, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map

SEQUENCES = (les_of_cone, ker_coker_les)


def both_routes(sequence, f):
    """(report by the library's reads, report by the per-column route)."""
    batched = sequence(f)
    with pytest.MonkeyPatch.context() as mp:
        for name, oracle in PER_COLUMN_ROUTE.items():
            mp.setattr(homology, name, oracle)
        return batched, sequence(f)


def fixture_maps():
    return [(name, build()) for name, (kind, build) in fixture_registry().items() if kind == "map"]


def scaled_identities(ring):
    """k times the identity of RP^2's chains: onto over Z only for k = 1, though every f_n has full rank."""
    c = chain_complex(projective_plane(), ring)
    return [(f"{k} on rp2", ComplexMap(c, c, {n: Matrix.identity(ring, c.rank(n)).zscale(k) for n in c.degrees()})) for k in (1, 2, 3)]


@pytest.mark.parametrize("ring", ["Z", "Q", "Zmod:2", "Zmod:3"])
def test_fixture_maps_report_the_same_by_both_routes(ring):
    maps = [(name, chain_map(phi, parse_ring(ring))) for name, phi in fixture_maps()] + scaled_identities(parse_ring(ring))
    for name, f in maps:
        for sequence in SEQUENCES:
            got, want = both_routes(sequence, f)
            assert got == want, (name, sequence.__name__)


def test_random_maps_report_the_same_by_both_routes():
    torsion = 0
    for s in range(200):
        f = chain_map(random_simplicial_map(random.Random(s)), parse_ring("Z"))
        for sequence in SEQUENCES:
            got, want = both_routes(sequence, f)
            assert got == want, (s, sequence.__name__)
            torsion += any(g.torsion for g in got.groups.values())
    assert torsion >= 50  # the reports are compared on torsion too


def bump(m):
    """m with 1 added to its first entry: a delta that j need not kill."""
    rows = [list(r) for r in m.rows]
    if rows and rows[0]:
        rows[0][0] = m.ring.add(rows[0][0], m.ring.one())
    return Matrix(m.ring, m.nrows, m.ncols, rows)


@pytest.mark.parametrize("ring", ["Z", "Q", "Zmod:3"])
def test_sequences_made_not_exact_report_the_same_witnesses(monkeypatch, ring):
    real = homology._assemble_les
    defects = set()
    for change in (lambda m: m.zscale(0), bump):

        def assemble(*args, change=change):
            *head, delta, forms = args
            return real(*head, lambda n: change(delta(n)), forms)

        monkeypatch.setattr(homology, "_assemble_les", assemble)
        for name, phi in fixture_maps():
            f = chain_map(phi, parse_ring(ring))
            for sequence in SEQUENCES:
                got, want = both_routes(sequence, f)
                assert got == want, (name, sequence.__name__)
                defects.update(p.defect.partition(";")[0] for p in got.positions if not p.exact)
    assert defects == {"image not contained in kernel", "kernel class not hit"}
