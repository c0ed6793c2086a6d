"""Both long exact sequences give the same reports by their reads and by the earlier routes.

`les_of_cone` and `ker_coker_les` express all generators of a map with
one coordinate product, solve against a kernel basis through the
lattice of the Smith form that gave it, decide image inside kernel
from the target's relations and read surjectivity off a Smith form.
Over Z they also read each complex's invariants first and present only
its nonzero groups; the cokernel's invariants come from the cone of the
inclusion im f -> Y.  Two routes of `oracles` keep the earlier reads.
`PER_COLUMN_ROUTE` runs one `express` per generator, a solve against
each kernel basis, a subgroup test for every image inside its kernel
and a solve of f_n X = I.  `EVERY_GROUP_ROUTE` presents every group and
tests exactness at every position.  Whole reports must agree with both,
groups, maps, positions, defects and witnesses included, on the fixture
maps and multiples of an identity (0 to 4) over four rings, on the
random simplicial maps of the tier-1 run and on sequences made not
exact, so that the witness path runs.  The cone of the inclusion
im f -> Y must have the invariants of the cokernel's presented groups.
"""

import random

import pytest

from helpers import random_block_complex, random_chain_map, random_simplicial_map
from oracles import EVERY_GROUP_ROUTE, PER_COLUMN_ROUTE
from relcone import homology
from relcone.chain import ComplexMap, cone_of_map
from relcone.coeffs import INT, parse_ring
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import _coker_homology_data, _image_inclusion, homology_invariants, ker_coker_les, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map

SEQUENCES = (les_of_cone, ker_coker_les)


ROUTES = {"per-column": PER_COLUMN_ROUTE, "every group": EVERY_GROUP_ROUTE}


def same_by_every_route(sequence, f, where):
    """The report by the library's reads, after checking that each route in ROUTES gives it too."""
    got = sequence(f)
    for route_name, route in ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            for name, oracle in route.items():
                mp.setattr(homology, name, oracle)
            assert sequence(f) == got, (where, sequence.__name__, route_name)
    return got


def fixture_maps():
    return [(name, build()) for name, (kind, build) in fixture_registry().items() if kind == "map"]


def scaled_identities(ring):
    """k times the identity of RP^2's chains: onto over Z only for k = 1; every f_n has full rank unless k = 0 (im f = 0)."""
    c = chain_complex(projective_plane(), ring)
    return [(f"{k} on rp2", ComplexMap(c, c, {n: Matrix.identity(ring, c.rank(n)).zscale(k) for n in c.degrees()})) for k in (0, 1, 2, 3, 4)]


@pytest.mark.parametrize("ring", ["Z", "Q", "Zmod:2", "Zmod:3"])
def test_fixture_maps_report_the_same_by_both_routes(ring):
    maps = [(name, chain_map(phi, parse_ring(ring))) for name, phi in fixture_maps()] + scaled_identities(parse_ring(ring))
    for name, f in maps:
        for sequence in SEQUENCES:
            same_by_every_route(sequence, f, name)


def test_random_maps_report_the_same_by_both_routes():
    torsion = 0
    for s in range(200):
        f = chain_map(random_simplicial_map(random.Random(s)), parse_ring("Z"))
        for sequence in SEQUENCES:
            got = same_by_every_route(sequence, f, s)
            torsion += any(g.torsion for g in got.groups.values())
    assert torsion >= 50  # the reports are compared on torsion too


def test_the_inclusion_cone_has_the_cokernel_groups():
    rng = random.Random(4200)
    maps = [chain_map(phi, INT) for _, phi in fixture_maps()] + [f for _, f in scaled_identities(INT)]
    maps += [chain_map(random_simplicial_map(random.Random(s)), INT) for s in range(200)]
    for _ in range(20):
        xd, yd = random_block_complex(rng, 0, 2), random_block_complex(rng, 0, 2)
        maps.append(random_chain_map(rng, xd, yd))
    groups = zero = torsion = 0
    for f in maps:
        cone = cone_of_map(f)
        degrees = range(cone.lo - 2, cone.hi + 2)
        invariants = homology_invariants(cone_of_map(_image_inclusion(f, {})), degrees)
        for n in degrees:
            group = _coker_homology_data(f, n, {}).group
            assert invariants[n] == (group.free_rank, group.torsion), (f, n)
            groups += 1
            zero += group.is_trivial
            torsion += bool(group.torsion)
    assert groups > 1500 and 0 < groups - zero and torsion > 10, (groups, zero, torsion)


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
                got = same_by_every_route(sequence, f, name)
                defects.update(p.defect.partition(";")[0] for p in got.positions if not p.exact)
    assert defects == {"image not contained in kernel", "kernel class not hit"}
