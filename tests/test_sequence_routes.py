"""Both long exact sequences give the same reports by their reads and by the earlier routes.

`les_of_cone` and `ker_coker_les` express all generators of a map with
one coordinate product, solve against a kernel or image basis through
the lattice of the form that gave it (over Z, for the maps f_n of
`ker_coker_les`, the +-1 pivot form `_unit_form`), decide image inside
kernel from the target's relations and read surjectivity off that form.
They also read each complex's invariants first and present only its
nonzero groups, over every ring; the cokernel's groups are those of the
cone of the inclusion im f -> Y.  Two routes of `oracles` keep the
earlier reads.  `PER_COLUMN_ROUTE` runs one `express` per generator, a
solve against each kernel and image basis (the library's bases, solved
against by their own Smith forms), a subgroup test for every image
inside its kernel and a solve of f_n X = I.  `EVERY_GROUP_ROUTE`
presents every group and tests exactness at every position.  Whole
reports must agree with both, groups, maps, positions, defects and
witnesses included, on the fixture maps and multiples of an identity
(0 to 4) over four rings, on the random simplicial maps of the tier-1
run and on sequences made not exact, so that the witness path runs.
The cokernel groups of `ker_coker_les` must be those of the presented
quotients Y_n / im f_n that `oracles._coker_homology_data` computes.

Over Z the library presents each nonzero group on a certified reduction
of its complex, and `EVERY_GROUP_ROUTE` presents every group of that
same reduction.  `UNREDUCED_ROUTE` presents on the complex itself, so its
generators differ: on the fixture maps, the multiples of the identity and
the random maps, its groups and positions must be the library's, and
every j_n, k_n and delta_n the library's up to the change of generators,
P_dst M_new = M_old P_src modulo the relations of the target, where P
expresses the library's generators in the unreduced route's and is an
isomorphism.
"""

import random

import pytest

from helpers import random_block_complex, random_chain_map, random_simplicial_map
from oracles import EVERY_GROUP_ROUTE, PER_COLUMN_ROUTE, UNREDUCED_ROUTE, _coker_homology_data
from relcone import homology
from relcone.chain import ComplexMap, cone_of_map, from_int_map
from relcone.coeffs import INT, parse_ring
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import _classes, _in_relations, ker_coker_les, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map

SEQUENCES = (les_of_cone, ker_coker_les)


ROUTES = {"per-column": PER_COLUMN_ROUTE, "every group": EVERY_GROUP_ROUTE}

# The complexes a sequence presents, in the order it presents them, and the
# ends of each map: (complex, degree offset) of its source and of its target.
SLOTS = {les_of_cone: ("X", "Y", "cone"), ker_coker_les: ("ker", "f", "coker")}
ENDS = {
    les_of_cone: {"j": (("Y", 0), ("cone", 0)), "k": (("cone", 0), ("X", -1)), "delta": (("X", -1), ("Y", -1))},
    ker_coker_les: {"j": (("ker", -1), ("f", 0)), "k": (("f", 0), ("coker", 0)), "delta": (("coker", 0), ("ker", -2))},
}


def presented(sequence, f, presentations):
    """The report of `sequence` on f by `presentations`, and {slot: the groups it presented there}."""
    seen = []

    def record(c, degrees, forms):
        seen.append(presentations(c, degrees, forms))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homology, "_presentations", record)
        report = sequence(f)
    return report, dict(zip(SLOTS[sequence], seen))


def same_by_every_route(sequence, f, where):
    """The report by the library's reads and its groups, after checking that each route in ROUTES gives it too."""
    got, groups = presented(sequence, f, homology._presentations)
    for route_name, route in ROUTES.items():
        with pytest.MonkeyPatch.context() as mp:
            for name, oracle in route.items():
                mp.setattr(homology, name, oracle)
            assert sequence(f) == got, (where, sequence.__name__, route_name)
    return got, groups


def change_of_generators(new, old):
    """P, the classes in `old` of the generators of `new`, checked to be an isomorphism by its inverse."""
    p = _classes(old, new.gen_matrix)
    q = _classes(new, old.gen_matrix)
    assert _in_relations(p @ q - Matrix.identity(INT, old.ngens), old.orders)
    assert _in_relations(q @ p - Matrix.identity(INT, new.ngens), new.orders)
    return p


def same_as_unreduced(sequence, f, new, new_groups, where):
    """The unreduced route gives the groups and positions of the report `new`, and its maps up to generators."""
    old, old_groups = presented(sequence, f, UNREDUCED_ROUTE["_presentations"])

    def shape(p):
        return p.label, p.exact, p.defect, p.group.free_rank, p.group.torsion

    assert {k: (g.free_rank, g.torsion) for k, g in new.groups.items()} == {k: (g.free_rank, g.torsion) for k, g in old.groups.items()}, where
    assert list(map(shape, new.positions)) == list(map(shape, old.positions)), where
    assert new.maps.keys() == old.maps.keys()
    change = {}

    def p(slot, n):
        if (slot, n) not in change:
            change[slot, n] = change_of_generators(new_groups[slot][n], old_groups[slot][n])
        return change[slot, n]

    for name, m in new.maps.items():
        kind, n = name.rsplit("_", 1)
        (src, i), (dst, j) = ENDS[sequence][kind]
        gap = p(dst, int(n) + j) @ m - old.maps[name] @ p(src, int(n) + i)
        assert _in_relations(gap, old_groups[dst][int(n) + j].orders), (where, sequence.__name__, name)


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
            got, groups = same_by_every_route(sequence, f, name)
            if ring == "Z":
                same_as_unreduced(sequence, f, got, groups, name)


def test_random_maps_report_the_same_by_both_routes():
    torsion = 0
    for s in range(200):
        f = chain_map(random_simplicial_map(random.Random(s)), parse_ring("Z"))
        for sequence in SEQUENCES:
            got, groups = same_by_every_route(sequence, f, s)
            same_as_unreduced(sequence, f, got, groups, s)
            torsion += any(g.torsion for g in got.groups.values())
    assert torsion >= 50  # the reports are compared on torsion too


def test_the_inclusion_cone_has_the_cokernel_groups():
    for name, count, floor in [("Z", 200, 1300), ("Q", 40, 400), ("Zmod:2", 40, 400), ("Zmod:3", 40, 400)]:
        ring = parse_ring(name)
        rng = random.Random(4200)
        maps = [chain_map(phi, ring) for _, phi in fixture_maps()] + [f for _, f in scaled_identities(ring)]
        maps += [chain_map(random_simplicial_map(random.Random(s)), ring) for s in range(count)]
        for _ in range(20):
            xd, yd = random_block_complex(rng, 0, 2), random_block_complex(rng, 0, 2)
            maps.append(from_int_map(random_chain_map(rng, xd, yd), ring))
        groups = zero = torsion = 0
        for f in maps:
            report = ker_coker_les(f)
            cone = cone_of_map(f)
            for n in range(cone.lo - 1, cone.hi + 2):
                got, want = report.groups[f"H_{n}(coker)"], _coker_homology_data(f, n, {}).group
                assert (got.free_rank, got.torsion, got.ring) == (want.free_rank, want.torsion, want.ring), (name, f, n)
                groups += 1
                zero += got.is_trivial
                torsion += bool(got.torsion)
        assert groups > floor and groups - zero > 30, (name, groups, zero)
        assert torsion > 10 if name == "Z" else torsion == 0, (name, torsion)


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
                got, _ = same_by_every_route(sequence, f, name)
                defects.update(p.defect.partition(";")[0] for p in got.positions if not p.exact)
    assert defects == {"image not contained in kernel", "kernel class not hit"}
