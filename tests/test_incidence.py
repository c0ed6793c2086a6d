"""One incidence builder fills every simplex-indexed matrix.

Boundaries, pushforwards, the signed prisms and the cone comparison map
are compared with the separate loops kept in `oracles.py`, each with its
own index lookup and orientation sign; the one-pass facets with the
all-pairs scan; and the cone space built from
the cylinder's generating family with the one read back from a built
cylinder.  Inputs: the fixture complexes and maps, seeded degree maps
with shuffled vertex orders, tori T(3)-T(5), spheres, RP^2 and a
mixed-dimension complex with an isolated vertex, over Z, Q and Zmod:2, 3 and 4,
augmented and not (the maps' cone-space chains over Z and Zmod:n only).  Build counts pin that the cone space builds one
complex and no map.

Chains over Q and Zmod:n are the integer chains carried by n -> n.1, with
no second check; they are compared, entry types included, with a direct
build over the ring that runs its own d d = 0 and chain-map checks, and a
corrupted incidence entry (in a complex, a cone space or a chain map) or a
wrong homotopy must still be refused over every ring.
"""

import random
from itertools import combinations

import pytest

import oracles
from helpers import identity_simplicial, seeded_degree_map, torus
from relcone import simplicial
from relcone.chain import ComplexMap, GradedComplex, Homotopy, cone_of_map, mat_ring
from relcone.coeffs import INT, RAT, ZMOD
from relcone.errors import InvalidChainMap, InvalidHomotopy
from relcone.fixtures import fixture_registry, projective_plane, suspension
from relcone.matrix import Matrix, from_int_matrix
from relcone.simplicial import (
    SimplicialComplex,
    SimplicialMap,
    _comparison_map,
    _incidence,
    _prism_terms,
    chain_complex,
    chain_map,
    mapping_cone_space,
    mapping_cylinder,
    pushforward_matrices,
)

RINGS = [INT, RAT, ZMOD(2), ZMOD(3), ZMOD(4)]


def boundary_sphere(d):
    """S^d as the boundary of the (d+1)-simplex, on a shuffled vertex order."""
    verts = [f"s{i}" for i in range(d + 2)]
    return SimplicialComplex(random.Random(d).sample(verts, len(verts)), combinations(verts, d + 1))


def mixed_complex():
    """A triangle, two edges, a dangling edge and an isolated vertex, on a shuffled order."""
    facets = [("a", "b", "c"), ("c", "d"), ("b", "d"), ("f", "a"), ("e",)]
    return SimplicialComplex(["d", "a", "e", "c", "f", "b"], facets)


def scrambled(k, rng):
    return SimplicialComplex(rng.sample(k.vertices, len(k.vertices)), k.facets())


def complexes():
    out = {name: build() for name, (kind, build) in fixture_registry().items() if kind == "complex"}
    out.update({f"T({n})": torus(n) for n in (3, 4, 5)})
    out.update({f"S{d}": boundary_sphere(d) for d in (1, 2, 3)})
    out["susp rp2"] = suspension(projective_plane())
    out["rp2"] = projective_plane()
    out["mixed"] = mixed_complex()
    return out


def maps():
    rng = random.Random(2024)
    out = {name: build() for name, (kind, build) in fixture_registry().items() if kind == "map"}
    out.update({f"seeded d{d}": seeded_degree_map(rng, d) for d in range(1, 5)})
    t = torus(3)
    out["T(3) relabel"] = SimplicialMap(scrambled(t, rng), t, {v: v for v in t.vertices})
    mixed = mixed_complex()
    fold = {"a": "a", "b": "b", "c": "c", "d": "a", "e": "e", "f": "b"}
    out["mixed fold"] = SimplicialMap(mixed, scrambled(mixed, rng), fold)
    out["S2 collapse"] = SimplicialMap(boundary_sphere(2), mixed, {v: "e" for v in boundary_sphere(2).vertices})
    out["rp2 identity"] = identity_simplicial(projective_plane())
    return out


def spaces():
    """Every complex above, plus each map's cylinder and cone space."""
    out = complexes()
    for name, phi in maps().items():
        out[f"cyl {name}"] = mapping_cylinder(phi)[0]
        out[f"cone space {name}"] = mapping_cone_space(phi)
    return out


def stored(x):
    """A complex or chain map as plain data, each entry with its type (1 == Fraction(1) in Python)."""
    entries = lambda m: tuple((type(v), v) for r in m.rows for v in r)
    if isinstance(x, GradedComplex):
        return (str(x.ring), x._ranks, tuple(entries(x.diff(n)) for n in range(x.lo, x.hi + 2)))
    return (stored(x.src), stored(x.dst), tuple(entries(x.component(n)) for n in x.degrees()))


def test_facets_match_the_all_pairs_scan():
    for name, k in spaces().items():
        assert k.facets() == oracles.facets_by_scan(k), name


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_chain_complexes_match_the_row_loop(ring, augmented):
    for name, k in complexes().items():
        assert stored(chain_complex(k, ring, augmented)) == stored(oracles.chain_complex_by_rows(k, ring, augmented)), name
    if ring == RAT:
        return  # the oracle's Fraction d d check of the cone spaces below takes 10 s; Z and Zmod:n cover them
    for name, phi in maps().items():
        k = mapping_cone_space(phi)
        assert stored(chain_complex(k, ring, augmented)) == stored(oracles.chain_complex_by_rows(k, ring, augmented)), name


@pytest.mark.parametrize("augmented", [False, True])
@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_chain_maps_match_a_checked_build_over_the_ring(ring, augmented):
    """The carried map equals the one built over the ring from the row loops, with every check run there."""
    for name, phi in maps().items():
        mats = oracles.pushforward_by_rows(phi, ring)
        if augmented:
            mats[-1] = Matrix.identity(mat_ring(ring), 1)
        src = oracles.chain_complex_by_rows(phi.src, ring, augmented)
        dst = oracles.chain_complex_by_rows(phi.dst, ring, augmented)
        assert stored(chain_map(phi, ring, augmented)) == stored(ComplexMap(src, dst, mats)), name


def bump(m):
    """m with entry (0, 0) raised by one."""
    rows = [list(r) for r in m.rows]
    rows[0][0] += 1
    return Matrix(m.ring, m.nrows, m.ncols, rows)


def single_entry(ring, nrows, ncols):
    """The nrows x ncols matrix over `ring` with a 1 at (0, 0) and zeros elsewhere."""
    return Matrix(ring, nrows, ncols, [[int(i == j == 0) for j in range(ncols)] for i in range(nrows)])


@pytest.mark.parametrize("ring", [RAT, ZMOD(2), ZMOD(3), ZMOD(4)], ids=str)
def test_a_corrupted_entry_is_refused_over_every_ring(monkeypatch, ring):
    """The checks that run over Z still guard the chains and maps read over Q and Zmod:n.

    Each refusal names its identity and the first degree where it fails,
    in the words the dense products gave.
    """
    real_incidence, real_push = simplicial._incidence, simplicial.pushforward_matrices

    def corrupted(k, n, columns):  # every d_2 gets one wrong entry
        m = real_incidence(k, n, columns)
        return bump(m) if n == 1 else m

    monkeypatch.setattr(simplicial, "_incidence", corrupted)
    spaces = [torus(3), projective_plane(), mapping_cone_space(seeded_degree_map(random.Random(7), 2))]
    for k in spaces:
        for augmented in (False, True):
            with pytest.raises(InvalidChainMap, match="^d d != 0 at degree 2$"):
                chain_complex(k, ring, augmented)
    monkeypatch.undo()
    monkeypatch.setattr(simplicial, "pushforward_matrices", lambda phi: {**real_push(phi), 1: bump(real_push(phi)[1])})
    for phi in (identity_simplicial(projective_plane()), seeded_degree_map(random.Random(7), 2)):
        with pytest.raises(InvalidChainMap, match="^d f != f d at degree 1$"):
            chain_map(phi, ring)
    monkeypatch.undo()
    f = chain_map(identity_simplicial(projective_plane()), ring)
    mr = mat_ring(ring)
    Homotopy(f, f)  # h = 0 joins f to itself
    for n in (0, 1):  # h_n sends the first n-simplex to the first (n+1)-simplex
        with pytest.raises(InvalidHomotopy, match=f"^h d \\+ d h != f - g at degree {n}$"):
            Homotopy(f, f, {n: single_entry(mr, f.dst.rank(n + 1), f.src.rank(n))})


def prisms(phi, ambient, ring):
    """The signed prisms of the comparison map, one `_incidence` call per degree, read over `ring`."""
    terms = lambda n: [_prism_terms(phi, ambient, phi.src.labels(s)) for s in phi.src.simplices(n)]
    return {n: from_int_matrix(_incidence(ambient, n + 1, terms(n)), ring) for n in range(phi.src.dim + 1)}


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_pushforwards_and_prisms_match_their_loops(ring):
    for name, phi in maps().items():
        pushed = {n: from_int_matrix(m, ring) for n, m in pushforward_matrices(phi).items()}
        assert pushed == oracles.pushforward_by_rows(phi, ring), name
        for ambient in (mapping_cylinder(phi)[0], mapping_cone_space(phi)):
            assert prisms(phi, ambient, ring) == oracles.prism_operator_by_columns(phi, ambient, ring), name


def test_comparison_maps_match_the_prism_column_sums():
    for name, phi in maps().items():
        space = mapping_cone_space(phi)
        conea = cone_of_map(chain_map(phi, INT, augmented=True))
        assert _comparison_map(phi, space, conea.hi) == oracles.comparison_map_by_prism(phi, space, conea), name


def test_cone_spaces_match_the_cylinder_read_back():
    for name, phi in maps().items():
        space, want = mapping_cone_space(phi), oracles.mapping_cone_space_via_cylinder(phi)
        assert (space, space.facets()) == (want, want.facets()), name


def count_inits(monkeypatch, cls):
    calls = []
    real = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_cone_space_builds_one_complex_and_no_map(monkeypatch):
    for phi in maps().values():
        complexes_made = count_inits(monkeypatch, SimplicialComplex)
        maps_made = count_inits(monkeypatch, SimplicialMap)
        simplicial.mapping_cone_space(phi)
        assert (len(complexes_made), len(maps_made)) == (1, 0)
        monkeypatch.undo()
