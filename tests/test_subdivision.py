"""Subdivision maps: a known answer for both long exact sequences.

The last-vertex map lambda: sd(K) -> K, and every seeded choice of a
vertex per barycentre, is a simplicial approximation of the identity of
|K|, so its cone is acyclic over every ring.  `les` and `kercoker` must
then be exact with every H_n(cone) and H_n(f) zero, and so must every
cone invariant over Z, Q, Zmod:2 and Zmod:3.  The algebraic cone must
match the cone space (`compare_cones(lambda).iso`), and the star cover
map of lambda must have every relative Cech group 0 over Z and Zmod:2.
"""

import random
from math import factorial

import pytest

from helpers import last_vertex_map, subdivision
from relcone.cech import relative_cone_complex, star_cover_map
from relcone.chain import cone_of_map
from relcone.coeffs import INT, parse_ring
from relcone.fixtures import cycle_complex, projective_plane, suspension
from relcone.homology import homology_invariants, ker_coker_les, les_of_cone
from relcone.simplicial import chain_map, compare_cones

COMPLEXES = {
    "rp2": projective_plane,
    "circle": lambda: cycle_complex(3),
    "suspended circle": lambda: suspension(cycle_complex(3)),
}


def subdivision_maps(k):
    """The last-vertex map of sd(K) -> K and a seeded choice of vertex per barycentre."""
    return [("last", last_vertex_map(k)), ("seed 1", last_vertex_map(k, random.Random(1)))]


@pytest.mark.parametrize("name", list(COMPLEXES))
def test_subdivision_multiplies_top_simplices_by_a_factorial(name):
    k = COMPLEXES[name]()
    sd = subdivision(k)
    assert sd.dim == k.dim
    assert sd.n_rank(k.dim) == factorial(k.dim + 1) * k.n_rank(k.dim)
    assert sd.n_rank(0) == sum(k.n_rank(n) for n in range(k.dim + 1))


@pytest.mark.parametrize("name", list(COMPLEXES))
def test_subdivision_maps_have_acyclic_cones(name):
    """The algebraic cone over every ring, and the relative Cech cone of the star cover map over Z and Zmod:2."""
    for choice, phi in subdivision_maps(COMPLEXES[name]()):
        cones = [(ring, cone_of_map(chain_map(phi, parse_ring(ring)))) for ring in ("Z", "Q", "Zmod:2", "Zmod:3")]
        cones += [(f"Cech {ring}", relative_cone_complex(star_cover_map(phi), parse_ring(ring))) for ring in ("Z", "Zmod:2")]
        for ring, cone in cones:
            invariants = homology_invariants(cone, range(cone.lo - 1, cone.hi + 2))
            assert all(g == (0, ()) for g in invariants.values()), (choice, ring, invariants)
        assert compare_cones(phi).iso, choice


@pytest.mark.parametrize("name", list(COMPLEXES))
def test_both_sequences_of_a_subdivision_map_are_exact_with_zero_cone(name):
    for choice, phi in subdivision_maps(COMPLEXES[name]()):
        f = chain_map(phi, INT)
        for sequence, cone_label in ((les_of_cone, "(cone)"), (ker_coker_les, "(f)")):
            report = sequence(f)
            assert report.exact, (choice, sequence.__name__)
            cone_groups = [g for label, g in report.groups.items() if label.endswith(cone_label)]
            assert cone_groups and all(g.is_trivial for g in cone_groups), (choice, sequence.__name__)
