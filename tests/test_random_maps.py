"""The algebraic cone, the cone space and both long exact sequences agree on seeded random simplicial maps.

For each map phi from `helpers.random_simplicial_map`, `compare_cones(phi)`
must certify an isomorphism in every degree, and in every degree its
algebraic group (from the augmented cone), its reduced cone-space group
and the invariants of the plain algebraic cone cone(phi_*) must be the
same group.  With the sequence check on, `les_of_cone` and
`ker_coker_les` of phi_* must also be exact, and the H_n(cone) groups of
the `les` report must be the plain cone's invariants.  A disagreement
names its seed and prints the map as JSON.

The generator glues a degree-p circle map (p = 2, 3 or 5) into about two
maps in five, so their cones have torsion; the tier-1 test checks that
at least a quarter of its maps have torsion and that some of it is odd.
The tier-1 test runs 200 maps, the first 50 with the sequence check.  A
longer run, every map with the sequence check, is

    PYTHONPATH=src python tests/test_random_maps.py --seed 11 --count 3000

which prints every failure and a count, and exits 1 on any failure.
"""

import argparse
import json
import random
import sys
import time

import pytest

from helpers import double_the_cone_comparison, random_simplicial_map, suspended_degree_map
from relcone import homology, jsonio
from relcone.chain import cone_of_map
from relcone.coeffs import INT
from relcone.errors import RelconeError
from relcone.fixtures import degree_map, suspended_degree_two
from relcone.homology import homology_invariants, ker_coker_les, les_of_cone
from relcone.simplicial import chain_map, compare_cones


def disagreement(phi, sequences=True):
    """None when the routes agree on phi; otherwise what differs."""
    rep = compare_cones(phi)
    if not rep.iso:
        return f"no certified isomorphism: strict chain map {rep.strict_chain_map}, degrees {sorted(rep.degrees)}"
    f = chain_map(phi, INT)
    cone = cone_of_map(f)
    around = range(cone.lo - 1, cone.hi + 2)  # the degrees of both sequence reports
    plain = homology_invariants(cone, sorted(set(rep.degrees).union(around)))
    for n, d in rep.degrees.items():
        if not d.algebraic == d.reduced == plain[n]:
            return f"degree {n}: algebraic {d.algebraic}, reduced {d.reduced}, plain cone {plain[n]}"
    if not sequences:
        return None
    try:
        reports = les_of_cone(f), ker_coker_les(f)
    except RelconeError as e:
        return f"sequence raised {type(e).__name__}: {e}"
    for report in reports:
        for p in report.positions:
            if not p.exact:
                return f"{report.kind} sequence not exact at {p.label}: {p.defect}"
    for n in around:
        g = reports[0].groups[f"H_{n}(cone)"]
        if (g.free_rank, g.torsion) != plain[n]:
            return f"les H_{n}(cone) is {g.describe()}, plain cone {plain[n]}"
    return None


def check(seed, count, sequences=True):
    """The failure lines of maps seed, seed + 1, ..., one map per seed."""
    failures = []
    for s in range(seed, seed + count):
        phi = random_simplicial_map(random.Random(s))
        why = disagreement(phi, sequences)
        if why:
            failures.append(f"seed {s}: {why}; map {json.dumps(jsonio.simplicial_map_to_json(phi))}")
    return failures


def test_three_routes_agree_on_random_maps():
    assert check(seed=0, count=50) == []
    assert check(seed=50, count=150, sequences=False) == []


def test_a_quarter_of_the_maps_have_torsion_and_some_of_it_is_odd():
    """The routes are compared on torsion too, not only on free ranks."""
    torsion = []
    for s in range(200):
        cone = cone_of_map(chain_map(random_simplicial_map(random.Random(s)), INT))
        groups = homology_invariants(cone, range(cone.lo, cone.hi + 1))
        torsion.append([d for g in groups.values() for d in g.torsion])
    assert sum(1 for t in torsion if t) >= 50
    assert any(d % 2 for t in torsion for d in t)


@pytest.mark.parametrize(
    "phi,torsion",
    [(degree_map(3), {1: (3,)}), (degree_map(5), {1: (5,)}), (suspended_degree_map(3), {2: (3,)})],
    ids=["d3", "d5", "susp-d3"],
)
def test_every_route_agrees_where_the_cone_has_torsion(phi, torsion):
    """H_1(cone) = Z/p for the degree-p circle map and H_2(cone) = Z/3 for its suspension (so H^3(f; Z) = Z/3)."""
    assert disagreement(phi) is None
    cone = cone_of_map(chain_map(phi, INT))
    groups = homology_invariants(cone, range(cone.lo, cone.hi + 1))
    assert {n: g.torsion for n, g in groups.items() if g.torsion} == torsion


def test_a_sequence_that_is_not_exact_is_a_disagreement(monkeypatch):
    real = homology.connecting_hom
    monkeypatch.setattr(homology, "connecting_hom", lambda *args: real(*args).zscale(2))
    assert disagreement(degree_map(3)).startswith("cone sequence not exact at H_0(Y): ")


def test_the_suspended_degree_map_generalizes_the_fixture():
    assert suspended_degree_map(2) == suspended_degree_two()


def test_a_disagreement_names_its_seed_and_map(monkeypatch):
    double_the_cone_comparison(monkeypatch)  # 2 l: no isomorphism wherever a group is not 0
    failures = check(seed=0, count=10)
    assert failures
    for line in failures:
        head, _, text = line.partition("; map ")
        seed = int(head.split(":")[0].removeprefix("seed "))
        assert jsonio.simplicial_map_from_json(json.loads(text)) == random_simplicial_map(random.Random(seed))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--count", type=int, default=3000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    failures = check(args.seed, args.count)
    for line in failures:
        print("FAIL", line)
    print(f"seeds {args.seed}..{args.seed + args.count - 1}: {args.count} maps, {len(failures)} failures, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
