"""The algebraic cone and the cone space agree on seeded random simplicial maps.

For each map phi from `helpers.random_simplicial_map`, `compare_cones(phi)`
must certify an isomorphism in every degree, and in every degree its
algebraic group (from the augmented cone), its reduced cone-space group
and the invariants of the plain algebraic cone cone(phi_*) must be the
same group.  A disagreement names its seed and prints the map as JSON.

The tier-1 test runs 200 maps.  A longer run is

    PYTHONPATH=src python tests/test_random_maps.py --seed 11 --count 3000

which prints every failure and a count, and exits 1 on any failure.
"""

import argparse
import json
import random
import sys
import time

from helpers import double_the_cone_comparison, random_simplicial_map
from relcone import jsonio
from relcone.chain import cone_of_map
from relcone.coeffs import INT
from relcone.homology import homology_invariants
from relcone.simplicial import chain_map, compare_cones


def disagreement(phi):
    """None when the three routes agree on phi; otherwise what differs."""
    rep = compare_cones(phi)
    if not rep.iso:
        return f"no certified isomorphism: strict chain map {rep.strict_chain_map}, degrees {sorted(rep.degrees)}"
    plain = homology_invariants(cone_of_map(chain_map(phi, INT)), rep.degrees)
    for n, d in rep.degrees.items():
        if not d.algebraic == d.reduced == plain[n]:
            return f"degree {n}: algebraic {d.algebraic}, reduced {d.reduced}, plain cone {plain[n]}"
    return None


def check(seed, count):
    """The failure lines of maps seed, seed + 1, ..., one map per seed."""
    failures = []
    for s in range(seed, seed + count):
        phi = random_simplicial_map(random.Random(s))
        why = disagreement(phi)
        if why:
            failures.append(f"seed {s}: {why}; map {json.dumps(jsonio.simplicial_map_to_json(phi))}")
    return failures


def test_three_routes_agree_on_random_maps():
    assert check(seed=0, count=200) == []


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
