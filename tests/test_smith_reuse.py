"""Integer homology reuses the Smith forms that built its lattices.

The coordinate-map route of `_quotient_group_int` and `express` is
checked against the earlier route kept in `oracles.py` (a Smith form of
the numerator basis, and one of [generators | boundaries] per group),
and the number of Smith forms each step runs is pinned.  Inside one
long exact sequence each distinct matrix is reduced and certified once,
and nothing of that sharing outlives the sequence.
"""

import random
from collections import Counter

import pytest

from helpers import random_block_complex, random_chain_map, random_vector, torus
from oracles import express_via_solver_snf, quotient_group_int_via_snf
from relcone import homology
from relcone.chain import ComplexMap, GradedComplex, cone_of_map
from relcone.coeffs import INT
from relcone.errors import InvalidChainMap, RelconeError
from relcone.fixtures import degree_map, fixture_registry, projective_plane
from relcone.homology import homology_data, ker_coker_les, les_of_cone, snf
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map


def integer_complexes(rng):
    """(name, complex): fixture complexes and map cones, tori, RP^2, scrambled complexes, degree-map cones."""
    out = []
    for name, (kind, build) in fixture_registry().items():
        if kind == "complex":
            out.append((name, chain_complex(build(), INT)))
        elif kind == "map":
            out.append((f"cone {name}", cone_of_map(chain_map(build(), INT))))
    out += [("T(3)", chain_complex(torus(3), INT)), ("rp2", chain_complex(projective_plane(), INT))]
    for i in range(6):
        out.append((f"block {i}", random_block_complex(rng, 0, 3).chain))
    for i in range(4):
        xd, yd = random_block_complex(rng, 0, 2), random_block_complex(rng, 0, 2)
        out.append((f"block cone {i}", cone_of_map(random_chain_map(rng, xd, yd))))
    for d in (7, 8):
        out.append((f"cone d{d}", cone_of_map(chain_map(degree_map(d), INT))))
    return out


def outcome(fn, vec):
    try:
        return "ok", fn(vec)
    except RelconeError as e:
        return type(e), str(e)


def recording_quotients(monkeypatch):
    """Record (ambient, numerator basis, its lattice, denominator, result) of every integer quotient."""
    seen = []
    real = homology._quotient_group_int

    def record(ambient, basis, num, den, forms=None):
        data = real(ambient, basis, num, den, forms)
        seen.append((ambient, basis, num, den, data))
        return data

    monkeypatch.setattr(homology, "_quotient_group_int", record)
    return seen


def check_against_oracle(rng, ambient, basis, num, den, data):
    """Same w, generators and orders as the oracle; same classes and errors from express."""
    w, free_rank, torsion, gens, orders = quotient_group_int_via_snf(ambient, basis, den)
    if basis.ncols:
        assert num.coords(den) == w
        assert num.coords(basis) == Matrix.identity(INT, basis.ncols)  # the basis the lattice reads in
    group = data.group
    assert (group.free_rank, group.torsion, group.generators, data.orders) == (free_rank, torsion, gens, orders)
    cycles = list(group.generators)
    for _ in range(3):
        a = basis.apply(random_vector(rng, basis.ncols))
        b = den.apply(random_vector(rng, den.ncols))
        cycles.append(tuple(x + y for x, y in zip(a, b)))
    for cyc in cycles:
        assert data.express(cyc) == express_via_solver_snf(data, cyc)
    vec = random_vector(rng, ambient)
    got = outcome(data.express, vec)
    assert got == outcome(lambda v: express_via_solver_snf(data, v), vec)
    return got[0] != "ok"


def test_homology_data_matches_snf_oracle(monkeypatch):
    rng = random.Random(4100)
    seen = recording_quotients(monkeypatch)
    for _, c in integer_complexes(rng):
        for n in range(c.lo - 1, c.hi + 2):
            homology_data(c, n)
    assert len(seen) > 100
    rejected = sum(check_against_oracle(rng, *rec) for rec in seen)
    assert rejected > 20  # non-cycles raise the same InvalidChainMap in both


def scaled_identity(c, k):
    return ComplexMap(c, c, {n: Matrix.identity(INT, c.rank(n)).zscale(k) for n in c.degrees() if c.rank(n)})


def test_kercoker_groups_match_snf_oracle(monkeypatch):
    rng = random.Random(4101)
    maps = [chain_map(degree_map(d), INT) for d in range(5)]
    maps += [scaled_identity(chain_complex(projective_plane(), INT), k) for k in (2, 3)]
    maps += [scaled_identity(random_block_complex(rng, 0, 2).chain, k) for k in (2, 4, 6)]
    seen = recording_quotients(monkeypatch)
    for f in maps:
        ker_coker_les(f)
    for rec in seen:
        check_against_oracle(rng, *rec)


def test_integer_homology_snf_budget(monkeypatch):
    rng = random.Random(4102)
    shapes = []
    real = homology.snf
    monkeypatch.setattr(homology, "snf", lambda a, forms=None: shapes.append(a.shape) or real(a, forms))
    for name, c in integer_complexes(rng):
        for n in range(c.lo - 1, c.hi + 2):
            shapes.clear()
            data = homology_data(c, n)
            assert len(shapes) <= 2, (name, n, shapes)
            shapes.clear()
            for g in data.group.generators:
                data.express(g)
            outcome(data.express, random_vector(rng, c.rank(n)))
            assert shapes == [], (name, n)


def test_les_of_cone_computes_each_homology_once(monkeypatch):
    calls, trivial = [], []
    real = homology.homology_data

    def presented(c, n, forms=None):
        data = real(c, n, forms)
        calls.append((id(c), n))
        trivial.extend([(id(c), n)] if data.group.is_trivial else [])
        return data

    monkeypatch.setattr(homology, "homology_data", presented)
    les_of_cone(chain_map(degree_map(2), INT))
    assert len(calls) == len(set(calls)) == 5  # 18 before zero groups were read off the invariants
    assert trivial == []


def counting_certificates(monkeypatch):
    """Every matrix `_check_snf` certifies from here on, counted by the matrix."""
    checked = Counter()
    real = homology._check_snf
    monkeypatch.setattr(homology, "_check_snf", lambda a, r: checked.update([a]) or real(a, r))
    return checked


def test_a_sequence_certifies_each_distinct_matrix_once(monkeypatch):
    # the map fixtures include degree_map(d) for d = 0..6
    maps = [(name, chain_map(build(), INT)) for name, (kind, build) in fixture_registry().items() if kind == "map"]
    maps += [(f"{k} on rp2", scaled_identity(chain_complex(projective_plane(), INT), k)) for k in (2, 3)]
    checked = counting_certificates(monkeypatch)
    calls = []
    real = homology.snf
    monkeypatch.setattr(homology, "snf", lambda a, forms=None: calls.append(a) or real(a, forms))
    certified = 0
    for name, f in maps:
        for sequence in (les_of_cone, ker_coker_les):
            checked.clear()
            sequence(f)
            assert checked and max(checked.values()) == 1, (name, sequence.__name__)
            certified += len(checked)
    assert len(calls) > 2 * certified, (len(calls), certified)  # the table answers most calls


# Certificates per fixture map (les_of_cone, ker_coker_les).  A sequence
# reduces no matrix with no rows or no columns and no kernel basis it
# solves against, and presents no zero group; these counts may only go down.
CERTIFICATES_PER_MAP = {
    "fix-d0": (7, 7),
    "fix-d1": (2, 1),
    "fix-d2": (8, 7),
    "fix-d3": (8, 7),
    "fix-d4": (8, 7),
    "fix-d5": (8, 7),
    "fix-d6": (8, 7),
    "fix-const": (2, 4),
    "fix-disk": (4, 4),
    "fix-susp-d2": (9, 9),
}


def test_a_sequence_certifies_no_empty_shape_and_no_kernel_basis(monkeypatch):
    # a kernel basis may equal another matrix a sequence reduces (I_3 does on fix-d0),
    # so the bases are told apart from the certified matrices by identity
    checked, bases = [], []
    real_check, real_lattice, real_kernel = homology._check_snf, homology._kernel_lattice, homology.kernel_int

    def lattice(a, forms=None):
        out = real_lattice(a, forms)
        bases.append(out[0])
        return out

    def kernel(a, forms=None):
        bases.append(real_kernel(a, forms))
        return bases[-1]

    monkeypatch.setattr(homology, "_check_snf", lambda a, r: checked.append(a) or real_check(a, r))
    monkeypatch.setattr(homology, "_kernel_lattice", lattice)
    monkeypatch.setattr(homology, "kernel_int", kernel)
    counts = {}
    for name, (kind, build) in fixture_registry().items():
        if kind != "map":
            continue
        f = chain_map(build(), INT)
        counts[name] = []
        for sequence in (les_of_cone, ker_coker_les):
            checked.clear()
            bases.clear()
            sequence(f)
            assert not [a.shape for a in checked if not (a.nrows and a.ncols)], (name, sequence.__name__)
            assert bases and not [b for b in bases if any(b is a for a in checked)], (name, sequence.__name__)
            counts[name].append(len(checked))
    assert counts.keys() == CERTIFICATES_PER_MAP.keys()
    for name, pinned in CERTIFICATES_PER_MAP.items():
        assert all(n <= p for n, p in zip(counts[name], pinned)), (name, counts[name], pinned)


def reduced_again(checked, used):
    """The matrices in `used` whose fresh `snf` runs no certificate."""
    missed = []
    for a in used:
        checked.clear()
        snf(a)
        if checked != Counter([a]):
            missed.append(a)
    return missed


def test_the_table_is_dropped_when_a_sequence_returns(monkeypatch):
    f = chain_map(degree_map(2), INT)
    checked = counting_certificates(monkeypatch)
    les_of_cone(f)
    first = Counter(checked)
    assert reduced_again(checked, first) == []
    checked.clear()
    les_of_cone(f)
    assert checked == first  # the second sequence shares nothing with the first


def test_the_table_is_dropped_when_a_sequence_raises(monkeypatch):
    c = GradedComplex(INT, {0: 1}, {})
    f = ComplexMap(c, c, {0: Matrix.from_rows(INT, [[2]])})
    checked = counting_certificates(monkeypatch)
    monkeypatch.setattr(homology.Solver, "solve", lambda self, b: None)
    with pytest.raises(InvalidChainMap, match="cokernel cycle does not lift"):
        ker_coker_les(f)
    used = list(checked)
    assert used
    assert reduced_again(checked, used) == []
