"""The kernel and image of an integer matrix read through its +-1 pivots agree with its Smith form.

`homology._unit_form` takes the +-1 pivots of a matrix on sparse rows and
a Smith form of the rest only; `ker_coker_les` reads every integer f_n
through it.  On seeded random matrices (+-1-heavy pushforwards of
simplicial maps, matrices with no +-1 entry, zero matrices, empty shapes
and matrices whose rest has torsion) it must give the lattices of the
full Smith form (`_kernel_lattice`, `_image`): each kernel basis solves
in the other's lattice, the same vectors lie in the image, the same maps
are onto, and `back` sends image coordinates to preimages.  Its
certificate must refuse mutants of each step with InvalidChainMap.
"""

import random

import pytest

from helpers import last_vertex_map, random_simplicial_map, random_unimodular, random_vector, torus
from oracles import onto_via_solve
from relcone import homology
from relcone.coeffs import INT
from relcone.errors import InvalidChainMap
from relcone.homology import _image, _kernel_lattice, _onto, _unit_form, smith_diagonal
from relcone.matrix import Matrix
from relcone.simplicial import chain_map


def random_matrix(rng, m, n, values):
    return Matrix(INT, m, n, [[rng.choice(values) for _ in range(n)] for _ in range(m)])


def pushforwards(rng):
    """The components of chain maps of random simplicial maps and of sd(T(3)) -> T(3): mostly +-1 entries."""
    maps = [chain_map(random_simplicial_map(rng), INT) for _ in range(12)] + [chain_map(last_vertex_map(torus(3)), INT)]
    return [f.component(n) for f in maps for n in f.degrees()]


def with_torsion(rng):
    """U diag(1, .., d, .., 0) V for random unimodular U and V, whose Smith diagonal has an entry >= 2."""
    out = []
    for _ in range(8):
        m, n = rng.randint(2, 5), rng.randint(2, 5)
        diag = sorted(rng.choice((1, 1, 2, 3)) for _ in range(min(m, n) - 1))
        diag = [d * 2 for d in diag[:1]] + [d * 6 for d in diag[1:]] + [0]
        rows = [[diag[i] if i == j and i < len(diag) else 0 for j in range(n)] for i in range(m)]
        out.append(random_unimodular(rng, m)[0] @ Matrix(INT, m, n, rows) @ random_unimodular(rng, n)[0])
    return out


def random_matrices(size, values):
    """Twenty random matrices with up to `size` rows and columns and entries from `values`."""
    return lambda rng: [random_matrix(rng, rng.randint(1, size), rng.randint(1, size), values) for _ in range(20)]


CASES = {
    "pushforward": pushforwards,
    "sparse unit": random_matrices(7, (0, 0, 0, 1, -1)),
    "no unit": random_matrices(5, (0, 0, 2, -2, 3, 4, -6)),
    "zero": lambda rng: [Matrix.zeros(INT, m, n) for m, n in ((1, 1), (2, 3), (4, 1), (3, 3))],
    "empty": lambda rng: [Matrix.zeros(INT, m, n) for m, n in ((0, 0), (0, 3), (3, 0))],
    "torsion": with_torsion,
}


@pytest.mark.parametrize("case", list(CASES))
def test_unit_form_agrees_with_the_smith_form(case):
    rng = random.Random(4401)
    mats = CASES[case](random.Random(4400))
    assert mats
    onto = []
    for a in mats:
        m, n = a.shape
        form = _unit_form(a, {})
        basis, lattice = _kernel_lattice(a)
        # the same kernel lattice: each basis solves in the other's lattice
        assert form.basis.ncols == basis.ncols, a
        assert form.kernel.coords(form.basis) == Matrix.identity(INT, basis.ncols), a
        assert form.kernel.coords(basis) is not None and lattice.coords(form.basis) is not None, a
        # the same image membership, and back gives preimages
        image = _image(a)[0]
        vectors = [a.apply(random_vector(rng, n)) for _ in range(4)] + [random_vector(rng, m) for _ in range(4)]
        vectors += [tuple(x + y for x, y in zip(a.apply(random_vector(rng, n)), random_vector(rng, m, 1))) for _ in range(4)]
        for vec in vectors:
            x = Matrix.column(INT, list(vec))
            y = form.image.coords(x)
            assert (y is None) == (image.coords(x) is None), (a, vec)
            if y is not None:
                assert a @ (form.back @ y) == x, (a, vec)
        onto.append(_onto(a, {}))
        assert onto[-1] == onto_via_solve(a, None), a
    if case == "torsion":
        assert all(any(d >= 2 for d in smith_diagonal(a)[1]) for a in mats)
    if case == "pushforward":
        assert onto.count(True) > 5 and onto.count(False) > 5


def flip_one_solved_entry(monkeypatch, call):
    """Flip the sign of the first nonzero pivot-column entry of the `call`-th `_pivot_columns` result."""
    real, seen = homology._pivot_columns, []

    def mutant(rows, pivots, cols, size):
        out = real(rows, pivots, cols, size)
        seen.append(out)
        if len(seen) - 1 != call:
            return out
        entries = [list(r) for r in out.rows]
        j, c = next((j, c) for _, j in pivots for c, x in enumerate(entries[j]) if x)
        entries[j][c] = -entries[j][c]
        return Matrix(INT, out.nrows, out.ncols, entries)

    monkeypatch.setattr(homology, "_pivot_columns", mutant)


def drop_one_operation(monkeypatch):
    real = homology._unit_pivots
    monkeypatch.setattr(homology, "_unit_pivots", lambda rows: (lambda p, ops: (p, ops[1:]))(*real(rows)))


def alter_one_row_of_p(monkeypatch):
    """Add 1 to P's entry in its last row and first pivot row: still unit triangular, but no product of the operations."""
    real = homology._operation_rows

    def mutant(ops, pivots, crit, size):
        out = real(ops, pivots, crit, size)
        entries = [list(r) for r in out.rows]
        entries[-1][pivots[0][0]] += 1
        return Matrix(INT, out.nrows, out.ncols, entries)

    monkeypatch.setattr(homology, "_operation_rows", mutant)


def wrong_rest_form(monkeypatch):
    """Give the rest the Smith form of its negation: a certified form, of another matrix."""
    real = homology.snf
    monkeypatch.setattr(homology, "snf", lambda a, forms=None: real(-a, forms))


# (mutant, the matrix it runs on, the check that refuses it): each matrix has
# a step for the mutant to break
MUTANTS = {
    "flipped kernel entry": (lambda mp: flip_one_solved_entry(mp, 0), [[1, 2, 3], [0, 1, 4]], "kernel basis"),
    "flipped preimage entry": (lambda mp: flip_one_solved_entry(mp, 1), [[1, 2, 3], [0, 1, 4]], "a @ back"),
    "dropped operation": (drop_one_operation, [[1, 2], [1, 3], [2, 5]], "is not a unit"),
    "altered row of P": (alter_one_row_of_p, [[1, 2], [1, 3], [2, 5]], "P a is not the replayed rows"),
    "wrong rest form": (wrong_rest_form, [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "a @ back"),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_the_certificate_refuses_each_mutant(monkeypatch, name):
    mutate, rows, check = MUTANTS[name]
    a = Matrix.from_rows(INT, rows)
    _unit_form(a, {})  # the unmutated form passes
    mutate(monkeypatch)
    with pytest.raises(InvalidChainMap, match=check):
        _unit_form(a, {})


def test_a_table_keeps_one_form_per_matrix(monkeypatch):
    a = Matrix.from_rows(INT, [[1, 2, 0], [0, 2, 4]])
    forms = {}
    first = _unit_form(a, forms)
    calls = []
    real = homology._unit_pivots
    monkeypatch.setattr(homology, "_unit_pivots", lambda rows: calls.append(rows) or real(rows))
    assert _unit_form(Matrix.from_rows(INT, [[1, 2, 0], [0, 2, 4]]), forms) is first
    assert calls == []
