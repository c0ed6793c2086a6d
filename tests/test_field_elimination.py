"""Field elimination: `_rref`, and the kernels and solves read from it, against the Fraction oracle.

Over Q `_rref` eliminates on primitive integer rows and builds Fractions
only for the reduced values a caller reads; the reduced row echelon form
is unique, so its pivots and values must equal those of plain Fraction
elimination (`oracles.rref_fraction`) on every input.
"""

import random
from fractions import Fraction
from math import comb

import pytest
from oracles import rref_fraction

from relcone.coeffs import RAT, ZMOD
from relcone.homology import _rref, kernel_int, solve
from relcone.matrix import Matrix

RINGS = (RAT, ZMOD(2), ZMOD(3), ZMOD(5))
BIG_DENOMINATOR = 10**6 + 3


def _entry(rng, ring):
    if rng.random() < 0.4:
        return 0
    if ring.modulus is not None:
        return rng.randint(-9, 9)
    den = BIG_DENOMINATOR if rng.random() < 0.05 else rng.randint(1, 12)
    return Fraction(rng.randint(-9, 9), den)


def _random_rows(rng, ring, m, n):
    """An m x n matrix with some zero rows and some repeated rows."""
    rows = [[_entry(rng, ring) for _ in range(n)] for _ in range(m)]
    for i in range(m):
        roll = rng.random()
        if roll < 0.15:
            rows[i] = [0] * n
        elif roll < 0.3 and i:
            rows[i] = list(rows[rng.randrange(i)])
    return rows


def _cases(ring):
    """(label, the blocks as matrices, their plain rows side by side), fixed shapes first."""
    rng = random.Random(f"rref:{ring}")
    shapes = [(0, (0,)), (0, (4,)), (4, (0,)), (1, (1,)), (3, (2, 0, 2)), (8, (10,))]
    for _ in range(40):
        m = rng.randint(0, 8)
        widths = [rng.randint(0, 10) for _ in range(rng.randint(1, 3))]
        while sum(widths) > 10:
            widths[rng.randrange(len(widths))] //= 2
        shapes.append((m, tuple(widths)))
    for m, widths in shapes:
        rows = _random_rows(rng, ring, m, sum(widths))
        blocks, start = [], 0
        for w in widths:
            blocks.append(Matrix(ring, m, w, [row[start : start + w] for row in rows]))
            start += w
        yield f"{m}x{widths}", blocks, rows


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_rref_matches_the_fraction_oracle(ring):
    p = ring.modulus
    for label, blocks, rows in _cases(ring):
        ncols = sum(b.ncols for b in blocks)
        want_rows, want_pivots = rref_fraction(rows, p)
        reduced, pivots = _rref(*blocks)
        assert pivots == want_pivots, label
        got = reduced(range(ncols))
        assert got == want_rows[: len(pivots)], label
        assert not any(any(row) for row in want_rows[len(pivots) :]), label
        free = [c for c in range(ncols) if c not in pivots]
        assert reduced(free) == [[row[c] for c in free] for row in got], label
        want_type = Fraction if p is None else int
        assert all(type(x) is want_type for row in got for x in row), label


def test_hilbert_matrix_reduces_to_the_identity_and_solves_exactly():
    n = 8
    h = Matrix(RAT, n, n, [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)])
    reduced, pivots = _rref(h)
    assert pivots == list(range(n))
    assert reduced(range(n)) == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    e1 = Matrix.column(RAT, [1] + [0] * (n - 1))
    x = solve(h, e1)
    # first column of the inverse Hilbert matrix, by its closed form (1-indexed i)
    want = [(-1) ** (i + 1) * i * comb(n + i - 1, n - 1) * comb(n, i) for i in range(1, n + 1)]
    assert x == Matrix.column(RAT, want) and want[0] == n * n
    assert h @ x == e1
    assert all(type(v) is Fraction for v in x.col(0))
    rows, oracle_pivots = rref_fraction([row + [int(i == 0)] for i, row in enumerate(h.to_lists())])
    assert oracle_pivots == pivots and [row[n] for row in rows] == want


@pytest.mark.parametrize("ring", (RAT, ZMOD(3)), ids=str)
def test_degenerate_shapes(ring):
    zeros, eye = Matrix.zeros, Matrix.identity
    for m, n in ((0, 3), (3, 0), (0, 0)):
        a = zeros(ring, m, n)
        reduced, pivots = _rref(a)
        assert pivots == [] and reduced(range(n)) == []
        assert kernel_int(a) == eye(ring, n)
        for k in (0, 2):
            assert solve(a, zeros(ring, m, k)) == zeros(ring, n, k)
    # a right-hand side with no columns beside a matrix of full rank
    a = Matrix.from_rows(ring, [[1, 2], [0, 1], [1, 0]])
    assert solve(a, zeros(ring, 3, 0)) == zeros(ring, 2, 0)
    assert _rref(a, zeros(ring, 3, 0))[1] == [0, 1]
    # no unknowns: B = 0 is solved by the empty X, any other B is not
    assert solve(zeros(ring, 3, 0), Matrix.column(ring, [0, 1, 0])) is None
    assert solve(zeros(ring, 0, 3), zeros(ring, 0, 1)) == zeros(ring, 3, 1)
