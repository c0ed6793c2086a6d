import random
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from helpers import torus
from oracles import dense_product
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.errors import MulOnAngleQ, RelconeError, RingMismatch, ShapeMismatch
from relcone.homology import snf
from relcone.matrix import Matrix, block, from_int_matrix, hstack, product_nonzeros, vstack
from relcone.simplicial import chain_complex


def rand_matrix(rng, ring, m, n, lo=-5, hi=5):
    return Matrix(ring, m, n, [[rng.randrange(lo, hi + 1) for _ in range(n)] for _ in range(m)])


def test_constructors_and_shape():
    m = Matrix.from_rows(INT, [[1, 2], [3, 4]])
    assert m.shape == (2, 2)
    assert Matrix.zeros(INT, 2, 3).is_zero()
    assert Matrix.identity(RAT, 3).entry(0, 0) == Fraction(1)
    c = Matrix.column(INT, [1, 2, 3])
    assert c.shape == (3, 1) and c.col(0) == (1, 2, 3)


def test_entries_are_normalized():
    m = Matrix.from_rows(ZMOD(5), [[7, -1]])
    assert m.rows == ((2, 4),)


def test_bad_row_lengths_rejected():
    with pytest.raises(ShapeMismatch):
        Matrix(INT, 2, 2, [[1, 2], [3]])


def test_from_columns_matches_rows_and_keeps_empty_shapes():
    m = Matrix.from_columns(INT, 2, [(1, 3), [2, 4]])
    assert m == Matrix.from_rows(INT, [[1, 2], [3, 4]])
    no_cols = Matrix.from_columns(RAT, 3, [])
    assert no_cols.shape == (3, 0) and no_cols == Matrix.zeros(RAT, 3, 0)
    no_rows = Matrix.from_columns(ZMOD(5), 0, [(), (), ()])
    assert no_rows.shape == (0, 3) and no_rows == Matrix.zeros(ZMOD(5), 0, 3)
    assert Matrix.from_columns(INT, 0, []).shape == (0, 0)
    assert Matrix.from_columns(ZMOD(5), 1, [[7]]).rows == ((2,),)
    with pytest.raises(ShapeMismatch):
        Matrix.from_columns(INT, 2, [(1, 2), (3,)])
    with pytest.raises(ShapeMismatch):
        Matrix.from_columns(INT, 1, [(1, 2)])


def test_arithmetic_int():
    a = Matrix.from_rows(INT, [[1, 2], [3, 4]])
    b = Matrix.from_rows(INT, [[0, 1], [1, 0]])
    assert (a + b).rows == ((1, 3), (4, 4))
    assert (a - a).is_zero()
    assert (-a).rows == ((-1, -2), (-3, -4))
    assert (a @ b).rows == ((2, 1), (4, 3))
    assert a.transpose().rows == ((1, 3), (2, 4))


def test_matmul_shape_and_ring_checks():
    a = Matrix.zeros(INT, 2, 3)
    with pytest.raises(ShapeMismatch):
        a @ a
    with pytest.raises(RingMismatch):
        a @ Matrix.zeros(RAT, 3, 1)
    # the circle group has no product of two values, even with no entry to multiply
    for m, k, n in ((1, 1, 1), (2, 0, 2), (0, 3, 0)):
        u, v = Matrix.zeros(U1, m, k), Matrix.zeros(U1, k, n)
        with pytest.raises(MulOnAngleQ):
            u @ v
        with pytest.raises(MulOnAngleQ):
            product_nonzeros([(u, v)])
    with pytest.raises(ShapeMismatch):
        Matrix.zeros(U1, 1, 2) @ Matrix.zeros(U1, 1, 2)


def test_matmul_associativity_random():
    rng = random.Random(7)
    for _ in range(25):
        a = rand_matrix(rng, INT, rng.randrange(1, 4), rng.randrange(1, 4))
        b = rand_matrix(rng, INT, a.ncols, rng.randrange(1, 4))
        c = rand_matrix(rng, INT, b.ncols, rng.randrange(1, 4))
        assert (a @ b) @ c == a @ (b @ c)


def test_apply_matches_matmul():
    """`apply` agrees with `@` on a column, value and stored type, with zero entries, rows and columns."""
    rng = random.Random(8)
    for ring in (INT, RAT, ZMOD(3)):
        for _ in range(20):
            m, n = rng.randrange(0, 5), rng.randrange(0, 5)
            rows = [[rng.choice((0, 0, 1, -1, 2, Fraction(-3, 2))) for _ in range(n)] for _ in range(m)]
            if ring != RAT:
                rows = [[int(x) for x in r] for r in rows]
            for i in rng.sample(range(m), m // 2):  # zero rows
                rows[i] = [0] * n
            for j in rng.sample(range(n), n // 2):  # zero columns
                for r in rows:
                    r[j] = 0
            a = Matrix(ring, m, n, rows)
            v = [rng.randrange(-5, 6) for _ in range(n)]
            col = a @ Matrix.column(ring, v)
            got = a.apply(v)
            assert got == tuple(col.entry(i, 0) for i in range(m))
            assert all(type(x) is type(ring.zero()) for x in got)
    with pytest.raises(MulOnAngleQ):
        Matrix.from_rows(U1, [[Fraction(1, 2)]]).apply([Fraction(1, 3)])


def test_zero_dimension_edge_cases():
    a = Matrix.zeros(INT, 0, 3)
    b = Matrix.zeros(INT, 3, 0)
    assert (a @ b).shape == (0, 0)
    assert (b @ a).shape == (3, 3)
    assert (b @ a).is_zero()
    assert a.transpose().shape == (3, 0)
    assert Matrix.zeros(INT, 0, 0) @ Matrix.zeros(INT, 0, 5) == Matrix.zeros(INT, 0, 5)


def test_scale_and_zscale():
    a = Matrix.from_rows(RAT, [[Fraction(1, 2), 1]])
    assert a.scale(Fraction(2, 3)).rows == ((Fraction(1, 3), Fraction(2, 3)),)
    u = Matrix.from_rows(U1, [[Fraction(1, 3)]])
    assert u.zscale(4).rows == ((Fraction(1, 3),),)


def test_integer_matrix_acts_on_circle_vectors():
    # circle-coefficient complexes store integer matrices
    a = Matrix.from_rows(INT, [[2, 1], [0, 3]])
    out = a.zapply(U1, [Fraction(1, 4), Fraction(1, 3)])
    assert out == (Fraction(5, 6), 0)


def test_zapply_requires_integer_matrix():
    a = Matrix.from_rows(RAT, [[1]])
    with pytest.raises(RingMismatch):
        a.zapply(U1, [Fraction(1, 2)])


def test_stacking_and_blocks():
    a = Matrix.from_rows(INT, [[1], [2]])
    b = Matrix.from_rows(INT, [[3], [4]])
    assert hstack(INT, [a, b]).rows == ((1, 3), (2, 4))
    assert vstack(INT, [a, b]).col(0) == (1, 2, 3, 4)
    g = block(INT, [[Matrix.identity(INT, 1), Matrix.zeros(INT, 1, 2)], [Matrix.zeros(INT, 2, 1), Matrix.identity(INT, 2)]])
    assert g == Matrix.identity(INT, 3)


def test_submatrix():
    a = Matrix.from_rows(INT, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert a.submatrix([0, 2], [1]).rows == ((2,), (8,))


def test_change_ring_and_from_int():
    a = Matrix.from_rows(INT, [[3, -1]])
    q = a.change_ring(RAT)
    assert q.ring == RAT and q.entry(0, 0) == Fraction(3)
    z5 = from_int_matrix(a, ZMOD(5))
    assert z5.rows == ((3, 4),)
    # circle targets keep the integer matrix
    u = from_int_matrix(a, U1)
    assert u.ring == INT and u == a


class CountedInt(int):
    """An int that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedInt.hashes += 1
        return int.__hash__(self)


class CountedFraction(Fraction):
    """A Fraction that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        CountedFraction.hashes += 1
        return Fraction.__hash__(self)


def test_hash_consistency():
    """Equal matrices hash equal, and a matrix hashes its entries once, however often it is looked up.

    A Q or U1 matrix hashes only its nonzero entries: a Fraction's hash
    costs a modular inverse, and zeros built apart still hash equal.
    """
    a = Matrix.from_rows(INT, [[1, 2]])
    b = Matrix.from_rows(INT, [[1, 2]])
    assert hash(a) == hash(b) and a == b
    rng = random.Random("hash")
    for ring in (INT, RAT, ZMOD(3)):
        for m, n in ((0, 0), (0, 3), (2, 0), (3, 4)):
            a = random_entries(rng, ring, m, n, 0.5)
            b = Matrix(ring, m, n, a.to_lists())  # equal entries, built apart
            assert a == b and hash(a) == hash(b) == hash(a)
    assert hash(Matrix.zeros(RAT, 0, 3)) != hash(Matrix.zeros(RAT, 3, 0))
    for ring in (RAT, U1):
        a = Matrix.from_rows(ring, [[0, Fraction(1, 2), 0], [0, 0, 0]])
        counted = [[CountedFraction(0), CountedFraction(1, 2), CountedFraction(0, 7)], [CountedFraction(0)] * 3]
        b = Matrix._of(ring, 2, 3, counted)
        CountedFraction.hashes = 0
        assert a == b and hash(a) == hash(b)
        assert CountedFraction.hashes == 1  # the one nonzero entry of b
    # a sequence's table looks a key up and then stores it: the entries are hashed once
    a = Matrix._of(INT, 2, 2, [[CountedInt(1), CountedInt(2)], [CountedInt(3), CountedInt(4)]])
    CountedInt.hashes = 0
    forms = {}
    snf(a, forms)
    assert forms.get(Matrix.from_rows(INT, [[1, 2], [3, 4]])) is forms[a]
    assert CountedInt.hashes == 4


def test_matmul_matches_the_dense_oracle():
    """`@` equals a row-by-column product on plain lists, with values of the ring's stored type."""
    rng = random.Random("matmul oracle")
    for ring in (INT, RAT, ZMOD(3)):
        stored = type(ring.zero())
        products = 0
        for _ in range(40):
            m, k, n = rng.randrange(0, 6), rng.randrange(0, 6), rng.randrange(0, 6)
            density = rng.choice([0.0, 0.2, 0.5, 1.0])
            a, b = random_entries(rng, ring, m, k, density), random_entries(rng, ring, k, n, density)
            got = a @ b
            assert got.shape == (m, n) and got.ring == ring
            assert got.to_lists() == dense_product(a.to_lists(), b.to_lists(), n, ring.modulus), (a, b)
            assert all(type(v) is stored for r in got.rows for v in r), (a, b)
            products += bool(m and k and n)
        assert products > 10


# -- product_nonzeros against the dense product --------------------------------

RINGS = [INT, RAT, ZMOD(2), ZMOD(3), ZMOD(4)]


def dense_nonzeros(m):
    """The nonzero entries of a dense matrix, each with its type (1 == Fraction(1) in Python)."""
    return {(i, j): (type(v), v) for i, r in enumerate(m.rows) for j, v in enumerate(r) if v != m.ring.zero()}


def oracle_product(a, b):
    """A B by the dense oracle on plain lists, normalized back into a matrix over A's ring."""
    return Matrix(a.ring, a.nrows, b.ncols, dense_product(a.to_lists(), b.to_lists(), b.ncols, a.ring.modulus))


def typed(entries):
    return {ij: (type(v), v) for ij, v in entries.items()}


def random_entries(rng, ring, m, n, density):
    """An m x n matrix whose entries are nonzero with probability `density`; over Q, with denominators."""
    value = lambda: Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)) if ring == RAT else rng.randrange(-6, 7)
    return Matrix(ring, m, n, [[value() if rng.random() < density else 0 for _ in range(n)] for _ in range(m)])


def boundary_like(rng, ring, m, n, per_col=3):
    """At most `per_col` entries of +-1 in each column, as in a boundary matrix."""
    rows = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), min(m, per_col)):
            rows[i][j] = rng.choice([-1, 1])
    return Matrix(ring, m, n, rows)


def factor_pairs(rng, ring):
    """(A, B) pairs of every kind: empty shapes, zero, dense, sparse +-1, and boundary products."""
    k = rng.randrange(1, 5)
    yield Matrix.zeros(ring, 0, k), random_entries(rng, ring, k, 3, 0.7)
    yield random_entries(rng, ring, 3, k, 0.7), Matrix.zeros(ring, k, 0)
    yield Matrix.zeros(ring, 3, 0), Matrix.zeros(ring, 0, 4)
    yield Matrix.zeros(ring, 3, k), random_entries(rng, ring, k, 2, 1.0)
    yield random_entries(rng, ring, 3, k, 1.0), Matrix.zeros(ring, k, 2)
    for _ in range(6):
        m, k, n = (rng.randrange(1, 7) for _ in range(3))
        yield random_entries(rng, ring, m, k, 1.0), random_entries(rng, ring, k, n, 1.0)
        yield random_entries(rng, ring, m, k, 0.3), random_entries(rng, ring, k, n, 0.3)
        yield boundary_like(rng, ring, m, k), boundary_like(rng, ring, k, n)
    t = chain_complex(torus(3), ring)
    yield t.diff(1), t.diff(2)  # d d = 0: no entries
    yield t.diff(2).transpose(), t.diff(2)


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_product_nonzeros_match_the_dense_product(ring):
    rng = random.Random(f"product {ring}")
    pairs = list(factor_pairs(rng, ring))
    for a, b in pairs:
        assert typed(product_nonzeros([(a, b)])) == dense_nonzeros(oracle_product(a, b)), (a, b)
    for a, b in pairs:  # a sum of two products of the same shape, with cancellation among them
        c, d = random_entries(rng, ring, a.nrows, 3, 0.5), random_entries(rng, ring, 3, b.ncols, 0.5)
        for second in ((c, d), (a.scale(-1), b), (a, b)):
            want = oracle_product(a, b) + oracle_product(*second)
            assert typed(product_nonzeros([(a, b), second])) == dense_nonzeros(want), (a, b, second)
    assert product_nonzeros([]) == {}


def raised(fn):
    try:
        fn()
    except RelconeError as e:
        return type(e), str(e)
    return None


def test_product_nonzeros_refuse_what_matmul_and_add_refuse():
    z23, z32, z33 = Matrix.zeros(INT, 2, 3), Matrix.zeros(INT, 3, 2), Matrix.zeros(INT, 3, 3)
    q32, q23 = Matrix.zeros(RAT, 3, 2), Matrix.zeros(RAT, 2, 3)
    refused = [
        [(z23, q32)],  # rings differ inside a product
        [(z23, z23)],  # inner dimensions differ
        [(Matrix.zeros(ZMOD(3), 2, 2), Matrix.zeros(ZMOD(4), 2, 2))],
        [(z23, z32), (q23, q32)],  # rings differ between the products
        [(z23, z32), (z23, z33)],  # shapes differ: 2x2 against 2x3
        [(z23, z32), (z32, z23)],  # 2x2 against 3x3
        [(z23, z32), (z23, z23)],  # the second product itself is refused first
    ]
    for pairs in refused:
        want = raised(lambda: reduce(add, [a @ b for a, b in pairs]))
        assert want is not None and raised(lambda: product_nonzeros(pairs)) == want, pairs
