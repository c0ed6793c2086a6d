import random
from fractions import Fraction

import pytest

from helpers import (
    random_block_complex,
    random_chain_map,
    random_homotopy_triple,
    random_vector,
)
from relcone.chain import (
    ComplexMap,
    ConeElement,
    GradedComplex,
    Homotopy,
    cochain_complex,
    cochain_cone_split,
    cochain_view,
    compose,
    cone_inclusion,
    cone_of_cochain_map,
    cone_of_map,
    cone_projection,
    cone_split,
    dual_complex,
    dual_map,
    homotopy_cone_iso,
    identity_map,
    kronecker,
    mat_ring,
    shift,
    verify_cone_duality,
)
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.errors import (
    DegreeMismatch,
    InvalidChainMap,
    InvalidHomotopy,
    RingMismatch,
    ShapeMismatch,
)
from relcone.matrix import Matrix


def two_term(ring, k):
    """0 -> R --k--> R -> 0 in degrees 1, 0."""
    return GradedComplex(ring, {0: 1, 1: 1}, {1: Matrix.from_rows(mat_ring(ring), [[k]])})


def test_complex_validation_catches_non_squaring():
    with pytest.raises(InvalidChainMap):
        GradedComplex(
            INT,
            {0: 1, 1: 1, 2: 1},
            {1: Matrix.from_rows(INT, [[1]]), 2: Matrix.from_rows(INT, [[1]])},
        )


def test_complex_validation_catches_bad_shapes():
    with pytest.raises(ShapeMismatch):
        GradedComplex(INT, {0: 2, 1: 1}, {1: Matrix.from_rows(INT, [[1]])})


def test_rank_and_diff_are_total():
    c = two_term(INT, 3)
    assert c.rank(5) == 0 and c.rank(-2) == 0
    assert c.diff(7).shape == (0, 0)
    assert c.diff(1).entry(0, 0) == 3
    assert list(c.degrees()) == [0, 1]
    assert GradedComplex(INT, {}, {}).total_rank() == 0


def test_shift_moves_degrees():
    c = two_term(INT, 3)
    s = shift(c, 1)
    assert s.rank(1) == 1 and s.rank(2) == 1
    assert s.diff(2) == c.diff(1)


def test_chain_map_validation():
    c = two_term(INT, 2)
    d = two_term(INT, 4)
    # degree-0 component 1, degree-1 component 1: 1*2 != 4*1
    with pytest.raises(InvalidChainMap):
        ComplexMap(c, d, {0: Matrix.from_rows(INT, [[1]]), 1: Matrix.from_rows(INT, [[1]])})
    f = ComplexMap(c, d, {0: Matrix.from_rows(INT, [[1]]), 1: Matrix.from_rows(INT, [[1]])}, validate=False)
    # validate=False really skips the check
    assert f.component(1).entry(0, 0) == 1
    ok = ComplexMap(c, d, {0: Matrix.from_rows(INT, [[4]]), 1: Matrix.from_rows(INT, [[2]])})
    assert ok.component(0).entry(0, 0) == 4


def test_identity_and_compose():
    rng = random.Random(11)
    xd = random_block_complex(rng, 0, 2)
    yd = random_block_complex(rng, 0, 2)
    f = random_chain_map(rng, xd, yd)
    i = identity_map(xd.chain)
    assert compose(f, i).component(1) == f.component(1)
    g = random_chain_map(rng, yd, random_block_complex(rng, 0, 2))
    gf = compose(g, f)
    for n in range(0, 3):
        assert gf.component(n) == g.component(n) @ f.component(n)


def test_cone_differential_formula():
    rng = random.Random(12)
    for _ in range(10):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        f = random_chain_map(rng, xd, yd)
        cone = cone_of_map(f)
        x, y = f.src, f.dst
        for n in cone.degrees():
            assert cone.rank(n) == x.rank(n - 1) + y.rank(n)
            # d squares to zero
            assert (cone.diff(n - 1) @ cone.diff(n)).is_zero()
            theta = random_vector(rng, x.rank(n - 1))
            eta = random_vector(rng, y.rank(n))
            vec = tuple(theta) + tuple(eta)
            out_t, out_e = cone_split(f, n - 1, cone.diff(n).apply(vec))
            assert out_t == x.diff(n - 1).apply(theta)
            want = tuple(
                a - b
                for a, b in zip(f.component(n - 1).apply(theta), y.diff(n).apply(eta))
            )
            assert out_e == want


def test_cone_inclusion_and_projection_are_chain_maps():
    rng = random.Random(13)
    xd = random_block_complex(rng, 0, 3)
    yd = random_block_complex(rng, 0, 3)
    f = random_chain_map(rng, xd, yd)
    cone = cone_of_map(f)
    j = cone_inclusion(f, cone)
    k = cone_projection(f, cone)
    for n in cone.degrees():
        # j anticommutes exactly with this sign convention
        assert cone.diff(n) @ j.component(n) == -(j.component(n - 1) @ f.dst.diff(n))
        # k is an honest chain map into the shifted source
        assert k.dst.diff(n) @ k.component(n) == k.component(n - 1) @ cone.diff(n)
        # k j = 0
        assert (k.component(n) @ j.component(n)).is_zero()


def test_homotopy_validation_rejects_wrong_data():
    c = two_term(INT, 2)
    f = identity_map(c)
    g = ComplexMap(c, c, {0: Matrix.from_rows(INT, [[3]]), 1: Matrix.from_rows(INT, [[3]])})
    # h = 1 in the only slot gives h d + d h = 2, but f - g = -2
    with pytest.raises(InvalidHomotopy):
        Homotopy(f, g, {0: Matrix.from_rows(INT, [[1]])}).validate()
    Homotopy(f, g, {0: Matrix.from_rows(INT, [[-1]])}).validate()


def test_homotopy_cone_iso_round_trip():
    rng = random.Random(14)
    for _ in range(10):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        f, g, h = random_homotopy_triple(rng, xd, yd)
        fwd, bwd = homotopy_cone_iso(h)
        for n in fwd.src.degrees():
            eye = Matrix.identity(INT, fwd.src.rank(n))
            assert bwd.component(n) @ fwd.component(n) == eye
            assert fwd.component(n) @ bwd.component(n) == eye


def test_cochain_storage_round_trip():
    d0 = Matrix.from_rows(INT, [[1], [-1]])
    c = cochain_complex(INT, {0: 1, 1: 2}, {0: d0})
    # codegree q sits at chain degree -q
    assert c.rank(0) == 1 and c.rank(-1) == 2
    assert c.diff(0) == d0
    ranks, d = cochain_view(c)
    assert ranks == {0: 1, 1: 2} and d == {0: d0}


def test_cochain_cone_matches_block_formula():
    # f: X* -> Y* cochain map on two-term complexes
    x = cochain_complex(INT, {0: 1, 1: 1}, {0: Matrix.from_rows(INT, [[2]])})
    y = cochain_complex(INT, {0: 1, 1: 1}, {0: Matrix.from_rows(INT, [[6]])})
    f = ComplexMap(x, y, {0: Matrix.from_rows(INT, [[3]]), -1: Matrix.from_rows(INT, [[9]])})
    cone = cone_of_cochain_map(f)
    # Cone^0 = X^0, Cone^1 = Y^0 (+) X^1; d(alpha, beta) = (f beta - d alpha, d beta)
    assert cone.rank(0) == 1 and cone.rank(-1) == 2
    d = cone.diff(0)
    assert d.shape == (2, 1)
    # beta in X^0: first slot f(beta) = 3 beta, second d beta = 2 beta
    assert d.col(0) == (3, 2)
    d1 = cone.diff(-1)
    assert (d1 @ d).is_zero()
    # Cone^2 = Y^1 alone; alpha in Y^0 contributes -d alpha = -6 alpha there
    assert d1.shape == (1, 2)
    assert d1.col(0) == (-6,)
    # beta in X^1 contributes f(beta) = 9 beta
    assert d1.col(1) == (9,)


def test_cochain_cone_split_blocks():
    x = cochain_complex(INT, {0: 2}, {})
    y = cochain_complex(INT, {0: 1, 1: 3}, {0: Matrix.zeros(INT, 3, 1)})
    f = ComplexMap(x, y, {0: Matrix.zeros(INT, 1, 2)})
    cone = cone_of_cochain_map(f)
    # Cone^1 = Y^0 (+) X^1, and X^1 = 0 here
    assert cone.rank(-1) == y.rank(0) + x.rank(-1) == 1
    vec = tuple(range(cone.rank(-1)))
    alpha, beta = cochain_cone_split(f, 1, vec)
    assert len(alpha) == 1 and len(beta) == 0


def test_dual_complex_is_involutive_and_valid():
    rng = random.Random(15)
    xd = random_block_complex(rng, 0, 3)
    c = xd.chain
    d = dual_complex(c)
    for m in d.degrees():
        assert (d.diff(m - 1) @ d.diff(m)).is_zero()
    dd = dual_complex(d)
    assert dd == c


def test_dual_map_commutes():
    rng = random.Random(16)
    xd = random_block_complex(rng, 0, 3)
    yd = random_block_complex(rng, 0, 3)
    f = random_chain_map(rng, xd, yd)
    fd = dual_map(f)
    for m in fd.degrees():
        assert fd.dst.diff(m) @ fd.component(m) == fd.component(m - 1) @ fd.src.diff(m)


def test_cone_duality_holds_with_signs():
    rng = random.Random(17)
    for _ in range(10):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        f = random_chain_map(rng, xd, yd)
        residuals = verify_cone_duality(f)
        assert residuals and all(r.is_zero() for r in residuals.values())


def test_cone_duality_signs_are_necessary():
    # without the sign twist the two differentials genuinely differ
    x = GradedComplex(INT, {0: 1, 1: 1}, {1: Matrix.from_rows(INT, [[2]])})
    y = GradedComplex(INT, {0: 1, 1: 1}, {1: Matrix.from_rows(INT, [[6]])})
    f = ComplexMap(x, y, {0: Matrix.from_rows(INT, [[3]]), 1: Matrix.from_rows(INT, [[1]])})
    lhs = cone_of_cochain_map(dual_map(f))
    rhs = dual_complex(cone_of_map(f))
    assert any(lhs.diff(m) != rhs.diff(m) for m in lhs.degrees())
    verify_cone_duality(f)


def test_kronecker_pairing_values():
    x = ConeElement(INT, 1, (2,), (3, 1))
    y = ConeElement(INT, 1, (5,), (1, 1))
    assert kronecker(x, y) == 2 * 5 - 3 - 1
    with pytest.raises(DegreeMismatch):
        kronecker(x, ConeElement(INT, 2, (1,), (0, 0)))
    with pytest.raises(ShapeMismatch):
        kronecker(x, ConeElement(INT, 1, (1, 1), (0, 0)))


def test_kronecker_ring_promotion():
    xq = ConeElement(RAT, 0, (Fraction(1, 2),), ())
    yz = ConeElement(INT, 0, (3,), ())
    assert kronecker(xq, yz) == Fraction(3, 2)
    xu = ConeElement(U1, 0, (Fraction(1, 3),), ())
    assert kronecker(xu, yz) == 0
    y2 = ConeElement(INT, 0, (2,), ())
    assert kronecker(xu, y2) == Fraction(2, 3)
    with pytest.raises(RingMismatch):
        kronecker(xq, ConeElement(ZMOD(5), 0, (1,), ()))


def test_kronecker_is_adjoint_to_the_differentials():
    # <d a, z> = -<a, d z> over the integer dual
    rng = random.Random(18)
    for _ in range(20):
        xd = random_block_complex(rng, 0, 3)
        yd = random_block_complex(rng, 0, 3)
        f = random_chain_map(rng, xd, yd)
        fd = dual_map(f)
        dcone = cone_of_cochain_map(fd)
        ccone = cone_of_map(f)
        q = rng.randrange(0, 4)
        a = random_vector(rng, dcone.rank(-q))
        z = random_vector(rng, ccone.rank(q + 1))
        da = dcone.diff(-q).apply(a)
        dz = ccone.diff(q + 1).apply(z)
        xa = ConeElement(INT, q + 1, *cochain_cone_split(fd, q + 1, da))
        yz = ConeElement(INT, q + 1, *cone_split(f, q + 1, z))
        lhs = kronecker(xa, yz)
        xb = ConeElement(INT, q, *cochain_cone_split(fd, q, a))
        ydz = ConeElement(INT, q, *cone_split(f, q, dz))
        rhs = kronecker(xb, ydz)
        assert lhs == -rhs


def test_kronecker_adjointness_with_circle_values():
    rng = random.Random(19)
    for _ in range(10):
        xd = random_block_complex(rng, 0, 2)
        yd = random_block_complex(rng, 0, 2)
        f = random_chain_map(rng, xd, yd)
        fd = dual_map(f)
        dcone = cone_of_cochain_map(fd)
        ccone = cone_of_map(f)
        q = rng.randrange(0, 3)
        a = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(dcone.rank(-q))]
        z = random_vector(rng, ccone.rank(q + 1))
        da = dcone.diff(-q).zapply(U1, a)
        dz = ccone.diff(q + 1).apply(z)
        xa = ConeElement(U1, q + 1, *cochain_cone_split(fd, q + 1, da))
        yz = ConeElement(INT, q + 1, *cone_split(f, q + 1, z))
        xb = ConeElement(U1, q, *cochain_cone_split(fd, q, a))
        ydz = ConeElement(INT, q, *cone_split(f, q, dz))
        assert kronecker(xa, yz) == U1.neg(kronecker(xb, ydz))


def test_cone_element_normalizes():
    e = ConeElement(ZMOD(5), 0, (7,), (-1,))
    assert e.theta == (2,) and e.eta == (4,)
