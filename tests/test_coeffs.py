import random
from fractions import Fraction

import pytest

from relcone.cech import CechCochain, Cover, lift_angles
from relcone.coeffs import (
    INT,
    RAT,
    U1,
    ZMOD,
    CoeffRing,
    int_from_text,
    parse_ring,
    value_from_json,
    value_to_json,
)
from relcone.errors import MulOnAngleQ, ParseError, RingMismatch, UnsupportedRing
from relcone.matrix import Matrix


def test_parse_ring_round_trips():
    for text, ring in [("Z", INT), ("Q", RAT), ("U1", U1), ("Zmod:5", ZMOD(5)), ("Zmod:12", ZMOD(12))]:
        assert parse_ring(text) == ring
        assert parse_ring(str(ring)) == ring


def test_parse_ring_rejects_garbage():
    for bad in ["z", "Zmod:", "Zmod:0", "Zmod:-3", "R", "Zmod:abc", ""]:
        with pytest.raises(ParseError):
            parse_ring(bad)


def test_normalize_per_ring():
    # bools are not integers here: passing True is always a caller bug
    with pytest.raises(RingMismatch):
        INT.normalize(True)
    assert INT.normalize(Fraction(4, 2)) == 2
    assert RAT.normalize(2) == Fraction(2)
    assert ZMOD(7).normalize(-1) == 6
    # circle values live in [0, 1)
    assert U1.normalize(Fraction(7, 3)) == Fraction(1, 3)
    assert U1.normalize(Fraction(-1, 4)) == Fraction(3, 4)
    assert U1.normalize(Fraction(2)) == 0


def test_scalar_arithmetic_int():
    assert INT.add(5, -3) == 2
    assert INT.neg(5) == -5
    assert INT.mul(5, -3) == -15


def test_scalar_arithmetic_mod():
    r = ZMOD(6)
    assert r.add(4, 5) == 3
    assert r.mul(4, 5) == 2
    assert r.neg(4) == 2


def test_circle_group_addition_wraps():
    assert U1.add(Fraction(3, 4), Fraction(1, 2)) == Fraction(1, 4)
    assert U1.neg(Fraction(3, 4)) == Fraction(1, 4)
    assert U1.neg(U1.zero()) == 0


def test_circle_group_has_no_multiplication():
    with pytest.raises(MulOnAngleQ):
        U1.mul(Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(MulOnAngleQ):
        U1.one()


def test_integer_action_exists_on_every_ring():
    assert INT.zmul(3, 4) == 12
    assert RAT.zmul(-2, Fraction(1, 3)) == Fraction(-2, 3)
    assert ZMOD(5).zmul(7, 3) == 1
    assert U1.zmul(3, Fraction(1, 2)) == Fraction(1, 2)
    assert U1.zmul(2, Fraction(1, 2)) == 0


def test_field_flags_and_inverses():
    assert RAT.is_field and ZMOD(7).is_field
    assert not INT.is_field and not U1.is_field and not ZMOD(6).is_field
    assert RAT.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert ZMOD(7).inv(3) == 5
    with pytest.raises(UnsupportedRing):
        INT.inv(2)


def point_cover() -> Cover:
    """Three disjoint sets: a 0-cochain is one free value per set."""
    return Cover.from_sets(["a", "b", "c"], [])


def test_angle_lift_is_canonical():
    # lift_angles picks the rational representative in [0, 1), and reducing it gives the angle back
    cov = point_cover()
    c = CechCochain.from_vector(cov, 0, U1, [Fraction(5, 3), 0, Fraction(-1, 4)])
    lifted = lift_angles(c)
    assert lifted.ring == RAT
    assert lifted.vector() == (Fraction(2, 3), 0, Fraction(3, 4))
    assert all(type(v) is Fraction for v in lifted.vector())
    assert CechCochain.from_vector(cov, 0, U1, lifted.vector()) == c
    with pytest.raises(RingMismatch):
        lift_angles(CechCochain.from_vector(cov, 0, RAT, [Fraction(1, 2)] * 3))


def test_angle_lift_additivity_defect_is_integral():
    # lift(a + b) - lift(a) - lift(b) is 0 or -1 on every set
    rng = random.Random(20260823)
    cov = point_cover()
    for _ in range(70):
        a, b = (
            CechCochain.from_vector(cov, 0, U1, [Fraction(rng.randrange(-40, 40), rng.randrange(1, 12)) for _ in range(3)])
            for _ in range(2)
        )
        for x in lift_angles(a + b).vector():
            assert 0 <= x < 1
        defect = lift_angles(a + b) - lift_angles(a) - lift_angles(b)
        assert all(v in (0, -1) for v in defect.vector())


def test_value_json_round_trip():
    cases = [
        (INT, 5),
        (INT, -(10**20)),
        (RAT, Fraction(-7, 3)),
        (U1, Fraction(1, 2)),
        (ZMOD(9), 7),
        # past the interpreter's default 4300-digit int/str limit
        (INT, 10**5000 - 1),
        (INT, -(7**6000)),
        (RAT, Fraction(10**5000 + 1, 3**9000)),
        (U1, Fraction(1, 10**5000 + 7)),
    ]
    for ring, v in cases:
        v = ring.normalize(v)
        assert value_from_json(ring, value_to_json(ring, v)) == v


def test_big_int_json_uses_strings():
    big = 2**80
    enc = value_to_json(INT, big)
    assert isinstance(enc, str)
    assert value_from_json(INT, enc) == big


def test_integers_past_the_str_digit_limit_are_exact():
    assert value_to_json(INT, 10**5000) == "1" + "0" * 5000
    assert value_to_json(INT, -(10**5000 - 1)) == "-" + "9" * 5000
    assert value_to_json(RAT, Fraction(-(10**5000), 3)) == "-1" + "0" * 5000 + "/3"
    rng = random.Random(4300)
    for digits in (572, 639, 640, 1200, 4000):
        n = rng.randrange(10 ** (digits - 1), 10**digits)
        for text in (str(n), str(-n), "+" + str(n)):
            assert value_from_json(INT, text) == int(text)
            assert int_from_text(text) == int(text)
    for bad in ("1" * 700 + "x", "--" + "1" * 700, " " + "1" * 700, "1.5" + "0" * 700):
        with pytest.raises(ValueError):
            int_from_text(bad)
        with pytest.raises(ParseError):
            value_from_json(INT, bad)


def test_ring_equality_and_hash():
    assert ZMOD(5) == ZMOD(5)
    assert ZMOD(5) != ZMOD(7)
    assert len({INT, RAT, U1, ZMOD(5), ZMOD(5)}) == 4
    assert isinstance(INT, CoeffRing)


@pytest.mark.parametrize("ring", [INT, RAT, ZMOD(2), ZMOD(7), U1], ids=str)
def test_every_ring_rejects_bool(ring):
    """True and False are not numbers in any ring, whichever path builds the value."""
    for b in (True, False):
        with pytest.raises(RingMismatch):
            ring.normalize(b)
        with pytest.raises(RingMismatch):
            Matrix(ring, 1, 1, [[b]])
        with pytest.raises(RingMismatch):
            Matrix.zeros(ring, 1, 1).zscale(b)


@pytest.mark.parametrize("ring", [INT, RAT, ZMOD(5), U1], ids=str)
def test_normalize_returns_the_exact_stored_type(ring):
    """Subclasses of int and Fraction come back as the stored type itself, and zero()/one() are one value each."""
    class Int(int):
        pass

    class Frac(Fraction):
        pass

    stored = int if ring.kind in ("Z", "Zmod") else Fraction
    for v in (Int(3), Frac(6, 2), 3, Fraction(3), -4, Fraction(-8, 2)):
        w = ring.normalize(v)
        assert type(w) is stored and w == ring.normalize(int(v))
        assert type(ring.normalize(w)) is stored and ring.normalize(w) == w
    assert ring.zero() is ring.zero() and type(ring.zero()) is stored
    if ring != U1:
        assert ring.one() is ring.one() and type(ring.one()) is stored
