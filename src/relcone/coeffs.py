"""Exact coefficient systems.

Four coefficient systems are supported:

* ``Z``    -- the integers (Python ints, arbitrary precision),
* ``Q``    -- the rationals (``fractions.Fraction``),
* ``Zmod`` -- integers modulo n, canonical representatives in [0, n),
* ``U1``   -- the circle group, modeled additively as Q/Z; a value x
  stands for exp(2 pi i x) and is stored as a reduced Fraction in [0, 1).

The first three are rings; U1 is only a group, so multiplication there
raises :class:`~relcone.errors.MulOnAngleQ`.  All arithmetic is exact;
no value is ever a float.

Values are normalized once, where they enter the program:
:meth:`CoeffRing.normalize` turns an outside value into the stored type
(an int for Z, a residue int in [0, n) for Zmod, a Fraction for Q, a
Fraction in [0, 1) for U1) and rejects everything else, ``bool``
included.  ``Matrix(...)``, the cochain constructors and the JSON
readers call it.  The arithmetic methods take normalized
values and return normalized values of the exact stored type, so their
results are trusted from then on: ``Matrix._of`` and the cochains'
``_of`` store them without calling ``normalize`` again.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import MulOnAngleQ, ParseError, RingMismatch, UnsupportedRing

_KINDS = ("Z", "Q", "Zmod", "U1")
_WHAT = {"Z": "an integer", "Q": "rational", "Zmod": "an integer", "U1": "a rational angle"}
# One shared value per kind: ints and Fractions are immutable, and 0 and 1
# are canonical residues for every modulus >= 2.
_ZERO = {"Z": 0, "Q": Fraction(0), "Zmod": 0, "U1": Fraction(0)}
_ONE = {"Z": 1, "Q": Fraction(1), "Zmod": 1}


@dataclass(frozen=True)
class CoeffRing:
    """A coefficient ring (or, for U1, a coefficient group)."""

    kind: str
    modulus: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise UnsupportedRing(f"unknown ring kind {self.kind!r}")
        if self.kind == "Zmod":
            if not isinstance(self.modulus, int) or self.modulus < 2:
                raise UnsupportedRing("Zmod modulus must be an integer >= 2")
        elif self.modulus is not None:
            raise UnsupportedRing(f"{self.kind} takes no modulus")

    # -- value normalization ------------------------------------------------

    def normalize(self, v):
        """Coerce v into the canonical internal representation.

        A value of the stored type comes back after one exact ``type``
        test: an int for Z (reduced mod n for Zmod), a Fraction for Q,
        a Fraction already in [0, 1) for U1.  Anything else takes the
        checked path; ``bool`` is not a number in any ring.
        """
        kind, t = self.kind, type(v)
        if kind == "Z":
            if t is int:
                return v
        elif kind == "Q":
            if t is Fraction:
                return v  # immutable, so already canonical
        elif kind == "Zmod":
            if t is int:
                return v % self.modulus
        elif t is Fraction and 0 <= v.numerator < v.denominator:
            return v
        return self._coerce(v)

    def _coerce(self, v):
        """normalize for values not already of the stored type."""
        kind = self.kind
        if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
            raise RingMismatch(f"{v!r} is not {_WHAT[kind]}")
        if kind == "Q":
            return Fraction(v)
        if kind == "U1":
            return Fraction(v) % 1
        if isinstance(v, Fraction) and v.denominator != 1:
            raise RingMismatch(f"{v} is not an integer")
        v = int(v)
        return v if kind == "Z" else v % self.modulus

    # -- arithmetic on normalized values ------------------------------------

    def add(self, a, b):
        if self.kind == "Zmod":
            return (a + b) % self.modulus
        if self.kind == "U1":
            return (a + b) % 1
        return a + b

    def neg(self, a):
        if self.kind == "Zmod":
            return (-a) % self.modulus
        if self.kind == "U1":
            return (-a) % 1
        return -a

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.kind == "U1":
            raise MulOnAngleQ("the circle group has no ring multiplication")
        if self.kind == "Zmod":
            return (a * b) % self.modulus
        return a * b

    def zmul(self, n: int, a):
        """Z-module action n . a; defined for every coefficient system."""
        if self.kind == "Zmod":
            return (n * a) % self.modulus
        if self.kind == "U1":
            return (n * a) % 1
        return n * a

    def zero(self):
        return _ZERO[self.kind]

    def one(self):
        if self.kind == "U1":
            raise MulOnAngleQ("the circle group has no multiplicative unit")
        return _ONE[self.kind]

    @property
    def is_field(self) -> bool:
        if self.kind == "Q":
            return True
        if self.kind == "Zmod":
            return _is_prime(self.modulus)
        return False

    def inv(self, a):
        """Multiplicative inverse; only over a field."""
        if self.kind == "Q":
            if a == 0:
                raise ZeroDivisionError("division by zero in Q")
            return 1 / Fraction(a)
        if self.kind == "Zmod" and self.is_field:
            if a % self.modulus == 0:
                raise ZeroDivisionError(f"division by zero mod {self.modulus}")
            return pow(a, -1, self.modulus)
        raise UnsupportedRing(f"no division in {self}")

    def __str__(self):
        if self.kind == "Zmod":
            return f"Zmod:{self.modulus}"
        return self.kind


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


INT = CoeffRing("Z")
RAT = CoeffRing("Q")
U1 = CoeffRing("U1")


def ZMOD(n: int) -> CoeffRing:
    return CoeffRing("Zmod", n)


def parse_ring(text: str) -> CoeffRing:
    """Parse the CLI/JSON spelling: Z | Q | Zmod:n | U1."""
    if text == "Z":
        return INT
    if text == "Q":
        return RAT
    if text == "U1":
        return U1
    if text.startswith("Zmod:"):
        try:
            n = int(text.split(":", 1)[1])
        except ValueError:
            raise ParseError(f"bad modulus in ring {text!r}") from None
        if n < 2:
            raise ParseError(f"bad modulus in ring {text!r}: need an integer >= 2")
        return ZMOD(n)
    raise ParseError(f"unknown ring {text!r}")


# ---------------------------------------------------------------------------
# JSON forms.  Integers as numbers (decimal strings once past 2**53 so that
# nothing downstream is tempted to round), rationals and angles as "p/q",
# residues as {"mod": n, "val": v}.
# ---------------------------------------------------------------------------

_SAFE_INT = 2**53
# int <-> str refuses texts past an interpreter-wide digit limit (4300 by
# default, never below this); decimal converts exactly at any length.
_DIGIT_LIMIT_FLOOR = 640


def int_from_text(text: str) -> int:
    """int(text); a plain [+-]digits literal may have any length."""
    if len(text) < _DIGIT_LIMIT_FLOOR:
        return int(text)
    if not (text[1:] if text[0] in "+-" else text).isdecimal():
        raise ValueError(f"invalid integer literal of {len(text)} characters")
    return int(Decimal(text))


def _preview(obj) -> str:
    """repr(obj) cut to 80 characters; huge integers have no repr."""
    try:
        text = repr(obj)
    except ValueError:
        text = f"<{type(obj).__name__}>"
    return text if len(text) <= 80 else text[:77] + "..."


def value_to_json(ring: CoeffRing, v):
    if ring.kind == "Z":
        return v if abs(v) < _SAFE_INT else str(Decimal(v))
    if ring.kind in ("Q", "U1"):
        return f"{Decimal(v.numerator)}/{Decimal(v.denominator)}"
    return {"mod": ring.modulus, "val": v}


def value_from_json(ring: CoeffRing, obj):
    try:
        if ring.kind == "Z":
            if isinstance(obj, str):
                return int_from_text(obj)
            if isinstance(obj, bool) or not isinstance(obj, int):
                raise ParseError(f"expected integer, got {_preview(obj)}")
            return obj
        if ring.kind in ("Q", "U1"):
            if isinstance(obj, str):
                if len(obj) < _DIGIT_LIMIT_FLOOR:
                    return ring.normalize(Fraction(obj))
                num, slash, den = obj.partition("/")
                return ring.normalize(Fraction(int_from_text(num), int_from_text(den) if slash else 1))
            if isinstance(obj, bool) or not isinstance(obj, int):
                raise ParseError(f"expected rational, got {_preview(obj)}")
            return ring.normalize(obj)
        if isinstance(obj, dict):
            if obj.get("mod") != ring.modulus:
                raise ParseError(f"residue {_preview(obj)} has wrong modulus for {ring}")
            return ring.normalize(obj["val"])
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise ParseError(f"expected residue, got {_preview(obj)}")
        return ring.normalize(obj)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {_preview(obj)}: {exc}") from None
