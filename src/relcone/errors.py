"""Error types raised across the package.

Every failure mode that callers are expected to catch has a named class
here; modules raise these rather than bare ValueError so the CLI can map
them onto exit codes.
"""


class RelconeError(Exception):
    """Base class for all package errors."""


class RingMismatch(RelconeError):
    """Operands live over different coefficient rings."""


class MulOnAngleQ(RelconeError):
    """Multiplication requested in the circle group, which is not a ring."""


class UnsupportedRing(RelconeError):
    """The operation is not defined over the given coefficient ring."""


class ShapeMismatch(RelconeError):
    """Matrix or vector dimensions are incompatible."""


class DegreeMismatch(RelconeError):
    """Graded objects were combined at incompatible degrees."""


class InvalidChainMap(RelconeError):
    """The square d f = f d fails, or shapes do not line up degreewise."""


class InvalidHomotopy(RelconeError):
    """h d + d h differs from f - g somewhere."""


class InvalidComplex(RelconeError):
    """Simplicial data is malformed: duplicate vertices or unknown labels."""


class InvalidSimplicialMap(RelconeError):
    """Some simplex image is not a simplex of the target complex."""


class NotACocycle(RelconeError):
    """The given cochain is not closed under the relevant differential."""


class CoverMismatch(RelconeError):
    """A cochain or map refers to a different cover than expected."""


class InconsistentIntersections(RelconeError):
    """Cover intersection data mentions unknown sets or is malformed."""


class NotClosed(RelconeError):
    """A form/cochain required to be closed is not."""


class NotIsotropic(RelconeError):
    """The pullback of the given form along the map is nonzero."""


class NontrivialClass(RelconeError):
    """Trivialization was requested for a cocycle with nonzero class."""

    def __init__(self, cls, message="cocycle class is nonzero"):
        super().__init__(message)
        self.cls = cls


class ParseError(RelconeError):
    """Input text failed to parse; carries best-effort line/column."""

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col


class IoError(RelconeError):
    """A file could not be read or written."""
