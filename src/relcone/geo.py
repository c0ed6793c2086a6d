"""Relative functions, line bundles, and gerbes at the cocycle level.

Each geometric object over a map of covered spaces is stored as exactly
the cocycle data its classification produces: an integer or angle-valued
pair on the two covers, closed under the relative coboundary.  The
operations classify such pairs into the integer cohomology of the cone,
produce trivializing witnesses when the obstruction vanishes, compare
pairs up to coboundary, and run the integrality and Bohr-Sommerfeld
checks for closed rational pairs against generating relative cycles.

All verdicts are exact.  Every witness, integer or angle-valued, comes
from the one solver a cover map keeps per cone degree: a Smith form
A = U D V of the cone differential.  Q/Z is divisible, so an angle
equation A w = u (mod 1) is solved directly by dividing U^-1 u by the
diagonal, with no denominator to clear and no modulus to bound.

Nothing here builds a complex; everything reads what a `cech.CoverMap`
compiles.  Classes and witnesses read its relative Cech cone and that
cone's integer homology, absolute ones the cone of the empty cover
mapped into the cover (the map the cover owns), and integrality the
chain cone of the pushforward kept by the map's star cover map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cech import (
    CechCochain,
    CoverMap,
    RelCechCochain,
    bockstein,
    is_rel_cocycle,
    rel_diff,
    star_cover_map,
)
from .chain import ConeElement, kronecker
from .coeffs import INT, RAT, U1, CoeffRing
from .errors import (
    CoverMismatch,
    DegreeMismatch,
    InvalidChainMap,
    NontrivialClass,
    NotACocycle,
    NotClosed,
    NotIsotropic,
    RingMismatch,
    UnsupportedRing,
)
from .homology import AbGroup
from .matrix import Matrix
from .simplicial import SimplicialMap


# ---------------------------------------------------------------------------
# Cocycle types
# ---------------------------------------------------------------------------


class _RelCocycle:
    """A relative cocycle of one kind, kept as the pair `u` = (low, high).

    Subclasses set `kind`, the coefficient `ring`, the `degree` of the
    high part on the target cover (the low part on the source cover has
    degree one less), `parts`, the names of the low and high parts, and
    name the `low` and `high` properties after them.
    """

    kind: str
    ring: CoeffRing
    degree: int
    parts: tuple

    def __init__(self, m: CoverMap, low: CechCochain, high: CechCochain):
        for c, degree, name in ((low, self.degree - 1, self.parts[0]), (high, self.degree, self.parts[1])):
            if c.ring != self.ring:
                raise RingMismatch(f"component {name} must be {self.ring}-valued, got {c.ring}")
            if c.degree != degree:
                raise DegreeMismatch(f"component {name} must have degree {degree}, got {c.degree}")
        self.u = RelCechCochain(m, low, high)

    @property
    def cover_map(self) -> CoverMap:
        return self.u.m

    @property
    def low(self) -> CechCochain:
        return self.u.s

    @property
    def high(self) -> CechCochain:
        return self.u.t

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.u == other.u

    def __repr__(self):
        return f"{type(self).__name__}({self.u!r})"


class RelFunctionCocycle(_RelCocycle):
    """Winding data of a circle-valued function relative to a map.

    `b` records integer branch choices on the source cover, `a` the
    integer winding cocycle on the target cover; closedness says the
    windings match across the map.
    """

    kind = "function"
    ring = INT
    degree = 1
    parts = ("b", "a")
    b = _RelCocycle.low
    a = _RelCocycle.high


class RelLineBundleCocycle(_RelCocycle):
    """Transition data of a line bundle on the target trivialized upstairs.

    `g` is the angle-valued transition 1-cocycle on the target cover,
    `f` the section phases on the source cover with coboundary the
    pulled-back transitions.
    """

    kind = "line_bundle"
    ring = U1
    degree = 1
    parts = ("f", "g")
    f = _RelCocycle.low
    g = _RelCocycle.high


class RelGerbeCocycle(_RelCocycle):
    """A gerbe on the target with a quasi-line-bundle structure upstairs.

    `t` is the angle-valued gerbe 2-cocycle on the target cover, `s`
    the 1-cochain on the source cover whose coboundary is the pullback
    of `t`; together they form a relative 2-cocycle in the cone.
    """

    kind = "gerbe"
    ring = U1
    degree = 2
    parts = ("s", "t")
    s = _RelCocycle.low
    t = _RelCocycle.high


COCYCLE_KINDS = {
    "function": RelFunctionCocycle,
    "line_bundle": RelLineBundleCocycle,
    "gerbe": RelGerbeCocycle,
}


def _rewrap(c, u: RelCechCochain):
    return type(c)(u.m, u.s, u.t)


# ---------------------------------------------------------------------------
# Validation and group structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Defect:
    """One failing overlap: which cover, which sets, and the residue."""

    side: str
    overlap: tuple
    value: object


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    defects: tuple

    def __bool__(self) -> bool:
        return self.valid


def validate(c) -> ValidationReport:
    """Exact check of both cocycle identities, defects localized.

    `source` defects are failures of d(low) = pullback(high) on source
    overlaps; `target` defects are failures of d(high) = 0.
    """
    w = rel_diff(c.u)
    defects = [Defect("source", names, v) for names, v in w.s.items()]
    defects += [Defect("target", names, v) for names, v in w.t.items()]
    return ValidationReport(w.is_zero, tuple(defects))


def group_op(c1, c2):
    """Componentwise sum; tensor product at the geometric level."""
    if type(c1) is not type(c2):
        raise TypeError(f"cannot combine {type(c1).__name__} with {type(c2).__name__}")
    return _rewrap(c1, c1.u + c2.u)


def inverse(c):
    """Componentwise negation; the dual object."""
    return _rewrap(c, -c.u)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """A class written in a fixed generator basis of an AbGroup.

    `orders` gives the order of each generator, 0 meaning infinite;
    torsion coordinates are canonicalized into [0, order).
    """

    kind: str
    basis: str
    coords: tuple
    orders: tuple
    group: AbGroup

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def torsion_orders(self) -> tuple:
        return tuple(d for d in self.orders if d)


def _require_valid(c):
    rep = validate(c)
    if not rep.valid:
        raise NotACocycle(
            f"{c.kind} cocycle conditions fail on {len(rep.defects)} overlap(s)"
        )


def _class_report(u: RelCechCochain, kind: str, space: str) -> ClassReport:
    q = u.degree
    if u.ring == INT:
        data = u.m.data(-q)
        return ClassReport(kind, f"H^{q}({space},Z)", data.express(u.vector()), data.orders, data.group)
    res = bockstein(u)
    return ClassReport(kind, f"H^{q + 1}({space},Z)", res.coords, res.data.orders, res.data.group)


def classify(c) -> ClassReport:
    """The class of a cocycle in the integer cohomology of the cone.

    Integer cocycles are expressed directly in their own degree;
    angle-valued cocycles go through the connecting map one degree up.
    """
    _require_valid(c)
    return _class_report(c.u, c.kind, "Phi")


# ---------------------------------------------------------------------------
# Trivialization
# ---------------------------------------------------------------------------


def _witness(u: RelCechCochain) -> RelCechCochain | None:
    """A relative cochain one degree down with coboundary u, or None.

    Both rings read the map's solver of the cone differential below u.
    """
    q = u.degree
    solver = u.m.solver(1 - q)
    if u.ring == INT:
        sol = solver.solve(Matrix.column(INT, list(u.vector())))
        vec = None if sol is None else sol.col(0)
    else:
        vec = solver.solve_mod_one(u.vector())
    if vec is None:
        return None
    witness = RelCechCochain.from_vector(u.m, q - 1, u.ring, vec)
    if rel_diff(witness) != u:
        raise InvalidChainMap("solver returned a non-witness")
    return witness


def trivialize(c) -> RelCechCochain:
    """A witness pair one degree down whose coboundary is the cocycle.

    Over the integers this is an exact lattice solve; over angles it is
    the same Smith form read over Q/Z.  On failure the cocycle's class
    is raised; for angle cocycles a zero class with no witness means the
    obstruction is rational rather than torsion.
    """
    _require_valid(c)
    witness = _witness(c.u)
    if witness is None:
        raise NontrivialClass(classify(c))
    return witness


def is_equivalent(c1, c2):
    """Whether two cocycles differ by a relative coboundary.

    Returns (True, witness) with d(witness) = c1 - c2, or (False, None).
    """
    diff = group_op(c1, inverse(c2))
    try:
        return True, trivialize(diff)
    except NontrivialClass:
        return False, None


# ---------------------------------------------------------------------------
# Absolute (single-cover) classification, for the target data alone
# ---------------------------------------------------------------------------


def _absolute_pair(t: CechCochain) -> RelCechCochain:
    """A closed cochain t as the relative cocycle (0, t) of the empty cover mapped into t's cover.

    The cone of that map is the cover's own cochain complex, so its
    classes and witnesses are the absolute ones.  The cover owns the
    map, so repeated calls on one cover build its cone once.
    """
    m = t.cover.absolute
    u = RelCechCochain(m, CechCochain(m.src, t.degree - 1, t.ring), t)
    if not is_rel_cocycle(u):
        raise NotACocycle("cochain is not closed")
    return u


def absolute_classify(t: CechCochain, kind: str = "absolute") -> ClassReport:
    """Class of a closed cochain on one cover, in the cover's cohomology.

    Angle-valued cocycles map through the connecting homomorphism into
    degree q+1 integer cohomology; integer cocycles are expressed in
    their own degree.
    """
    u = _absolute_pair(t)
    if t.ring not in (INT, U1):
        raise UnsupportedRing(f"no classification over {t.ring}")
    return _class_report(u, kind, "N")


def absolute_trivialize(t: CechCochain) -> CechCochain:
    """A cochain one degree down with coboundary t, or NontrivialClass."""
    u = _absolute_pair(t)
    if t.ring not in (INT, U1):
        raise UnsupportedRing(f"no trivialization over {t.ring}")
    if t.degree == 0 and t.is_zero:
        # a witness pair would need a degree -2 source part; C^-1 = 0 bounds only zero
        return CechCochain(t.cover, -1, t.ring)
    witness = _witness(u)
    if witness is None:
        raise NontrivialClass(absolute_classify(t))
    return witness.t


def dixmier_douady(c: RelGerbeCocycle) -> ClassReport:
    """The absolute class of the target gerbe data in H^3 of its cover."""
    _require_valid(c)
    return absolute_classify(c.t, kind=c.kind)


# ---------------------------------------------------------------------------
# Integrality and the Bohr-Sommerfeld check
# ---------------------------------------------------------------------------


class RelRealCochainPair:
    """A closed-form stand-in: rational cochains on the vertex-star covers.

    `alpha` has degree n on the target model, `beta` degree n-1 on the
    source model; the pair is relative-closed when d(beta, alpha)
    vanishes in the cone, which is what lets its pairing with relative
    cycles descend to homology.
    """

    def __init__(self, phi: SimplicialMap, alpha: CechCochain, beta: CechCochain):
        if alpha.ring != RAT or beta.ring != RAT:
            raise RingMismatch("real cochain pairs are rational-valued")
        m = star_cover_map(phi)
        if alpha.cover != m.dst:
            raise CoverMismatch("alpha must live on the target model's star cover")
        if beta.cover != m.src:
            raise CoverMismatch("beta must live on the source model's star cover")
        if beta.degree != alpha.degree - 1:
            raise DegreeMismatch(f"degrees ({alpha.degree}, {beta.degree}) are not (n, n-1)")
        self.phi = phi
        self.m = m
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def from_values(cls, phi: SimplicialMap, degree: int, alpha_values, beta_values) -> "RelRealCochainPair":
        m = star_cover_map(phi)
        alpha = CechCochain(m.dst, degree, RAT, alpha_values)
        beta = CechCochain(m.src, degree - 1, RAT, beta_values)
        return cls(phi, alpha, beta)

    @property
    def degree(self) -> int:
        return self.alpha.degree

    def rel(self) -> RelCechCochain:
        return RelCechCochain(self.m, self.beta, self.alpha)

    @property
    def is_closed(self) -> bool:
        return rel_diff(self.rel()).is_zero

    def shift_by_coboundary(self, low: RelCechCochain) -> "RelRealCochainPair":
        """The pair plus d(low); pairings with cycles are unchanged."""
        w = rel_diff(low)
        return RelRealCochainPair(self.phi, self.alpha + w.t, self.beta + w.s)

    def __eq__(self, other):
        if not isinstance(other, RelRealCochainPair):
            return NotImplemented
        return self.phi is other.phi and self.alpha == other.alpha and self.beta == other.beta

    def __repr__(self):
        return f"RelRealCochainPair(deg {self.degree})"


@dataclass(frozen=True)
class GeneratorPairing:
    """Pairing of the pair against one homology generator.

    For free generators (order 0) integrality is judged on the value;
    for torsion generators on order * value, with the raw value kept.
    """

    order: int
    value: Fraction
    ok: bool
    cycle: tuple


@dataclass(frozen=True)
class IntegralityReport:
    degree: int
    pairings: tuple

    @property
    def integral(self) -> bool:
        return all(p.ok for p in self.pairings)


def is_integral(p: RelRealCochainPair) -> IntegralityReport:
    """Pair (alpha, beta) against every generator of the map's homology.

    The pairing of a relative cycle (theta, eta) is alpha(eta) minus
    beta(theta); for a closed pair this depends only on the class.  It is
    minus `chain.kronecker` of (beta, alpha), which is beta(theta) - alpha(eta).
    """
    if not p.is_closed:
        raise NotClosed("d(beta, alpha) is nonzero in the relative cone")
    n = p.degree
    data = p.m.chain_data(n)
    split = p.phi.src.n_rank(n - 1)
    x = ConeElement(RAT, n, p.beta.vector(), p.alpha.vector())
    pairings = []
    for order, g in zip(data.orders, data.group.generators):
        value = -kronecker(x, ConeElement(INT, n, g[:split], g[split:]))
        scaled = value * order if order else value
        pairings.append(GeneratorPairing(order, value, scaled.denominator == 1, tuple(g)))
    return IntegralityReport(n, tuple(pairings))


def bohr_sommerfeld(omega: CechCochain, phi: SimplicialMap) -> IntegralityReport:
    """Integrality of (omega, 0) for a map with isotropic pullback.

    `omega` is a pre-normalized rational 2-cochain on the target model;
    any constant factor is the caller's responsibility.  One relative
    differential of (0, omega) decides both conditions: its source block
    is the pullback of omega (isotropy), its target block d omega
    (closedness).
    """
    m = star_cover_map(phi)
    if omega.ring != RAT:
        raise RingMismatch("omega must be rational-valued")
    if omega.cover != m.dst:
        raise CoverMismatch("omega must live on the target model's star cover")
    beta = CechCochain(m.src, omega.degree - 1, RAT)
    w = rel_diff(RelCechCochain(m, beta, omega))
    if not w.s.is_zero:
        raise NotIsotropic("omega pulls back nonzero along the map")
    if not w.t.is_zero:
        raise NotClosed("omega is not closed")
    return is_integral(RelRealCochainPair(phi, omega, beta))
