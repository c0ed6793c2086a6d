"""Exact mapping-cone homology for chain maps, simplicial maps, and covers.

The layers build on each other: integer/rational/modular/angle scalars
(coeffs), exact matrices (matrix), graded complexes and mapping cones
(chain), Smith-form homology and long exact sequences (homology),
simplicial models and cone spaces (simplicial), covers and relative
Cech cohomology (cech), and cocycle-level classification with
integrality checks (geo).  jsonio and cli expose all of it as a batch
tool; fixtures holds the named corpus.
"""

from .cech import (
    CechCochain,
    Cover,
    CoverMap,
    RelCechCochain,
    bockstein,
    cech_diff,
    compose_cover_maps,
    lift_angles,
    pullback,
    rel_diff,
    relative_cohomology,
    relative_cone_complex,
    star_cover,
    star_cover_map,
)
from .chain import (
    ComplexMap,
    ConeElement,
    GradedComplex,
    Homotopy,
    cone_of_cochain_map,
    cone_of_map,
    cone_split,
    dual_complex,
    dual_map,
    homotopy_cone_iso,
    kronecker,
    verify_cone_duality,
)
from .coeffs import INT, RAT, U1, ZMOD, CoeffRing, parse_ring
from .errors import (
    CoverMismatch,
    DegreeMismatch,
    IoError,
    NontrivialClass,
    NotACocycle,
    NotClosed,
    NotIsotropic,
    ParseError,
    RelconeError,
    RingMismatch,
    UnsupportedRing,
)
from .geo import (
    RelFunctionCocycle,
    RelGerbeCocycle,
    RelLineBundleCocycle,
    RelRealCochainPair,
    absolute_classify,
    absolute_trivialize,
    bohr_sommerfeld,
    classify,
    dixmier_douady,
    group_op,
    inverse,
    is_equivalent,
    is_integral,
    trivialize,
    validate,
)
from .homology import (
    AbGroup,
    homology_at,
    homology_data,
    ker_coker_les,
    les_of_cone,
    quasi_iso,
    snf,
)
from .matrix import Matrix
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    chain_complex,
    chain_map,
    compare_cones,
    mapping_cone_space,
    mapping_cylinder,
    nerve,
)

__version__ = "0.1.0"
