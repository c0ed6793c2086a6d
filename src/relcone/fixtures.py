"""Shared fixture complexes and maps used by tests, goldens, and the CLI.

The circle models use 3d vertices so that every self-map of winding
number d is simplicial on the nose; the disk is the cone over the
hexagon; spheres are unreduced suspensions.
"""

from fractions import Fraction

from .cech import CechCochain, Cover, CoverMap, star_cover_map
from .coeffs import INT, RAT, U1
from .geo import RelFunctionCocycle, RelGerbeCocycle, RelLineBundleCocycle, RelRealCochainPair
from .simplicial import SimplicialComplex, SimplicialMap


def cycle_complex(m: int, prefix: str = "v") -> SimplicialComplex:
    """The m-gon circle: vertices prefix0..prefix(m-1), consecutive edges."""
    if m < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    verts = [f"{prefix}{i}" for i in range(m)]
    facets = [(verts[i], verts[(i + 1) % m]) for i in range(m)]
    return SimplicialComplex(verts, facets)


def point_complex(label: str = "pt") -> SimplicialComplex:
    return SimplicialComplex([label], [(label,)])


def degree_map(d: int) -> SimplicialMap:
    """A winding-number-d simplicial self-map of the circle.

    Source is the 3d-gon (the hexagon for d = 0), target the triangle;
    d = 0 walks forward then backward around the target.
    """
    dst = cycle_complex(3, "w")
    if d == 0:
        src = cycle_complex(6, "v")
        pattern = [0, 1, 2, 0, 2, 1]
        vmap = {f"v{i}": f"w{pattern[i]}" for i in range(6)}
        return SimplicialMap(src, dst, vmap)
    if d < 0:
        raise ValueError("negative winding fixtures are not defined")
    src = cycle_complex(3 * d, "v")
    vmap = {f"v{i}": f"w{i % 3}" for i in range(3 * d)}
    return SimplicialMap(src, dst, vmap)


def constant_map() -> SimplicialMap:
    """The triangle circle collapsed to a point."""
    src = cycle_complex(3, "v")
    dst = point_complex()
    return SimplicialMap(src, dst, {v: "pt" for v in src.vertices})


def disk_complex() -> SimplicialComplex:
    """The hexagon coned to a center vertex c: a triangulated disk."""
    hexagon = [f"v{i}" for i in range(6)]
    facets = [(hexagon[i], hexagon[(i + 1) % 6], "c") for i in range(6)]
    return SimplicialComplex(hexagon + ["c"], facets)


def disk_inclusion() -> SimplicialMap:
    """Boundary circle into the disk."""
    src = cycle_complex(6, "v")
    dst = disk_complex()
    return SimplicialMap(src, dst, {v: v for v in src.vertices})


def suspension(k: SimplicialComplex, north: str = "n", south: str = "s") -> SimplicialComplex:
    """Unreduced suspension: join every facet to two fresh poles."""
    verts = list(k.vertices) + [north, south]
    facets = []
    for f in k.facets():
        facets.append(tuple(f) + (north,))
        facets.append(tuple(f) + (south,))
    return SimplicialComplex(verts, facets)


def suspended_degree_two() -> SimplicialMap:
    """Suspension of the winding-2 circle map: a degree-2 sphere self-map."""
    base = degree_map(2)
    src = suspension(base.src)
    dst = suspension(base.dst)
    vmap = dict(base.vmap)
    vmap["n"] = "n"
    vmap["s"] = "s"
    return SimplicialMap(src, dst, vmap)


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation of the real projective plane."""
    triples = [
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 5),
        (1, 4, 6),
        (1, 5, 6),
        (2, 3, 6),
        (2, 4, 5),
        (2, 5, 6),
        (3, 4, 5),
        (3, 4, 6),
    ]
    return SimplicialComplex(range(1, 7), triples)


# ---------------------------------------------------------------------------
# Cover and cocycle fixtures
# ---------------------------------------------------------------------------


def three_arc_cover() -> Cover:
    """Three overlapping arcs on the circle; nerve is the triangle rim."""
    return Cover.from_sets(["U0", "U1", "U2"], [(0, 1), (1, 2), (0, 2)])


def disk_cover() -> Cover:
    """The three arcs thickened plus an interior set filling the disk."""
    return Cover.from_sets(
        ["U0", "U1", "U2", "D"],
        [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 1, 3), (1, 2, 3), (0, 2, 3)],
    )


def disk_cover_map() -> CoverMap:
    return CoverMap(three_arc_cover(), disk_cover(), {"U0": "U0", "U1": "U1", "U2": "U2"})


def point_into_circle_cover_map() -> CoverMap:
    pt = Cover.from_sets(["P"], [])
    return CoverMap(pt, three_arc_cover(), {"P": "U0"})


def circle_doubling_cover_map() -> CoverMap:
    return star_cover_map(degree_map(2))


def suspension_cover_map() -> CoverMap:
    return star_cover_map(suspended_degree_two())


def winding_function_cocycle() -> RelFunctionCocycle:
    """Integer winding generator over the point-into-circle map."""
    m = point_into_circle_cover_map()
    b = CechCochain(m.src, 0, INT)
    a = CechCochain(m.dst, 1, INT, {("U0", "U1"): 1})
    return RelFunctionCocycle(m, b, a)


def half_line_bundle_cocycle() -> RelLineBundleCocycle:
    """Half-angle transition data over the circle doubling map."""
    m = circle_doubling_cover_map()
    h = Fraction(1, 2)
    f = CechCochain(m.src, 0, U1, {("v1",): h, ("v2",): h, ("v3",): h})
    g = CechCochain(m.dst, 1, U1, {("w0", "w1"): h})
    return RelLineBundleCocycle(m, f, g)


def half_gerbe_cocycle() -> RelGerbeCocycle:
    """Half-angle gerbe data over the suspended doubling map.

    The target 2-cochain concentrates a half angle on one triangle; the
    source 1-cochain solves the pullback equation, offset by a quarter
    angle coboundary so the trivialization tests have nonzero content.
    """
    m = suspension_cover_map()
    h = Fraction(1, 2)
    q = Fraction(3, 4)
    s = CechCochain(
        m.src,
        1,
        U1,
        {
            ("v0", "v1"): q,
            ("v0", "v5"): q,
            ("v0", "n"): q,
            ("v0", "s"): q,
            ("v1", "n"): h,
            ("v2", "n"): h,
            ("v3", "n"): h,
        },
    )
    t = CechCochain(m.dst, 2, U1, {("w0", "w1", "n"): h})
    return RelGerbeCocycle(m, s, t)


def disk_area_values(total) -> dict:
    """A 2-cochain distributing `total` over the disk's oriented triangles."""
    sixth = Fraction(total) / 6
    return {
        ("v0", "v1", "c"): sixth,
        ("v1", "v2", "c"): sixth,
        ("v2", "v3", "c"): sixth,
        ("v3", "v4", "c"): sixth,
        ("v4", "v5", "c"): sixth,
        ("v0", "v5", "c"): -sixth,
    }


def disk_area_form(total) -> CechCochain:
    m = star_cover_map(disk_inclusion())
    return CechCochain(m.dst, 2, RAT, disk_area_values(total))


def disk_area_pair(total) -> RelRealCochainPair:
    return RelRealCochainPair.from_values(disk_inclusion(), 2, disk_area_values(total), {})


def fixture_registry() -> dict:
    """Every named fixture: name -> (kind, builder), in emission order.

    Kinds drive serialization: complex | map | cover | covermap |
    cocycle | pair | form.
    """
    half = Fraction(1, 2)
    return {
        "rp2": ("complex", projective_plane),
        "fix-s1": ("complex", lambda: cycle_complex(3)),
        "fix-s2": ("complex", lambda: cycle_complex(6)),
        "fix-s3": ("complex", lambda: cycle_complex(9)),
        "fix-s6": ("complex", lambda: cycle_complex(18)),
        "fix-disk-complex": ("complex", disk_complex),
        "fix-d0": ("map", lambda: degree_map(0)),
        "fix-d1": ("map", lambda: degree_map(1)),
        "fix-d2": ("map", lambda: degree_map(2)),
        "fix-d3": ("map", lambda: degree_map(3)),
        "fix-d4": ("map", lambda: degree_map(4)),
        "fix-d5": ("map", lambda: degree_map(5)),
        "fix-d6": ("map", lambda: degree_map(6)),
        "fix-const": ("map", constant_map),
        "fix-disk": ("map", disk_inclusion),
        "fix-susp-d2": ("map", suspended_degree_two),
        "cover-circle": ("cover", three_arc_cover),
        "cover-disk": ("cover", disk_cover),
        "covermap-disk": ("covermap", disk_cover_map),
        "covermap-pt-circle": ("covermap", point_into_circle_cover_map),
        "covermap-circle-d2": ("covermap", circle_doubling_cover_map),
        "covermap-susp-d2": ("covermap", suspension_cover_map),
        "cocycle-winding": ("cocycle", winding_function_cocycle),
        "cocycle-half-bundle": ("cocycle", half_line_bundle_cocycle),
        "cocycle-half-gerbe": ("cocycle", half_gerbe_cocycle),
        "pair-disk-area-1": ("pair", lambda: disk_area_pair(1)),
        "pair-disk-area-half": ("pair", lambda: disk_area_pair(half)),
        "form-disk-area-1": ("form", lambda: (disk_inclusion(), disk_area_form(1))),
        "form-disk-area-half": ("form", lambda: (disk_inclusion(), disk_area_form(half))),
    }
