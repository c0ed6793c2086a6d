"""JSON encoding and decoding for every object the command line touches.

Scalars go through the ring codecs in coeffs, so integers stay integers,
rationals and angles become "p/q" strings, and modular values carry their
modulus.  Output is canonical: sorted keys, fixed separators, one trailing
newline.  Equal objects therefore always serialize to identical bytes,
which is what the golden-output tests pin down.
"""

import json

from .cech import (
    CechCochain,
    Cover,
    CoverMap,
    RelCechCochain,
    star_cover,
)
from .chain import ComplexMap, GradedComplex, mat_ring
from .coeffs import (
    INT,
    RAT,
    CoeffRing,
    _preview,
    int_from_text,
    parse_ring,
    value_from_json,
    value_to_json,
)
from .errors import IoError, ParseError, RelconeError
from .geo import COCYCLE_KINDS, RelRealCochainPair
from .matrix import Matrix
from .simplicial import SimplicialComplex, SimplicialMap


# -- canonical text ---------------------------------------------------------


def dumps(obj) -> str:
    """Render with sorted keys and fixed separators, plus a newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def loads(text: str):
    """Parse JSON text; a key repeated within one object is an error, not a silent overwrite."""
    try:
        return json.loads(text, parse_int=int_from_text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as e:
        raise ParseError(f"bad JSON: {e.msg}", line=e.lineno, col=e.colno) from None


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"bad JSON: duplicate key {key!r}")
            seen.add(key)
    return obj


def read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise IoError(f"cannot read {path}: {e.strerror or e}") from None
    return loads(text)


def write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise IoError(f"cannot write {path}: {e.strerror or e}") from None


# -- shape guards -----------------------------------------------------------


def _as_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be an object, got {type(obj).__name__}")
    return obj

def _as_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{what} must be an array, got {type(obj).__name__}")
    return obj

def _as_int(obj, what: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError(f"{what} must be an integer, got {_preview(obj)}")
    return obj

def _field(obj: dict, key: str, what: str):
    if key not in obj:
        raise ParseError(f"{what} is missing the {key!r} field")
    return obj[key]

def _int_key(key, what: str, seen) -> int:
    try:
        n = int_from_text(key)
    except (TypeError, ValueError):
        raise ParseError(f"{what} has non-integer degree key {key!r}") from None
    if n in seen:
        raise ParseError(f"{what} lists degree {n} more than once")
    return n

def _ring_of(obj: dict, what: str) -> CoeffRing:
    label = _field(obj, "ring", what)
    if not isinstance(label, str):
        raise ParseError(f"{what} ring must be a string, got {_preview(label)}")
    return parse_ring(label)

def _build(what: str, make, *args):
    """make(*args); a construction error on parsed data is an input error, not a bug."""
    try:
        return make(*args)
    except RelconeError as e:
        raise ParseError(f"invalid {what}: {e}") from None


# -- matrices ---------------------------------------------------------------


def matrix_rows(m: Matrix) -> list:
    return [[value_to_json(m.ring, v) for v in row] for row in m.rows]


def matrix_from_rows(ring: CoeffRing, obj, what: str, shape=None) -> Matrix:
    rows = _as_list(obj, what)
    parsed = []
    for r in rows:
        parsed.append([value_from_json(ring, v) for v in _as_list(r, f"{what} row")])
    nrows = len(parsed)
    ncols = len(parsed[0]) if parsed else (shape[1] if shape else 0)
    if any(len(r) != ncols for r in parsed):
        raise ParseError(f"{what} has ragged rows")
    if shape is not None and (nrows, ncols) != shape:
        raise ParseError(f"{what} has shape {(nrows, ncols)}, expected {shape}")
    return _build(what, Matrix, ring, nrows, ncols, parsed)


# -- graded complexes and chain maps ----------------------------------------


def complex_to_json(c: GradedComplex) -> dict:
    ranks = {str(n): c.rank(n) for n in c.degrees() if c.rank(n)}
    diff = {}
    for n in c.degrees():
        if c.rank(n) and c.rank(n - 1):
            diff[str(n)] = matrix_rows(c.diff(n))
    return {"ring": str(c.ring), "ranks": ranks, "diff": diff}


def complex_from_json(obj) -> GradedComplex:
    obj = _as_dict(obj, "complex")
    ring = _ring_of(obj, "complex")
    mr = mat_ring(ring)
    ranks = {}
    for key, val in _as_dict(_field(obj, "ranks", "complex"), "ranks").items():
        ranks[_int_key(key, "ranks", ranks)] = _as_int(val, f"rank at degree {key}")
    rank = lambda n: ranks.get(n, 0)
    diffs = {}
    for key, rows in _as_dict(obj.get("diff", {}), "diff").items():
        n = _int_key(key, "diff", diffs)
        diffs[n] = matrix_from_rows(mr, rows, f"diff at degree {n}", (rank(n - 1), rank(n)))
    return _build("complex", GradedComplex, ring, ranks, diffs)


def chain_map_from_json(obj) -> ComplexMap:
    obj = _as_dict(obj, "chain map")
    src = complex_from_json(_field(obj, "src", "chain map"))
    dst = complex_from_json(_field(obj, "dst", "chain map"))
    mats = {}
    for key, rows in _as_dict(obj.get("mat", {}), "mat").items():
        n = _int_key(key, "mat", mats)
        mats[n] = matrix_from_rows(
            mat_ring(src.ring), rows, f"component at degree {n}", (dst.rank(n), src.rank(n))
        )
    return _build("chain map", ComplexMap, src, dst, mats)


# -- simplicial objects -----------------------------------------------------


def _label_ok(v) -> bool:
    return isinstance(v, (str, int)) and not isinstance(v, bool)


def _labels(obj, what: str, item: str) -> list:
    """The array `obj` of vertex or set labels; each must be a string or an integer."""
    labels = _as_list(obj, what)
    for v in labels:
        if not _label_ok(v):
            raise ParseError(f"{item} {_preview(v)} must be a string or integer")
    return labels


def simplicial_to_json(k: SimplicialComplex) -> dict:
    return {
        "vertices": list(k.vertices),
        "facets": [list(f) for f in k.facets()],
    }


def simplicial_from_json(obj) -> SimplicialComplex:
    obj = _as_dict(obj, "simplicial complex")
    verts = _labels(_field(obj, "vertices", "simplicial complex"), "vertices", "vertex label")
    facets = [
        _labels(f, "facet", "facet vertex")
        for f in _as_list(_field(obj, "facets", "simplicial complex"), "facets")
    ]
    return _build("simplicial complex", SimplicialComplex, verts, facets)


def simplicial_map_to_json(phi: SimplicialMap) -> dict:
    return {
        "src": simplicial_to_json(phi.src),
        "dst": simplicial_to_json(phi.dst),
        # emitted in source vertex order so output is reproducible
        "vmap": [[v, phi.vmap[v]] for v in phi.src.vertices],
    }


def _pairs(obj, what: str) -> dict:
    """The array `obj` of [label, label] pairs, as a dict; a label may come first only once."""
    out = {}
    for item in _as_list(obj, what):
        pair = _labels(item, f"{what} entry", f"{what} label")
        if len(pair) != 2:
            raise ParseError(f"{what} entry {_preview(item)} is not a pair")
        if pair[0] in out:
            raise ParseError(f"{what} lists {_preview(pair[0])} more than once")
        out[pair[0]] = pair[1]
    return out


def simplicial_map_from_json(obj) -> SimplicialMap:
    obj = _as_dict(obj, "simplicial map")
    src = simplicial_from_json(_field(obj, "src", "simplicial map"))
    dst = simplicial_from_json(_field(obj, "dst", "simplicial map"))
    vmap = _pairs(_field(obj, "vmap", "simplicial map"), "vmap")
    return _build("simplicial map", SimplicialMap, src, dst, vmap)


# -- covers and cover maps --------------------------------------------------


def cover_to_json(c: Cover) -> dict:
    return {
        "sets": list(c.names),
        "intersections": [list(p) for p in c.intersections()],
    }


def cover_from_json(obj) -> Cover:
    obj = _as_dict(obj, "cover")
    sets = _labels(_field(obj, "sets", "cover"), "sets", "cover set name")
    inters = []
    for item in _as_list(_field(obj, "intersections", "cover"), "intersections"):
        inters.append([_as_int(i, "intersection index") for i in _as_list(item, "intersection")])
    return _build("cover", Cover.from_sets, sets, inters)


def cover_map_to_json(m: CoverMap) -> dict:
    return {
        "src": cover_to_json(m.src),
        "dst": cover_to_json(m.dst),
        "assignment": [[a, m.assignment[a]] for a in m.src.names],
    }


def cover_map_from_json(obj) -> CoverMap:
    obj = _as_dict(obj, "cover map")
    src = cover_from_json(_field(obj, "src", "cover map"))
    dst = cover_from_json(_field(obj, "dst", "cover map"))
    assignment = _pairs(_field(obj, "assignment", "cover map"), "assignment")
    return _build("cover map", CoverMap, src, dst, assignment)


# -- cochains ---------------------------------------------------------------


def cochain_values(c: CechCochain) -> dict:
    out = {}
    for names, v in c.items():
        for n in names:
            if not isinstance(n, str) or "," in n:
                raise ParseError(
                    f"cochain keys need comma-free string set names, got {n!r}"
                )
        out[",".join(names)] = value_to_json(c.ring, v)
    return out


def _named_values(obj, what: str, ring: CoeffRing) -> dict:
    """Cochain values keyed by "U0,U1" strings, as a dict keyed by name tuples."""
    values = {}
    for key, v in _as_dict(obj, what).items():
        names = tuple(key.split(",")) if key else ()
        values[names] = value_from_json(ring, v)
    return values


def cochain_from_values(cover: Cover, degree: int, ring: CoeffRing, obj) -> CechCochain:
    values = _named_values(obj, "values", ring)
    return _build("cochain", CechCochain, cover, degree, ring, values)


def rel_cochain_to_json(u: RelCechCochain) -> dict:
    return {
        "covermap": cover_map_to_json(u.m),
        "degree": u.degree,
        "ring": str(u.ring),
        "s": cochain_values(u.s),
        "t": cochain_values(u.t),
    }


def rel_cochain_from_json(obj) -> RelCechCochain:
    obj = _as_dict(obj, "relative cochain")
    m = cover_map_from_json(_field(obj, "covermap", "relative cochain"))
    degree = _as_int(_field(obj, "degree", "relative cochain"), "degree")
    ring = _ring_of(obj, "relative cochain")
    s = cochain_from_values(m.src, degree - 1, ring, _field(obj, "s", "relative cochain"))
    t = cochain_from_values(m.dst, degree, ring, _field(obj, "t", "relative cochain"))
    return _build("relative cochain", RelCechCochain, m, s, t)


def cocycle_to_json(c) -> dict:
    out = rel_cochain_to_json(c.u)
    out["kind"] = c.kind
    return out


def cocycle_from_json(obj):
    obj = _as_dict(obj, "cocycle")
    kind = _field(obj, "kind", "cocycle")
    cls = COCYCLE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"unknown cocycle kind {_preview(kind)}, expected one of {sorted(COCYCLE_KINDS)}")
    u = rel_cochain_from_json(obj)
    return _build(f"{kind} cocycle", cls, u.m, u.s, u.t)


# -- rational pairs and forms -----------------------------------------------


def pair_to_json(p: RelRealCochainPair) -> dict:
    return {
        "map": simplicial_map_to_json(p.phi),
        "degree": p.degree,
        "alpha": cochain_values(p.alpha),
        "beta": cochain_values(p.beta),
    }


def pair_from_json(obj) -> RelRealCochainPair:
    obj = _as_dict(obj, "cochain pair")
    phi = simplicial_map_from_json(_field(obj, "map", "cochain pair"))
    degree = _as_int(_field(obj, "degree", "cochain pair"), "pair degree")
    alpha = _named_values(_field(obj, "alpha", "cochain pair"), "alpha", RAT)
    beta = _named_values(_field(obj, "beta", "cochain pair"), "beta", RAT)
    return _build("cochain pair", RelRealCochainPair.from_values, phi, degree, alpha, beta)


def form_to_json(phi: SimplicialMap, omega: CechCochain) -> dict:
    return {
        "map": simplicial_map_to_json(phi),
        "degree": omega.degree,
        "omega": cochain_values(omega),
    }


def form_from_json(obj):
    """Parse a form bundled with its map; returns (omega, phi)."""
    obj = _as_dict(obj, "form")
    phi = simplicial_map_from_json(_field(obj, "map", "form"))
    degree = _as_int(_field(obj, "degree", "form"), "form degree")
    values = _named_values(_field(obj, "omega", "form"), "omega", RAT)
    omega = _build("form", CechCochain, star_cover(phi.dst), degree, RAT, values)
    return omega, phi


# -- reports ----------------------------------------------------------------


def group_to_json(g) -> dict:
    """Rank and torsion of an AbGroup or a homology.GroupInvariants; both print the same."""
    out = {"rank": g.free_rank}
    if g.torsion:
        out["torsion"] = [value_to_json(INT, t) for t in g.torsion]
    return out


def homology_to_json(groups: dict) -> dict:
    return {"H": {str(n): group_to_json(g) for n, g in groups.items()}}


def class_to_json(report) -> dict:
    return {
        "class": [value_to_json(parse_ring("Z"), c) for c in report.coords],
        "basis": report.basis,
        "torsion_orders": [value_to_json(INT, t) for t in report.torsion_orders],
    }


def integrality_to_json(report) -> dict:
    pairings = []
    for p in report.pairings:
        pairings.append(
            {
                "order": p.order,
                "value": value_to_json(RAT, p.value),
                "ok": p.ok,
            }
        )
    return {
        "integral": report.integral,
        "degree": report.degree,
        "pairings": pairings,
    }


def comparison_to_json(rep) -> dict:
    degrees = {}
    for n in sorted(rep.degrees):
        d = rep.degrees[n]
        degrees[str(n)] = {
            "algebraic": group_to_json(d.algebraic),
            "reduced": group_to_json(d.reduced),
            "iso": d.iso,
        }
    return {"iso": rep.iso, "degrees": degrees}


def fixture_to_json(kind: str, obj) -> dict:
    """Serialize a registry entry according to its declared kind."""
    if kind == "complex":
        return simplicial_to_json(obj)
    if kind == "map":
        return simplicial_map_to_json(obj)
    if kind == "cover":
        return cover_to_json(obj)
    if kind == "covermap":
        return cover_map_to_json(obj)
    if kind == "cocycle":
        return cocycle_to_json(obj)
    if kind == "pair":
        return pair_to_json(obj)
    if kind == "form":
        phi, omega = obj
        return form_to_json(phi, omega)
    raise IoError(f"no serializer for fixture kind {kind!r}")


def les_to_json(report) -> dict:
    positions = []
    for p in report.positions:
        entry = {"position": p.label, "exact": p.exact, "group": group_to_json(p.group)}
        if p.defect is not None:
            entry["defect"] = p.defect
        positions.append(entry)
    return {"kind": report.kind, "exact": report.exact, "positions": positions}
