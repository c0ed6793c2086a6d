"""Batch command line: JSON files in, canonical JSON reports out.

Exit codes follow one convention across verbs: 0 means the computation
ran and the verdict (if any) is positive; 2 means the computation ran
and returned a negative verdict (not integral, nontrivial class, cones
not isomorphic, sequence not exact); 1 means the input could not be
parsed or a precondition failed, so nothing was decided.

`homology`, `cone`, `cone-space`, `cech` and `compare-cones` print group
invariants only (`homology_invariants`): over Z one Smith diagonal per
differential, certified by replaying its row and column operations;
`compare-cones` reads the isomorphism in degree n off the cone of its
comparison map, acyclic in n and n+1.  `snf`, `les`, `kercoker`,
`classify`, `trivialize`, `integrality` and `bohr-sommerfeld` read Z
transforms certified by `_check_snf`'s products; `les` and `kercoker`
pass one table of certified forms to every reduction of a report, so
each distinct matrix is certified once per report.

`main(argv)` returns the exit code and may be called any number of times
in one process; the argument parser is built on the first call and
reused by every later one.
"""

import argparse
import os
import sys

from . import jsonio
from .cech import cover_cochain_complex, relative_cone_complex
from .chain import cone_of_map
from .coeffs import parse_ring
from .errors import IoError, NontrivialClass, ParseError, RelconeError
from .fixtures import fixture_registry
from .geo import bohr_sommerfeld, classify, is_integral, trivialize
from .homology import homology_invariants, ker_coker_les, les_of_cone, snf
from .simplicial import chain_complex, chain_map, compare_cones, mapping_cone_space


def _restrict(degrees, chosen):
    if chosen is None:
        return degrees
    return [n for n in degrees if n == chosen]


# -- input dispatch ---------------------------------------------------------


def _load_input(path: str) -> dict:
    return jsonio._as_dict(jsonio.read_json(path), "input")


def _complex_from_input(obj, ring):
    """A graded complex from either a simplicial or a graded description."""
    if "vertices" in obj:
        k = jsonio.simplicial_from_json(obj)
        return chain_complex(k, ring), list(range(0, max(k.dim, 0) + 1))
    if "ranks" in obj:
        c = jsonio.complex_from_json(obj)
        if c.ring != ring:
            raise ParseError(f"complex is over {c.ring}, but --ring asked for {ring}")
        return c, list(c.degrees())
    raise ParseError("input must have 'vertices' (simplicial) or 'ranks' (graded complex)")


def _chain_map_from_input(obj, ring):
    """A chain map from either a simplicial map or a matrix description."""
    src = obj.get("src")
    if isinstance(src, dict) and "vertices" in src:
        return chain_map(jsonio.simplicial_map_from_json(obj), ring)
    if "mat" in obj:
        f = jsonio.chain_map_from_json(obj)
        if f.ring != ring:
            raise ParseError(f"map is over {f.ring}, but --ring asked for {ring}")
        return f
    raise ParseError("input must be a simplicial map or a chain map with 'mat'")


def _simplicial_map_from_input(obj):
    src = obj.get("src")
    if not (isinstance(src, dict) and "vertices" in src):
        raise ParseError("this verb needs a simplicial map input")
    return jsonio.simplicial_map_from_json(obj)


# -- verbs ------------------------------------------------------------------


def cmd_snf(args):
    rows = jsonio.loads(args.matrix)
    m = jsonio.matrix_from_rows(parse_ring("Z"), rows, "matrix")
    r = snf(m)
    doc = {
        "D": jsonio.matrix_rows(r.d),
        "U": jsonio.matrix_rows(r.u),
        "V": jsonio.matrix_rows(r.v),
        "rank": r.rank,
    }
    return 0, doc


def cmd_homology(args):
    ring = parse_ring(args.ring)
    c, degrees = _complex_from_input(_load_input(args.input), ring)
    groups = homology_invariants(c, _restrict(degrees, args.degree))
    return 0, jsonio.homology_to_json(groups)


def cmd_cone(args):
    ring = parse_ring(args.ring)
    f = _chain_map_from_input(_load_input(args.input), ring)
    cone = cone_of_map(f)
    degrees = _restrict(list(cone.degrees()), args.degree)
    doc = {
        "cone": jsonio.complex_to_json(cone),
        "H": jsonio.homology_to_json(homology_invariants(cone, degrees))["H"],
    }
    return 0, doc


def cmd_cone_space(args):
    ring = parse_ring(args.ring)
    phi = _simplicial_map_from_input(_load_input(args.input))
    space = mapping_cone_space(phi)
    reduced = chain_complex(space, ring, augmented=True)
    degrees = _restrict(list(range(0, space.dim + 1)), args.degree)
    doc = {
        "space": jsonio.simplicial_to_json(space),
        "reduced": True,
        "H": jsonio.homology_to_json(homology_invariants(reduced, degrees))["H"],
    }
    return 0, doc


def cmd_compare_cones(args):
    phi = _simplicial_map_from_input(_load_input(args.input))
    rep = compare_cones(phi)
    return (0 if rep.iso else 2), jsonio.comparison_to_json(rep)


def cmd_les(args):
    ring = parse_ring(args.ring)
    f = _chain_map_from_input(_load_input(args.input), ring)
    rep = les_of_cone(f)
    return (0 if rep.exact else 2), jsonio.les_to_json(rep)


def cmd_kercoker(args):
    ring = parse_ring(args.ring)
    f = _chain_map_from_input(_load_input(args.input), ring)
    rep = ker_coker_les(f)
    return (0 if rep.exact else 2), jsonio.les_to_json(rep)


def cmd_cech(args):
    ring = parse_ring(args.ring)
    obj = _load_input(args.input)
    if "assignment" in obj:
        m = jsonio.cover_map_from_json(obj)
        c = relative_cone_complex(m, ring)
        relative = True
    elif "sets" in obj:
        cover = jsonio.cover_from_json(obj)
        c = cover_cochain_complex(cover, ring)
        relative = False
    else:
        raise ParseError("input must be a cover ('sets') or a cover map ('assignment')")
    # the complex stores cochains in chain orientation at degree -q
    qs = _restrict(list(range(0, -c.lo + 1)), args.degree)
    groups = homology_invariants(c, [-q for q in qs])
    doc = {
        "relative": relative,
        "H": {str(q): jsonio.group_to_json(groups[-q]) for q in qs},
    }
    return 0, doc


def cmd_classify(args):
    c = jsonio.cocycle_from_json(_load_input(args.input))
    rep = classify(c)
    return 0, jsonio.class_to_json(rep)


def cmd_trivialize(args):
    c = jsonio.cocycle_from_json(_load_input(args.input))
    try:
        w = trivialize(c)
    except NontrivialClass as e:
        return 2, {"nontrivial": jsonio.class_to_json(e.cls)}
    return 0, {"witness": jsonio.rel_cochain_to_json(w)}


def cmd_integrality(args):
    p = jsonio.pair_from_json(_load_input(args.input))
    rep = is_integral(p)
    return (0 if rep.integral else 2), jsonio.integrality_to_json(rep)


def cmd_bohr_sommerfeld(args):
    omega, phi = jsonio.form_from_json(_load_input(args.input))
    rep = bohr_sommerfeld(omega, phi)
    return (0 if rep.integral else 2), jsonio.integrality_to_json(rep)


def cmd_fixtures(args):
    reg = fixture_registry()
    names = args.names or list(reg)
    unknown = [n for n in names if n not in reg]
    if unknown:
        raise ParseError(f"unknown fixture names: {', '.join(sorted(unknown))}")
    if args.action == "list":
        return 0, {"fixtures": [{"name": n, "kind": reg[n][0]} for n in names]}
    outdir = args.out or "fixtures"
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as e:
        raise IoError(f"cannot create {outdir}: {e.strerror or e}") from None
    written = []
    for name in names:
        kind, build = reg[name]
        text = jsonio.dumps(jsonio.fixture_to_json(kind, build()))
        path = os.path.join(outdir, f"{name}.json")
        jsonio.write_text(path, text)
        written.append(path)
    return 0, {"written": written}


DISPATCH = {
    "snf": cmd_snf,
    "homology": cmd_homology,
    "cone": cmd_cone,
    "cone-space": cmd_cone_space,
    "compare-cones": cmd_compare_cones,
    "les": cmd_les,
    "kercoker": cmd_kercoker,
    "cech": cmd_cech,
    "classify": cmd_classify,
    "trivialize": cmd_trivialize,
    "integrality": cmd_integrality,
    "bohr-sommerfeld": cmd_bohr_sommerfeld,
    "fixtures": cmd_fixtures,
}


# -- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors: exit 1, one line."""

    def error(self, message):
        raise ParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relcone",
        description="Exact relative (co)homology of maps: cones, covers, classes.",
    )
    subs = parser.add_subparsers(dest="verb", required=True)

    def with_io(sub, ring: bool = True, degree: bool = False):
        sub.add_argument("input", help="path to a JSON input file")
        if ring:
            sub.add_argument("--ring", default="Z", help="Z | Q | Zmod:n | U1")
        if degree:
            sub.add_argument("--degree", type=int, default=None, help="restrict to one degree")
        sub.add_argument("--out", default=None, help="write the report here instead of stdout")

    sub = subs.add_parser("snf", help="Smith normal form of an integer matrix")
    sub.add_argument("--matrix", required=True, help='rows as JSON, e.g. "[[2,4],[6,8]]"')
    sub.add_argument("--out", default=None)

    with_io(subs.add_parser("homology", help="homology of a simplicial or graded complex"), degree=True)
    with_io(subs.add_parser("cone", help="algebraic mapping cone of a map and its homology"), degree=True)
    with_io(subs.add_parser("cone-space", help="simplicial cone space and its reduced homology"), degree=True)
    with_io(subs.add_parser("compare-cones", help="algebraic cone homology vs cone-space homology"), ring=False)
    with_io(subs.add_parser("les", help="long exact sequence of a mapping cone"))
    with_io(subs.add_parser("kercoker", help="kernel/cokernel long exact sequence"))
    with_io(subs.add_parser("cech", help="Cech cohomology of a cover or a cover map"), degree=True)
    with_io(subs.add_parser("classify", help="cohomology class of a relative cocycle"), ring=False)
    with_io(subs.add_parser("trivialize", help="solve for a trivializing witness"), ring=False)
    with_io(subs.add_parser("integrality", help="pair a closed rational pair against integral cycles"), ring=False)
    with_io(subs.add_parser("bohr-sommerfeld", help="integrality of a form relative to a map"), ring=False)

    sub = subs.add_parser("fixtures", help="list or emit the golden fixture corpus")
    sub.add_argument("action", choices=("list", "emit"))
    sub.add_argument("names", nargs="*", help="fixture names (default: all)")
    sub.add_argument("--out", default=None, help="directory for emitted files")

    return parser


_PARSER = None  # the one parser of this process, built by the first main call


def _parser() -> argparse.ArgumentParser:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    return _PARSER


def _emit(doc, out_path) -> None:
    text = jsonio.dumps(doc)
    if out_path:
        jsonio.write_text(out_path, text)
    else:
        sys.stdout.write(text)


def _parse(argv):
    """The parsed arguments; fixture names may follow an option too (`fixtures emit --out DIR NAME`).

    argparse fills the `names` list before it meets an option, so the
    names after one come back unrecognized, as does any unknown option.
    """
    parser = _parser()
    args, extra = parser.parse_known_args(argv)
    if extra and args.verb == "fixtures" and not any(x.startswith("-") for x in extra):
        args.names = args.names + extra
    elif extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse(argv)
        code, doc = DISPATCH[args.verb](args)
        _emit(doc, args.out if args.verb != "fixtures" else None)
    except ParseError as e:
        where = f" (line {e.line}, col {e.col})" if e.line is not None else ""
        print(f"relcone: parse error: {e}{where}", file=sys.stderr)
        return 1
    except RelconeError as e:
        print(f"relcone: error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
