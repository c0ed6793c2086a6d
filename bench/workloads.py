"""The four workloads: what each op calls, and how its answer is checked.

A workload's `build()` makes a fresh list of ops from the seed; the
worker calls it once per pass, so no object built for one pass is seen
by the next.  Ops call relcone through module attributes
(`homology.homology_at`, not a name bound at import) so that the traced
run's wrappers see every call.  `check(result)` returns None when the
answer is right and a one-line reason otherwise; it runs after the timed
phase.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import partial
from math import gcd

from relcone import cech, chain, cli, coeffs, fixtures, geo, homology, jsonio, matrix, simplicial
from relcone.errors import NontrivialClass

import inputs as gen

class Op:
    """One timed call. `key` names the cover map or complex it works on."""

    __slots__ = ("kind", "label", "fn", "check", "key")

    def __init__(self, kind, label, fn, check, key=None):
        self.kind = kind
        self.label = label
        self.fn = fn
        self.check = check
        self.key = key


def digest(result) -> str:
    """A stable fingerprint of an op's answer, for pass-to-pass comparison."""
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def _group_shape(g):
    return (g.free_rank, tuple(g.torsion))


def _expect_groups(expected, degrees):
    """Check a tuple of AbGroups, one per degree, against {n: (free, torsion)}."""

    def check(groups):
        if len(groups) != len(degrees):
            return f"{len(groups)} groups for {len(degrees)} degrees"
        for n, g in zip(degrees, groups):
            want = expected.get(n, (0, ()))
            if _group_shape(g) != want:
                return f"H_{n} = {_group_shape(g)}, expected {want}"
        missing = [n for n, g in expected.items() if g != (0, ()) and n not in degrees]
        return f"degrees {missing} not computed" if missing else None

    return check


def _via(module, name, *args):
    """Call module.name(*args), looked up when the op runs, not when it is built."""
    return getattr(module, name)(*args)


def _complex(verts, facets):
    return simplicial.SimplicialComplex(verts, facets)


def _simplicial_homology(k, ring):
    c = simplicial.chain_complex(k, ring)
    return tuple(homology.homology_at(c, n) for n in range(k.dim + 1))


def _complex_homology(c):
    return tuple(homology.homology_at(c, n) for n in c.degrees())


def _cone_homology(phi, ring):
    c = chain.cone_of_map(simplicial.chain_map(phi, ring))
    return tuple(homology.homology_at(c, n) for n in c.degrees())


def _graded(ring, ranks, diffs):
    mr = chain.mat_ring(ring)
    mats = {n: matrix.Matrix(mr, len(rows), len(rows[0]), rows) for n, rows in diffs.items()}
    return chain.GradedComplex(ring, ranks, mats)


# ---------------------------------------------------------------------------
# z-ladder and field-ladder: library calls on the size ladder
# ---------------------------------------------------------------------------


def _field_groups(groups, p):
    """{n: (dim, ())} over Q (p = 0) or F_p, from integer groups."""
    degs = set(groups) | {n + 1 for n in groups}
    out = {n: (gen.field_dim(groups, n, p), ()) for n in degs}
    return {n: g for n, g in out.items() if g[0]}


def _smith_problem(a_rows, u, d, v, rank):
    """Why A = U D V is not a Smith form with unimodular U and V, or None."""
    m, n = len(a_rows), len(a_rows[0])
    if gen.matmul(gen.matmul(u, d), v) != a_rows:
        return "A != U D V"
    if abs(gen.det(u)) != 1 or abs(gen.det(v)) != 1:
        return "transforms not unimodular"
    diag = [d[i][i] for i in range(min(m, n))]
    nz = [x for x in diag if x]
    if any(d[i][j] for i in range(m) for j in range(n) if i != j) or any(x < 0 for x in diag):
        return "D is not a nonnegative diagonal"
    if diag[: len(nz)] != nz or any(b % a for a, b in zip(nz, nz[1:])):
        return "Smith diagonal out of order"
    if not rank == len(nz) == gen.rank_q(a_rows):
        return "rank wrong"
    g = 0
    for row in a_rows:
        for x in row:
            g = gcd(g, x)
    if nz and nz[0] != g:
        return "first invariant factor is not the gcd of the entries"
    if m == n == len(nz):
        prod = 1
        for x in nz:
            prod *= x
        if prod != abs(gen.det(a_rows)):
            return "invariant factors do not multiply to |det|"
    return None


def _snf_certificate(a_rows, r):
    """Check an SNFResult, its two inverse transforms included."""
    u, v = r.u.to_lists(), r.v.to_lists()
    if gen.matmul(u, r.uinv.to_lists()) != gen.eye(len(u)) or gen.matmul(v, r.vinv.to_lists()) != gen.eye(len(v)):
        return "transform inverses wrong"
    return _smith_problem(a_rows, u, r.d.to_lists(), v, r.rank)


class _Ladder:
    """Op constructors shared by the two ladders."""

    def __init__(self, seed: int):
        self.seed = seed

    def _rng(self):
        return random.Random(f"{self.name}:{self.seed}")

    def _simplicial_op(self, ops, label, verts, facets, groups, ring, p=None):
        k = _complex(verts, facets)
        want = groups if p is None else _field_groups(groups, p)
        ops.append(Op("homology", label, partial(_simplicial_homology, k, ring),
                      _expect_groups(want, list(range(k.dim + 1))), key=f"{label}#{len(ops)}"))

    def _cone_op(self, ops, rng, d, ring, p=None):
        phi = _degree_map(rng, d)
        groups = gen.degree_cone_groups(d)
        want = groups if p is None else _field_groups(groups, p)
        degs = [0, 1, 2]
        ops.append(Op("cone", f"cone-d{d}-{ring}", partial(_cone_homology, phi, ring),
                      _expect_groups(want, degs), key=f"cone#{len(ops)}"))

    def _block_op(self, ops, rng, ring, p, shape):
        ranks, diffs, groups = gen.block_complex(rng, 0, 4, *shape)
        c = _graded(ring, ranks, diffs)
        want = groups if p is None else _field_groups(groups, p)
        ops.append(Op("homology", f"block-{shape}-{ring}", partial(_complex_homology, c),
                      _expect_groups(want, list(c.degrees())), key=f"block#{len(ops)}"))


class ZLadder(_Ladder):
    """Integer homology: tori, spheres, degree-map cones, block complexes, dense SNF."""

    name = "z-ladder"

    def build(self):
        rng = self._rng()
        ring = coeffs.INT
        ops = []
        for n, reps in ((3, 6), (4, 3), (5, 1)):
            for _ in range(reps):
                self._simplicial_op(ops, f"torus-{n}", *gen.torus(rng, n), ring)
        for dim, reps in ((2, 6), (3, 4)):
            for _ in range(reps):
                self._simplicial_op(ops, f"sphere-{dim}", *gen.sphere(rng, dim), ring)
        for _ in range(4):
            self._simplicial_op(ops, "rp2", *gen.projective_plane(rng), ring)
        for d in list(range(0, 9)) * 2:
            self._cone_op(ops, rng, d, ring)
        # 18 of the largest block complexes: the cluster p50 falls in
        for shape, reps in (((1, 1, 4), 12), ((2, 2, 6), 12), ((3, 3, 8), 18)):
            for _ in range(reps):
                self._block_op(ops, rng, ring, None, shape)
        for n, reps in ((8, 2), (12, 6), (16, 6), (20, 6), (24, 6), (28, 6)):
            for _ in range(reps):
                rows = gen.dense_matrix(rng, n, n, 3)
                m = matrix.Matrix(ring, n, n, rows)
                ops.append(Op("snf", f"snf-{n}", partial(_via, homology, "snf", m),
                              partial(_snf_certificate, rows), key=f"snf#{len(ops)}"))
        return ops


class FieldLadder(_Ladder):
    """The same families over Q, Zmod:2 and Zmod:3, at smaller sizes.

    Over Q the ladder stops lower, since exact rational elimination costs
    far more than modular.  The op counts put each reported percentile
    inside a cluster of like ops: p90 among the twelve T(3) ops over the
    prime fields, p50 among the small spheres and block complexes.
    """

    name = "field-ladder"
    RINGS = (
        # ring, p, tori (n, reps), rp2 reps, cone degrees, les degrees
        (coeffs.ZMOD(2), 2, ((3, 6), (4, 1)), 3, range(0, 7), (2, 3, 4)),
        (coeffs.ZMOD(3), 3, ((3, 6), (4, 1)), 3, range(0, 7), (2, 3, 4)),
        (coeffs.RAT, 0, ((3, 1),), 1, range(0, 4), (2, 4)),
    )

    def build(self):
        rng = self._rng()
        ops = []
        for ring, p, tori, rp2_reps, cone_degrees, les_degrees in self.RINGS:
            for n, reps in tori:
                for _ in range(reps):
                    self._simplicial_op(ops, f"torus-{n}", *gen.torus(rng, n), ring, p)
            for dim, reps in ((2, 10), (3, 1)):
                for _ in range(reps):
                    self._simplicial_op(ops, f"sphere-{dim}", *gen.sphere(rng, dim), ring, p)
            for _ in range(rp2_reps):
                self._simplicial_op(ops, "rp2", *gen.projective_plane(rng), ring, p)
            for d in cone_degrees:
                self._cone_op(ops, rng, d, ring, p)
            for shape in ((1, 1, 4), (2, 2, 6)):
                for _ in range(8):
                    self._block_op(ops, rng, ring, p, shape)
            for d in les_degrees:
                phi = _degree_map(rng, d)
                ops.append(Op("les", f"les-d{d}-{ring}", partial(_les, phi, ring), _expect_exact,
                              key=f"les#{len(ops)}"))
        return ops


def _les(phi, ring):
    rep = homology.les_of_cone(simplicial.chain_map(phi, ring))
    return rep.exact, tuple((p.label, p.exact, _group_shape(p.group)) for p in rep.positions)


def _expect_exact(result):
    return None if result[0] else "long exact sequence reported not exact"


# ---------------------------------------------------------------------------
# cech-classes: many ops on a few cover maps
# ---------------------------------------------------------------------------


def _rand_cochain(rng, cover, p, ring):
    """Random values: small integers, quarters over Q, twelfths of a turn over U1."""
    if ring == coeffs.INT:
        vec = [rng.randint(-3, 3) for _ in range(cover.rank(p))]
    elif ring == coeffs.RAT:
        vec = [Fraction(rng.randint(-6, 6), 4) for _ in range(cover.rank(p))]
    else:
        vec = [gen.random_angle(rng) for _ in range(cover.rank(p))]
    return cech.CechCochain.from_vector(cover, p, ring, vec)


def _degree_map(rng, d):
    (sv, sf), (dv, df), vmap = gen.degree_map(rng, d)
    return simplicial.SimplicialMap(_complex(sv, sf), _complex(dv, df), vmap)


def _shifted_pair(rng, phi, total):
    """The disk area pair of the given total, plus d(low) for a random low."""
    p = geo.RelRealCochainPair.from_values(phi, 2, fixtures.disk_area_values(total), {})
    low = cech.RelCechCochain(p.m, _rand_cochain(rng, p.m.src, 0, coeffs.RAT), _rand_cochain(rng, p.m.dst, 1, coeffs.RAT))
    return p.shift_by_coboundary(low)


def _line_bundle_base(phi, d):
    """A degree-d line bundle cocycle: angle 1/d on one target edge."""
    m = cech.star_cover_map(phi)
    t = cech.CechCochain(m.dst, 1, coeffs.U1, {("w0", "w1"): Fraction(1, d)})
    n = 3 * d
    vals = {("v0",): Fraction(0)}
    acc = Fraction(0)
    for i in range(n - 1):
        a, b = f"v{i}", f"v{i + 1}"
        acc += t.value((phi.vmap[a], phi.vmap[b]))
        vals[(b,)] = acc
    s = cech.CechCochain(m.src, 0, coeffs.U1, vals)
    return geo.RelLineBundleCocycle(m, s, t)


def _function_base(phi):
    """The zero function cocycle on a degree-map star cover (H^1 = 0 there)."""
    m = cech.star_cover_map(phi)
    return geo.RelFunctionCocycle(m, cech.CechCochain(m.src, 0, coeffs.INT), cech.CechCochain(m.dst, 1, coeffs.INT))


def _k_for(rng, order, trivial):
    """A multiplier k whose class k * base is zero exactly when `trivial`."""
    if order == 0:
        return 0 if trivial else rng.choice((-2, -1, 1, 2))
    r = order * rng.randrange(2)
    return r if trivial else r + rng.randrange(1, order)


def _shifted(rng, base, k):
    """k * base + d(low) for a random relative cochain low one degree down."""
    u = base.u
    m, q, ring = u.m, u.degree, u.ring
    low = cech.RelCechCochain(m, _rand_cochain(rng, m.src, q - 2, ring), _rand_cochain(rng, m.dst, q - 1, ring))
    w = u.zscale(k) + cech.rel_diff(low)
    return type(base)(m, w.s, w.t)


def _trivialize(c):
    try:
        return ("witness", geo.trivialize(c))
    except NontrivialClass as e:
        return ("nontrivial", e.cls)


class CechClasses:
    """classify / trivialize / is_equivalent / is_integral on shared cover maps."""

    name = "cech-classes"
    CLASSIFY, TRIVIALIZE, EQUIVALENT, INTEGRAL = 7, 3, 2, 16
    TOTALS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), Fraction(-1))

    def __init__(self, seed: int):
        self.seed = seed
        self.base_class = {}
        self.base_error = {}

    def _bases(self, rng):
        out = {
            "winding": (fixtures.winding_function_cocycle(), (1, ())),
            "half-bundle": (fixtures.half_line_bundle_cocycle(), (0, (2,))),
            "half-gerbe": (fixtures.half_gerbe_cocycle(), (0, (2,))),
        }
        for d in (3, 4, 5):
            out[f"bundle-d{d}"] = (_line_bundle_base(_degree_map(rng, d), d), (0, (d,)))
        out["function-d3"] = (_function_base(_degree_map(rng, 3)), (0, ()))
        return out

    def build(self):
        rng = random.Random(f"{self.name}:{self.seed}")
        ops = []
        self.bases = self._bases(rng)
        for name, (base, shape) in self.bases.items():
            order = shape[1][0] if shape[1] else 0
            span = range(-2, 3) if order == 0 else range(0, 2 * order)
            for _ in range(self.CLASSIFY):
                k = rng.choice(span)
                c = _shifted(rng, base, k)
                ops.append(Op("classify", f"classify-{name}", partial(_via, geo, "classify", c),
                              partial(self._check_class, name, k, shape), key=name))
            for i in range(self.TRIVIALIZE):
                k = _k_for(rng, order, trivial=i % 2 == 0)
                c = _shifted(rng, base, k)
                ops.append(Op("trivialize", f"trivialize-{name}", partial(_trivialize, c),
                              partial(self._check_trivialize, name, k, c), key=name))
            for i in range(self.EQUIVALENT):
                k1 = rng.choice(span)
                k2 = k1 + (order if i == 0 else 1)
                c1, c2 = _shifted(rng, base, k1), _shifted(rng, base, k2)
                ops.append(Op("is_equivalent", f"equivalent-{name}", partial(_via, geo, "is_equivalent", c1, c2),
                              partial(self._check_equivalent, name, k1 - k2, c1, c2), key=name))
        phi = fixtures.disk_inclusion()
        for i in range(self.INTEGRAL):
            total = self.TOTALS[i % len(self.TOTALS)]
            ops.append(Op("is_integral", "integral-disk", partial(_via, geo, "is_integral", _shifted_pair(rng, phi, total)),
                          partial(self._check_integral, total), key="disk-inclusion"))
        return ops

    # -- checks ---------------------------------------------------------------

    def prepare_checks(self):
        """Classes of the base cocycles, each of which must generate its group."""
        for name, (base, shape) in self.bases.items():
            rep = geo.classify(base)
            self.base_class[name] = (rep.coords, rep.orders)
            if (rep.group.free_rank, tuple(rep.group.torsion)) != shape:
                self.base_error[name] = f"base class group {rep.group.describe()} is not {shape}"
            elif shape != (0, ()) and not gen.is_unit_class(rep.coords, rep.orders):
                self.base_error[name] = f"base class {rep.coords} does not generate"

    def _expected(self, name, k):
        coords, orders = self.base_class[name]
        return gen.scale_class(coords, orders, k)

    def _check_class(self, name, k, shape, rep):
        if name in self.base_error:
            return self.base_error[name]
        if (rep.group.free_rank, tuple(rep.group.torsion)) != shape:
            return f"group {rep.group.describe()} is not {shape}"
        want = self._expected(name, k)
        return None if tuple(rep.coords) == want else f"class {rep.coords}, expected {want}"

    def _check_trivialize(self, name, k, c, result):
        if name in self.base_error:
            return self.base_error[name]
        want = self._expected(name, k)
        verdict, value = result
        if all(x == 0 for x in want):
            if verdict != "witness":
                return f"no witness for a trivial class (k={k})"
            return None if cech.rel_diff(value) == c.u else "witness does not bound the cocycle"
        if verdict != "nontrivial":
            return f"witness returned for class {want}"
        return None if tuple(value.coords) == want else f"obstruction {value.coords}, expected {want}"

    def _check_equivalent(self, name, k, c1, c2, result):
        if name in self.base_error:
            return self.base_error[name]
        ok, witness = result
        want = all(x == 0 for x in self._expected(name, k))
        if ok != want:
            return f"is_equivalent said {ok}, expected {want}"
        if ok and cech.rel_diff(witness) != c1.u - c2.u:
            return "equivalence witness does not bound the difference"
        return None

    def _check_integral(self, total, rep):
        values = [p.value for p in rep.pairings]
        if values != [total]:
            return f"pairings {values}, expected [{total}]"
        return None if rep.integral == (total.denominator == 1) else "integrality verdict wrong"


# ---------------------------------------------------------------------------
# cli-corpus: every README verb, in process, each input parsed from a file
# ---------------------------------------------------------------------------

WORKDIR = os.path.join(".bench_out", "cli")
GOLDENS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

# fixture kind -> argument lists run on every fixture of that kind
FIXTURE_VERBS = {
    "complex": (("homology",), ("homology", "--ring", "Zmod:2"), ("homology", "--ring", "Zmod:3")),
    "map": (("les",), ("kercoker",), ("cone",)),
    "cover": (("cech",), ("cech", "--ring", "Zmod:2")),
    "covermap": (("cech",), ("cech", "--ring", "Zmod:2")),
    "cocycle": (("classify",), ("trivialize",)),
    "pair": (("integrality",),),
    "form": (("bohr-sommerfeld",),),
}
# the cone-space verbs cost the most; fix-d4 and fix-d5, whose sizes sit
# between fix-d3 and fix-d6, are left out to keep a pass short
CONE_SPACE_MAPS = ("fix-d0", "fix-d1", "fix-d2", "fix-d3", "fix-d6", "fix-const", "fix-disk", "fix-susp-d2")
# a few more fixture runs for the options the table above leaves out
EXTRA_FIXTURE_RUNS = (
    ("homology", "--ring", "Q", "rp2"),
    ("homology", "--ring", "Q", "fix-s2"),
    ("homology", "--ring", "Q", "fix-disk-complex"),
    ("homology", "--degree", "1", "rp2"),
    ("cone", "--ring", "Zmod:2", "fix-d2"),
    ("cone", "--ring", "Q", "fix-d3"),
    ("les", "--ring", "Zmod:3", "fix-d3"),
    ("cone-space", "--degree", "2", "fix-disk"),
    ("cech", "--degree", "2", "covermap-disk"),
)


def run_cli(argv):
    """cli.main in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the arguments
            code = e.code if isinstance(e.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def _h_doc(groups, degrees):
    out = {}
    for n in degrees:
        free, tors = groups.get(n, (0, ()))
        g = {"rank": free}
        if tors:
            g["torsion"] = list(tors)
        out[str(n)] = g
    return out


def _cli_json(result, rc_ok=(0,)):
    code, out, err = result
    if code not in rc_ok:
        return None, f"exit {code}: {err.strip()[:120]}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not JSON"


class CliCorpus:
    """Fixture verbs checked against recorded goldens, plus seeded inputs."""

    name = "cli-corpus"
    COCYCLES = {  # fixture -> (constructor, base class coords, orders)
        "winding": (fixtures.winding_function_cocycle, (1,), (0,)),
        "half-bundle": (fixtures.half_line_bundle_cocycle, (1,), (2,)),
        "half-gerbe": (fixtures.half_gerbe_cocycle, (1,), (2,)),
    }

    def __init__(self, seed: int, goldens_path: str = GOLDENS):
        self.seed = seed
        self.goldens = None
        if os.path.exists(goldens_path):
            with open(goldens_path, encoding="utf-8") as fh:
                self.goldens = json.load(fh)
        self.ops = None

    def _path(self, *parts):
        return os.path.join(WORKDIR, *parts)

    def _write(self, name, doc):
        path = self._path("gen", f"{name}.json")
        jsonio.write_text(path, jsonio.dumps(doc))
        return path

    def build(self):
        # the files are the inputs: written once, parsed afresh by every op
        if self.ops is None:
            self.ops = self._make_inputs()
        return list(self.ops)

    def _make_inputs(self):
        shutil.rmtree(WORKDIR, ignore_errors=True)
        os.makedirs(self._path("fixtures"))
        os.makedirs(self._path("gen"))
        reg = fixtures.fixture_registry()
        for name, (kind, make) in reg.items():
            jsonio.write_text(self._path("fixtures", f"{name}.json"), jsonio.dumps(jsonio.fixture_to_json(kind, make())))
        ops = [self._golden_op(("fixtures", "list")),
               self._golden_op(("fixtures", "emit", "--out", self._path("emit")))]
        for name, (kind, _) in reg.items():
            for verb in FIXTURE_VERBS[kind]:
                ops.append(self._golden_op(verb + (self._path("fixtures", f"{name}.json"),)))
        for name in CONE_SPACE_MAPS:
            for verb in ("compare-cones", "cone-space"):
                ops.append(self._golden_op((verb, self._path("fixtures", f"{name}.json"))))
        for run in EXTRA_FIXTURE_RUNS:
            ops.append(self._golden_op(run[:-1] + (self._path("fixtures", f"{run[-1]}.json"),)))
        ops.append(self._golden_op(("snf", "--matrix", "[[2,4],[6,8]]")))
        ops += self._generated_ops(random.Random(f"{self.name}:{self.seed}"))
        return ops

    def _golden_op(self, argv):
        label = " ".join(argv)
        return Op("cli." + argv[0], label, partial(run_cli, argv), partial(self._check_golden, label))

    def _check_golden(self, label, result):
        if self.goldens is None:
            return "no goldens recorded"
        want = self.goldens.get(label)
        if want is None:
            return "no golden for this run"
        code, out, _ = result
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if code != want["rc"] or got != want["sha256"]:
            return f"exit {code} / stdout {got[:12]} differ from golden exit {want['rc']} / {want['sha256'][:12]}"
        return None

    def record_goldens(self, path):
        goldens = {}
        for op in self.build():
            if isinstance(op.check, partial) and op.check.func == self._check_golden:
                code, out, _ = op.fn()
                goldens[op.label] = {"rc": code, "sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh, indent=1, sort_keys=True)
            fh.write("\n")

    # -- seeded inputs ----------------------------------------------------------

    def _generated_ops(self, rng):
        ops = []
        add = lambda argv, check: ops.append(Op("cli." + argv[0], " ".join(argv), partial(run_cli, argv), check))
        for d in range(0, 7):
            (sv, sf), (dv, df), vmap = gen.degree_map(rng, d)
            doc = {"src": {"vertices": sv, "facets": [list(f) for f in sf]},
                   "dst": {"vertices": dv, "facets": [list(f) for f in df]},
                   "vmap": [[v, vmap[v]] for v in sv]}
            path = self._write(f"degree-{d}", doc)
            add(("cone", path), partial(_check_h, gen.degree_cone_groups(d), [0, 1, 2], "cone"))
            if d % 2:
                add(("kercoker", path), _check_exact)
        for i in range(6):
            ranks, diffs, groups = gen.block_complex(rng, 0, 3, 1, 1, 6)
            cx = {"ring": "Z", "ranks": {str(n): r for n, r in ranks.items()},
                  "diff": {str(n): rows for n, rows in diffs.items()}}
            path = self._write(f"graded-{i}", cx)
            degs = list(range(min(ranks), max(ranks) + 1))
            add(("homology", path), partial(_check_h, groups, degs, "homology"))
            k = i % 4
            fmap = {"src": cx, "dst": cx,
                    "mat": {str(n): [[k if a == b else 0 for b in range(r)] for a in range(r)] for n, r in ranks.items()}}
            path = self._write(f"scaled-{i}", fmap)
            cone_groups = gen.scaled_identity_cone_groups(groups, k)
            add(("cone", path), partial(_check_h, cone_groups, degs + [degs[-1] + 1], "cone"))
            add(("les" if i % 2 else "kercoker", path), _check_exact)
        for name, (make, coords, orders) in self.COCYCLES.items():
            base = make()
            for j in range(3):
                k = _k_for(rng, orders[0], trivial=name == "half-bundle")
                c = _shifted(rng, base, k)
                path = self._write(f"cocycle-{name}-{j}", jsonio.cocycle_to_json(c))
                want = gen.scale_class(coords, orders, k)
                add(("classify", path), partial(_check_class_doc, want))
                if j == 0:
                    add(("trivialize", path), partial(_check_trivialize_doc, want, path))
        phi = fixtures.disk_inclusion()
        for j, total in enumerate((Fraction(2), Fraction(1, 3), Fraction(-3, 2))):
            path = self._write(f"pair-{j}", jsonio.pair_to_json(_shifted_pair(rng, phi, total)))
            add(("integrality", path), partial(_check_integrality_doc, total))
        for n, m in ((3, 3), (4, 5), (5, 4), (5, 5), (6, 6), (7, 6)):
            rows = gen.dense_matrix(rng, n, m, 5)
            add(("snf", "--matrix", json.dumps(rows)), partial(_check_snf_doc, rows))
        return ops


def _check_h(groups, degrees, verb, result):
    doc, err = _cli_json(result)
    if err:
        return err
    want = _h_doc(groups, degrees)
    got = doc.get("H")
    return None if got == want else f"{verb} H {got}, expected {want}"


def _check_exact(result):
    doc, err = _cli_json(result)
    if err:
        return err
    return None if doc.get("exact") is True else "sequence reported not exact"


def _check_class_doc(want, result):
    doc, err = _cli_json(result)
    if err:
        return err
    return None if tuple(doc["class"]) == want else f"class {doc['class']}, expected {list(want)}"


def _check_trivialize_doc(want, path, result):
    if all(x == 0 for x in want):
        doc, err = _cli_json(result)
        if err:
            return err
        witness = jsonio.rel_cochain_from_json(doc["witness"])
        cocycle = jsonio.cocycle_from_json(jsonio.read_json(path))
        return None if cech.rel_diff(witness) == cocycle.u else "witness does not bound the cocycle"
    doc, err = _cli_json(result, rc_ok=(2,))
    if err:
        return err
    got = tuple(doc["nontrivial"]["class"])
    return None if got == want else f"obstruction {got}, expected {want}"


def _check_integrality_doc(total, result):
    doc, err = _cli_json(result, rc_ok=(0, 2))
    if err:
        return err
    integral = total.denominator == 1
    if result[0] != (0 if integral else 2) or doc["integral"] != integral:
        return "integrality verdict wrong"
    values = [Fraction(p["value"]) for p in doc["pairings"]]
    return None if values == [total] else f"pairings {values}, expected [{total}]"


def _check_snf_doc(a_rows, result):
    doc, err = _cli_json(result)
    return err or _smith_problem(a_rows, doc["U"], doc["D"], doc["V"], doc["rank"])


WORKLOADS = {
    "cli-corpus": CliCorpus,
    "z-ladder": ZLadder,
    "field-ladder": FieldLadder,
    "cech-classes": CechClasses,
}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)
