"""Seeded random generators for complexes, maps, and homotopies.

The generator builds a block complex out of elementary pieces (free
generators and two-term pieces Z --k--> Z) whose homology is known by
construction, then conjugates every degree by a random unimodular
matrix.  That gives dense integer complexes with an exact, independent
answer key.
"""

from dataclasses import dataclass
from itertools import permutations
from math import gcd

from relcone import homology, jsonio, simplicial
from relcone.coeffs import INT
from relcone.chain import ComplexMap, GradedComplex, Homotopy, cone_of_map, mat_ring, shift
from relcone.errors import InvalidChainMap
from relcone.fixtures import cycle_complex, degree_map, suspension
from relcone.homology import homology_at
from relcone.matrix import Matrix, block
from relcone.simplicial import SimplicialComplex, SimplicialMap


def shear(n, i, j, k):
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][j] = k
    return Matrix(INT, n, n, rows)


def swap_mat(n, i, j):
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][i] = rows[j][j] = 0
    rows[i][j] = rows[j][i] = 1
    return Matrix(INT, n, n, rows)


def flip(n, i):
    rows = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
    rows[i][i] = -1
    return Matrix(INT, n, n, rows)


def random_unimodular(rng, n):
    """A random unimodular matrix together with its exact inverse."""
    u = Matrix.identity(INT, n)
    uinv = Matrix.identity(INT, n)
    if n < 2:
        if n == 1 and rng.random() < 0.3:
            return flip(1, 0), flip(1, 0)
        return u, uinv
    for _ in range(2 * n + rng.randrange(4)):
        t = rng.randrange(6)
        i, j = rng.sample(range(n), 2)
        if t < 4:
            k = rng.choice([-2, -1, 1, 2])
            e, einv = shear(n, i, j, k), shear(n, i, j, -k)
        elif t == 4:
            e = einv = swap_mat(n, i, j)
        else:
            e = einv = flip(n, i)
        u = e @ u
        uinv = uinv @ einv
    return u, uinv


def canonical_torsion(ks):
    """Elementary-divisor chain of a direct sum of Z/k pieces."""
    ks = sorted(k for k in ks if k >= 2)
    changed = True
    while changed:
        changed = False
        for i in range(len(ks)):
            for j in range(i + 1, len(ks)):
                a, b = ks[i], ks[j]
                g = gcd(a, b)
                l = a * b // g
                if (g, l) != (a, b):
                    ks[i], ks[j] = g, l
                    changed = True
        ks.sort()
    return tuple(k for k in ks if k >= 2)


@dataclass
class BlockComplex:
    """A conjugated block complex with its construction data."""

    chain: GradedComplex
    lo: int
    hi: int
    free: dict  # degree -> number of free generators
    pairs: dict  # source degree -> list of multipliers k (maps to degree-1)
    u: dict  # degree -> change of basis
    uinv: dict

    def rank(self, n):
        return self.free.get(n, 0) + len(self.pairs.get(n, ())) + len(self.pairs.get(n + 1, ()))

    def expected_homology(self, n):
        """(free_rank, torsion) of H_n, from the construction."""
        if n < self.lo or n > self.hi:
            return (0, ())
        tors = canonical_torsion(self.pairs.get(n + 1, ()))
        return (self.free.get(n, 0), tors)

    # basis order in degree n: free gens, then sources of pairs at n,
    # then targets of pairs at n+1
    def free_index(self, n, i):
        return i

    def source_index(self, n, i):
        return self.free.get(n, 0) + i

    def target_index(self, n, i):
        return self.free.get(n, 0) + len(self.pairs.get(n, ())) + i


def random_block_complex(rng, lo, hi, max_free=2, max_pairs=2, kmax=6):
    free = {n: rng.randrange(0, max_free + 1) for n in range(lo, hi + 1)}
    pairs = {n: [rng.randrange(1, kmax + 1) for _ in range(rng.randrange(0, max_pairs + 1))] for n in range(lo + 1, hi + 1)}
    data = BlockComplex(None, lo, hi, free, pairs, {}, {})
    ranks = {n: data.rank(n) for n in range(lo, hi + 1) if data.rank(n)}
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rn, rp = data.rank(n), data.rank(n - 1)
        rows = [[0] * rn for _ in range(rp)]
        for i, k in enumerate(pairs.get(n, ())):
            rows[data.target_index(n - 1, i)][data.source_index(n, i)] = k
        if rn and rp:
            diffs[n] = Matrix(INT, rp, rn, rows)
    for n in range(lo - 1, hi + 2):
        u, uinv = random_unimodular(rng, data.rank(n))
        data.u[n] = u
        data.uinv[n] = uinv
    conj = {}
    for n, m in diffs.items():
        conj[n] = data.u[n - 1] @ m @ data.uinv[n]
    data.chain = GradedComplex(INT, ranks, conj)
    return data


def random_chain_map(rng, xd: BlockComplex, yd: BlockComplex) -> ComplexMap:
    """A random chain map between two conjugated block complexes.

    Built on the elementary level from the pieces that always commute
    with the block differentials, then conjugated on both sides.
    """
    lo = min(xd.lo, yd.lo)
    hi = max(xd.hi, yd.hi)
    raw = {n: [[0] * xd.rank(n) for _ in range(yd.rank(n))] for n in range(lo, hi + 1)}

    def add_entry(n, yi, xi, c):
        if c:
            raw[n][yi][xi] += c

    for n in range(lo, hi + 1):
        # free source generators map to arbitrary cycles of Y_n
        for i in range(xd.free.get(n, 0)):
            xi = xd.free_index(n, i)
            for j in range(yd.free.get(n, 0)):
                add_entry(n, yd.free_index(n, j), xi, rng.randrange(-2, 3))
            for j in range(len(yd.pairs.get(n + 1, ()))):
                add_entry(n, yd.target_index(n, j), xi, rng.randrange(-2, 3))
        # two-term pieces map to matching pieces or collapse onto cycles
        for i, k in enumerate(xd.pairs.get(n, ())):
            si, ti = xd.source_index(n, i), xd.target_index(n - 1, i)
            mode = rng.randrange(3)
            ypairs = yd.pairs.get(n, ())
            if mode == 0 and ypairs:
                j = rng.randrange(len(ypairs))
                k2 = ypairs[j]
                m0 = k // gcd(k, k2)
                m = m0 * rng.randrange(-2, 3)
                add_entry(n, yd.source_index(n, j), si, m)
                add_entry(n - 1, yd.target_index(n - 1, j), ti, m * k2 // k)
            elif mode == 1:
                # source goes to a cycle, target to zero
                for j in range(yd.free.get(n, 0)):
                    add_entry(n, yd.free_index(n, j), si, rng.randrange(-2, 3))
                for j in range(len(yd.pairs.get(n + 1, ()))):
                    add_entry(n, yd.target_index(n, j), si, rng.randrange(-2, 3))
    mats = {}
    for n in range(lo, hi + 1):
        rn_y, rn_x = yd.rank(n), xd.rank(n)
        if rn_y == 0 or rn_x == 0:
            continue
        b = Matrix(INT, rn_y, rn_x, raw[n])
        mats[n] = yd.u[n] @ b @ xd.uinv[n]
    return ComplexMap(xd.chain, yd.chain, mats)


def random_degreewise(rng, x: GradedComplex, y: GradedComplex, degree_shift=1, bound=2):
    """Arbitrary degreewise matrices X_n -> Y_(n+shift), no conditions."""
    mats = {}
    for n in range(min(x.lo, y.lo) - 1, max(x.hi, y.hi) + 2):
        r, c = y.rank(n + degree_shift), x.rank(n)
        if r and c:
            mats[n] = Matrix(INT, r, c, [[rng.randrange(-bound, bound + 1) for _ in range(c)] for _ in range(r)])
    return mats


def random_homotopy_triple(rng, xd: BlockComplex, yd: BlockComplex):
    """(f, g, h) with h d + d h = f - g, for a random f and random h."""
    f = random_chain_map(rng, xd, yd)
    x, y = f.src, f.dst
    hmats = random_degreewise(rng, x, y, degree_shift=1)

    def hcomp(n):
        m = hmats.get(n)
        if m is None:
            return Matrix.zeros(INT, y.rank(n + 1), x.rank(n))
        return m

    gmats = {}
    for n in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1):
        gm = f.component(n) - (hcomp(n - 1) @ x.diff(n) + y.diff(n + 1) @ hcomp(n))
        if gm.nrows and gm.ncols:
            gmats[n] = gm
    g = ComplexMap(x, y, gmats)
    h = Homotopy(f, g, hmats)
    return f, g, h


def random_vector(rng, n, bound=4):
    return [rng.randrange(-bound, bound + 1) for _ in range(n)]


# ---------------------------------------------------------------------------
# Acceptance-grade ensembles with literal entry bounds
# ---------------------------------------------------------------------------


def zero_diff_complex(rng, lo, hi, rmax=3) -> GradedComplex:
    ranks = {n: rng.randrange(0, rmax + 1) for n in range(lo, hi + 1)}
    return GradedComplex(INT, {n: r for n, r in ranks.items() if r}, {})


def random_cone_style_complex(rng, bound=3) -> GradedComplex:
    """Cone of a random map between zero-differential complexes.

    Any matrix family is a chain map when both differentials vanish, and
    the cone differential's nonzero entries are exactly the drawn
    entries, so a stated entry bound holds on the nose.  Per-degree
    ranks stay <= 2 * rmax.
    """
    from relcone.chain import cone_of_map

    p = zero_diff_complex(rng, 0, 2)
    q = zero_diff_complex(rng, 0, 2)
    mats = {}
    for n in range(0, 3):
        if p.rank(n) and q.rank(n):
            mats[n] = Matrix(
                INT,
                q.rank(n),
                p.rank(n),
                [[rng.randint(-bound, bound) for _ in range(p.rank(n))] for _ in range(q.rank(n))],
            )
    return cone_of_map(ComplexMap(p, q, mats))


def lattice_chain_map(rng, a: GradedComplex, b: GradedComplex, bound=3) -> ComplexMap:
    """A draw from the integer lattice of chain maps a -> b.

    The commutation constraint d_b F = F d_a is one integer linear
    system in the entries of F; its kernel lattice is computed exactly
    and the map is a random combination of the basis with coefficients
    in [-bound, bound].
    """
    from relcone.homology import kernel_int

    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    offsets = {}
    total = 0
    for n in range(lo, hi + 1):
        if a.rank(n) and b.rank(n):
            offsets[n] = total
            total += a.rank(n) * b.rank(n)

    def unk(n, k, j):
        return offsets[n] + k * a.rank(n) + j

    rows = []
    for n in range(lo, hi + 1):
        if not (a.rank(n) and b.rank(n - 1)):
            continue
        da, db = a.diff(n), b.diff(n)
        for i in range(b.rank(n - 1)):
            for j in range(a.rank(n)):
                row = [0] * total
                if n in offsets:
                    for k in range(b.rank(n)):
                        row[unk(n, k, j)] += db.entry(i, k)
                if n - 1 in offsets:
                    for l in range(a.rank(n - 1)):
                        row[unk(n - 1, i, l)] -= da.entry(l, j)
                if any(row):
                    rows.append(row)

    if total == 0:
        return ComplexMap(a, b, {})
    if rows:
        basis = kernel_int(Matrix(INT, len(rows), total, rows))
    else:
        basis = Matrix.identity(INT, total)
    coeffs = [rng.randint(-bound, bound) for _ in range(basis.ncols)]
    flat = basis.apply(coeffs)

    mats = {}
    for n, off in offsets.items():
        ra, rb = a.rank(n), b.rank(n)
        mats[n] = Matrix(INT, rb, ra, [[flat[off + k * ra + j] for j in range(ra)] for k in range(rb)])
    return ComplexMap(a, b, mats)


def seeded_degree_map(rng, d):
    """A winding-d map from the 3d-gon to the triangle, with shuffled vertex orders and a rotation."""
    src = cycle_complex(3 * d, "v")
    dst = cycle_complex(3, "w")
    src = SimplicialComplex(rng.sample(src.vertices, len(src.vertices)), src.facets())
    dst = SimplicialComplex(rng.sample(dst.vertices, 3), dst.facets())
    r = rng.randrange(3)
    return SimplicialMap(src, dst, {f"v{i}": f"w{(i + r) % 3}" for i in range(3 * d)})


def suspended_degree_map(d):
    """The suspension of `degree_map(d)`: a degree-d self-map of the 2-sphere (`suspended_degree_two` for d = 2)."""
    base = degree_map(d)
    return SimplicialMap(suspension(base.src), suspension(base.dst), dict(base.vmap, n="n", s="s"))


def random_simplicial_map(rng, max_vertices=6, max_dim=3, tries=6):
    """A seeded random simplicial map K -> L, both of dimension at most `max_dim`.

    L is the closure of a few random simplices on up to `max_vertices`
    vertices (every vertex a simplex).  A random vertex map sends K's
    vertices into L, and K is the closure of the random simplices among
    `tries` draws whose images are simplices of L, plus every vertex.
    Both vertex orders are shuffled, so boundary signs vary too.

    About two maps in five then glue in the degree-p map of circles of
    `fixtures.degree_map(p)`, p in {2, 3, 5}: its 3p-gon is a new
    component of K, and its target triangle meets L in one random vertex
    of L.  Its cone is a summand of the whole cone, so H_1 gains Z/p.
    """
    lverts = [f"b{i}" for i in range(rng.randrange(1, max_vertices + 1))]
    draw = lambda verts: rng.sample(verts, rng.randrange(1, min(len(verts), max_dim + 1) + 1))
    dst = SimplicialComplex(rng.sample(lverts, len(lverts)), [(v,) for v in lverts] + [draw(lverts) for _ in range(tries)])
    kverts = [f"a{i}" for i in range(rng.randrange(1, max_vertices + 1))]
    vmap = {v: rng.choice(lverts) for v in kverts}
    facets = [(v,) for v in kverts] + [s for s in (draw(kverts) for _ in range(tries)) if dst.has({vmap[v] for v in s})]
    src = SimplicialComplex(rng.sample(kverts, len(kverts)), facets)
    if rng.randrange(5) >= 2:
        return SimplicialMap(src, dst, vmap)
    piece = degree_map(rng.choice((2, 3, 5)))
    glue = {"w0": rng.choice(lverts)}  # the piece's vertex that becomes a vertex of L

    def wedge(k, extra):
        verts = list(k.vertices) + [v for v in extra.vertices if v not in glue]
        return SimplicialComplex(rng.sample(verts, len(verts)), list(k.facets()) + [[glue.get(v, v) for v in f] for f in extra.facets()])

    vmap.update((v, glue.get(w, w)) for v, w in piece.vmap.items())
    return SimplicialMap(wedge(src, piece.src), wedge(dst, piece.dst), vmap)


def torus(n):
    """The n x n grid torus, 2n^2 triangles."""
    lab = lambda i, j: f"t{i % n}.{j % n}"
    facets = []
    for i in range(n):
        for j in range(n):
            facets.append((lab(i, j), lab(i + 1, j), lab(i + 1, j + 1)))
            facets.append((lab(i, j), lab(i, j + 1), lab(i + 1, j + 1)))
    return SimplicialComplex([lab(i, j) for i in range(n) for j in range(n)], facets)


def barycentre(simplex) -> str:
    """The vertex of sd(K) at the barycentre of a simplex of K, named by the simplex's labels."""
    return "b(" + ",".join(map(str, simplex)) + ")"


def subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """The barycentric subdivision sd(K): a vertex per simplex of K, a simplex per flag of simplices.

    Each facet of K with vertices p_0, ..., p_m in some order gives the
    facet {p_0} < {p_0, p_1} < ... of sd(K); the flags of its faces are
    their faces.  sd multiplies the n-simplices of a pure n-complex by (n+1)!.
    """
    simplices = [k.labels(s) for n in range(k.dim + 1) for s in k.simplices(n)]
    facets = []
    for facet in k.facets():
        for order in permutations(facet):
            facets.append([barycentre(sorted(order[: i + 1], key=k.vertices.index)) for i in range(len(order))])
    return SimplicialComplex([barycentre(s) for s in simplices], facets)


def last_vertex_map(k: SimplicialComplex, rng=None) -> SimplicialMap:
    """lambda: sd(K) -> K, sending the barycentre of a simplex to its last vertex in K's order.

    With `rng`, each barycentre goes to a vertex of its simplex drawn from
    `rng` instead.  Any such rule is a simplicial approximation of the
    identity of |K| (Hatcher, Thm 2C.1), so every choice is a homotopy
    equivalence: its cone is acyclic over every ring.
    """
    vmap = {}
    for n in range(k.dim + 1):
        for s in k.simplices(n):
            labels = k.labels(s)
            vmap[barycentre(labels)] = labels[-1] if rng is None else rng.choice(labels)
    return SimplicialMap(subdivision(k), k, vmap)


# ---------------------------------------------------------------------------
# Test-only readers of library objects
# ---------------------------------------------------------------------------


def count_calls(monkeypatch, module, name):
    """The argument tuples of every call to `module.name` from here on (the attribute is wrapped)."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def double_the_cone_comparison(monkeypatch):
    """Make `compare_cones` use 2 l in every degree: still a chain map, inducing x2 on every group."""
    real = simplicial._comparison_map
    monkeypatch.setattr(simplicial, "_comparison_map", lambda *a: {n: m + m for n, m in real(*a).items()})


class _RefusingLattice(homology._Lattice):
    """A lattice that reads no vector: every `coords` is None."""

    def coords(self, x):
        return None


def refuse_unit_form_reads(monkeypatch, part):
    """Make every read of `part` ("kernel" or "image") of each integer map's `_unit_form` fail, after its certificate."""
    real = homology._unit_form

    def refusing(a, forms):
        form = real(a, forms)
        return form._replace(**{part: _RefusingLattice(*getattr(form, part))})

    monkeypatch.setattr(homology, "_unit_form", refusing)


def quasi_iso(f: ComplexMap) -> bool:
    """True when the cone of f has vanishing homology in every degree."""
    cone = cone_of_map(f)
    return all(homology_at(cone, n).is_trivial for n in range(cone.lo, cone.hi + 1))


def chain_map_to_json(f: ComplexMap) -> dict:
    """The JSON form `jsonio.chain_map_from_json` reads."""
    mat = {}
    for n in f.degrees():
        if f.src.rank(n) and f.dst.rank(n):
            mat[str(n)] = jsonio.matrix_rows(f.component(n))
    return {"src": jsonio.complex_to_json(f.src), "dst": jsonio.complex_to_json(f.dst), "mat": mat}


# ---------------------------------------------------------------------------
# Test-only chain maps and converters
# ---------------------------------------------------------------------------


def identity_map(c: GradedComplex) -> ComplexMap:
    mats = {n: Matrix.identity(mat_ring(c.ring), c.rank(n)) for n in c.degrees()}
    return ComplexMap._of(c, c, mats)


def compose(g: ComplexMap, f: ComplexMap) -> ComplexMap:
    """g after f."""
    if f.dst is not g.src and f.dst != g.src:
        raise InvalidChainMap("composition target/source mismatch")
    mats = {n: g.component(n) @ f.component(n) for n in f.degrees()}
    return ComplexMap._of(f.src, g.dst, mats)


def cone_inclusion(f: ComplexMap, cone: GradedComplex) -> ComplexMap:
    """j: Y -> Cone(f), beta |-> (0, beta).

    With the differential (theta, eta) |-> (d theta, f theta - d eta)
    this anticommutes on the nose (d j = -j d), which is why it is built
    with `_of`, skipping the check; it still carries cycles to cycles and
    boundaries to boundaries, so the induced map on homology is the usual
    one.
    """
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    column = lambda n: [[Matrix.zeros(mr, x.rank(n - 1), y.rank(n))], [Matrix.identity(mr, y.rank(n))]]
    return ComplexMap._of(y, cone, {n: block(mr, column(n)) for n in cone.degrees()})


def cone_projection(f: ComplexMap, cone: GradedComplex) -> ComplexMap:
    """k: Cone(f) -> X shifted up by one, (theta, eta) |-> theta."""
    x, y = f.src, f.dst
    mr = mat_ring(f.ring)
    row = lambda n: [[Matrix.identity(mr, x.rank(n - 1)), Matrix.zeros(mr, x.rank(n - 1), y.rank(n))]]
    return ComplexMap._of(cone, shift(x, 1), {n: block(mr, row(n)) for n in cone.degrees()})


def cochain_complex(ring, ranks_by_codeg: dict, d_by_codeg: dict) -> GradedComplex:
    """Store a cochain complex (X^*, d) as the chain complex X~_n = X^(-n)."""
    ranks = {-q: r for q, r in ranks_by_codeg.items()}
    diffs = {-q: m for q, m in d_by_codeg.items()}
    return GradedComplex(ring, ranks, diffs)


def cochain_view(c: GradedComplex):
    """Inverse of :func:`cochain_complex`; returns (ranks, d) by codegree."""
    ranks = {-n: c.rank(n) for n in c.degrees() if c.rank(n)}
    d = {-n: c.diff(n) for n in c.degrees() if c.diff(n).nrows and c.diff(n).ncols}
    return ranks, d


def identity_simplicial(k: SimplicialComplex) -> SimplicialMap:
    return SimplicialMap(k, k, {v: v for v in k.vertices})
