"""Seeded inputs and their known answers, in plain Python.

Nothing here calls relcone: the complexes are lists of labels and
facets, the graded complexes are integer matrices conjugated by
unimodular changes of basis built here, and every expected answer comes
from the construction or a closed form.  Sizes are fixed; the seed only
changes labels, vertex order, scrambling and values, so every seed does
the same amount of work.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# ---------------------------------------------------------------------------
# Integer matrices as lists of rows
# ---------------------------------------------------------------------------


def eye(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a, b):
    """Plain integer product of two lists of rows."""
    ncols = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(ncols)] for i in range(len(a))]


def det(rows) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def rank_q(rows) -> int:
    """Rank over Q by fraction-free (Bareiss) elimination; entries stay minors."""
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        for i in range(rank + 1, len(m)):
            f = m[i][c]
            m[i] = [(x * p - y * f) // prev for x, y in zip(m[i], m[rank])]
        prev = p
        rank += 1
    return rank


def random_unimodular(rng, n, steps):
    """(U, U^-1) from `steps` random shears, swaps and sign flips."""
    u, uinv = eye(n), eye(n)
    if n < 2:
        return u, uinv
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        t = rng.randrange(6)
        if t < 4:
            k = rng.choice((-2, -1, 1, 2))
            # U <- E U with E = I + k e_ij; U^-1 <- U^-1 E^-1
            u[i] = [x + k * y for x, y in zip(u[i], u[j])]
            for r in uinv:
                r[j] -= k * r[i]
        elif t == 4:
            u[i], u[j] = u[j], u[i]
            for r in uinv:
                r[i], r[j] = r[j], r[i]
        else:
            u[i] = [-x for x in u[i]]
            for r in uinv:
                r[i] = -r[i]
    return u, uinv


def dense_matrix(rng, nrows, ncols, bound):
    return [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]


# ---------------------------------------------------------------------------
# Finitely generated abelian groups
# ---------------------------------------------------------------------------


def invariant_factors(orders):
    """Divisibility chain of a direct sum of cyclic groups Z/k (k >= 2 kept)."""
    primes: dict[int, list[int]] = {}
    for k in orders:
        p = 2
        while k >= 2:
            if p * p > k:
                p = k
            q = 1
            while k % p == 0:
                k //= p
                q *= p
            if q > 1:
                primes.setdefault(p, []).append(q)
            p += 1
    if not primes:
        return ()
    width = max(len(v) for v in primes.values())
    out = [1] * width
    for powers in primes.values():
        powers.sort(reverse=True)
        for i, q in enumerate(powers):
            out[width - 1 - i] *= q
    return tuple(x for x in out if x >= 2)


def tensor_zk(free, torsion, k):
    """(free, torsion) of G (x) Z/k; k = 0 means Z."""
    if k == 0:
        return free, tuple(torsion)
    return 0, invariant_factors([k] * free + [gcd(t, k) for t in torsion])


def tor_zk(torsion, k):
    """Tor(G, Z/k) of the torsion part; k = 0 gives 0."""
    if k == 0:
        return ()
    return invariant_factors([gcd(t, k) for t in torsion])


def homology_mod(groups, n, k):
    """H_n(C; Z/k) from integer groups {n: (free, torsion)} by the UCT."""
    f0, t0 = groups.get(n, (0, ()))
    _, t1 = groups.get(n - 1, (0, ()))
    fa, ta = tensor_zk(f0, t0, k)
    return fa, invariant_factors(list(ta) + list(tor_zk(t1, k)))


def field_dim(groups, n, p):
    """dim H_n(C; F) for F = Q (p = 0) or F_p, from integer groups."""
    free, tors = homology_mod(groups, n, p)
    return free if p == 0 else len(tors)


# ---------------------------------------------------------------------------
# Simplicial inputs: (vertices, facets) with a seeded vertex order
# ---------------------------------------------------------------------------


def shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def torus(rng, n):
    """T(n): the n x n grid torus, 2n^2 triangles.  H = Z, Z^2, Z."""
    lab = lambda i, j: f"t{i % n}.{j % n}"
    facets = []
    for i in range(n):
        for j in range(n):
            facets.append((lab(i, j), lab(i + 1, j), lab(i + 1, j + 1)))
            facets.append((lab(i, j), lab(i, j + 1), lab(i + 1, j + 1)))
    verts = [lab(i, j) for i in range(n) for j in range(n)]
    groups = {0: (1, ()), 1: (2, ()), 2: (1, ())}
    return shuffled(rng, verts), facets, groups


def sphere(rng, dim):
    """S^dim as the (dim-1)-fold suspension of the triangle."""
    verts = ["c0", "c1", "c2"]
    facets = [("c0", "c1"), ("c1", "c2"), ("c0", "c2")]
    for t in range(dim - 1):
        n, s = f"n{t}", f"s{t}"
        facets = [f + (n,) for f in facets] + [f + (s,) for f in facets]
        verts += [n, s]
    groups = {0: (1, ()), dim: (1, ())}
    return shuffled(rng, verts), facets, groups


def projective_plane(rng):
    triples = [(1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
               (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6)]
    facets = [tuple(f"p{i}" for i in t) for t in triples]
    groups = {0: (1, ()), 1: (0, (2,))}
    return shuffled(rng, [f"p{i}" for i in range(1, 7)]), facets, groups


def degree_map(rng, d):
    """A winding-number-d map from a 3d-gon (hexagon for d = 0) onto a triangle.

    Returns (src, dst, vmap) with src and dst as (vertices, facets).
    """
    if d == 0:
        m, pattern = 6, [0, 1, 2, 0, 2, 1]
    else:
        m, pattern = 3 * d, [i % 3 for i in range(3 * d)]
    src_v = [f"v{i}" for i in range(m)]
    src_f = [(src_v[i], src_v[(i + 1) % m]) for i in range(m)]
    dst_v = ["w0", "w1", "w2"]
    dst_f = [("w0", "w1"), ("w1", "w2"), ("w0", "w2")]
    vmap = {f"v{i}": f"w{pattern[i]}" for i in range(m)}
    return (shuffled(rng, src_v), src_f), (shuffled(rng, dst_v), dst_f), vmap


def degree_cone_groups(d):
    """Integer homology of the algebraic cone of a degree-d circle map."""
    if d == 0:
        return {1: (1, ()), 2: (1, ())}
    return {1: (0, (d,) if d >= 2 else ())}


# ---------------------------------------------------------------------------
# Graded complexes with prescribed homology
# ---------------------------------------------------------------------------


def block_complex(rng, lo, hi, nfree, npairs, kmax, steps_per_rank=2):
    """A complex built from Z and Z --k--> Z pieces, scrambled degreewise.

    Every degree gets `nfree` free pieces and every degree above `lo`
    gets `npairs` pieces Z --k--> Z into the degree below, with k drawn
    from [2, kmax]; so the ranks depend only on the shape, not the seed.
    Returns (ranks, diffs, groups): ranks {n: r}, diffs {n: rows of
    d_n : C_n -> C_(n-1)}, and the homology {n: (free, torsion)} known
    from the pieces.
    """
    free = {n: nfree for n in range(lo, hi + 1)}
    pairs = {n: [rng.randrange(2, kmax + 1) for _ in range(npairs)] for n in range(lo + 1, hi + 1)}

    def rank(n):
        return free.get(n, 0) + len(pairs.get(n, ())) + len(pairs.get(n + 1, ()))

    ranks = {n: rank(n) for n in range(lo, hi + 1) if rank(n)}
    change = {}
    for n in range(lo - 1, hi + 2):
        r = rank(n)
        change[n] = random_unimodular(rng, r, steps_per_rank * r)
    diffs = {}
    for n in range(lo + 1, hi + 1):
        rn, rp = rank(n), rank(n - 1)
        if not (rn and rp):
            continue
        rows = [[0] * rn for _ in range(rp)]
        for i, k in enumerate(pairs.get(n, ())):
            # source: i-th pair generator at n; target: i-th "lower" slot at n-1
            rows[free.get(n - 1, 0) + len(pairs.get(n - 1, ())) + i][free.get(n, 0) + i] = k
        u_prev, _ = change[n - 1]
        _, uinv_n = change[n]
        diffs[n] = matmul(matmul(u_prev, rows), uinv_n)
    groups = {n: (free.get(n, 0), invariant_factors(pairs.get(n + 1, ()))) for n in range(lo, hi + 1)}
    return ranks, diffs, groups


def scaled_identity_cone_groups(groups, k):
    """H_n(Cone(k * id_X)) = H_n(X; Z/k); k = 0 gives H_n(X) + H_(n-1)(X)."""
    degs = set(groups) | {n + 1 for n in groups}
    out = {}
    for n in degs:
        if k == 0:
            f0, t0 = groups.get(n, (0, ()))
            f1, t1 = groups.get(n - 1, (0, ()))
            g = (f0 + f1, invariant_factors(list(t0) + list(t1)))
        else:
            g = homology_mod(groups, n, k)
        if g != (0, ()):
            out[n] = g
    return out


# ---------------------------------------------------------------------------
# Angles and class arithmetic
# ---------------------------------------------------------------------------


def random_angle(rng, denom=12):
    return Fraction(rng.randrange(denom), denom)


def scale_class(coords, orders, k):
    """k times a class, torsion coordinates reduced mod their order."""
    return tuple((k * c) % d if d else k * c for c, d in zip(coords, orders))


def is_unit_class(coords, orders) -> bool:
    """Whether a class in a cyclic group generates it."""
    if len(coords) != 1:
        return False
    c, d = coords[0], orders[0]
    return abs(c) == 1 if d == 0 else gcd(c, d) == 1
