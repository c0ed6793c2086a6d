"""`smith_diagonal`: the Smith rank and diagonal with no transforms, certified by replay.

Its answers are checked against `snf` (whose transforms `_check_snf`
certifies) and, on small matrices, against minor gcds: on seeded
matrices (one family has no unit entry, so every pivot is the dense
loop's), every fixture differential, the tori T(3)-T(8) and the cones of
50 seeded random simplicial maps, torsion included.  Both phases are
certified by replay: the unit phase's row operations on a fresh sparse
copy of the input, the dense loop's log on a fresh copy of the core.  A
log that disagrees with its loop, in either phase, must raise
InvalidChainMap, under every interpreter flag, and reach the CLI as exit
1 with one stderr line.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from helpers import count_calls, random_simplicial_map, torus
from oracles import smith_diagonal_via_minors
from relcone import cli, homology
from relcone.chain import cone_of_map
from relcone.coeffs import INT, RAT
from relcone.errors import InvalidChainMap, UnsupportedRing
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import homology_invariants, smith_diagonal, snf
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map, mapping_cone_space


def dense(rng, m, n, bound=5):
    return [[rng.randrange(-bound, bound + 1) for _ in range(n)] for _ in range(m)]


def boundary_like(rng, m, n):
    """Columns with at most three +-1 entries, as in a simplicial boundary."""
    rows = [[0] * n for _ in range(m)]
    for j in range(n):
        for i in rng.sample(range(m), min(m, rng.randrange(0, 4))):
            rows[i][j] = rng.choice([-1, 1])
    return rows


def with_zero_lines(rng, rows, n):
    """`rows` with a zero row and a zero column put in at random places."""
    j = rng.randrange(n + 1)
    rows = [r[:j] + [0] + r[j:] for r in rows]
    rows.insert(rng.randrange(len(rows) + 1), [0] * (n + 1))
    return rows


def seeded_matrices(seed):
    """(label, rows, ncols) for every family the routine must handle."""
    rng = random.Random(seed)
    for trial in range(60):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        tall, wide = (rng.randrange(6, 11), rng.randrange(1, 4)), (rng.randrange(1, 4), rng.randrange(6, 11))
        rows = dense(rng, m, n)
        yield "dense", rows, n
        yield "boundary", boundary_like(rng, m, n), n
        yield "tall", dense(rng, *tall, bound=3), tall[1]
        yield "wide", boundary_like(rng, *wide), wide[1]
        yield "zero-lines", with_zero_lines(rng, dense(rng, m, n, bound=2), n), n + 1
        big = 2 ** rng.randrange(201, 260) + rng.randrange(1000)
        yield "huge", [[x * big + rng.randrange(-1, 2) * (i == j) for j, x in enumerate(r)] for i, r in enumerate(dense(rng, m, n, 3))], n
        yield "no-unit", [[(2 + (i + j) % 2) * x for j, x in enumerate(r)] for i, r in enumerate(rows)], n
    yield "1x1 zero", [[0]], 1
    yield "0x3", [], 3
    yield "3x0", [[], [], []], 0


def test_rank_and_diagonal_match_snf_and_minor_gcds():
    checked = small = 0
    for label, rows, n in seeded_matrices("smith-diagonal"):
        a = Matrix(INT, len(rows), n, rows)
        s = snf(a)
        assert smith_diagonal(a) == (s.rank, s.diag), (label, rows)
        if max(a.shape) <= 4 and min(a.shape):
            assert s.diag == smith_diagonal_via_minors(rows), (label, rows)
            small += 1
        checked += 1
    assert checked >= 300 and small >= 60


def fixture_differentials():
    for name, (kind, build) in fixture_registry().items():
        if kind == "complex":
            complexes = [chain_complex(build(), INT, aug) for aug in (False, True)]
        elif kind == "map":
            f = build()
            complexes = [chain_complex(mapping_cone_space(f), INT, True), cone_of_map(chain_map(f, INT, True))]
        else:
            continue
        for c in complexes:
            for n in range(c.lo, c.hi + 2):
                yield name, n, c.diff(n)


def test_every_fixture_differential_matches_snf():
    seen = set()
    for name, n, d in fixture_differentials():
        s = snf(d)
        assert smith_diagonal(d) == (s.rank, s.diag), (name, n)
        seen.add(name)
    assert {"rp2", "fix-s6", "fix-d3", "fix-susp-d2", "fix-disk"} <= seen


def dense_diagonal(a):
    """`snf`'s own diagonal without its transforms: its dense pivot loop on all of A, certified by replay."""
    d, replay = [list(r) for r in a.rows], [list(r) for r in a.rows]
    for op in homology._smith_eliminate(d, a.nrows, a.ncols):
        homology._apply(replay, op)
    diag = tuple(d[i][i] for i in range(min(a.shape)))
    rank = sum(1 for x in diag if x)
    homology._check_smith_diagonal(a.shape, a.shape, replay, diag, rank)
    return rank, diag


def test_tori_and_random_map_cones_match_snf():
    """T(3)-T(8) and the algebraic cones of random maps (seeds 0-49, some with torsion) against `snf`.

    `snf` certifies its transforms by dense products, which take seconds on
    T(6)-T(8); there the reference is the same pivot loop's diagonal,
    certified by replay, and `snf` itself checks T(3)-T(5).
    """
    torsion = 0
    for n in range(3, 9):
        c = chain_complex(torus(n), INT)
        for k in (1, 2):
            d = c.diff(k)
            want = dense_diagonal(d)
            assert smith_diagonal(d) == want, (n, k)
            if n <= 5:
                s = snf(d)
                assert want == (s.rank, s.diag), (n, k)
    for seed in range(50):
        cone = cone_of_map(chain_map(random_simplicial_map(random.Random(seed)), INT))
        for n in range(cone.lo, cone.hi + 2):
            d = cone.diff(n)
            s = snf(d)
            assert smith_diagonal(d) == (s.rank, s.diag), (seed, n)
            torsion += any(x >= 2 for x in s.diag)
    assert torsion >= 10


def test_unit_pivots_leave_the_dense_loop_a_small_core_or_none(monkeypatch):
    """A torus boundary is all unit pivots; a matrix with no unit entry finds no pivot, and its core is all of it."""
    cores = count_calls(monkeypatch, homology, "_smith_eliminate")
    for k in (1, 2):
        d = chain_complex(torus(8), INT).diff(k)
        r = min(d.shape) - 1  # Z, Z^2, Z: d_1 and d_2 have rank one less than their short side
        assert smith_diagonal(d) == (r, (1,) * r + (0,))
    assert cores == []
    # RP^2: 9 unit pivots, then the 3 x 1 core [2, 2, 2] up to sign gives the Z/2
    assert smith_diagonal(RP2_D2) == (10, (1,) * 9 + (2,))
    assert [(m, n) for _, m, n in cores] == [(3, 1)]
    doubled = Matrix(INT, *RP2_D2.shape, [[2 * x for x in r] for r in RP2_D2.rows])
    assert smith_diagonal(doubled) == (10, (2,) * 9 + (4,))
    assert [(m, n) for _, m, n in cores[1:]] == [doubled.shape]


def test_the_torus_t20_has_the_closed_form_groups():
    """T(20), 800 triangles: H_0, H_1, H_2 = Z, Z^2, Z, from one Smith diagonal per boundary matrix."""
    c = chain_complex(torus(20), INT)
    assert homology_invariants(c, [0, 1, 2]) == {0: (1, ()), 1: (2, ()), 2: (1, ())}


def test_only_integer_matrices_are_reduced():
    with pytest.raises(UnsupportedRing, match="snf is defined over Z"):
        smith_diagonal(Matrix(RAT, 1, 1, [[1]]))


# ---------------------------------------------------------------------------
# The certificate trips when the elimination disagrees with its log
# ---------------------------------------------------------------------------


def corrupted_units(real, how):
    """A stand-in for `_unit_pivots` that runs it and then breaks its pivots or its log."""

    def run(rows):
        pivots, ops = real(rows)
        if how == "drop":
            del ops[len(ops) // 2]
        elif how == "multiplier":
            i, p, k = ops[0]
            ops[0] = (i, p, k + 1)
        elif how == "self-add":
            ops.append((0, 0, 1))
        elif how == "outside":
            ops.append((len(rows), 0, 1))
        elif how == "repeat":
            pivots[1] = (pivots[0][0], pivots[1][1])
        elif how == "non-unit":
            used = {i for i, _ in pivots}  # a row that is no pivot has a 0 in every pivot column
            pivots[-1] = (next(i for i in range(len(rows)) if i not in used), pivots[-1][1])
        return pivots, ops

    return run


def corrupted_core(real, how):
    """A stand-in for `_smith_eliminate` that runs it and then breaks its D or its log."""

    def run(d, m, n):
        log = real(d, m, n)
        if how == "entry":
            d[0][0] += 1
        elif how == "core":
            del log[len(log) // 2]
        elif how == "core-self-add":
            log.append((homology._ADD, True, 0, 0, 1))
        elif how == "core-outside":
            log.append((homology._SWAP, False, 0, n, 0))  # column n of an m x n core
        return log

    return run


# corruption -> the start of the message it must raise
CORRUPTIONS = {
    "drop": "snf: pivot ",
    "multiplier": "snf: pivot ",
    "self-add": "snf: bad logged operation ",
    "outside": "snf: bad logged operation ",
    "repeat": "snf: pivot ",
    "non-unit": "snf: pivot ",
    "entry": "snf: D not diagonal",
    "core": "snf: D not diagonal",
    "core-self-add": "snf: bad logged operation ",
    "core-outside": "snf: bad logged operation ",
}
CORE_CORRUPTIONS = ("entry", "core", "core-self-add", "core-outside")


def corrupt(monkeypatch, how):
    if how in CORE_CORRUPTIONS:
        monkeypatch.setattr(homology, "_smith_eliminate", corrupted_core(homology._smith_eliminate, how))
    else:
        monkeypatch.setattr(homology, "_unit_pivots", corrupted_units(homology._unit_pivots, how))


RP2_D2 = chain_complex(projective_plane(), INT).diff(2)


@pytest.mark.parametrize("how", list(CORRUPTIONS))
def test_a_disagreeing_log_raises(monkeypatch, how):
    """RP^2's d_2 reaches both phases: unit pivots, then a 3 x 1 core for the Z/2."""
    assert smith_diagonal(RP2_D2) == (snf(RP2_D2).rank, snf(RP2_D2).diag)
    corrupt(monkeypatch, how)
    with pytest.raises(InvalidChainMap, match="^snf: ") as e:
        smith_diagonal(RP2_D2)
    assert str(e.value).startswith(CORRUPTIONS[how]) and "\n" not in str(e.value)
    if how in ("repeat", "non-unit"):
        assert ("repeats a line" in str(e.value)) == (how == "repeat")
        assert ("is not a unit" in str(e.value)) == (how == "non-unit")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_the_cli_exits_one_with_one_line(monkeypatch, tmp_path):
    assert run_cli("fixtures", "emit", "--out", str(tmp_path), "rp2")[0] == 0
    for how, start in CORRUPTIONS.items():
        with monkeypatch.context() as patch:
            corrupt(patch, how)
            code, out, err = run_cli("homology", str(tmp_path / "rp2.json"))
        assert (code, out) == (1, ""), how
        assert err.startswith("relcone: error: " + start) and err.count("\n") == 1, (how, err)
    assert run_cli("homology", str(tmp_path / "rp2.json"))[0] == 0


CORRUPT_LOG_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from relcone import cli, homology
from relcone.errors import InvalidChainMap
from relcone.homology import smith_diagonal
from relcone.matrix import Matrix
from relcone.coeffs import INT

units, core = homology._unit_pivots, homology._smith_eliminate

def dropping_unit_op(rows):
    pivots, ops = units(rows)
    return pivots, ops[1:]

def dropping_core_op(d, m, n):
    return core(d, m, n)[1:]

results = []
for name, fn, matrix in [("_unit_pivots", dropping_unit_op, [[1, 2], [3, 4]]),
                         ("_smith_eliminate", dropping_core_op, [[2, 4], [6, 9]])]:
    setattr(homology, name, fn)
    try:
        smith_diagonal(Matrix.from_rows(INT, matrix))
        message = None
    except InvalidChainMap as e:
        message = str(e)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["homology", sys.argv[1]])
    setattr(homology, name, units if name == "_unit_pivots" else core)
    results.append([message, code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


@pytest.mark.parametrize("optimize", [False, True])
def test_a_disagreeing_log_raises_under_every_interpreter_flag(optimize, tmp_path):
    assert run_cli("fixtures", "emit", "--out", str(tmp_path), "rp2")[0] == 0
    src = os.path.dirname(os.path.dirname(homology.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    argv = [sys.executable, *flags, "-c", CORRUPT_LOG_SCRIPT, str(tmp_path / "rp2.json")]
    proc = subprocess.run(argv, capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == 2  # a unit-phase log, then a core log
    for message, code, out, err in results:
        assert message is not None and message.startswith("snf: ") and "\n" not in message
        assert (code, out) == (1, "")
        assert err.startswith("relcone: error: snf: ") and err.count("\n") == 1
