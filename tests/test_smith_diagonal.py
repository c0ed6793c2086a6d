"""`smith_diagonal`: the Smith rank and diagonal with no transforms, certified by replay.

Its answers are checked against `snf` (whose transforms `_check_snf`
certifies) and, on small matrices, against minor gcds.  The certificate
replays the pivot loop's log on a fresh copy of the input; a loop whose
D disagrees with its log must raise InvalidChainMap, under every
interpreter flag, and reach the CLI as exit 1 with one stderr line.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from oracles import smith_diagonal_via_minors
from relcone import cli, homology
from relcone.chain import cone_of_map
from relcone.coeffs import INT, RAT
from relcone.errors import InvalidChainMap, UnsupportedRing
from relcone.fixtures import fixture_registry, projective_plane
from relcone.homology import smith_diagonal, snf
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
        yield "dense", dense(rng, m, n), n
        yield "boundary", boundary_like(rng, m, n), n
        yield "tall", dense(rng, *tall, bound=3), tall[1]
        yield "wide", boundary_like(rng, *wide), wide[1]
        yield "zero-lines", with_zero_lines(rng, dense(rng, m, n, bound=2), n), n + 1
        big = 2 ** rng.randrange(201, 260) + rng.randrange(1000)
        yield "huge", [[x * big + rng.randrange(-1, 2) * (i == j) for j, x in enumerate(r)] for i, r in enumerate(dense(rng, m, n, 3))], n
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


def test_only_integer_matrices_are_reduced():
    with pytest.raises(UnsupportedRing, match="snf is defined over Z"):
        smith_diagonal(Matrix(RAT, 1, 1, [[1]]))


# ---------------------------------------------------------------------------
# The certificate trips when the elimination disagrees with its log
# ---------------------------------------------------------------------------


def corrupted(real, how):
    """A stand-in for `_smith_eliminate` that runs it and then breaks its D or its log."""

    def run(d, m, n):
        log = real(d, m, n)
        if how == "drop":
            del log[len(log) // 2]
        elif how == "entry":
            d[0][0] += 1
        elif how == "self-add":
            log.append((homology._ADD, True, 0, 0, 1))
        elif how == "outside":
            log.append((homology._SWAP, False, 0, n, 0))
        return log

    return run


RP2_D2 = chain_complex(projective_plane(), INT).diff(2)


@pytest.mark.parametrize("how", ["drop", "entry", "self-add", "outside"])
def test_a_disagreeing_log_raises(monkeypatch, how):
    assert smith_diagonal(RP2_D2) == (snf(RP2_D2).rank, snf(RP2_D2).diag)
    monkeypatch.setattr(homology, "_smith_eliminate", corrupted(homology._smith_eliminate, how))
    with pytest.raises(InvalidChainMap, match="^snf: ") as e:
        smith_diagonal(RP2_D2)
    assert "\n" not in str(e.value)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_the_cli_exits_one_with_one_line(monkeypatch, tmp_path):
    assert run_cli("fixtures", "emit", "--out", str(tmp_path), "rp2")[0] == 0
    monkeypatch.setattr(homology, "_smith_eliminate", corrupted(homology._smith_eliminate, "drop"))
    code, out, err = run_cli("homology", str(tmp_path / "rp2.json"))
    assert (code, out) == (1, "")
    assert err.startswith("relcone: error: snf: ") and err.count("\n") == 1


CORRUPT_LOG_SCRIPT = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from relcone import cli, homology
from relcone.errors import InvalidChainMap
from relcone.homology import smith_diagonal
from relcone.matrix import Matrix
from relcone.coeffs import INT

real = homology._smith_eliminate

def dropping(d, m, n):
    return real(d, m, n)[1:]

homology._smith_eliminate = dropping
try:
    smith_diagonal(Matrix.from_rows(INT, [[2, 4], [6, 9]]))
    message = None
except InvalidChainMap as e:
    message = str(e)
out, err = io.StringIO(), io.StringIO()
with redirect_stdout(out), redirect_stderr(err):
    code = cli.main(["homology", sys.argv[1]])
print(json.dumps([message, code, out.getvalue(), err.getvalue()]))
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
    message, code, out, err = json.loads(proc.stdout)
    assert message is not None and message.startswith("snf: ") and "\n" not in message
    assert (code, out) == (1, "")
    assert err.startswith("relcone: error: snf: ") and err.count("\n") == 1
