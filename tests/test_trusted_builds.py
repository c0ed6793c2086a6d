"""The trust boundary: a trusted build only ever stores what its check would pass.

`Matrix._of` and the cochains' shared `_of` (on `cech._Cochain`, which
`CechCochain` and `RelCechCochain` inherit) store values without calling
`CoeffRing.normalize`.  Here both are wrapped so that every value they
store is checked again: it must have the exact stored type of its ring
(an int, never a bool, over Z and Zmod; a Fraction over Q and U1), lie
in [0, n) over Zmod and in [0, 1) over U1, and come back from
`ring.normalize` equal and of the same type.  `GradedComplex._of` and
`ComplexMap._of` store a complex or chain map without its check; here
each such build runs the check its constructor runs (ring, shape,
d d = 0, d f = f d).  The wrapped builds then run over the replay of
`bench/goldens.json`, the cocycle operations and field homology.
"""

import hashlib
import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from relcone import cli
from relcone.cech import _Cochain, relative_cohomology
from relcone.chain import ComplexMap, GradedComplex
from relcone.coeffs import INT, RAT, U1, ZMOD
from relcone.fixtures import fixture_registry
from relcone.geo import classify, group_op, inverse, is_equivalent, trivialize
from relcone.errors import NontrivialClass, RelconeError
from relcone.homology import homology_at, ker_coker_les, les_of_cone
from relcone.matrix import Matrix
from relcone.simplicial import chain_complex, chain_map

STORED_TYPE = {"Z": int, "Zmod": int, "Q": Fraction, "U1": Fraction}
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _fault(ring, v):
    """Why v is not a normalized value of ring, or None."""
    if type(v) is not STORED_TYPE[ring.kind]:
        return f"{type(v).__name__} in a {ring} build"
    if ring.kind == "Zmod" and not 0 <= v < ring.modulus:
        return f"residue {v} outside [0, {ring.modulus})"
    if ring.kind == "U1" and not 0 <= v < 1:
        return f"angle {v} outside [0, 1)"
    w = ring.normalize(v)
    if w != v or type(w) is not type(v):
        return f"{v!r} normalizes to {w!r}"
    return None


class TrustedBuilds:
    """Counts the values and the complexes and chain maps that trusted builds store, and records every fault."""

    def __init__(self):
        self.values = 0
        self.chain_builds = 0
        self.faults = []

    def fault(self, text):
        if len(self.faults) < 20:
            self.faults.append(text)

    def check(self, where, ring, values):
        for v in values:
            self.values += 1
            fault = _fault(ring, v)
            if fault is not None:
                self.fault(f"{where}: {fault}")

    def check_chain(self, obj):
        self.chain_builds += 1
        try:
            obj._validate()
        except RelconeError as e:
            self.fault(f"{type(obj).__name__}._of: {e}")


@pytest.fixture
def trusted(monkeypatch):
    seen = TrustedBuilds()
    matrix_of = Matrix._of.__func__
    cochain_of = _Cochain._of.__func__

    def checked_matrix(cls, ring, nrows, ncols, rows):
        m = matrix_of(cls, ring, nrows, ncols, rows)
        seen.check("Matrix._of", ring, (v for r in m.rows for v in r))
        return m

    def checked_cochain(cls, space, degree, ring, vec):
        c = cochain_of(cls, space, degree, ring, vec)
        seen.check(f"{cls.__name__}._of", ring, c.vector())
        return c

    def checked_chain(of):
        def build(cls, *args):
            obj = of(cls, *args)
            seen.check_chain(obj)
            return obj

        return classmethod(build)

    monkeypatch.setattr(Matrix, "_of", classmethod(checked_matrix))
    monkeypatch.setattr(_Cochain, "_of", classmethod(checked_cochain))
    for cls in (GradedComplex, ComplexMap):
        monkeypatch.setattr(cls, "_of", checked_chain(cls._of.__func__))
    yield seen
    assert seen.faults == []
    assert seen.values > 0 and seen.chain_builds > 0


def test_goldens_replay(trusted, tmp_path, monkeypatch):
    """All recorded bench runs, from a directory laid out as the recording was."""
    with open(os.path.join(ROOT, "bench", "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["fixtures", "emit", "--out", ".bench_out/cli/fixtures"]) == 0
    for label, want in sorted(goldens.items()):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(label.split())
        assert (code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()) == (want["rc"], want["sha256"]), label


@pytest.mark.parametrize("name", [n for n, (kind, _) in fixture_registry().items() if kind == "cocycle"])
def test_cocycle_operations(trusted, name):
    """classify, trivialize and is_equivalent on a cocycle fixture (Z or U1) and its multiples."""
    c = fixture_registry()[name][1]()
    assert c.ring in (INT, U1)
    twice = group_op(c, c)
    for x in (c, twice, inverse(c)):
        classify(x)
        try:
            trivialize(x)
        except NontrivialClass:
            pass
    assert is_equivalent(c, c)[0]
    is_equivalent(twice, c)
    is_equivalent(c, inverse(c))


@pytest.mark.parametrize("ring", [RAT, ZMOD(2), ZMOD(3)], ids=str)
def test_field_homology(trusted, ring):
    """Homology, both long exact sequences and relative Cech cohomology over a field."""
    for kind, build in fixture_registry().values():
        if kind == "complex":
            c = chain_complex(build(), ring)
            for n in c.degrees():
                homology_at(c, n)
        elif kind == "map":
            f = chain_map(build(), ring)
            les_of_cone(f)
            ker_coker_les(f)
        elif kind == "covermap":
            m = build()
            for q in range(m.dst.dim + 2):
                relative_cohomology(m, ring, q)
