"""End-to-end checks of the command line: golden bytes, exit codes, dispatch."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import relcone
from helpers import double_the_cone_comparison, identity_simplicial
from oracles import rank_rational
from relcone import cli, homology, jsonio
from relcone.cech import rel_diff
from relcone.errors import InvalidChainMap
from relcone.fixtures import (
    disk_area_form,
    disk_inclusion,
    fixture_registry,
    half_gerbe_cocycle,
)
from relcone.geo import group_op
from relcone.matrix import Matrix


def run(*argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


def emit_all(tmp_path):
    out = str(tmp_path / "fx")
    code, _ = run("fixtures", "emit", "--out", out)
    assert code == 0
    return out


def test_homology_golden_rp2(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("homology", "--ring", "Z", f"{fx}/rp2.json")
    assert code == 0
    assert out == '{"H":{"0":{"rank":1},"1":{"rank":0,"torsion":[2]},"2":{"rank":0}}}\n'


def test_compare_cones_golden(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("compare-cones", f"{fx}/fix-d2.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["iso"] is True
    assert doc["degrees"]["1"] == {
        "algebraic": {"rank": 0, "torsion": [2]},
        "reduced": {"rank": 0, "torsion": [2]},
        "iso": True,
    }


def test_compare_cones_exits_two_when_the_comparison_is_not_an_iso(tmp_path, monkeypatch):
    fx = emit_all(tmp_path)
    double_the_cone_comparison(monkeypatch)  # x2 on H_2 = Z of the disk pair
    code, out = run("compare-cones", f"{fx}/fix-disk.json")
    assert code == 2
    doc = json.loads(out)
    assert doc["iso"] is False
    assert {n for n, d in doc["degrees"].items() if not d["iso"]} == {"2"}
    assert doc["degrees"]["2"]["algebraic"] == doc["degrees"]["2"]["reduced"] == {"rank": 1}


def test_snf_golden():
    code, out = run("snf", "--matrix", "[[2,4],[6,8]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["D"] == [[2, 0], [0, 4]]
    assert doc["rank"] == 2
    # U D V must reproduce A exactly
    from relcone.coeffs import INT

    u = Matrix.from_rows(INT, doc["U"])
    d = Matrix.from_rows(INT, doc["D"])
    v = Matrix.from_rows(INT, doc["V"])
    assert (u @ d @ v).rows == ((2, 4), (6, 8))


@pytest.mark.parametrize("rows", [[], [[]], [[0]], [[0, 0, 0]]], ids=json.dumps)
def test_snf_on_degenerate_shapes(rows):
    """An m x n matrix with no nonzero entry: D is m x n, U m x m and V n x n, and the rank is 0."""
    code, out = run("snf", "--matrix", json.dumps(rows))
    assert code == 0
    doc = json.loads(out)
    m = len(rows)
    n = len(rows[0]) if rows else 0
    assert doc["D"] == [[0] * n for _ in range(m)]
    assert doc["U"] == [[int(i == j) for j in range(m)] for i in range(m)]
    assert doc["V"] == [[int(i == j) for j in range(n)] for i in range(n)]
    assert doc["rank"] == 0


def test_homology_graded_input_and_degree_flag(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("cone", f"{fx}/fix-d2.json")
    assert code == 0
    cone_doc = json.loads(out)["cone"]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(cone_doc))
    code, out = run("homology", str(path), "--degree", "1")
    assert code == 0
    assert json.loads(out) == {"H": {"1": {"rank": 0, "torsion": [2]}}}


GRADED_Z = '{"ring":"Z","ranks":{"0":1,"1":1},"diff":{"1":[[2]]}}'
# d_1 d_2 = 1, and a map with d f = 2 but f d = 1 in degree 1
DD_NONZERO = '{"ring":"Z","ranks":{"0":1,"1":1,"2":1},"diff":{"1":[[1]],"2":[[1]]}}'
_INTERVAL = '{"ring":"Z","ranks":{"0":1,"1":1},"diff":{"1":[[1]]}}'
DF_NOT_FD = f'{{"src":{_INTERVAL},"dst":{_INTERVAL},"mat":{{"0":[[1]],"1":[[2]]}}}}'


def test_graded_input_over_another_ring_exits_one(tmp_path, capsys):
    path = tmp_path / "graded-z.json"
    path.write_text(GRADED_Z)
    code, out = run("homology", str(path))
    assert code == 0
    assert json.loads(out)["H"]["0"] == {"rank": 0, "torsion": [2]}
    capsys.readouterr()
    for ring in ("Q", "Zmod:2", "U1"):
        code, out = run("homology", "--ring", ring, str(path))
        assert (code, out) == (1, "")
        err = capsys.readouterr().err
        assert err == f"relcone: parse error: complex is over Z, but --ring asked for {ring}\n"


@pytest.mark.parametrize("text", ["1e10000000", "1.5"])
def test_rational_strings_are_p_or_p_over_q_only(tmp_path, capsys, text):
    # an exponent form once cost time and memory that grew with its value
    path = tmp_path / "graded-q.json"
    path.write_text('{"ring":"Q","ranks":{"0":1,"1":1},"diff":{"1":[["%s"]]}}' % text)
    assert run("homology", "--ring", "Q", str(path)) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("relcone: parse error: ") and err.count("\n") == 1 and text in err


def test_circle_group_homology_exits_one_and_points_to_classify(tmp_path, capsys):
    fx = emit_all(tmp_path)
    message = (
        "relcone: error: homology over the circle group is undefined; use classify on an angle "
        "cocycle: its Bockstein class lies one degree up in integer cohomology\n"
    )
    for argv in (("homology", "--ring", "U1", f"{fx}/rp2.json"), ("cech", "--ring", "U1", f"{fx}/covermap-disk.json")):
        capsys.readouterr()
        assert run(*argv) == (1, "")
        assert capsys.readouterr().err == message


def test_cone_space_and_les_and_kercoker(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("cone-space", f"{fx}/fix-d3.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["reduced"] is True
    assert doc["H"]["1"] == {"rank": 0, "torsion": [3]}

    code, out = run("les", f"{fx}/fix-d2.json")
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] is True and doc["kind"] == "cone"
    assert all(p["exact"] for p in doc["positions"])

    code, out = run("kercoker", f"{fx}/fix-d0.json")
    assert code == 0
    assert json.loads(out)["kind"] == "kercoker"


# A complex over Q with fractional differentials (the rows of d_1 are
# orthogonal to the columns of d_2) and the null-homotopic chain map
# f = d h + h d on it, with fractional h: every rank is read over Q.
FRACTIONAL_D = {
    1: [["2/3", "0", "-1/2", "0"], ["-10/21", "-5/7", "0", "0"], ["4/21", "-5/7", "-1/2", "0"]],
    2: [["1/2", "1"], ["-1/3", "-2/3"], ["2/3", "4/3"], ["0", "0"]],
}
FRACTIONAL_H = {  # h_n: C_n -> C_(n+1)
    0: [["1/2", "0", "-1/3"], ["0", "2/3", "0"], ["-5/7", "0", "0"], ["0", "1", "1/2"]],
    1: [["-1/3", "0", "5/7", "1"], ["0", "1/2", "0", "-2/3"]],
}


def test_fractional_q_input_through_homology_les_and_kercoker(tmp_path):
    ranks = {0: 3, 1: 4, 2: 2}
    c = lambda n: ranks.get(n, 0)
    q = lambda rows: [[Fraction(x) for x in row] for row in rows]
    d = lambda n: q(FRACTIONAL_D[n]) if n in FRACTIONAL_D else [[0] * c(n) for _ in range(c(n - 1))]
    h = lambda n: q(FRACTIONAL_H[n]) if n in FRACTIONAL_H else [[0] * c(n) for _ in range(c(n + 1))]
    mul = lambda a, b, ncols: [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(ncols)] for row in a]
    add = lambda a, b: [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]
    f = lambda n: add(mul(d(n + 1), h(n), c(n)), mul(h(n - 1), d(n), c(n)))

    rk = rank_rational
    beside = lambda a, b: [r + s for r, s in zip(a, b)]
    cone_d = lambda n: [r + [0] * c(n) for r in d(n - 1)] + beside(f(n - 1), d(n))
    want = {}
    for n in range(-3, 6):
        want[f"H_{n}(X)"] = want[f"H_{n}(Y)"] = c(n) - rk(d(n)) - rk(d(n + 1))
        want[f"H_{n}(cone)"] = want[f"H_{n}(f)"] = c(n - 1) + c(n) - rk(cone_d(n)) - rk(cone_d(n + 1))
        want[f"H_{n}(ker)"] = c(n) - rk(f(n) + d(n)) - rk(f(n + 1) + d(n + 1)) + rk(f(n + 1))
        want[f"H_{n}(coker)"] = c(n) + rk(f(n - 1)) - rk(beside(d(n), f(n - 1))) - rk(beside(d(n + 1), f(n)))
    assert [want[f"H_{n}(X)"] for n in range(3)] == [1, 1, 1]

    text = lambda rows: [[str(x) for x in row] for row in rows]
    graded = {"ring": "Q", "ranks": {str(n): r for n, r in ranks.items()}, "diff": FRACTIONAL_D}
    complex_path, map_path = tmp_path / "graded-q.json", tmp_path / "map-q.json"
    complex_path.write_text(json.dumps(graded))
    map_path.write_text(json.dumps({"src": graded, "dst": graded, "mat": {n: text(f(n)) for n in ranks}}))
    assert any(x.denominator > 1 for n in ranks for row in f(n) for x in row)

    code, out = run("homology", "--ring", "Q", str(complex_path))
    assert code == 0
    assert json.loads(out) == {"H": {str(n): {"rank": want[f"H_{n}(X)"]} for n in ranks}}
    for verb, kind in (("les", "cone"), ("kercoker", "kercoker")):
        code, out = run(verb, "--ring", "Q", str(map_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True and doc["kind"] == kind
        assert doc["positions"] and all(p["exact"] for p in doc["positions"])
        for p in doc["positions"]:
            assert p["group"] == {"rank": want[p["position"]]}, (verb, p)


@pytest.mark.parametrize("verb", ["les", "kercoker"])
def test_a_failed_smith_certificate_in_a_sequence_exits_one_with_one_line(tmp_path, capsys, monkeypatch, verb):
    """A form that fails `_check_snf` is never shared: the verb stops at it, and a later run reduces afresh."""
    path = f"{emit_all(tmp_path)}/fix-d2.json"
    good = run(verb, path)

    def refuse(a, r):
        raise InvalidChainMap("snf: A != U D V")

    monkeypatch.setattr(homology, "_check_snf", refuse)
    capsys.readouterr()
    assert run(verb, path) == (1, "")
    assert capsys.readouterr().err == "relcone: error: snf: A != U D V\n"
    monkeypatch.undo()
    assert run(verb, path) == good


def test_cech_cover_and_cover_map(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("cech", f"{fx}/cover-circle.json")
    assert code == 0
    assert json.loads(out) == {
        "H": {"0": {"rank": 1}, "1": {"rank": 1}},
        "relative": False,
    }
    code, out = run("cech", f"{fx}/covermap-susp-d2.json", "--degree", "3")
    assert code == 0
    assert json.loads(out) == {"H": {"3": {"rank": 0, "torsion": [2]}}, "relative": True}


def test_classify_and_trivialize_verdicts(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("classify", f"{fx}/cocycle-half-gerbe.json")
    assert code == 0
    assert json.loads(out) == {
        "basis": "H^3(Phi,Z)",
        "class": [1],
        "torsion_orders": [2],
    }

    code, out = run("trivialize", f"{fx}/cocycle-half-gerbe.json")
    assert code == 2
    assert json.loads(out)["nontrivial"]["class"] == [1]


def test_trivialize_square_witness_verifies(tmp_path):
    g = half_gerbe_cocycle()
    square = group_op(g, g)
    path = tmp_path / "square.json"
    path.write_text(jsonio.dumps(jsonio.cocycle_to_json(square)))
    code, out = run("trivialize", str(path))
    assert code == 0
    witness = jsonio.rel_cochain_from_json(json.loads(out)["witness"])
    assert rel_diff(witness) == square.u


def test_integrality_and_bohr_sommerfeld(tmp_path):
    fx = emit_all(tmp_path)
    code, out = run("integrality", f"{fx}/pair-disk-area-1.json")
    assert code == 0
    assert json.loads(out)["integral"] is True

    code, out = run("integrality", f"{fx}/pair-disk-area-half.json")
    assert code == 2
    doc = json.loads(out)
    assert doc["integral"] is False
    assert doc["pairings"][0]["value"] == "1/2"

    code, out = run("bohr-sommerfeld", f"{fx}/form-disk-area-half.json")
    assert code == 2
    assert json.loads(out)["pairings"][0]["value"] == "1/2"


def test_bohr_sommerfeld_isotropy_is_an_input_error(tmp_path, capsys):
    # same form, but the map is the identity of the disk: pullback nonzero
    doc = jsonio.form_to_json(identity_simplicial(disk_inclusion().dst), disk_area_form(1))
    path = tmp_path / "bad_form.json"
    path.write_text(jsonio.dumps(doc))
    code, _ = run("bohr-sommerfeld", str(path))
    assert code == 1
    assert "pulls back" in capsys.readouterr().err


def test_cylinder_label_collision_exits_one(tmp_path, capsys):
    # 1 and "1" are distinct vertices, but both would be "x:1" in the cylinder
    doc = {
        "src": {"vertices": [1, "1"], "facets": [[1, "1"]]},
        "dst": {"vertices": ["w"], "facets": [["w"]]},
        "vmap": [[1, "w"], ["1", "w"]],
    }
    path = tmp_path / "collide.json"
    path.write_text(json.dumps(doc))
    assert run("kercoker", str(path))[0] == 0  # a valid map
    for verb in ("cone-space", "compare-cones"):
        assert run(verb, str(path)) == (1, "")
        err = capsys.readouterr().err
        assert err == "relcone: error: vertices 1 and '1' share the cylinder label 'x:1'\n", verb


def test_parse_errors_exit_one(tmp_path, capsys):
    code, _ = run("homology", str(tmp_path / "missing.json"))
    assert code == 1
    assert "cannot read" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code, _ = run("homology", str(bad))
    assert code == 1
    assert "line 1" in capsys.readouterr().err

    fx = emit_all(tmp_path)
    code, _ = run("homology", "--ring", "Zmod:1", f"{fx}/rp2.json")
    assert code == 1

    code, _ = run("fixtures", "emit", "no-such-fixture", "--out", str(tmp_path / "o"))
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [[], ["homology"], ["homology", "x.json", "--degree", "abc"], ["nope"]],
    ids=["no-verb", "no-input", "bad-degree", "unknown-verb"],
)
def test_usage_errors_exit_one_with_one_line(argv, capsys):
    """Bad arguments are unparseable input (exit 1), not a negative verdict (exit 2)."""
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("relcone: parse error: ") and err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["-h"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: relcone")


LABEL_EDITS = [
    ("rp2.json", "homology", lambda d: d["facets"][0].__setitem__(0, {}), "facet vertex {}"),
    ("fix-d2.json", "cone", lambda d: d["vmap"][0].__setitem__(0, []), "vmap label []"),
    ("cover-circle.json", "cech", lambda d: d["sets"].__setitem__(0, {}), "cover set name {}"),
    ("covermap-circle-d2.json", "cech", lambda d: d["assignment"][0].__setitem__(1, {}), "assignment label {}"),
]


@pytest.mark.parametrize("name,verb,edit,label", LABEL_EDITS, ids=[e[0] for e in LABEL_EDITS])
def test_unhashable_labels_exit_one_with_one_line(tmp_path, capsys, name, verb, edit, label):
    """A facet entry, set name or map pair that is not a string or integer is a parse error."""
    with open(f"{emit_all(tmp_path)}/{name}") as fh:
        doc = json.load(fh)
    edit(doc)
    path = tmp_path / f"bad-{name}"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(verb, str(path)) == (1, "")
    assert capsys.readouterr().err == f"relcone: parse error: {label} must be a string or integer\n"


REPEAT_EDITS = [
    ("fix-d2.json", "cone", "vmap", lambda d: d["vmap"].insert(1, ["v0", "w1"]), "vmap lists 'v0' more than once"),
    ("fix-d2.json", "les", "vmap", lambda d: d["vmap"].append(list(d["vmap"][0])), "vmap lists 'v0' more than once"),
    (
        "covermap-circle-d2.json",
        "cech",
        "assignment",
        lambda d: d["assignment"].append([d["assignment"][0][0], d["assignment"][-1][1]]),
        "assignment lists 'v0' more than once",
    ),
]


@pytest.mark.parametrize("name,verb,key,edit,message", REPEAT_EDITS, ids=[f"{e[0]}-{e[1]}" for e in REPEAT_EDITS])
def test_a_source_listed_twice_exits_one_with_one_line(tmp_path, capsys, name, verb, key, edit, message):
    """A vertex map or set assignment that names a source twice has no one image to keep."""
    with open(f"{emit_all(tmp_path)}/{name}") as fh:
        doc = json.load(fh)
    assert doc[key][0][0] == message.split("'")[1]
    edit(doc)
    path = tmp_path / f"bad-{name}"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(verb, str(path)) == (1, "")
    assert capsys.readouterr().err == f"relcone: parse error: {message}\n"


POINT_COMPLEX = {"ring": "Z", "ranks": {"0": 1}}
DEGREE_REPEATS = [
    ("homology", {"ring": "Z", "ranks": {"0": 1, "+1": 1, "1": 2}, "diff": {"1": [[0, 0]]}}, "ranks lists degree 1 more than once"),
    ("homology", {"ring": "Z", "ranks": {"0": 1, "1": 1}, "diff": {"1": [[2]], "+1": [[3]]}}, "diff lists degree 1 more than once"),
    ("cone", {"src": POINT_COMPLEX, "dst": POINT_COMPLEX, "mat": {"0": [[1]], "-0": [[2]]}}, "mat lists degree 0 more than once"),
]


@pytest.mark.parametrize("verb,doc,message", DEGREE_REPEATS, ids=["ranks", "diff", "mat"])
def test_a_degree_listed_twice_exits_one_with_one_line(tmp_path, capsys, verb, doc, message):
    """Two spellings of one degree ("1" and "+1", "0" and "-0") name one entry twice, and neither may silently win."""
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(verb, str(path)) == (1, "")
    assert capsys.readouterr().err == f"relcone: parse error: {message}\n"


def test_a_key_repeated_in_one_object_exits_one_with_one_line(tmp_path, capsys):
    """A JSON object that names one key twice has no one value to keep, at the top or nested in a cocycle."""
    cocycle = jsonio.dumps(jsonio.cocycle_to_json(half_gerbe_cocycle()))
    assert '"s":{"v0,n":"3/4",' in cocycle
    cases = [
        ("homology", '{"ring":"Z","ranks":{"0":1,"1":1,"1":2},"diff":{"1":[[0,0]]}}', "'1'"),
        ("classify", cocycle.replace('"s":{"v0,n":"3/4",', '"s":{"v0,n":"3/4","v0,n":"1/4",'), "'v0,n'"),
    ]
    path = tmp_path / "repeat.json"
    path.write_text(cocycle)
    assert run("classify", str(path))[0] == 0
    for verb, text, key in cases:
        path.write_text(text)
        capsys.readouterr()
        assert run(verb, str(path)) == (1, ""), verb
        assert capsys.readouterr().err == f"relcone: parse error: bad JSON: duplicate key {key}\n"


def test_unhashable_cocycle_kind_exits_one_with_one_line(tmp_path, capsys):
    doc = jsonio.cocycle_to_json(half_gerbe_cocycle())
    doc["kind"] = []
    path = tmp_path / "bad-kind.json"
    path.write_text(json.dumps(doc))
    assert run("classify", str(path)) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("relcone: parse error: unknown cocycle kind [], expected one of ") and err.count("\n") == 1


def test_fixtures_list_names_all(tmp_path):
    code, out = run("fixtures", "list")
    assert code == 0
    listed = [e["name"] for e in json.loads(out)["fixtures"]]
    assert listed == list(fixture_registry())
    kinds = {e["kind"] for e in json.loads(out)["fixtures"]}
    assert kinds == {"complex", "map", "cover", "covermap", "cocycle", "pair", "form"}


def test_fixtures_list_takes_the_names_emit_takes(capsys):
    code, out = run("fixtures", "list", "fix-d0", "rp2")
    assert code == 0
    assert json.loads(out)["fixtures"] == [{"name": "fix-d0", "kind": "map"}, {"name": "rp2", "kind": "complex"}]
    capsys.readouterr()
    assert run("fixtures", "list", "rp2", "nosuch") == (1, "")
    assert capsys.readouterr().err == "relcone: parse error: unknown fixture names: nosuch\n"


def test_fixture_names_may_follow_an_option(tmp_path, capsys):
    """`fixtures list|emit --out DIR NAME...` gives the bytes of `fixtures list|emit NAME... --out DIR`."""
    names = ["fix-d0", "rp2"]
    for action in ("list", "emit"):
        before = run("fixtures", action, *names, "--out", str(tmp_path / "before"))
        after = run("fixtures", action, "--out", str(tmp_path / "after"), *names)
        mixed = run("fixtures", action, names[0], "--out", str(tmp_path / "after"), names[1])
        assert before[0] == after[0] == mixed[0] == 0
        assert before[1].replace("before", "after") == after[1] == mixed[1]
    for name in names:
        assert (tmp_path / "before" / f"{name}.json").read_bytes() == (tmp_path / "after" / f"{name}.json").read_bytes()
    capsys.readouterr()
    for argv, message in [
        (("list", "--out", "x", "rp2", "nosuch"), "unknown fixture names: nosuch"),
        (("emit", "--out", str(tmp_path / "bad"), "nosuch"), "unknown fixture names: nosuch"),
        (("list", "--bogus", "rp2"), "unrecognized arguments: --bogus rp2"),
        (("emit", "rp2", "--out", str(tmp_path / "bad"), "--bogus"), "unrecognized arguments: --bogus"),
    ]:
        assert run("fixtures", *argv) == (1, ""), argv
        assert capsys.readouterr().err == f"relcone: parse error: {message}\n", argv
    assert not (tmp_path / "bad").exists()


def test_fixtures_emit_is_byte_identical(tmp_path):
    a = emit_all(tmp_path / "a")
    b = emit_all(tmp_path / "b")
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_out_flag_writes_report(tmp_path):
    fx = emit_all(tmp_path)
    dest = tmp_path / "report.json"
    code, out = run("homology", f"{fx}/rp2.json", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["H"]["1"]["torsion"] == [2]


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_exits_one_with_one_line(tmp_path, capsys, where):
    fx = emit_all(tmp_path)
    dest = tmp_path if where == "directory" else tmp_path / "no-such-dir" / "x.json"
    capsys.readouterr()
    assert run("homology", f"{fx}/rp2.json", "--out", str(dest)) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith(f"relcone: error: cannot write {dest}: ") and err.count("\n") == 1


def test_dispatch_covers_every_verb_and_operation():
    verbs = {
        "snf", "homology", "cone", "cone-space", "compare-cones", "les",
        "kercoker", "cech", "classify", "trivialize", "integrality",
        "bohr-sommerfeld", "fixtures",
    }
    assert set(cli.DISPATCH) == verbs
    # every core library operation is reachable from some handler
    for op in (
        "snf", "homology_invariants", "cone_of_map", "mapping_cone_space",
        "compare_cones", "les_of_cone", "ker_coker_les",
        "cover_cochain_complex", "relative_cone_complex", "classify",
        "trivialize", "is_integral", "bohr_sommerfeld", "fixture_registry",
    ):
        assert getattr(cli, op) is not None


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "relcone.cli", "snf", "--matrix", "[[6]]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["D"] == [[6]]


def run_subprocess(argv, optimize=False):
    """Run the CLI in a fresh interpreter; returns (exit code, stdout bytes, stderr bytes)."""
    src = os.path.dirname(os.path.dirname(relcone.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    proc = subprocess.run([sys.executable, *flags, "-m", "relcone.cli", *argv], capture_output=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_catching_exit(argv):
    """Run the CLI in-process; returns (exit code, stdout text, stderr text), -h included."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_the_reused_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    """Each call after an error, -h or other options prints what a fresh process prints."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps at the same width in both
    fx = emit_all(tmp_path)
    rp2, d2 = f"{fx}/rp2.json", f"{fx}/fix-d2.json"
    calls = [
        ["cone", "--ring", "Q", "--degree", "1", d2],
        ["cone", d2],
        ["homology"],
        ["homology", rp2],
        ["nope"],
        ["homology", "--degree", "1", rp2],
        ["-h"],
        ["cone", d2],
    ]
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    for argv in calls:
        code, out, err = run_subprocess(argv)
        assert run_catching_exit(argv) == (code, out.decode(), err.decode()), argv
    assert run_catching_exit(["cone", "--ring", "Q", "--degree", "1", d2])[1] != run_catching_exit(["cone", d2])[1]
    assert len(builds) == 1


# Runs CLI verbs twice in one interpreter, then classifies and trivializes
# each cocycle file twice on one parsed object, so the second answer
# comes from a warm view; prints every (exit code, stdout) as JSON.
TWICE_SCRIPT = """
import io, json, sys
from contextlib import redirect_stdout
from relcone import cli, jsonio
from relcone.errors import NontrivialClass
from relcone.geo import classify, trivialize

def answers(c):
    try:
        doc = {"witness": jsonio.rel_cochain_to_json(trivialize(c))}
    except NontrivialClass as e:
        doc = {"nontrivial": jsonio.class_to_json(e.cls)}
    return [jsonio.dumps(jsonio.class_to_json(classify(c))), jsonio.dumps(doc)]

argvs, cocycles = json.loads(sys.argv[1])
out = []
for argv in argvs:
    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        out.append([code, buf.getvalue()])
for path in cocycles:
    c = jsonio.cocycle_from_json(jsonio.read_json(path))
    out.append(answers(c) + answers(c))
print(json.dumps(out))
"""


def run_twice_subprocess(argvs, cocycles, optimize=False):
    src = os.path.dirname(os.path.dirname(relcone.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    flags = ["-O"] if optimize else []
    payload = json.dumps([[list(a) for a in argvs], list(cocycles)])
    proc = subprocess.run([sys.executable, *flags, "-c", TWICE_SCRIPT, payload], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_optimized_interpreter_gives_identical_bytes(tmp_path):
    fx = emit_all(tmp_path)
    for argv in (
        ("homology", "--ring", "Q", f"{fx}/rp2.json"),
        ("homology", "--ring", "Zmod:2", f"{fx}/rp2.json"),
        ("homology", "--ring", "Z", f"{fx}/rp2.json"),
        ("cone", "--ring", "Z", f"{fx}/fix-d2.json"),
        ("cone", "--ring", "Zmod:2", f"{fx}/fix-d2.json"),
        ("cone-space", "--degree", "2", f"{fx}/fix-d2.json"),
        ("les", "--ring", "Q", f"{fx}/fix-d2.json"),
        ("les", "--ring", "Z", f"{fx}/fix-d2.json"),
        ("kercoker", f"{fx}/fix-d0.json"),
        ("kercoker", "--ring", "Z", f"{fx}/fix-d2.json"),
        ("classify", f"{fx}/cocycle-half-gerbe.json"),
        ("trivialize", f"{fx}/cocycle-half-gerbe.json"),
        ("trivialize", f"{fx}/cocycle-half-bundle.json"),
        ("compare-cones", f"{fx}/fix-d2.json"),
        ("cone-space", f"{fx}/fix-d2.json"),
        ("integrality", f"{fx}/pair-disk-area-half.json"),
        ("cech", f"{fx}/covermap-disk.json"),
        ("cech", "--ring", "Z", f"{fx}/covermap-susp-d2.json"),
    ):
        plain = run_subprocess(argv)
        assert plain[1], argv
        assert run_subprocess(argv, optimize=True) == plain, argv

    graded = tmp_path / "graded-z.json"
    graded.write_text(GRADED_Z)
    not_complex = tmp_path / "dd-nonzero.json"
    not_complex.write_text(DD_NONZERO)
    not_chain_map = tmp_path / "df-not-fd.json"
    not_chain_map.write_text(DF_NOT_FD)
    refused = {
        ("homology", "--ring", "Q", str(graded)): None,
        ("cech", "--ring", "Zmod:4", f"{fx}/covermap-disk.json"): None,
        ("homology", str(not_complex)): b"relcone: parse error: invalid complex: d d != 0 at degree 2\n",
        ("cone", str(not_chain_map)): b"relcone: parse error: invalid chain map: d f != f d at degree 1\n",
    }
    for argv, line in refused.items():
        plain = run_subprocess(argv)
        assert plain[:2] == (1, b"") and plain[2].count(b"\n") == 1, argv
        assert line is None or plain[2] == line, argv
        assert run_subprocess(argv, optimize=True) == plain, argv

    cocycles = [f"{fx}/{name}.json" for name, (kind, _) in fixture_registry().items() if kind == "cocycle"]
    argvs = [("cech", "--ring", "Zmod:2", f"{fx}/covermap-susp-d2.json")]
    argvs += [(verb, path) for path in cocycles for verb in ("classify", "trivialize")]
    plain = run_twice_subprocess(argvs, cocycles)
    assert run_twice_subprocess(argvs, cocycles, optimize=True) == plain
    runs, warm = plain[: 2 * len(argvs)], plain[2 * len(argvs) :]
    assert all(runs[i] == runs[i + 1] and runs[i][1] for i in range(0, len(runs), 2))
    for (classified, trivialized), answers in zip(zip(runs[2::4], runs[4::4]), warm, strict=True):
        assert answers[:2] == answers[2:] == [classified[1], trivialized[1]]


def test_huge_integers_cross_the_cli_exactly(tmp_path, capsys):
    rng = random.Random(5000)
    digits = str(rng.randrange(1, 10)) + "".join(str(rng.randrange(10)) for _ in range(4999))
    code, out = run("snf", "--matrix", f"[[{digits}]]")
    assert code == 0
    assert json.loads(out)["D"] == [[digits]]
    assert run("snf", "--matrix", json.dumps(json.loads(out)["D"])) == (0, out)

    path = tmp_path / "huge-torsion.json"
    path.write_text(f'{{"ring":"Z","ranks":{{"0":1,"1":1}},"diff":{{"1":[[{digits}]]}}}}')
    code, out = run("homology", str(path))
    assert code == 0
    assert json.loads(out)["H"]["0"] == {"rank": 0, "torsion": [digits]}

    capsys.readouterr()
    code, out = run("snf", "--matrix", f'[["{digits}x"]]')
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("relcone: parse error: bad scalar") and err.count("\n") == 1 and len(err) < 300

    # a huge integer inside a rejected label or pair has no repr; the message names its type
    fx = emit_all(tmp_path)
    for name, verb, edit, message in [
        ("cover-circle.json", "cech", lambda d: d["sets"].__setitem__(0, ["HUGE"]),
         "cover set name <list> must be a string or integer"),
        ("fix-d2.json", "cone", lambda d: d["vmap"].append(["v0", "w0", "HUGE"]), "vmap entry <list> is not a pair"),
    ]:
        with open(f"{fx}/{name}") as fh:
            doc = json.load(fh)
        edit(doc)
        path = tmp_path / f"huge-{name}"
        path.write_text(json.dumps(doc).replace('"HUGE"', digits))
        capsys.readouterr()
        assert run(verb, str(path)) == (1, "")
        assert capsys.readouterr().err == f"relcone: parse error: {message}\n"
