"""End-to-end checks of the command line: golden bytes, exit codes, dispatch."""

import json
import os
import random
import subprocess
import sys

import pytest

import relcone
from relcone import cli, jsonio
from relcone.cech import rel_diff
from relcone.fixtures import (
    disk_area_form,
    disk_inclusion,
    fixture_registry,
    half_gerbe_cocycle,
)
from relcone.geo import group_op
from relcone.matrix import Matrix
from relcone.simplicial import identity_simplicial


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


def test_dispatch_covers_every_verb_and_operation():
    verbs = {
        "snf", "homology", "cone", "cone-space", "compare-cones", "les",
        "kercoker", "cech", "classify", "trivialize", "integrality",
        "bohr-sommerfeld", "fixtures",
    }
    assert set(cli.DISPATCH) == verbs
    # every core library operation is reachable from some handler
    for op in (
        "snf", "homology_at", "cone_of_map", "mapping_cone_space",
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
    argv = ("homology", "--ring", "Q", str(graded))
    plain = run_subprocess(argv)
    assert plain[:2] == (1, b"") and plain[2].count(b"\n") == 1
    assert run_subprocess(argv, optimize=True) == plain

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
