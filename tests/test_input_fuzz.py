"""Seeded input fuzzing of the command line.

Each case takes an emitted fixture (or a small `snf` matrix), makes one
or two edits to its JSON -- delete a key, drop or duplicate a list item,
swap a value for null/true/[]/{}/1.5/2**70/"1e400", or nudge an integer
by one -- and runs one verb on it in process through `cli.main`, twice.
Whatever the input, no exception may escape, the exit code is 0, 1 or
2, stderr is one line on exit 1 and empty otherwise, and the second run
repeats the first byte for byte.

The tier-1 test runs a few hundred cases on the cheap (fixture, verb)
pairs.  A longer run over every pair is

    PYTHONPATH=src python tests/test_input_fuzz.py --seed 7 --count 5000

which prints a tally by verb and exit code, and every failure.
"""

import argparse
import copy
import io
import json
import os
import random
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

from relcone import cli
from relcone.fixtures import fixture_registry

VERBS_BY_KIND = {
    "complex": ("homology",),
    "map": ("cone", "cone-space", "compare-cones", "les", "kercoker"),
    "cover": ("cech",),
    "covermap": ("cech",),
    "cocycle": ("classify", "trivialize"),
    "pair": ("integrality",),
    "form": ("bohr-sommerfeld",),
}
# Cone spaces of the larger maps take 0.1-2 s per run; only the long run takes them.
SLOW = {
    (verb, name)
    for verb in ("cone-space", "compare-cones")
    for name in ("fix-d3", "fix-d4", "fix-d5", "fix-d6", "fix-disk", "fix-susp-d2")
}
SNF_MATRICES = {"snf-2x2": [[2, 4], [6, 8]], "snf-3x3": [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]}
SWAPS = (None, True, [], {}, 1.5, 2**70, "1e400")


def pairs(slow=False):
    """(verb, input name) for every verb on every fixture of its kind, and `snf` on the matrices."""
    out = [
        (verb, name)
        for name, (kind, _) in fixture_registry().items()
        for verb in VERBS_BY_KIND[kind]
        if slow or (verb, name) not in SLOW
    ]
    return out + [("snf", name) for name in SNF_MATRICES]


def originals(workdir):
    """{input name: JSON document}: the emitted fixtures and the `snf` matrices."""
    with redirect_stdout(io.StringIO()):
        if cli.main(["fixtures", "emit", "--out", workdir]) != 0:
            raise RuntimeError("fixtures emit failed")
    docs = {}
    for name in fixture_registry():
        with open(os.path.join(workdir, f"{name}.json"), encoding="utf-8") as fh:
            docs[name] = json.load(fh)
    return docs | copy.deepcopy(SNF_MATRICES)


def _places(doc):
    """(container, key) for every value below the root of doc."""
    out = []
    stack = [doc]
    while stack:
        node = stack.pop()
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        for key in keys:
            out.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return out


def mutate(rng, doc):
    """A copy of doc with one or two edits, and their names."""
    doc = copy.deepcopy(doc)
    edits = []
    for _ in range(rng.choice((1, 2))):
        places = _places(doc)
        if not places:
            break
        node, key = rng.choice(places)
        value = node[key]
        kinds = ["delete", "swap"] + (["duplicate"] if isinstance(node, list) else [])
        if type(value) is int:
            kinds.append("nudge")
        kind = rng.choice(kinds)
        if kind == "delete":
            del node[key]
        elif kind == "duplicate":
            node.insert(key, copy.deepcopy(value))
        elif kind == "nudge":
            node[key] = value + rng.choice((-1, 1))
        else:
            node[key] = copy.deepcopy(rng.choice(SWAPS))
        edits.append(f"{kind} {key!r}")
    return doc, edits


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def fault(first, second):
    """Why a pair of runs of one input breaks the CLI contract, or None."""
    code, _, err = first
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if not (err.count("\n") == 1 and err.endswith("\n") if code == 1 else err == ""):
        return f"stderr {err!r} on exit {code}"
    if first != second:
        return "a repeated run gave different bytes"
    return None


def fuzz(seed, count, cases, workdir):
    """Run `count` seeded mutations of the (verb, name) `cases`; returns (tally, failures)."""
    rng = random.Random(seed)
    docs = originals(workdir)
    tally, failures = {}, []
    for i in range(count):
        verb, name = rng.choice(cases)
        doc, edits = mutate(rng, docs[name])
        text = json.dumps(doc)
        if verb == "snf":
            argv = ["snf", "--matrix", text]
        else:
            path = os.path.join(workdir, "mutated.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            argv = [verb, path]
        label = f"#{i} {verb} {name} {'; '.join(edits)}"
        try:
            first, second = run(argv), run(argv)
        except Exception as e:  # an escape is what this looks for
            where = traceback.extract_tb(e.__traceback__)[-1]
            failures.append(f"{label}: {type(e).__name__}: {e} at {where.filename}:{where.lineno}")
            continue
        why = fault(first, second)
        if why:
            failures.append(f"{label}: {why}")
        key = (verb, second[0])
        tally[key] = tally.get(key, 0) + 1
    return tally, failures


def test_mutated_inputs_exit_cleanly(tmp_path):
    tally, failures = fuzz(seed=1, count=300, cases=pairs(), workdir=str(tmp_path))
    assert failures == []
    codes = {code for _, code in tally}
    assert codes >= {0, 1}  # both parse errors and runs that went through
    assert {verb for verb, _ in tally} == set(cli.DISPATCH) - {"fixtures"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--count", type=int, default=5000)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as workdir:
        tally, failures = fuzz(args.seed, args.count, pairs(slow=True), workdir)
    for (verb, code), n in sorted(tally.items()):
        print(f"{verb:16} exit {code}: {n}")
    for line in failures:
        print("FAIL", line)
    print(f"seed {args.seed}: {args.count} mutations, {len(failures)} failures, {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
