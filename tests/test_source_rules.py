"""Rules checked on the package source itself."""

import ast
import pathlib

import relcone

SRC = pathlib.Path(relcone.__file__).parent


def test_no_assert_outside_the_smith_form_check():
    """Checks that guard results raise, so `python -O` cannot switch them off.

    `_check_snf` is the one debug-only postcondition left; it is exempt.
    """
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_check_snf":
                exempt |= {id(n) for n in ast.walk(node)}
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert) and id(node) not in exempt
        ]
    assert found == []


def test_no_dict_memos():
    """Cached data lives in declared view attributes, never in an object's `__dict__`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "__dict__"
        ]
    assert found == []
