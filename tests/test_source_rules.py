"""Rules checked on the package source itself."""

import ast
import pathlib

import relcone

SRC = pathlib.Path(relcone.__file__).parent


def test_no_assert():
    """Checks that guard results raise, so `python -O` cannot switch them off."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_debug_flag_reads():
    """No code path depends on `__debug__`, so every check runs under every interpreter flag."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "__debug__"
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


def test_no_process_wide_caches():
    """Compiled data lives only in view memos: no `functools` cache keeps results across inputs."""
    banned = {"cache", "lru_cache", "cached_property"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name in banned]
            elif isinstance(node, ast.Attribute) and node.attr in banned and isinstance(node.value, ast.Name):
                found += [f"{path.name}:{node.lineno}"] if node.value.id == "functools" else []
    assert found == []
