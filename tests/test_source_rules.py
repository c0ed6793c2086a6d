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
    """Cached data lives in declared slots of compiled objects, never in an object's `__dict__`."""
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
    """Compiled data lives only in cover-map slots and memos: no `functools` cache keeps results across inputs."""
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


def _import_time_nodes(tree):
    """The nodes of a module that run when it is imported, outside every function and class body."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
            todo.extend(ast.iter_child_nodes(node))


def _is_constant(node):
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) for e in node.elts)
    )


def test_no_context_variables_or_module_state():
    """A table of Smith forms is an argument of the sequence that owns it, never a context
    variable or a module-level value: no module imports `contextvars`, and `homology.py`
    binds module-level names only to constants and tuples of constants."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            names += [node.module] if isinstance(node, ast.ImportFrom) else []
            found += [f"{path.name}:{node.lineno}"] if "contextvars" in names else []
    path = SRC / "homology.py"
    for node in _import_time_nodes(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.NamedExpr) or (
            isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
            and node.value is not None
            and not _is_constant(node.value)
        ):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


# Where a trusted build may be named: `Matrix._of`, the `_of` that both
# cochain types inherit from `cech._Cochain`, `GradedComplex._of`,
# `ComplexMap._of` and `CoverMap._of`.  Each stores what it is given
# without the check its constructor runs: the matrix and cochain builds
# store values that ring arithmetic on normalized values produced, so
# nothing there is normalized again; the complex and chain map builds store
# a ring map, shift, cone or transpose of checked data, whose d d = 0 and
# d f = f d follow from the checks that data passed; `star_cover_map`
# reuses a checked simplicial map as its nerve map.  Outside input goes
# through the constructors (`Matrix(...)`, the cochains' `from_vector`,
# `GradedComplex(...)`, `ComplexMap(...)`, `CoverMap(...)`), which always
# check.  A new place is a new entry here, to be read and checked
# (tests/test_trusted_builds.py re-checks the builds at run time).  In
# `homology.py`, `_kernel_lattice` stores a field kernel basis (zero, one
# and the negated reduced entries of an RREF; it took the place of
# `kernel_field`), `_image` a field image's P (reduced entries) and e_piv
# (zero and one), and `_quotient_space_field.to_gens` the generators'
# reduced pivot rows: all values that field arithmetic on normalized
# entries produced.  `solve_field`, which stored reduced entries the same
# way, is gone: every ring solves through `Solver`, whose `@` builds.
# `_dense_product` stores the integer sums of its dense loop, which only
# `_check_snf` runs.  `_unit_reduction`, `_pivot_columns` and
# `_operation_rows` store the integer sums of a reduction's pivot
# elimination: the reduced differentials and both maps, which `_reduced`
# then passes through the checked `GradedComplex(...)` and `ComplexMap(...)`.
# `_unit_form` stores the entries of a matrix's replayed pivot rows (the
# rest it gives `snf`) and of the core's V placed in the matrix's columns;
# its own certificate then checks the kernel and image it builds from them.
TRUSTED_BUILD_CALLERS = {
    "matrix.py": {
        "Matrix.zeros", "Matrix.identity", "Matrix.__add__", "Matrix.__neg__", "Matrix.scale",
        "Matrix.zscale", "Matrix.__matmul__", "Matrix.transpose", "Matrix.submatrix", "hstack", "vstack",
    },
    "homology.py": {
        "snf", "_check_snf", "_dense_product", "_Lattice.coords", "_kernel_lattice", "_image", "_quotient_group_int",
        "_quotient_space_field.to_gens", "_unit_reduction", "_pivot_columns", "_operation_rows",
        "_unit_form",
    },
    "cech.py": {
        "_Cochain.from_vector", "_Cochain.__add__", "_Cochain.__neg__", "_Cochain.zscale",
        "cech_diff", "pullback", "rel_diff", "RelCechCochain.s", "RelCechCochain.t", "_integer_rel_cochain",
        "star_cover_map",
    },
    "simplicial.py": {"_incidence"},
    "chain.py": {
        "from_int_complex", "from_int_map", "shift", "cone_of_map", "cone_of_cochain_map", "dual_complex", "dual_map",
    },
}


def _scopes_where(tree, hit):
    """Qualified names of the functions that hold a node for which `hit` is true."""
    found = set()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if hit(child):
                found.add(".".join(scope) or "<module>")
            walk(child, scope)

    walk(tree, ())
    return found


def _found_in_src(hit):
    """{file name: scopes} over the package source, for the files where `hit` finds a node."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        names = _scopes_where(ast.parse(path.read_text(), str(path)), hit)
        if names:
            found[path.name] = names
    return found


def test_trusted_builds_only_from_the_allowlist():
    """Trusted builds skip `normalize` or a check, so the places that use them stay few and named."""
    assert _found_in_src(lambda n: isinstance(n, ast.Attribute) and n.attr == "_of") == TRUSTED_BUILD_CALLERS


def test_only_the_smith_certificate_multiplies_densely():
    """`@` walks only nonzeros; the dense loop of `homology._dense_product` is named in `_check_snf` alone."""
    assert _found_in_src(lambda n: isinstance(n, ast.Name) and n.id == "_dense_product") == {"homology.py": {"_check_snf"}}
