"""A static gate over the source trees: unused imports, and library code that
nothing in the library names.

It parses every module of ``src/``, ``tests/`` and ``perfbench/`` and fails on

- an imported name that its module never reads (``from __future__`` and
  names in ``__all__`` aside), and
- a function, class or method defined in ``src/`` whose name nothing in
  ``src/`` reads, as a name, an attribute or an import (dunder methods
  aside: Python calls them).

Both checks work by name, per module for imports and across ``src/`` for
definitions, so a reuse of the same name elsewhere can hide a finding but
never invent one. Each allowlist entry says why it stays, and an entry that
no longer matches fails too, so the lists only shrink.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "perfbench")

# (module path, imported name): why the module imports a name it never reads
UNUSED_IMPORTS = {
    ("src/nutf/solver.py", "frobenius_gap"):
        "perfbench's traced run spans it under nutf.solver's name",
    ("src/nutf/solver.py", "project_blocks"):
        "perfbench's traced run spans it under nutf.solver's name",
    ("src/nutf/linalg.py", "model_support_values"):
        "perfbench's traced run spans it under nutf.linalg's name",
    ("perfbench/workloads.py", "scipy"):
        "loads scipy.sparse before any timed call, so none pays for the import",
}

# (module path, qualified name): why a definition stays that src/ never names
UNNAMED_DEFINITIONS = {
    ("src/nutf/serialize.py", "load_block_sparse"):
        "reads x.nutf back; perfbench digests it and the tests round-trip it",
    ("src/nutf/core.py", "BlockSparseMatrix.max_block_sum_error"):
        "the feasibility audit of the tests and of acceptance criterion 6",
    ("src/nutf/harness.py", "EvalReport.accuracy_at"):
        "perfbench reads its top-1 accuracy",
}


def modules(*trees):
    """(path relative to the repo root, parsed module) for each .py file."""
    for tree in trees:
        for path in sorted((ROOT / tree).rglob("*.py")):
            yield path.relative_to(ROOT).as_posix(), ast.parse(path.read_bytes(), str(path))


def exported(module: ast.Module) -> set[str]:
    """The strings of the module's ``__all__``."""
    return {name for node in module.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def loaded(module: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def read_names(module: ast.Module) -> set[str]:
    """Every name the module reads: loaded names, attributes, imported names
    and ``__all__``."""
    names = loaded(module) | exported(module)
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_imports(path: str, module: ast.Module) -> set[tuple[str, str]]:
    read = loaded(module) | exported(module)
    found = set()
    for node in ast.walk(module):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `import a.b as c` and `from a import b as c` bind c
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read:
                    found.add((path, bound))
    return found


def definitions(module: ast.AST, prefix: str = ""):
    """Qualified names of the functions, classes and methods the module defines,
    nested ones included, with each one's own name."""
    for node in ast.iter_child_nodes(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node.name
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def test_every_import_is_read():
    found = set().union(*(unused_imports(path, module) for path, module in modules(*TREES)))
    assert sorted(found - set(UNUSED_IMPORTS)) == []
    assert sorted(set(UNUSED_IMPORTS) - found) == [], "allowlisted, but now read or gone"


def test_every_src_definition_is_named_in_src():
    src = list(modules("src"))
    named = set().union(*(read_names(module) for _, module in src))
    found = {(path, qualified) for path, module in src
             for qualified, name in definitions(module)
             if name not in named and not (name.startswith("__") and name.endswith("__"))}
    assert sorted(found - set(UNNAMED_DEFINITIONS)) == []
    assert sorted(set(UNNAMED_DEFINITIONS) - found) == [], "allowlisted, but now named or gone"


@pytest.mark.parametrize("source, expected", [
    ("import os\n", {("m.py", "os")}),
    ("import os.path\nos.sep\n", set()),
    ("import numpy as np\n", {("m.py", "np")}),
    ("from a import b as c\nb\n", {("m.py", "c")}),
    ("from __future__ import annotations\n", set()),
    ("from . import core\n__all__ = ['core']\n", set()),
    ("def f():\n    import json\n    return json.dumps(1)\n", set()),
    ("import sys\nsys = 1\n", {("m.py", "sys")}),
])
def test_unused_import_detection(source, expected):
    assert unused_imports("m.py", ast.parse(source)) == expected


def test_definition_names_include_methods_and_nested_functions():
    source = "class A:\n    def f(self):\n        def g():\n            pass\n"
    assert list(definitions(ast.parse(source))) == [("A", "A"), ("A.f", "f"), ("A.f.g", "g")]
