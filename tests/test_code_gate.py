"""A gate over the source trees: unused imports, library code that nothing in
the library names, and library functions that no command of the CLI runs.

It parses every module of ``src/``, ``tests/`` and ``perfbench/`` and fails on

- an imported name that its module never reads (``from __future__`` and
  names in ``__all__`` aside), and
- a function, class or method defined in ``src/`` whose name nothing in
  ``src/`` reads, as a name, an attribute or an import (dunder methods
  aside: Python calls them).

Both checks work by name, per module for imports and across ``src/`` for
definitions, so a reuse of the same name elsewhere can hide a finding but
never invent one. The third check runs the CLI's commands in a fresh
interpreter under a profile hook and fails on a function defined in
``src/`` whose code never ran, so a reused name hides nothing there. Each
allowlist entry says why it stays, and an entry that no longer matches
fails too, so the lists only shrink.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
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
    ("src/nutf/harness.py", "EvalReport.accuracy_at"):
        "perfbench reads its top-1 accuracy",
}

# (module path, qualified name): why a function stays in src/ that no command
# of REACH_PROBE runs
NEVER_CALLED = {
    ("src/nutf/core.py", "model_support_values"):
        "serial reference for the support pass's Y; perfbench's traced run spans it",
    ("src/nutf/core.py", "frobenius_gap"):
        "serial reference for the support pass's objective; perfbench's traced run spans it",
    ("src/nutf/core.py", "frobenius_gap.on_support_dots"): "frobenius_gap's dot products",
    ("src/nutf/simplex.py", "project_blocks"):
        "serial reference for the support pass's projection; perfbench's traced run spans it",
    ("src/nutf/harness.py", "EvalReport.accuracy_at"): "perfbench reads its top-1 accuracy",
    ("src/nutf/serialize.py", "load_block_sparse"):
        "reads x.nutf back; perfbench digests it and the tests round-trip it",
    ("src/nutf/parallel.py", "_forget_pools"): "runs only in a forked child",
}

# Every CLI command, in-process in a fresh interpreter: synth -> fit --config
# -> eval -> predict --restrict on 20k users, where every kernel splits into
# chunks on the pool, then preprocess -> fit -> eval on perfbench's city. The
# profile hooks are set first, so the pool's threads, built on first use,
# carry them too. Writes the (file, first line) of every code object that ran
# into ran.json.
REACH_PROBE = textwrap.dedent("""
    import json, sys, threading
    from pathlib import Path

    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)

    import city
    from nutf import cli, parallel, serialize

    # at least two usable CPUs, so the pool runs on any machine
    cpus = parallel._usable_cpus
    parallel._usable_cpus = lambda: max(cpus(), 2)

    def run(*argv):
        code = cli.main([str(a) for a in argv])
        assert code == 0, (argv, code)

    run("synth", "--users", 20000, "--slots", 50, "--categories", 20, "--seed", 3,
        "--out", "synth")
    Path("fit.json").write_text(json.dumps(
        {"rank": 10, "iters": 3, "tol": 0, "seed": 1, "deterministic": True}))
    run("fit", "--config", "fit.json", "--omega", "synth", "--out", "fit")
    run("eval", "--model", "fit/model.nutf", "--validation", "synth/truth.jsonl", "--k", 3)
    run("predict", "--model", "fit/model.nutf", "--user", 0, "--slot", 1, "--k", 2,
        "--restrict", "0,3,5")
    planted = city.write_city(Path("city"), 7)
    serialize.write_pairs_jsonl("city/truth.jsonl",
                                [(u, j, k) for (u, j), k in planted.truth.items()])
    run("preprocess", "--updates", "city/updates.csv", "--venues", "city/venues.csv",
        "--catmap", "city/categories.csv", "--epoch-day", city.EPOCH_DAY, "--out", "omega")
    run("fit", "--omega", "omega", "--rank", 10, "--iters", 3, "--out", "city-fit")
    run("eval", "--model", "city-fit/model.nutf", "--validation", "city/truth.jsonl")

    sys.setprofile(None)
    threading.setprofile(None)
    Path("ran.json").write_text(json.dumps(
        sorted({(code.co_filename, code.co_firstlineno) for code in ran})))
""")


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


def function_lines(module: ast.AST, prefix: str = ""):
    """Qualified name and first line of each function and method the module
    defines, nested ones included. A decorated one starts at its first
    decorator, as its code object's first line does."""
    for node in ast.iter_child_nodes(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, min([node.lineno, *(d.lineno for d in node.decorator_list)])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from function_lines(node, f"{prefix}{node.name}.")
        else:
            yield from function_lines(node, prefix)


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


def test_every_src_function_runs(tmp_path):
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    probe = subprocess.run([sys.executable, "-c", REACH_PROBE], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=600)
    assert probe.returncode == 0, probe.stderr[-4000:]
    ran = {(Path(file).resolve(), line)
           for file, line in json.loads((tmp_path / "ran.json").read_text())}
    found = {(path, qualified) for path, module in modules("src")
             for qualified, line in function_lines(module) if (ROOT / path, line) not in ran}
    assert sorted(found - set(NEVER_CALLED)) == []
    assert sorted(set(NEVER_CALLED) - found) == [], "allowlisted, but now run or gone"


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


def test_function_lines_start_at_the_first_decorator():
    source = "class A:\n    @property\n    @staticmethod\n    def f():\n        def g():\n" \
             "            pass\n"
    assert list(function_lines(ast.parse(source))) == [("A.f", 2), ("A.f.g", 5)]
