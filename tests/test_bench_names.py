"""The names the benchmark in ``perfbench/`` binds must exist in the package.

The benchmark reaches into ``rootfold`` by name: the tracer wraps functions
listed per module, the worker imports from the package root, and the class
jobs call catalog twist builders.  A rename in ``src/`` would otherwise only
show up as failed benchmark jobs.  The files are read with ``ast``; nothing
under ``perfbench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

import rootfold

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module(name):
    return ast.parse((PERFBENCH / name).read_text())


def _assigned(tree, target):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == target for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{target} is not assigned at module level")


def test_traced_functions_exist():
    targets = _assigned(_module("tracer.py"), "TARGETS")
    missing = [f"{mod}.{fn}" for mod, fns in targets.items() for fn in fns
               if not hasattr(importlib.import_module(f"rootfold.{mod}"), fn)]
    assert not missing


def test_worker_imports_and_twist_builders_exist():
    imported = {alias.name for node in ast.walk(_module("worker.py"))
                if isinstance(node, ast.ImportFrom) and node.module == "rootfold"
                for alias in node.names}
    builders = {twist[0] for _group, twist, _qs in _assigned(_module("jobs.py"), "_CLASSES")
                if twist}
    assert imported and builders
    missing = ([name for name in sorted(imported) if not hasattr(rootfold, name)]
               + [name for name in sorted(builders) if not hasattr(rootfold.catalog, name)])
    assert not missing
