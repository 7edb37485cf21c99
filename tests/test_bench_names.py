"""The names the benchmark in ``perfbench/`` binds must exist in the package.

The benchmark reaches into ``rootfold`` by name: the tracer wraps functions
listed per module, the worker imports from the package root, and the class
jobs call catalog twist builders.  The tracer also takes ``len()`` of the
result of each function in its ``SIZED`` table as a work count.  A rename in
``src/``, or a sized result that became a generator, would otherwise only
show up as failed benchmark jobs.  The files are read with ``ast``; nothing
under ``perfbench/`` is imported.  The benchmark's own output check is run
as a subprocess, one second per in-process workload.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import rootfold
from oracles import steinberg_count
from rootfold import catalog
from rootfold.classes import FrobeniusStructure
from rootfold.exact_lattice import LatticeMap

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


GL2 = catalog.gl(2)
SHIFT = LatticeMap([[3, 1], [0, 3]])

# per sized function: its arguments on a tiny input, and the len() it must give
SIZED_CASES = {
    "root_datum.weyl_group": ((catalog.gl(3),), 6),
    "classes.enumerate_stable_classes": (
        (GL2, FrobeniusStructure.untwisted(3, 2)),
        steinberg_count(GL2.simple_roots, LatticeMap.identity(2).rows, 3)),
    # |det(m - I)| fixed points
    "exact_lattice.solve_torsion_fixed": ((SHIFT,), abs((SHIFT - LatticeMap.identity(2)).det())),
}


def test_sized_results_have_their_counts():
    sized = _assigned(_module("tracer.py"), "SIZED")
    assert sorted(sized) == sorted(SIZED_CASES)
    for name, (args, count) in SIZED_CASES.items():
        mod, fn = name.split(".")
        result = getattr(importlib.import_module(f"rootfold.{mod}"), fn)(*args)
        assert len(result) == count, name


@pytest.mark.parametrize("workload", ["classes", "lift"])
def test_benchmark_output_check_passes(workload):
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), done.stdout
