"""The package root exports each name of its one table once, on first use; the
package's parameters with defaults are one table too."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import rootfold

INIT = Path(__file__).resolve().parents[1] / "src" / "rootfold" / "__init__.py"


def imported_names():
    """Names bound by the import statements of ``rootfold/__init__.py``."""
    out = []
    for node in ast.walk(ast.parse(INIT.read_text(), str(INIT))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.extend(alias.asname or alias.name for alias in node.names)
    return out


def test_every_export_resolves():
    missing = [name for name in rootfold.__all__ if not hasattr(rootfold, name)]
    assert not missing, missing


def test_no_export_repeats():
    seen = set()
    repeats = [name for name in rootfold.__all__ if name in seen or seen.add(name)]
    assert not repeats, repeats


def test_lazy_exports_resolve_and_are_listed():
    """Every export is the object of its layer in ``_EXPORTS``, and listed once."""
    table = rootfold._EXPORTS
    assert sorted(rootfold.__all__) == sorted(
        [name for names in table.values() for name in names] + ["catalog"])
    for layer, names in table.items():
        module = importlib.import_module(f"rootfold.{layer}")
        assert getattr(rootfold, layer) is module
        for name in names:
            assert getattr(rootfold, name) is getattr(module, name), name


def fresh(code):
    """Standard output of ``code`` run in a new interpreter on this package."""
    src = str(INIT.parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOADED = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'rootfold'))"


def test_import_loads_no_layer():
    assert fresh(f"import sys, rootfold\n{LOADED}") == "['rootfold']"


def test_class_layer_loads_only_what_it_imports():
    assert fresh(f"import sys, rootfold.classes\n{LOADED}") == str(
        ["rootfold", "rootfold.classes", "rootfold.exact_lattice", "rootfold.root_datum"])


def test_unknown_name_raises_and_dir_covers_exports():
    code = ("import rootfold\n"
            "try:\n"
            "    rootfold.no_such_name\n"
            "except AttributeError:\n"
            "    print(sorted(set(rootfold.__all__) - set(dir(rootfold))))\n")
    assert fresh(code) == "[]"


def test_every_import_is_exported():
    unlisted = sorted(set(imported_names()) - set(rootfold.__all__))
    assert not unlisted, unlisted


def referenced_names(tree, skip):
    """(names and import aliases, attributes) in ``tree`` outside the definition node ``skip``."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def public_definitions(tree):
    """(qualified name, node) of each public module-level function or class, and of
    each method of a module-level class whose name starts with no underscore."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not top.name.startswith("_"):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{top.name}.{node.name}", node


def test_every_export_is_used_outside_the_tests():
    """Each export, public function and public method is referenced by code in
    the package other than its own definition, or named in ``perfbench/`` or
    README.md; a name that only tests use belongs in ``tests/``.  A method
    counts as referenced only through an attribute of its name, so a local
    variable that shares its name does not keep it."""
    root = INIT.parents[2]
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in INIT.parent.glob("*.py")
             if p.stem != "__init__"}
    text = "".join(p.read_text() for p in sorted((root / "perfbench").glob("*.py")))
    text += (root / "README.md").read_text()
    definitions = {f"{stem}.{qualname}": node for stem, tree in trees.items()
                   for qualname, node in public_definitions(tree)}
    exports = [f"{layer}.{name}" for layer, names in rootfold._EXPORTS.items() for name in names]
    assert set(exports) <= set(definitions), sorted(set(exports) - set(definitions))

    def referenced(node, method):
        for tree in trees.values():
            names, attributes = referenced_names(tree, node)
            if node.name in attributes or node.name in names and not method:
                return True
        return False

    # a method's qualified name is layer.Class.method
    unused = [qualname for qualname, node in sorted(definitions.items())
              if not referenced(node, qualname.count(".") == 2)
              and not re.search(rf"\b{node.name}\b", text)]
    assert not unused, unused


# every parameter with a default of each public function and class (through
# its constructor) defined in a module of the package; a new knob is a new line
DEFAULTED_PARAMETERS = {
    "exact_lattice.LatticeMap": ("domain_rank=None",),
    "gamma_action.GammaAction": ("twist=None",),
    "catalog.trivial_action": ("m=1",),
    "cli.JobConfig": ("preset=None", "action=None", "q=None", "tau=None", "format='table'",
                      "budget='full'", "which=None", "group=None", "action_spec=None"),
    "cli.main": ("argv=None",),
}


def test_defaulted_parameters_are_the_table():
    found = {}
    for layer in (*rootfold._EXPORTS, "cli"):
        module = importlib.import_module(f"rootfold.{layer}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                    or isinstance(obj, type) and issubclass(obj, BaseException)):
                continue
            defaults = tuple(f"{p.name}={p.default!r}"
                             for p in inspect.signature(obj).parameters.values()
                             if p.default is not p.empty)
            if defaults:
                found[f"{layer}.{name}"] = defaults
    assert found == DEFAULTED_PARAMETERS
