"""The package's modules import one another in one direction only.

Each module may import only modules earlier in LAYERS.  Imports inside
functions count too, so a deferred import cannot hide a cycle.  The source
also holds no ``assert`` statement, since ``python -O`` strips them, and
turns text into code in one place only: the ``exec`` of the generated orbit
walk.
"""

import ast
from pathlib import Path

LAYERS = ("exact_lattice", "root_datum", "chevalley", "gamma_action", "folding",
          "duality_conorm", "catalog", "classes", "verify", "cli")

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rootfold"


def relative_imports(path):
    """Names of the sibling modules a source file imports, anywhere in it."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module.split(".")[0])
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYERS)


def test_imports_point_to_earlier_layers():
    bad = []
    for rank, name in enumerate(LAYERS):
        for target in sorted(relative_imports(PACKAGE / f"{name}.py")):
            if target not in LAYERS[:rank]:
                bad.append(f"{name} imports {target}")
    assert not bad, bad


def test_no_assert_statements():
    # an internal check raises AssertionError itself, so that it still runs under -O
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found


def code_from_text_calls(path):
    """(module, enclosing top-level definition, name) of each call of exec, eval or the
    builtin compile in a source file; ``re.compile`` is an attribute and not counted."""
    found = []
    for top in ast.parse(path.read_text(), str(path)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("exec", "eval") or (name == "compile" and isinstance(func, ast.Name)):
                found.append((path.stem, owner, name))
    return found


def test_exec_runs_only_in_the_walk_generator():
    # the README and _walk_function promise that no input text reaches exec
    found = [call for path in sorted(PACKAGE.glob("*.py")) for call in code_from_text_calls(path)]
    assert found == [("classes", "_walk_function", "exec")]
