"""The package root exports exactly what it imports, each name once."""

import ast
from pathlib import Path

import pytest

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
    """Names no import binds come from the class and verification layers."""
    from rootfold import classes, verify
    lazy = [name for name in rootfold.__all__ if name not in imported_names()]
    assert "enumerate_stable_classes" in lazy and "verify_isogeny_square" in lazy
    for name in lazy:
        home = classes if hasattr(classes, name) else verify
        assert getattr(rootfold, name) is getattr(home, name), name
    assert not sorted(set(rootfold.__all__) - set(dir(rootfold)))
    with pytest.raises(AttributeError):
        rootfold.no_such_name


def test_every_import_is_exported():
    unlisted = sorted(set(imported_names()) - set(rootfold.__all__))
    assert not unlisted, unlisted
