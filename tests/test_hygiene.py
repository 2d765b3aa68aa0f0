"""Source rules of the library, read from the AST of src/qdlab/*.py: it
imports the standard library and itself only, and it swallows no failure
with a bare ``except:`` or ``except Exception`` / ``BaseException``."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "qdlab").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported_modules(tree):
    """Top-level module names of every absolute import; a relative import
    (``from . import x``) stays inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def _caught_names(handler_type):
    """Names an except clause catches: one name, a dotted name or a tuple."""
    nodes = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"__init__.py", "exact.py", "homology.py", "levi.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_qdlab(path):
    bad = [(line, mod) for line, mod in _imported_modules(_tree(path))
           if mod != "qdlab" and mod not in sys.stdlib_module_names]
    assert not bad, f"{path.name} imports outside the standard library: {bad}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_broad_except(path):
    bad = []
    for node in ast.walk(_tree(path)):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            bad.append((node.lineno, "except:"))
        else:
            bad += [(node.lineno, name) for name in _caught_names(node.type)
                    if name in BROAD]
    assert not bad, f"{path.name} catches too broadly: {bad}"


def test_rules_catch_violations():
    tree = ast.parse(
        "import numpy.linalg\n"
        "from scipy import sparse\n"
        "from . import exact\n"
        "import json, qdlab.exact\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, builtins.Exception):\n    pass\n")
    mods = [m for _, m in _imported_modules(tree)]
    assert mods == ["numpy", "scipy", "json", "qdlab"]
    handlers = [n for n in ast.walk(tree) if isinstance(n, ast.ExceptHandler)]
    assert handlers[0].type is None
    assert list(_caught_names(handlers[1].type)) == ["ValueError", "Exception"]
