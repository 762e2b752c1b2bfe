"""Every name a package module imports is used in that module, and the
package's attribute of each module's name is that module."""

import ast
import sys
from pathlib import Path

import pytest

import setsyl

SRC = Path(__file__).resolve().parent.parent / "src" / "setsyl"
# __init__.py only re-exports, so its imports are its exports.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    """Names bound by an import that never occur as an ast.Name.  The base
    of an attribute chain (os in os.path.join) is itself an ast.Name, and
    annotations are parsed even under `from __future__ import annotations`,
    so both count as uses."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, re as regex, sys\n"
        "from .x import a, b as c, d\n"
        "def f(v: d) -> None:\n"
        "    return os.path.join(c, sys.argv)\n"
    )
    assert _unused_imports(source) == ["regex", "a"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


# cli is the one module the package does not import
@pytest.mark.parametrize("name", [p.stem for p in MODULES if p.stem != "cli"])
def test_package_attribute_is_the_module(name):
    # a re-exported function of a module's name would shadow the module
    assert getattr(setsyl, name) is sys.modules["setsyl." + name]
