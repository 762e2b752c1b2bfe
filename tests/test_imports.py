"""Every name a package module imports is used in that module, the
package's attribute of each module's name is that module, importing
the package loads none of them, the solver and the combination load no
oracle, the arithmetic plugin loads no set solver, and the CLI loads no
dataclasses."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import setsyl

SRC = Path(__file__).resolve().parent.parent / "src" / "setsyl"
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


@pytest.mark.parametrize("name", [p.stem for p in MODULES])
def test_package_attribute_is_the_module(name):
    # Imported here, so the check holds whichever tests ran before; a
    # package attribute of the same name, such as a re-exported function,
    # would shadow the module.
    module = importlib.import_module("setsyl." + name)
    assert getattr(setsyl, name) is module


# what the import system binds on every package
IMPORT_DUNDERS = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__",
                  "__name__", "__package__", "__path__", "__spec__"}


def test_importing_the_package_loads_no_module():
    probe = (
        "import sys, setsyl\n"
        "print(sorted(m for m in sys.modules if m.startswith('setsyl.')))\n"
        f"print(sorted(set(vars(setsyl)) - {IMPORT_DUNDERS!r}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout
    assert out == "[]\n['__version__']\n"


@pytest.mark.parametrize("name", ["solver", "combine"])
def test_the_decision_procedure_loads_no_oracle(name):
    # The brute-force oracle checks the solver and the combination; neither
    # may depend on it, so that a fault of one cannot hide in the other.
    probe = f"import sys, setsyl.{name}\nprint('setsyl.oracle' in sys.modules)\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout
    assert out == "False\n"


def test_the_arithmetic_plugin_loads_no_set_solver():
    # lra groups its classes with the routine the set solver uses, which
    # lives beside the normal form, so the plugin stays free of the set
    # solver and of its hereditarily finite sets.
    probe = "import sys, setsyl.lra\nprint(sorted({'setsyl.solver', 'setsyl.hf'} & set(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout
    assert out == "[]\n"


def test_the_cli_loads_no_dataclasses():
    # The value classes are Records, which generate no code at import, so
    # `import setsyl.cli` pays neither for dataclasses nor for the inspect,
    # ast, dis and tokenize modules it loads.
    probe = "import sys, setsyl.cli\nprint(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
    ).stdout
    assert out == "[]\n"
