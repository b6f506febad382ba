"""Package structure: exported names are reached, and imports form layers.

A name in ``semigrouplab.__all__`` counts as reached when some module of the
package other than ``__init__`` reads it as a ``Name`` or an ``Attribute``.
An exported function that only tests read is a library path no subcommand
runs; it either reaches an output or it goes.

Every import of a package module sits at module level, so the import graph
is visible at the top of each file and a lower module never reaches back up
to a higher one from inside a function.
"""
import ast
from pathlib import Path

import semigrouplab

PACKAGE_DIR = Path(semigrouplab.__file__).parent
#: exported but read by no module; each stays until ROADMAP open item 4
#: ("Every paper hypothesis reaches an output, or it goes") decides it
UNREACHED_ALLOWLIST = {
    # item 4, group 1: the derivative-bound engine
    "check_derivative_bounds",
    "check_derivative_association",
    # item 4, group 2: the symbol-class and hypothesis checks
    "check_symbol_class",
    "check_A1_A3",
    "check_p_condition",
}


def _identifiers_read() -> set:
    names = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_is_reached_inside_the_package():
    unreached = set(semigrouplab.__all__) - _identifiers_read()
    assert unreached == UNREACHED_ALLOWLIST


def test_no_function_level_package_imports():
    found = [f"{path.name}:{node.lineno} in {fn.name}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for fn in ast.walk(ast.parse(path.read_text()))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn)
             if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert found == []
