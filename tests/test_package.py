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
#: ("Every paper hypothesis reaches an output, or it goes") decides it.
#: Group 2, the L^p symbol-class checks, went: on L^2 they bound no output.
UNREACHED_ALLOWLIST = {
    # item 4, group 1: the derivative-bound engine, kept for the growth wiring
    "check_derivative_bounds",
    "derivative_level",
}
#: (function, parameter) pairs whose value a protocol fixes but the body need not read
UNREAD_PARAMETER_ALLOWLIST = {
    # a level maps (n, a_n, a~_n) to its block; the generator level needs no n
    ("generator_level", "n"),
    # ForcingSeq.separable calls shape_for(n); the bundled forcing shape is one for all n
    ("shape_for", "n"),
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


def test_every_parameter_is_read():
    unread = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread |= {(fn.name, p) for p in params if p not in read}
    assert unread == UNREAD_PARAMETER_ALLOWLIST


def test_one_association_kernel():
    # the one "sup over samples of a diagonal-operator norm": within association.py
    # only check_association calls multiplier_norms
    tree = ast.parse((PACKAGE_DIR / "association.py").read_text())
    callers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "multiplier_norms"}
    assert callers == {"check_association"}
