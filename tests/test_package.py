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
    # item 4, group 1: Arendt's derivative bound, a level kept for the growth wiring
    "derivative_level",
}
#: (function, parameter) pairs whose value a protocol fixes but the body need not read
UNREAD_PARAMETER_ALLOWLIST = set()


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


def _callers(module: str, name: str) -> set:
    """The functions of ``module`` that call ``name``, as a plain name or as a method."""
    tree = ast.parse((PACKAGE_DIR / module).read_text())
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


#: semigroup.py functions that evaluate a_n for one index and take no sup over samples
IDENTITY_ORACLES = {"integrated_factor", "laplace_identity_residual",
                    "pseudoresolvent_residual", "bromwich_S"}


def test_one_association_kernel():
    # the one "sup over samples of a diagonal-operator norm": within association.py
    # only check_association calls multiplier_norms
    assert _callers("association.py", "multiplier_norms") == {"check_association"}
    # and its two reductions are the only sups that evaluate symbols: growth
    # certificates and resolvent-norm bounds go through operator_sups
    on_grid = _callers("association.py", "on_grid") | _callers("semigroup.py", "on_grid")
    assert on_grid - IDENTITY_ORACLES == {"check_association", "operator_sups"}


def test_one_symbol_family_type():
    # every n-indexed frequency symbol, the perturbations B and C among them, is a SymbolSeq
    owners = {f"{path.name}:{cls.name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "on_grid"}
    assert owners == {"symbols.py:SymbolSeq"}


def test_phase_is_applied_inside_spectral_only():
    # every other module works on plain FFT coefficients, as MultiplierOp.apply does
    users = {path.name for path in sorted(PACKAGE_DIR.glob("*.py"))
             if _callers(path.name, "phase")}
    assert users == {"spectral.py"}


def test_one_panel_count():
    # time_integral's 64 panels are a constant; only the tests' unfolded reference rule,
    # composite_gauss_points, takes a panel count
    owners = {f"{path.stem}.{fn.name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
              for fn in ast.walk(ast.parse(path.read_text()))
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              and "panels" in [a.arg for a in fn.args.posonlyargs + fn.args.args
                               + fn.args.kwonlyargs]}
    assert owners == {"quadrature.composite_gauss_points"}
