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
import dataclasses
import importlib
import sys
from pathlib import Path

import semigrouplab
from semigrouplab import association, cli, config, semigroup, symbols

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
#: (function, parameter) defaults that no call in the package passes: the entry point,
#: which tests and perfbench call with argv, and the tests' reference Gauss rule
UNPASSED_DEFAULT_ALLOWLIST = {("cli.main", "argv"),
                              ("quadrature.composite_gauss_points", "nodes")}


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


def _defaulted_parameters():
    """(owner, callee, parameter, position in a call or None) of every parameter with a
    default; a method's position skips self, and a constructor is called by its class."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            cls = classes.get(id(fn))
            owner = f"{path.stem}.{cls.name + '.' if cls else ''}{fn.name}"
            callee = cls.name if cls and fn.name == "__init__" else fn.name
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            skip = 1 if cls and not static else 0
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, a in enumerate(positional[first:], first):
                yield owner, callee, a.arg, i - skip
            for a, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield owner, callee, a.arg, None


def _passes(call: ast.Call, param: str, index) -> bool:
    """Whether ``call`` passes ``param`` by keyword or **, or by position or *."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_default_is_passed_somewhere():
    # a default that no call overrides is a constant dressed as a parameter
    calls = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = {(owner, param) for owner, callee, param, index in _defaulted_parameters()
                if not any(_passes(c, param, index) for c in calls.get(callee, []))}
    assert unpassed == UNPASSED_DEFAULT_ALLOWLIST


def _callers(module: str, name: str) -> set:
    """The functions of ``module`` that call ``name``, as a plain name or as a method."""
    tree = ast.parse((PACKAGE_DIR / module).read_text())
    return {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_one_association_kernel():
    # the one "sup over samples of a diagonal-operator norm": within association.py
    # only check_association calls multiplier_norms
    assert _callers("association.py", "multiplier_norms") == {"check_association"}
    # symbols are evaluated in one place, the run's Evaluations.values: the association
    # kernel, operator_sups, the identity oracles and the solve all read a_n from it
    on_grid = {(path.name, fn) for path in sorted(PACKAGE_DIR.glob("*.py"))
               for fn in _callers(path.name, "on_grid")}
    assert on_grid == {("semigroup.py", "values")}
    tree = ast.parse((PACKAGE_DIR / "semigroup.py").read_text())
    evaluations = next(cls for cls in ast.walk(tree)
                       if isinstance(cls, ast.ClassDef) and cls.name == "Evaluations")
    assert "values" in {fn.name for fn in evaluations.body if isinstance(fn, ast.FunctionDef)}
    # every identity oracle forms its relative defects ||d u||_2 / ||u||_2 in one helper
    assert _callers("semigroup.py", "multiplier_norms") == {"relative_defects"}


def test_one_symbol_family_type():
    # every n-indexed frequency symbol, the perturbations B and C among them, is a SymbolSeq
    owners = {f"{path.name}:{cls.name}" for path in sorted(PACKAGE_DIR.glob("*.py"))
              for cls in ast.walk(ast.parse(path.read_text())) if isinstance(cls, ast.ClassDef)
              for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "on_grid"}
    assert owners == {"symbols.py:SymbolSeq"}


def _families():
    """Every family the package builds: the bundled pairs and each subcommand's families."""
    for pair in association.bundled_family_pairs():
        yield pair.s
        yield pair.s_tilde
    for command in cli.RUNNERS:
        for cfg in (config.default_config(command),
                    config.ExperimentConfig(family_kind="fractional", comparison="scale:1.5")):
            s = cli.build_family(cfg)
            yield from (s, cli.build_comparison_family(cfg, s), *cli.build_perturbations(cfg))


def test_a_family_is_its_symbol():
    # the fields are exactly the data that fix a_n and re_bound, with no label, so equal
    # symbols are one value: one dict key of a run's Evaluations and one evaluation
    assert [f.name for f in dataclasses.fields(semigrouplab.SymbolSeq)] == [
        "shape", "p", "q", "rate", "n_min", "m", "parts", "factor"]


def test_no_symbol_family_field_holds_a_callable():
    # a family is a value: its fields fix eval and re_bound, and it compares by them
    assert {f.type for f in dataclasses.fields(semigrouplab.SymbolSeq)} <= {
        "str", "tuple", "int", "float"}
    stack = list(_families())
    while stack:
        family = stack.pop()
        assert family == dataclasses.replace(family) and hash(family) == hash(
            dataclasses.replace(family))
        for f in dataclasses.fields(family):
            value = getattr(family, f.name)
            assert not callable(value), (family, f.name)
            if f.name == "parts":
                stack.extend(value)
            elif isinstance(value, tuple):
                assert not any(callable(v) for v in value), (family, f.name)


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


def test_one_block_budget():
    # the two quadrature kernels size their own blocks: only they call block_rows, and
    # the suites in cli.py pass whole sample sets, reading none of the block constants
    sizers = {(path.name, fn) for path in sorted(PACKAGE_DIR.glob("*.py"))
              for fn in _callers(path.name, "block_rows")}
    assert sizers == {("semigroup.py", "time_integral"), ("semigroup.py", "bromwich_S")}
    assert not {"block_rows", "BLOCK_ENTRIES", "TIME_INTEGRAL_LEVELS"} & {
        getattr(node, "id", getattr(node, "attr", None))
        for node in ast.walk(ast.parse((PACKAGE_DIR / "cli.py").read_text()))}


def test_perfbench_tracer_installs_and_restores_every_patch(monkeypatch):
    # perfbench/layertrace.py patches these by name; a renamed one fails its install, which
    # the benchmark reaches only under --trace 1.  uninstall must leave every namespace of
    # the package as it found it
    monkeypatch.syspath_prepend(str(PACKAGE_DIR.parent.parent / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    patched = [(symbols.SymbolSeq, "on_grid"), (semigroup.MultiplierOp, "apply"),
               (association.AssociationReport, "__init__"), (semigroup, "phi"),
               *((cli, f"_suite_{suite}") for suite in layertrace.SUITES)]
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and name.split(".")[0] == "semigrouplab"]
    before = [dict(vars(m)) for m in modules]
    originals = [vars(owner)[attr] for owner, attr in patched]
    tracer = layertrace.LayerTracer("t")
    try:
        tracer.install()
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(patched, originals))
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in patched] == originals
    for module, namespace in zip(modules, before):
        assert vars(module).keys() == namespace.keys()
        changed = [k for k, v in vars(module).items() if v is not namespace[k]]
        assert changed == [], (module.__name__, changed)
