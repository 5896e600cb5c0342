"""Module boundaries of the package: a `_`-prefixed name is used only
inside the module that defines it, and a module imports only names it
uses."""

import ast
import importlib
import inspect
import math
import pkgutil
from collections import defaultdict
from pathlib import Path

import verhulst


def test_no_private_function_crosses_a_module():
    # verhulst.__main__ runs the command line when imported
    names = [m.name for m in pkgutil.iter_modules(verhulst.__path__) if m.name != "__main__"]
    modules = [verhulst] + [importlib.import_module(f"verhulst.{name}") for name in names]
    crossings = [
        f"{mod.__name__}.{key} is {fn.__module__}.{fn.__name__}"
        for mod in modules
        for key, fn in vars(mod).items()
        if inspect.isfunction(fn)
        and fn.__module__.startswith("verhulst.")
        and fn.__module__ != mod.__name__
        and fn.__name__.startswith("_")
    ]
    assert crossings == []


def test_no_private_name_imported_across_modules():
    # functions, constants and classes alike: `from .x import _name` (or
    # `from verhulst.x import _name`) reaches into another module's privates
    imported = []
    for path in sorted(Path(verhulst.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "verhulst"
            ):
                imported += [f"{path.name}:{node.lineno} {alias.name}"
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_only_simulate_starts_threads():
    # simulate._run_blocks is the one thread pool; every other module runs
    # on its caller's thread
    imports = []
    for path in sorted(Path(verhulst.__file__).parent.glob("*.py")):
        if path.name == "simulate.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno} {m}" for m in modules
                        if m.split(".")[0] in ("concurrent", "threading")]
    assert imports == []


def test_no_unused_import():
    # the package's __init__ imports only to re-export
    unused = []
    for path in sorted(Path(verhulst.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used]
    assert unused == []


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def test_every_default_is_set_by_a_caller():
    # a parameter with a default that no library or benchmark call sets is
    # a setting without a caller, and should be a constant.  A call matches
    # a def by callee name, bare or after the last dot, and sets a
    # parameter by keyword or at its position; one with *args or **kwargs
    # sets them all
    src = sorted(Path(verhulst.__file__).parent.glob("*.py"))
    benchmarks = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in src + benchmarks}
    calls = defaultdict(list)  # callee -> per call (positional count, keywords), None for all
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                spread |= any(k.arg is None for k in node.keywords)
                calls[_callee(node)].append(
                    None if spread else (len(node.args), {k.arg for k in node.keywords})
                )
    unset = []
    for path in src:
        tree = trees[path]
        methods = {id(fn) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            shift = id(fn) in methods  # a method's self or cls is the call's object
            defaults = [(i - shift, p.arg) for i, p in enumerate(positional) if i >= first]
            defaults += [(math.inf, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            unset += [f"{fn.name}({name})" for pos, name in defaults
                      if not any(c is None or pos < c[0] or name in c[1] for c in calls[fn.name])]
    assert unset == []
