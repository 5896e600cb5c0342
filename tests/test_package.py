"""Module boundaries of the package: a `_`-prefixed name is used only
inside the module that defines it, and a module imports only names it
uses."""

import ast
import importlib
import inspect
import pkgutil
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
