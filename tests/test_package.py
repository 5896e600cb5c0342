"""Module boundaries of the package: a `_`-prefixed function is used only
inside the module that defines it."""

import importlib
import inspect
import pkgutil

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
