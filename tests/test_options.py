"""Budgets and thresholds are module constants, not options.

A value that no caller sets differently is a constant read at call
time; tests monkeypatch the constant.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import sievelab

CONSTANTS = {"budget", "exact_budget", "dense_threshold"}


def _parameters():
    """(owner, name) for every parameter of a public function or method,
    and every dataclass field, in the sievelab modules."""
    for info in pkgutil.iter_modules(sievelab.__path__):
        module = importlib.import_module(f"sievelab.{info.name}")
        for attr, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            owner = f"{info.name}.{attr}"
            if inspect.isfunction(obj) and not attr.startswith("_"):
                yield from ((owner, p) for p in inspect.signature(obj).parameters)
            elif inspect.isclass(obj):
                for meth in vars(obj):
                    fn = getattr(obj, meth)
                    if (inspect.isfunction(fn) or inspect.ismethod(fn)) and (
                            meth == "__init__" or not meth.startswith("_")):
                        yield from ((f"{owner}.{meth}", p)
                                    for p in inspect.signature(fn).parameters)
                if dataclasses.is_dataclass(obj):
                    yield from ((owner, f.name) for f in dataclasses.fields(obj))


def test_budgets_and_thresholds_are_not_options():
    owners = list(_parameters())
    assert ("quotients._Coded.element_codes", "self") in owners
    assert ("walker.WalkConfig", "seed") in owners
    assert [o for o in owners if o[1] in CONSTANTS] == []
