"""The package's top-level surface."""

import importlib
import inspect
import pkgutil

import detic

# The CLI's own refusals: `cli.main` turns them into exit codes 2 and 1.
CLI_ONLY = {"detic.cli.UsageError", "detic.cli.UncoveredPointError"}


def defined_exception_classes() -> dict[str, type]:
    defined = {}
    for info in pkgutil.iter_modules(detic.__path__, "detic."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == info.name:
                defined[f"{info.name}.{name}"] = obj
    return defined


def test_every_exception_class_is_exported():
    defined = defined_exception_classes()
    assert "detic.gf2.DimensionMismatchError" in defined
    assert CLI_ONLY <= set(defined)
    missing = [
        path for path, cls in defined.items()
        if path not in CLI_ONLY and getattr(detic, cls.__name__, None) is not cls
    ]
    assert not missing


def test_every_exception_class_is_a_detic_error():
    # `cli.main` reads a DeticError as bad input and lets anything else through.
    defined = defined_exception_classes()
    assert {"detic.exactmath.DeticError", "detic.exactmath.NotARationalError"} <= set(defined)
    assert [path for path, cls in defined.items() if not issubclass(cls, detic.DeticError)] == []
