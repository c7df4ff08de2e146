"""Every name in a lightfuse module's __all__ is defined by that module.

Tracing tools resolve each listed name with getattr and wrap it, so a stale
entry, or one re-exported from another module, would break them.
"""

import importlib
import inspect
import pkgutil

import pytest

import lightfuse

MODULES = [importlib.import_module(f"lightfuse.{info.name}") for info in pkgutil.iter_modules(lightfuse.__path__)]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_all_names_are_defined_in_their_module(module):
    assert len(set(module.__all__)) == len(module.__all__)
    for name in module.__all__:
        assert name in vars(module), f"{module.__name__}.__all__ lists missing '{name}'"
        obj = vars(module)[name]
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, f"'{name}' is defined in {obj.__module__}"
