import importlib
import pkgutil

import pytest

import tramkit

MODULES = ["tramkit"] + [
    f"tramkit.{m.name}" for m in pkgutil.iter_modules(tramkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # a stale name in __all__ breaks `import *` and anything that walks it
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
    exec(f"from {name} import *", {})
