import importlib
import pkgutil

import pytest

import gridvolt

MODULES = ["gridvolt"] + [f"gridvolt.{info.name}"
                          for info in pkgutil.iter_modules(gridvolt.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), name
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], name
    # and what the other modules import from this one is exported
    imported = {attr for other in map(importlib.import_module, MODULES)
                for attr, value in vars(other).items()
                if not attr.startswith("_") and other is not module
                and getattr(value, "__module__", None) == name}
    assert imported <= set(exported), name
