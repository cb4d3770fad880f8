import importlib
import pkgutil

import pytest

import irsmimo

MODULES = ["irsmimo"] + sorted(
    f"irsmimo.{info.name}" for info in pkgutil.iter_modules(irsmimo.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
