"""The package's public names: each module's __all__, re-exported once."""

import importlib

import pytest

import nhdeg

MODULES = ("linalg", "model", "ribbon", "scanner", "serialize", "symmetry", "theorem")


@pytest.mark.parametrize("name", MODULES + ("cli",))
def test_module_all_resolves(name):
    module = importlib.import_module(f"nhdeg.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for public in module.__all__:
        assert hasattr(module, public), f"nhdeg.{name}.{public}"


def test_package_all_is_union_of_module_all():
    union = [public for name in MODULES
             for public in importlib.import_module(f"nhdeg.{name}").__all__]
    assert sorted(nhdeg.__all__) == sorted(union)
    assert len(set(union)) == len(union)
    for public in nhdeg.__all__:
        assert hasattr(nhdeg, public), public
