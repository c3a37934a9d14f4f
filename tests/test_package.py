"""The package's public names: each module's __all__, re-exported once; no unused import."""

import ast
import importlib
from pathlib import Path

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


@pytest.mark.parametrize("path", sorted(Path(nhdeg.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    # an import stays, unused, when the code that read it goes; `*` and
    # lines marked `# noqa: F401` are exempt
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names
                     if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
