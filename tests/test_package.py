import ast
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "irsmimo").glob("*.py"))


def _exported(path: Path) -> list[str]:
    """The names a module's `__all__` lists, read from its source."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def test_every_exported_name_has_a_user_outside_the_tests():
    """Each name in an `__all__` of the package is used by the package's code
    (its own module included) or by the benchmark: public surface that only
    tests reach is a second path to keep. An import or an `__all__` entry is
    not a use; a name read as a variable or as an attribute is."""
    used = set()
    for path in SOURCES + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{path.stem}.{name}" for path in SOURCES for name in _exported(path)
              if name not in used]
    assert not unused, f"exported but used only by tests: {unused}"


G_W_STEPS = {"update_receivers", "mse_matrices", "update_weights"}


def test_only_refresh_forms_receivers_and_weights():
    """Under src/, only `wmmse.refresh` names `update_receivers`,
    `mse_matrices` or `update_weights` in code (a call, or a reference that
    could be called): a loop that formed (G, W) by hand would be a second
    copy of that step. Definitions, `__all__` entries and docstrings are
    not references."""
    readers = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Name) and child.id in G_W_STEPS:
                readers.append((scope, child.id))
            elif isinstance(child, ast.Attribute) and child.attr in G_W_STEPS:
                readers.append((scope, child.attr))
            visit(child, scope)

    for path in sorted((ROOT / "src").rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    outside = sorted({f"{scope} reads {name}" for scope, name in readers
                      if scope != "wmmse.refresh"})
    assert not outside, f"(G, W) formed outside wmmse.refresh: {outside}"
    assert {name for scope, name in readers if scope == "wmmse.refresh"} == G_W_STEPS
