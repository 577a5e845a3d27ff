"""The exported names, each module's ``__all__`` and every name the demos
import from the package resolve, and the package exports exactly the
modules' lists.  The demo imports are read with ``ast``, so the demos never
run.  No source module rebinds its module state after import."""
import ast
import importlib
import pathlib

import pytest

import twocopy

MODULES = ("fock", "states", "measurement", "inequalities", "search")
DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src").rglob("*.py"))


def test_all_names_resolve():
    missing = [name for name in twocopy.__all__ if not hasattr(twocopy, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(twocopy.__all__) == len(set(twocopy.__all__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves_in_its_module(module):
    module = importlib.import_module(f"twocopy.{module}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_exports_the_module_lists():
    modules = [importlib.import_module(f"twocopy.{module}") for module in MODULES]
    assert twocopy.__all__ == [name for module in modules for name in module.__all__]
    assert all(getattr(twocopy, name) is getattr(module, name)
               for module in modules for name in module.__all__)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_resolve(demo):
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "twocopy":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert missing == []


def test_no_global_statement_in_the_source():
    # module state is bound once, at import; caches are lru_cache functions
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Global)]
    assert found == []
