"""The exported names and every name the demos import from the package
resolve.  The demo imports are read with ``ast``, so the demos never run."""
import ast
import importlib
import pathlib

import pytest

import twocopy

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


def test_all_names_resolve():
    missing = [name for name in twocopy.__all__ if not hasattr(twocopy, name)]
    assert missing == []


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_imports_resolve(demo):
    missing = []
    for node in ast.walk(ast.parse(demo.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "twocopy":
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{alias.name}" for alias in node.names
                        if not hasattr(module, alias.name)]
    assert missing == []
