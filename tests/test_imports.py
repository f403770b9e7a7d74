"""Every name a module of the package imports is used in that module,
and every import statement sits at module level, not in a function body,
where it would run again on each call."""
import ast
import pathlib

import pytest

import dataspace

MODULES = sorted(pathlib.Path(dataspace.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def function_imports(source: str) -> list:
    """Line numbers of the import statements inside function bodies."""
    tree = ast.parse(source)
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_an_unused_import():
    source = "from typing import List, Optional\nimport os.path\n\nx: List[int] = []\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_in_function_bodies(path):
    assert function_imports(path.read_text()) == []


def test_scan_finds_an_import_in_a_function_body():
    source = (
        "import os\n\n"
        "def f():\n    from os import path\n\n    def g():\n        import sys\n"
        "    return path\n\n"
        "class C:\n    def m(self):\n        import json\n"
    )
    assert function_imports(source) == [4, 7, 12]
