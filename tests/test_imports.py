"""Every name a module of the package imports is used in that module,
and every import statement sits at module level, not in a function body,
where it would run again on each call.  Every function, class and public
method the package defines is named somewhere in the sources, tests or
benchmark."""
import ast
import pathlib

import pytest

import dataspace

MODULES = sorted(pathlib.Path(dataspace.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


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


def definitions(module: str, source: str) -> list:
    """The undecorated top-level functions and classes of a module, as
    ``module.name``, and the public undecorated methods of those classes,
    as ``Class.method``; each paired with the bare name it goes by."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, funcs + (ast.ClassDef,)) and not node.decorator_list:
            out.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{m.name}", m.name)
                    for m in node.body
                    if isinstance(m, funcs) and not m.decorator_list and not m.name.startswith("_")
                )
    return out


def names_used(source: str) -> set:
    """The names a source mentions: as names, attributes or imports."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def dead_definitions(modules: dict, corpus: list) -> list:
    """The definitions of ``modules`` (name -> source) that no source of
    ``corpus`` names."""
    used = set().union(*(names_used(source) for source in corpus))
    return sorted(
        qualified
        for module, source in modules.items()
        for qualified, name in definitions(module, source)
        if name not in used
    )


def test_no_dead_definitions():
    modules = {path.stem: path.read_text() for path in MODULES}
    assert dead_definitions(modules, [path.read_text() for path in CORPUS]) == []


def test_scan_finds_a_dead_definition():
    source = (
        "def used():\n    pass\n\n"
        "def dead():\n    pass\n\n"
        "@register\ndef hooked():\n    pass\n\n"
        "class C:\n"
        "    def called(self):\n        pass\n\n"
        "    def uncalled(self):\n        pass\n\n"
        "    def _private(self):\n        pass\n"
    )
    client = "from m import used\n\nC().called()\n"
    assert dead_definitions({"m": source}, [source, client]) == ["C.uncalled", "m.dead"]
