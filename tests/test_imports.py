"""Every name a module of the package imports is used in that module,
and every import statement sits at module level, not in a function body,
where it would run again on each call.  Every function, class and public
method the package defines is named somewhere in the sources, tests or
benchmark; one of a kernel module must be named by the sources outside
its own body, or be listed in ``BENCH_ONLY`` with the reason the
benchmark alone keeps it.  Every test the README cites is defined."""
import ast
import os
import pathlib
import re
import subprocess
import sys
from collections import Counter

import pytest

import dataspace

MODULES = sorted(pathlib.Path(dataspace.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
#: The kernel modules: each of their definitions must serve the program,
#: so a test naming it is not use enough.  The other modules are the API
#: that user programs call.
KERNEL = ("values", "trie", "patch", "mux", "dataflow")
#: The kernel definitions that the program no longer calls but the
#: benchmark names, each with the reason it stays.  A new one fails
#: ``test_no_dead_definitions`` until it is called from ``src`` again,
#: deleted, or listed here.
BENCH_ONLY = {
    "trie.key_set": "a span target in bench/spans.py; the smoke test pins its calls per op at 0",
    "trie.project": "the reference dispatch's oracle checks against, and a span target in bench/spans.py; "
                    "dispatch probes instances with trie.captures",
    "patch.aggregate_visibility": "a span target in bench/spans.py",
    "patch.limit": "a span target in bench/spans.py",
}

#: The functions and methods of the package that call themselves, each
#: with the reason it may.  A value too deep for Python's recursion limit
#: can fail in these and nowhere else: every other walker keeps a stack
#: of its own.
RECURSIVE = {
    "trie._combine": "union, intersect and subtract: one frame per token (ROADMAP item 6)",
    "trie._project": "projection: one frame per token under a wildcard or capture mark (ROADMAP item 6)",
    "trie._update_routes": "a stream's routing update: one frame per token (ROADMAP item 6)",
    "trie.relabel": "Mux.all_assertions' leaf map: one frame per token (ROADMAP item 6)",
    "programs.arm": "the ticker re-arms from a later turn, not from inside its own call",
}


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


def test_package_leaves_dataclasses_and_inspect_unimported():
    # Neither is needed, and together they pull in ast and dis: start-up
    # time and memory every run would pay.
    code = (
        "import sys\nimport dataspace.engine, dataspace.facet, dataspace.trace\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(dataspace.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["[]"]


def test_relay_round_trip_runs_optimized():
    # Under ``python -O`` no assert runs, so no state may be set up inside
    # one: a relay round trip still works, and a fresh layer holds its
    # relay's empty stream.
    code = (
        "from dataspace.engine import META, Dataspace, Message, spawn_dataspace\n"
        "from dataspace.trie import EMPTY\n"
        "from dataspace.facet import spawn_actor\n"
        "from dataspace.values import CAPTURE, Record, Symbol, inbound, outbound\n"
        "rec = lambda label: lambda *fields: Record(Symbol(label), fields)\n"
        "bump, set_box, box_state = rec('bump'), rec('set-box'), rec('box-state')\n"
        "learned = []\n"
        "def box(f):\n"
        "    current = f.field(0, 'current-value')\n"
        "    f.assert_(lambda: outbound(box_state(current.value)))\n"
        "    def set_value(n):\n"
        "        current.value = n\n"
        "    f.on_message(inbound(set_box(CAPTURE)), set_value)\n"
        "def client(f):\n"
        "    f.on_message(inbound(bump(CAPTURE)), lambda n: f.send(set_box(n)))\n"
        "    f.on_asserted(box_state(CAPTURE), learned.append)\n"
        "ds = Dataspace([spawn_dataspace([spawn_actor('box', box)], name='inner'), spawn_actor('client', client)])\n"
        "ds.run()\n"
        "ds.handle(Message(bump(1)))\n"
        "fresh = Dataspace([])\n"
        "print(__debug__, learned, fresh.mux.streams == {META: EMPTY}, fresh.mux.next_id)"
    )
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(dataspace.__file__).parent.parent))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "[0,", "1]", "True", "1"]


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
    as ``Class.method``; each with the bare name it goes by and its node."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, funcs + (ast.ClassDef,)) and not node.decorator_list:
            out.append((f"{module}.{node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                out.extend(
                    (f"{node.name}.{m.name}", m.name, m)
                    for m in node.body
                    if isinstance(m, funcs) and not m.decorator_list and not m.name.startswith("_")
                )
    return out


def names_used(tree: ast.AST, bare: bool = False) -> Counter:
    """How often a syntax tree names each name: as an attribute, an
    import, an identifier-shaped string (the benchmark's spans reach the
    functions they wrap through strings) or a bare name.  A bare name
    counts only if the tree imports it, or if ``bare`` is set, as it is
    for the defining module: elsewhere it is a local, such as a
    parameter, that only shares a definition's name."""
    imported = {alias.asname or alias.name for alias in ast.walk(tree) if isinstance(alias, ast.alias)}
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += bare or node.id in imported
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            used[node.value] += 1
    return used


def dead_definitions(
    modules: dict, corpus: list, runtime: list = (), kernel=(), bench: list = (), bench_only=()
) -> list:
    """The definitions of ``modules`` (name -> source) that no source of
    ``corpus`` names; a bare name counts in its own module and where it
    is imported (see ``names_used``).  One of a ``kernel`` module counts
    as used only if its own module or a source of ``runtime`` names it
    outside its own body, or if ``bench_only`` lists it and a source of
    ``bench`` names it."""
    used = sum((names_used(ast.parse(source)) for source in corpus), Counter())
    served = sum((names_used(ast.parse(source)) for source in runtime), Counter())
    benched = sum((names_used(ast.parse(source)) for source in bench), Counter())
    dead = []
    for module, source in modules.items():
        tree = ast.parse(source)
        # The bare names the module uses without importing them.
        own = names_used(tree, bare=True) - names_used(tree)
        for qualified, name, node in definitions(module, source):
            if module in kernel:
                alive = served[name] + own[name] > names_used(node, bare=True)[name] or (
                    qualified in bench_only and benched[name] > 0
                )
            else:
                alive = used[name] + own[name] > 0
            if not alive:
                dead.append(qualified)
    return sorted(dead)


def test_no_dead_definitions():
    modules = {path.stem: path.read_text() for path in MODULES}
    corpus = [path.read_text() for path in CORPUS]
    src = [path.read_text() for path in SRC]
    bench = [path.read_text() for path in BENCH]
    assert dead_definitions(modules, corpus, src, KERNEL, bench, BENCH_ONLY) == []
    # The list is exact: without it, just its names are dead.
    assert dead_definitions(modules, corpus, src, KERNEL, bench) == sorted(BENCH_ONLY)


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
    client = "from m import C, used\n\nC().called()\n"
    assert dead_definitions({"m": source}, [source, client]) == ["C.uncalled", "m.dead"]
    # In a kernel module, a test's call or a call from the definition's
    # own body is not use; a benchmark naming it in a string is, only
    # for a definition listed as kept for the benchmark alone.  A bare
    # name is use only where it is defined or imported: a parameter that
    # shares a definition's name is not.
    kernel = (
        "def tested():\n    pass\n\n"
        "def shadowed():\n    pass\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
        "def spanned():\n    pass\n\n"
        "def called():\n    pass\n"
    )
    test = "from k import recursive, tested\n\ntested()\nrecursive(3)\n"
    bench = 'import k\n\nTARGETS = [getattr(k, name) for name in ("spanned", "called")]\n'
    program = "import k\n\nk.called()\n\ndef make(shadowed):\n    return shadowed\n"
    corpus = [kernel, test, bench, program]
    runtime = [kernel, program]
    assert dead_definitions({"k": kernel}, corpus) == ["k.shadowed"]
    listed = {"k.spanned": "a span target"}
    got = dead_definitions({"k": kernel}, corpus, runtime, {"k"}, [bench], listed)
    assert got == ["k.recursive", "k.shadowed", "k.tested"]
    # A new survivor the benchmark alone names is dead until listed.
    got = dead_definitions({"k": kernel}, corpus, runtime, {"k"}, [bench])
    assert got == ["k.recursive", "k.shadowed", "k.spanned", "k.tested"]


def self_calling(module: str, source: str) -> list:
    """The functions and methods of a module that call themselves by
    name, as ``f(...)`` or ``self.f(...)``: a function, nested or not,
    as ``module.name``, and a method as ``Class.name``."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = []
    todo = [(ast.parse(source), module)]
    while todo:
        node, owner = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, funcs):
                name = child.name
                for call in ast.walk(child):
                    f = call.func if isinstance(call, ast.Call) else None
                    if (isinstance(f, ast.Name) and f.id == name) or (
                        isinstance(f, ast.Attribute) and f.attr == name
                        and isinstance(f.value, ast.Name) and f.value.id == "self"
                    ):
                        found.append(f"{owner}.{name}")
                        break
            inner = child.name if isinstance(child, ast.ClassDef) else module if isinstance(child, funcs) else owner
            todo.append((child, inner))
    return sorted(found)


def test_only_the_listed_walkers_call_themselves():
    found = [name for path in MODULES for name in self_calling(path.stem, path.read_text())]
    assert sorted(found) == sorted(RECURSIVE)


def test_scan_finds_a_self_calling_helper():
    source = (
        "def walk(t):\n    return [walk(c) for c in t]\n\n"
        "def loop(t):\n    todo = [t]\n    while todo:\n        todo += todo.pop()\n\n"
        "def outer(n):\n    def inner(n):\n        return inner(n - 1) if n else outer\n    return inner(n)\n\n"
        "class C:\n"
        "    def visit(self, t):\n        return [self.visit(c) for c in t]\n\n"
        "    def show(self, t):\n        return t.show() + str(show)\n"
    )
    assert self_calling("m", source) == ["C.visit", "m.inner", "m.walk"]


def missing_citations(text: str, sources: list) -> list:
    """The test names ``text`` cites (``test_…``, not a module path such
    as ``tests/test_mux.py``) that no function of ``sources`` defines."""
    cited = set(re.findall(r"(?<![\w/.])test_\w+\b(?!\.py)", text))
    defined = {
        node.name
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return sorted(cited - defined)


def test_the_readme_cites_only_defined_tests():
    # A cost contract names the test that holds it; the name must not
    # outlive the test.
    sources = [path.read_text() for path in sorted((ROOT / "tests").rglob("*.py"))]
    assert missing_citations((ROOT / "README.md").read_text(), sources) == []


def test_the_modules_cite_only_defined_tests():
    # The trie and mux docstrings repeat the README's cost contracts and
    # cite the same tests.
    sources = [path.read_text() for path in sorted((ROOT / "tests").rglob("*.py"))]
    assert {path.name: missing_citations(path.read_text(), sources) for path in MODULES} == {
        path.name: [] for path in MODULES
    }


def test_scan_finds_a_missing_citation():
    text = "Held by `test_kept` and `test_gone`; see `tests/test_mod.py::test_moved` and test_mod.py."
    sources = ["def test_kept():\n    pass\n", "class T:\n    def test_other(self):\n        pass\n"]
    assert missing_citations(text, sources) == ["test_gone", "test_moved"]
