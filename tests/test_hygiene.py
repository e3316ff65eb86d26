"""Source hygiene: every imported name is used, every definition in
``src/`` is used somewhere, and ``src/`` never catches every exception.

Three AST scans.  The import scan covers ``src/`` and ``tests/``; a name
listed in a module's ``__all__`` counts as used (it is re-exported).  The
definition scan flags a top-level function or class, or a non-dunder
method, of ``src/`` whose name occurs nowhere in ``src/`` or
``perfbench/`` as a name, an attribute or a string constant (the
benchmark looks its trace targets up by string); a definition that only
tests call is dead code.  The catch-all scan
flags a bare ``except``, ``except Exception`` and ``except BaseException``
in ``src/``: the CLI maps typed errors to exit codes, and a catch-all would
turn a bug into a user error.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src").rglob("*.py"))
SOURCES = SRC + sorted((ROOT / "tests").rglob("*.py"))
USERS = SRC + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}"
            for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_scan_sees_unused_and_reexported_names():
    tree = ast.parse("import os\nfrom a import b, c as d\nfrom .e import f\n"
                     "__all__ = ['f']\nprint(d)\n")
    assert unused_imports(tree) == ["line 1: os", "line 2: b"]


def test_no_unused_imports():
    assert SOURCES
    found = {str(path.relative_to(ROOT)): unused_imports(ast.parse(path.read_text()))
             for path in SOURCES}
    assert {path: names for path, names in found.items() if names} == {}


def definitions(tree: ast.Module) -> list[tuple[str, str]]:
    """(qualified name, name) of top-level functions and classes and of
    non-dunder methods."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{item.name}", item.name) for item in node.body
                     if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not (item.name.startswith("__") and item.name.endswith("__"))]
    return defs


def uses(tree: ast.Module) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unused_definitions(defining: dict, using: list) -> list[str]:
    used = set().union(*(uses(tree) for tree in using))
    return [f"{path}: {qualname}" for path, tree in defining.items()
            for qualname, name in definitions(tree) if name not in used]


def test_definition_scan_sees_names_attributes_and_strings():
    tree = ast.parse("def a(): pass\ndef b(): pass\ndef c(): pass\ndef d(): pass\n"
                     "class E:\n    def __init__(self): pass\n    def f(self): pass\n"
                     "    def g(self): pass\n"
                     "a()\nx.b\nTARGETS = ['c']\nE().f()\n")
    assert unused_definitions({"m.py": tree}, [tree]) == ["m.py: d", "m.py: E.g"]


def test_no_unused_definitions():
    assert SRC
    defining = {str(path.relative_to(ROOT)): ast.parse(path.read_text()) for path in SRC}
    assert unused_definitions(defining, [ast.parse(p.read_text()) for p in USERS]) == []


CATCH_ALL = {"Exception", "BaseException"}


def catch_alls(tree: ast.Module) -> list[int]:
    """Lines of the handlers that catch every exception."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or isinstance(t, ast.Name) and t.id in CATCH_ALL
                   for t in caught):
                lines.append(node.lineno)
    return lines


def test_catch_all_scan_sees_bare_broad_and_tuple_handlers():
    tree = ast.parse("try: pass\nexcept: pass\n"
                     "try: pass\nexcept (OSError, Exception): pass\n"
                     "try: pass\nexcept BaseException as e: pass\n"
                     "try: pass\nexcept (OSError, ValueError): pass\n")
    assert catch_alls(tree) == [2, 4, 6]


def test_no_catch_all_except_in_src():
    assert SRC
    found = {str(path.relative_to(ROOT)): catch_alls(ast.parse(path.read_text()))
             for path in SRC}
    assert {path: lines for path, lines in found.items() if lines} == {}
