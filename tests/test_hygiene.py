"""Source hygiene: every imported name is used.

An AST scan of ``src/`` and ``tests/``; a name listed in a module's
``__all__`` counts as used (it is re-exported).
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


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
