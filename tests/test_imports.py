"""No unused module-level imports in src/ or tests/ (stdlib ast, no linter)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path):
    """(line, name) for each name a top-level import binds that the module
    never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_unused_module_level_imports():
    # a package's __init__ imports in order to re-export
    files = [
        path
        for tree in ("src", "tests")
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(files) > 10
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in _unused_imports(path)
    ]
    assert unused == []
