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


def _private_definitions(path):
    """(line, name) for each module-level function, class or assignment to
    a plain name whose name starts with one underscore.  Names unpacked
    from a tuple are left out: they lay out a table, such as machine's
    opcode ids, where each position needs a name."""
    tree = ast.parse(path.read_text(), str(path))
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [
        (line, name) for line, name in defined if name.startswith("_") and not name.startswith("__")
    ]


def test_every_private_name_in_src_is_read_in_src():
    # a private name only tests call is a wrapper the package does not need
    files = sorted((ROOT / "src").rglob("*.py"))
    read = set()
    for path in files:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in files
        for line, name in _private_definitions(path)
        if name not in read
    ]
    assert unread == []
