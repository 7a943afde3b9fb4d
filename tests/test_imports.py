"""No unused module-level imports in src/ or tests/, and no name in src/ that
only tests read (stdlib ast, no linter)."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import omni

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


def _reads_outside_own_definition(path):
    """(name, owner) for each ast.Name or ast.Attribute read in the module,
    where owner is the name of the top-level function or class it sits
    in, or None."""
    tree = ast.parse(path.read_text(), str(path))
    reads = set()
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for n in ast.walk(stmt):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.add((n.id, owner))
            elif isinstance(n, ast.Attribute):
                reads.add((n.attr, owner))
    return reads


def _modules():
    return [p for p in sorted((ROOT / "src" / "omni").glob("*.py")) if p.name != "__init__.py"]


def _uncalled(names):
    """The names that no code in src/omni reads outside their own
    definition and that bench/ never reads."""
    read = set()
    for path in _modules():
        read |= {name for name, owner in _reads_outside_own_definition(path) if owner != name}
    for path in sorted((ROOT / "bench").glob("*.py")):
        read |= {name for name, _ in _reads_outside_own_definition(path)}
    return [name for name in names if name not in read]


def test_every_exported_function_and_class_has_a_caller():
    # a public name only tests call is API the package does not need
    exported = [
        name
        for name in omni.__all__
        if inspect.isfunction(getattr(omni, name)) or inspect.isclass(getattr(omni, name))
    ]
    assert len(exported) > 30
    assert _uncalled(exported) == []


def test_every_public_function_and_class_in_src_has_a_caller():
    # the same rule for public helpers that omni.__all__ leaves out
    defined = [
        (path.stem, node.name)
        for path in _modules()
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(defined) > 50
    uncalled = set(_uncalled(name for _, name in defined))
    assert [f"{module}.{name}" for module, name in defined if name in uncalled] == []


def test_every_method_in_src_has_a_caller():
    # the same rule for methods; Python calls the dunders, and a method a
    # base class already defines (cli._Parser.error) is called through it
    defined = []
    for path in _modules():
        module = importlib.import_module(f"omni.{path.stem}")
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                defined += [
                    (f"{path.stem}.{node.name}", f.name)
                    for f in node.body
                    if isinstance(f, ast.FunctionDef)
                    and not f.name.startswith("__")
                    and not any(hasattr(base, f.name) for base in bases)
                ]
    assert len(defined) > 10
    uncalled = set(_uncalled(name for _, name in defined))
    assert [f"{owner}.{name}" for owner, name in defined if name in uncalled] == []


_FETCH = re.compile(r"(\w+)\[(\w+)\] \* 3 \+ \1\[\2 \+ 1\]|3 \* (\w+)\[(\w+)\] \+ \3\[\4 \+ 1\]")


def _decoders(path):
    """Names of the functions in the module that decode an instruction,
    the fetch tape[ip] * 3 + tape[ip + 1] on any names."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        f.name
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        and any(isinstance(n, ast.BinOp) and _FETCH.fullmatch(ast.unparse(n)) for n in ast.walk(f))
    ]


def test_one_fetch_decode_loop():
    # every run goes through machine._resume: a second copy of the loop
    # would need its own loop record, kept in step with the first
    decoders = [
        f"{path.name}:{name}"
        for path in sorted((ROOT / "src" / "omni").glob("*.py"))
        for name in _decoders(path)
    ]
    assert decoders == ["machine.py:_resume"]


def _tape_reads(path):
    """(line, function) for each read of a square, tape[...] in Load
    context, in the module's functions."""
    tree = ast.parse(path.read_text(), str(path))
    return [
        (n.lineno, f.name)
        for f in ast.walk(tree)
        if isinstance(f, ast.FunctionDef)
        for n in ast.walk(f)
        if isinstance(n, ast.Subscript)
        and isinstance(n.ctx, ast.Load)
        and isinstance(n.value, ast.Name)
        and n.value.id == "tape"
    ]


def test_only_the_loop_reads_a_tape_square():
    # callers hand the machine text, and only machine._resume reads what a
    # square holds: a read anywhere else decodes behind the loop's back in
    # a form the fetch pattern above does not match
    reads = [
        (path.name, line, name)
        for path in sorted((ROOT / "src" / "omni").glob("*.py"))
        for line, name in _tape_reads(path)
    ]
    assert {(path, name) for path, _, name in reads} >= {("machine.py", "_resume")}
    assert [f"{path}:{line}: {name}" for path, line, name in reads if name != "_resume"] == []
