"""Source hygiene of the library, checked by an AST scan.

Every name a module of ``src/synchrolab`` imports is used in that module
(``__init__`` is exempt: its imports are the public re-exports), every
module-level private function or class is referenced somewhere in
``src/`` outside its own definition, and every public module-level
function is either called in ``src/`` or re-exported from ``__init__``,
so no dead helper is left behind.  No function or method is a pure
forward: a body that, after its docstring, is one ``return`` of one call
passing the function's own parameters through unchanged and in order
(a method call's receiver counts as the first) is an alias, and its
callers call the target instead.  Decorated functions (a cache is
behaviour), dunder methods (Python calls them by name) and forwards to
a builtin (``word`` names the library's word type) are not aliases.
Imports sit at module top, never inside a function.  No ``isinstance``
names a shift class: each shift answers through its own methods, and
only ``oracles.py`` reads the marker shifts' names, predicates and
synchronizing patterns.
"""

import ast
import builtins
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "synchrolab"


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _references(node):
    """The names ``node`` loads, the attributes it reads and the names it
    imports from other modules."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        imports = [stmt for stmt in ast.walk(tree)
                   if isinstance(stmt, (ast.Import, ast.ImportFrom))]
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
        for stmt in imports:
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    unused.append(f"{name}:{stmt.lineno} {bound}")
    assert unused == []


def _unreferenced(modules, wanted):
    """``module:line name`` of each module-level definition ``wanted``
    selects that no other top-level statement of ``modules`` references."""
    references = {id(top): _references(top) for tree in modules.values() for top in tree.body}
    statements = Counter(name for names in references.values() for name in names)
    return [f"{name}:{stmt.lineno} {stmt.name}"
            for name, tree in modules.items() for stmt in tree.body
            if wanted(stmt) and statements[stmt.name] == (stmt.name in references[id(stmt)])]


def test_every_private_definition_is_referenced():
    assert _unreferenced(_modules(), lambda stmt: (
        isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__"))) == []


def test_every_public_function_is_called_or_exported():
    # ``__init__``'s imports are the re-exports, and count as references
    assert _unreferenced(_modules(), lambda stmt: (
        isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"))) == []


def _forwarded(call):
    """The names ``call`` passes on, in order: the root of a method call's
    receiver, then each positional argument; None marks anything else."""
    root = call.func
    while isinstance(root, ast.Attribute):
        root = root.value
    passed = [root.id] if call.func is not root and isinstance(root, ast.Name) else []
    passed += [arg.id if isinstance(arg, ast.Name) else None for arg in call.args]
    return passed + [None] * len(call.keywords)


def test_no_function_is_a_pure_forward():
    forwards = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef) or node.decorator_list:
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
            if (not isinstance(call, ast.Call) or node.name.startswith("__")
                    or getattr(call.func, "id", None) in dir(builtins)):
                continue
            params = [a.arg for a in node.args.posonlyargs + node.args.args]
            if _forwarded(call) == params:
                forwards.append(f"{name}:{node.lineno} {node.name}")
    assert forwards == []


def test_no_import_inside_a_function():
    nested = [f"{name}:{sub.lineno}"
              for name, tree in _modules().items() for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for sub in ast.walk(node) if isinstance(sub, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_no_isinstance_dispatch_on_presented_shifts():
    # a shift answers through its own class: a presented shift decides
    # "is an SFT" from its cover, and no module tests a shift's class
    modules = _modules()
    shift_classes = {stmt.name for name in ("shift.py", "oracles.py")
                     for stmt in modules[name].body
                     if isinstance(stmt, ast.ClassDef)
                     and (stmt.name == "Shift" or any(getattr(base, "id", None) == "Shift"
                                                      for base in stmt.bases))}
    assert {"Shift", "PresentedShift", "OracleShift"} <= shift_classes
    lines = {}
    for name, tree in modules.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2):
                for sub in ast.walk(node.args[1]):
                    if isinstance(sub, ast.Name) and sub.id in shift_classes:
                        lines.setdefault(sub.id, set()).add((name, node.lineno))
    assert lines == {}


def test_marker_logic_stays_in_oracles():
    # only oracles.py reads an oracle shift's name or predicate, or the
    # builtins' synchronizing patterns
    readers = []
    for name, tree in _modules().items():
        if name == "oracles.py":
            continue
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Attribute) and sub.attr in ("oracle_name", "predicate"):
                readers.append(f"{name}:{sub.lineno} {sub.attr}")
        if "SYNC_PATTERNS" in _references(tree):
            readers.append(f"{name} SYNC_PATTERNS")
    assert readers == []
