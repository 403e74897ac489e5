"""Every private helper in the package has a caller in the package: a
helper that only tests call is dead code."""

import ast
from pathlib import Path

import spgraphs


def _defined_names(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)]


def _referenced_names(tree):
    """Every name read, attribute taken or name imported within ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_module_name_is_referenced_in_the_package():
    statements = [
        (path.name, top)
        for path in sorted(Path(spgraphs.__file__).parent.glob("*.py"))
        for top in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    users = {}
    for _, top in statements:
        for name in set(_referenced_names(top)):
            users.setdefault(name, []).append(top)
    # a reference inside the definition itself (a recursive call) does
    # not count
    dead = [
        f"{module}: {name}"
        for module, top in statements
        for name in _defined_names(top)
        if name.startswith("_") and not name.startswith("__")
        and all(user is top for user in users.get(name, []))
    ]
    assert dead == []
