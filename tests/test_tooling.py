"""Checks on the package's source as a whole, read by ``ast``."""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "qdetect"


def _private_definitions(tree):
    """The module-level private functions and classes of a module, by name."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(tree, skip):
    """The names a module reads, as names or attributes, outside the nodes of ``skip``."""
    inside = {id(node) for top in skip for node in ast.walk(top)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_private_helper_lives_only_for_tests():
    # every private helper is used by package code other than its own body;
    # one that only tests reach is dead code and is deleted
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree).items():
            used = any(name in _references(other, [node] if other is tree else [])
                       for other in trees.values())
            if not used:
                unused.append(f"{module}:{name}")
    assert unused == []
