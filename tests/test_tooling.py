"""Checks on the package's source as a whole, read by ``ast``, and on the
names that its docstrings and the README cite."""

import ast
import importlib
import pathlib
import re

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
    assert "exact.py" in trees
    unused = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree).items():
            used = any(name in _references(other, [node] if other is tree else [])
                       for other in trees.values())
            if not used:
                unused.append(f"{module}:{name}")
    assert unused == []


ROOT = PACKAGE.parent.parent

#: Public names that nothing reads yet but the unit tests, each with the
#: roadmap item that gives it a reader; the check fails once one gains it.
NO_READER_YET = {
    "c_lower_bound_eq11": "ROADMAP item 4: the exact equalizer prints eq11's bound",
}


def _exports():
    """The names ``qdetect`` exports, each with the module that defines it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name: node.module for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _defines(node, name):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name == name
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == name for t in node.targets)


def test_every_public_name_is_read_beyond_the_unit_tests():
    # a public name is read by package code (the CLI included), a demo, an
    # acceptance criterion or the benchmark, outside its own definition
    readers = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
               *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    trees = {path: ast.parse(path.read_text()) for path in readers}
    unread = []
    assert "exact" in _exports().values()  # sr_exact's home
    for name, module in _exports().items():
        home = PACKAGE / f"{module}.py"
        definition = [node for node in trees[home].body if _defines(node, name)]
        assert definition, f"{module}:{name}"
        if not any(name in _references(tree, definition if path == home else [])
                   for path, tree in trees.items()):
            unread.append(name)
    assert sorted(unread) == sorted(NO_READER_YET)


#: A Sphinx role naming a function, method, class, constant or attribute.
ROLE = re.compile(r":(?:func|meth|class|data|attr):`~?([\w.]+)`")
#: A backticked README name in one of the package's modules or on the head-start law.
README_NAME = re.compile(r"`((?:rng|headstart|montecarlo|bayes|joint|exact|formulas|cli|"
                         r"HeadStartLaw)"
                         r"(?:\.\w+)+)")


def _resolves(name, *namespaces):
    """Whether the dotted ``name`` is a chain of attributes of one of ``namespaces``."""
    parts = name.removeprefix("qdetect.").split(".")
    for obj in namespaces:
        for part in parts:
            if not hasattr(obj, part):
                break
            obj = getattr(obj, part)
        else:
            return True
    return False


def test_docs_name_only_live_names():
    # a docstring role resolves against its own module or the package, and a
    # README name against the package; a renamed or deleted helper fails here
    package = importlib.import_module("qdetect")
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"qdetect.{path.stem}")
        docs = [ast.get_docstring(node) or "" for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))]
        dead += [f"{path.name}: {name}" for doc in docs for name in ROLE.findall(doc)
                 if not _resolves(name, module, package)]
    readme = (ROOT / "README.md").read_text()
    dead += [f"README.md: {name}" for name in README_NAME.findall(readme)
             if not _resolves(name, package)]
    assert dead == []
