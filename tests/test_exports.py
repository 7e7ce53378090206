import ast
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import pytest

import madness

MODULES = ["madness"] + [
    "madness." + info.name for info in pkgutil.iter_modules(madness.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, "%s.__all__ names what it does not define: %s" % (module_name, missing)


# Exported as a reference for the tests rather than for the program: the
# solver-only buildable count of the universal module.
READ_ONLY_BY_TESTS = {"buildable_count_direct"}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_class_annotation_resolves(module_name):
    """``typing.get_type_hints`` resolves each class the module defines: no
    annotation names what the module does not import."""
    module = importlib.import_module(module_name)
    classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module_name]
    for cls in classes:
        typing.get_type_hints(cls)


def _names_read(tree):
    """Every name the code of ``tree`` reads, imports or looks up as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_exported_name_is_read():
    """Each name in a module's __all__ is read by the program: by another
    module, by its own module beyond its definition, or by ``madness`` as a
    re-export.  A name only its own tests read is an unused helper."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(madness.__file__).parent.glob("*.py")
    }
    read = {stem: _names_read(tree) for stem, tree in trees.items()}
    unread = []
    for stem in sorted(trees):
        module = importlib.import_module("madness" if stem == "__init__" else "madness." + stem)
        for name in getattr(module, "__all__", []):
            if name in madness.__all__ or name in READ_ONLY_BY_TESTS:
                continue
            if not any(name in names for names in read.values()):
                unread.append("%s.%s" % (module.__name__, name))
    assert not unread, "exported but read by nothing in the program: %s" % unread


def _private_definitions(tree):
    """(name, statement) for each module-level name of ``tree`` with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            names = []
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_read():
    """Each module-level private name is read by the program outside its own
    definition: as a name, an attribute or an import.  One that nothing
    reads, such as a helper left behind by a rewrite, is dead code."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(madness.__file__).parent.glob("*.py")
    ]
    statements = [(node, _names_read(node)) for tree in trees for node in tree.body]
    unread = sorted(
        name
        for tree in trees
        for name, definition in _private_definitions(tree)
        if not any(name in read for node, read in statements if node is not definition)
    )
    assert not unread, "defined but read by nothing in the program: %s" % unread
