"""Every public name in ``src/mevlens`` has a caller in ``src/``: a name that
only tests use is test code, and belongs under ``tests/``."""

import ast
import os

import mevlens

SRC = os.path.dirname(os.path.abspath(mevlens.__file__))

# README's "Python API": the fixtures module and the names documented for
# scripts and tests, which no command calls
ALLOWED_MODULES = {"fixtures"}
ALLOWED = {"cp_pool", "stable_pool", "dump_pool_metadata", "__version__", "NOT_FOUND",
           "p90"}


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(name, line) of each public top-level function, class, class method
    and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    yield target.id, node.lineno


def _references(tree):
    """Every name read as a variable or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unreferenced(sources: dict) -> list:
    """``module.py:line: name`` of each public name that no module of
    ``sources`` (module name -> source text) reads, outside the allow-lists."""
    trees = {module: ast.parse(text, module) for module, text in sources.items()}
    referenced = {name for tree in trees.values() for name in _references(tree)}
    return [f"{module}.py:{line}: {name}"
            for module, tree in trees.items() if module not in ALLOWED_MODULES
            for name, line in _definitions(tree)
            if name not in ALLOWED and name.rpartition(".")[2] not in referenced]


def test_every_public_name_has_a_caller_in_src():
    sources = {}
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
                sources[filename[:-3]] = fh.read()
    assert unreferenced(sources) == []


def test_the_check_sees_each_kind_of_unused_name():
    sources = {
        "a": ("LIMIT = 3\n\n"
              "def used():\n    return Kept().method()\n\n"
              "def unused():\n    pass\n\n"
              "class Kept:\n    def method(self):\n        pass\n\n"
              "    def spare(self):\n        pass\n\n"
              "class Spare:\n    pass\n\n"
              "def _private():\n    pass\n"),
        "b": "from a import used\nused()\nNOT_FOUND = 1\n",
        "fixtures": "def encode():\n    pass\n",
    }
    assert unreferenced(sources) == ["a.py:1: LIMIT", "a.py:6: unused", "a.py:13: Kept.spare",
                                     "a.py:16: Spare"]
