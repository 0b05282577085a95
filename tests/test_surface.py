"""Every function, class and method the package defines has a caller in the
package. A definition that only tests or the __init__ re-export name is a path
no package caller takes; it should go, or be called."""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

import repopsim

PACKAGE = Path(repopsim.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)
DUNDER = re.compile(r"__\w+__")


def referenced_names(tree: ast.AST) -> Counter:
    """Names read as a bare name or as an attribute anywhere in tree. Strings,
    docstrings and import lists are not Name or Attribute nodes, so they do not
    count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_every_definition_has_a_package_caller():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    # A re-export in __init__ makes a name public; it does not call it.
    references = sum(
        (referenced_names(tree) for name, tree in trees.items() if name != "__init__.py"),
        Counter(),
    )
    uncalled = []
    for file, tree in sorted(trees.items()):
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or DUNDER.fullmatch(node.name):
                continue  # the language calls a dunder
            # A call from inside its own body, such as recursion, is not a caller.
            if references[node.name] - referenced_names(node)[node.name] <= 0:
                uncalled.append(f"{file}:{node.lineno} {node.name}")
    assert uncalled == []


# Handlers that would catch a TypeError: by name, or through a base class of it.
TYPE_ERROR_CATCHERS = {"TypeError", "Exception", "BaseException"}


def test_no_module_catches_a_type_error():
    # An input guard tests each value's type and range itself and calls its
    # named rule; none may lean on a comparison raising TypeError instead.
    catching = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            # A bare except catches everything; a name is read as a Name or an Attribute.
            names = {getattr(c, "id", getattr(c, "attr", None)) for c in caught if c}
            if node.type is None or names & TYPE_ERROR_CATCHERS:
                catching.append(f"{path.name}:{node.lineno}")
    assert catching == []


# The steps of a course that check none of their inputs, each with the one
# place outside its own definition that may name it: (file, enclosing
# function, or None for anywhere in that file).
UNCHECKED_STEPS = {
    "growth_day_detail": ("schedule.py", None),
    "apply_division": ("growth.py", "growth_day_detail"),
}


def mentions(node: ast.AST, name: str) -> int:
    """How often node, or a node under it, reads name or imports it."""
    imports = sum(
        alias.name == name
        for child in ast.walk(node)
        if isinstance(child, (ast.Import, ast.ImportFrom))
        for alias in child.names
    )
    return referenced_names(node)[name] + imports


def test_each_unchecked_step_has_one_caller():
    # simulate_course hands growth_day_detail checked floats, and
    # growth_day_detail hands apply_division its own: no other package path,
    # the top-level exports included, may pass them an outside input.
    stray = [f"repopsim.{name}" for name in UNCHECKED_STEPS if hasattr(repopsim, name)]
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        for name, (home, caller) in UNCHECKED_STEPS.items():
            if path.name == home and caller is None:
                continue
            count = mentions(tree, name)
            if name in functions:  # its own definition
                count -= mentions(functions[name], name)
            if path.name == home:
                count -= mentions(functions[caller], name)
            if count:
                stray.append(f"{path.name}: {name} named {count} times")
    assert stray == []
