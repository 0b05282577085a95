"""Every function, class and method the package defines has a caller in the
package, and every name a module imports or assigns at top level is read in
it. A definition that only tests or the __init__ re-export name is a path no
package caller takes, and a name nothing reads is a leftover; either should
go, or be used."""

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
    docstrings, import lists and assignment targets are not read, so they do
    not count."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def package_trees() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def test_every_definition_has_a_package_caller():
    trees = package_trees()
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


def module_level_names(tree: ast.Module) -> tuple[list[str], list[str]]:
    """The names that a module's top-level statements import, and those they
    assign; a __future__ import is a compiler directive, not a name."""
    imported, assigned = [], []
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported += [(alias.asname or alias.name).partition(".")[0] for alias in node.names]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return imported, assigned


def test_every_module_level_name_is_read_in_the_package():
    # A name that nothing reads is a leftover: an import whose last use in
    # its module went, or a constant or rule that no module reads any more.
    # An import is read where it is made; an assigned name, in any module,
    # by name or as an attribute. __init__ only re-exports, so it is exempt.
    trees = package_trees()
    package_reads = sum((referenced_names(tree) for tree in trees.values()), Counter())
    unread = []
    for file, tree in sorted(trees.items()):
        if file == "__init__.py":
            continue
        imported, assigned = module_level_names(tree)
        module_reads = referenced_names(tree)
        for names, reads in ((imported, module_reads), (assigned, package_reads)):
            unread += [f"{file} {n}" for n in names if not DUNDER.fullmatch(n) and not reads[n]]
    assert unread == []


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
