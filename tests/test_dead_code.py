"""No public top-level function or class, and no module constant, in the package goes unused.

A function or class is in use when code in ``src`` refers to it (its own
module included), when the package exports it in ``__all__``, or when KEEP
names it with the reason it stays.  A helper that only tests call belongs in
the tests.  An UPPER_CASE module-level constant, private ones included, is in
use when code in ``src`` reads it; assigning it does not count.
"""

import ast
from pathlib import Path

import mpemba_qsim

SRC = Path(mpemba_qsim.__file__).parent
KEEP: dict[str, str] = {}


def _read_names(trees) -> set[str]:
    names = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _checked_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id


def unused_definitions(trees=None) -> list[str]:
    if trees is None:
        trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = _read_names(trees)
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _checked_definitions(tree)
        if name not in read and name not in mpemba_qsim.__all__
    ]


def test_every_public_definition_is_used_or_kept():
    assert [name for name in unused_definitions() if name.split(".")[1] not in KEEP] == []


def test_keep_list_names_only_unused_definitions():
    # an entry whose name gained a user, or lost its definition, is stale
    assert sorted(name.split(".")[1] for name in unused_definitions()) == sorted(KEEP)


def test_unread_constants_are_flagged():
    source = "USED = 1\nUNUSED = 2\n_PRIVATE_UNUSED = 3\n_helper = 4\n\n\ndef f():\n    return USED\n"
    assert unused_definitions({"m": ast.parse(source)}) == ["m.UNUSED", "m._PRIVATE_UNUSED", "m.f"]
