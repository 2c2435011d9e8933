"""No public top-level function or class in the package goes unused.

A definition is in use when code in ``src`` refers to it (its own module
included), when the package exports it in ``__all__``, or when KEEP names it
with the reason it stays.  A helper that only tests call belongs in the tests.
"""

import ast
from pathlib import Path

import mpemba_qsim

SRC = Path(mpemba_qsim.__file__).parent
KEEP = {
    "validate_density_matrix": "the density-matrix check the tests run on every evolved state",
    "tabulated_from_csv": "documented library API for user-supplied cos^2 profiles",
    "crossing_cos_phi": "analytic crossing phase for the planned phase-space crossing engine",
}


def unused_public_definitions() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in referenced
        and node.name not in mpemba_qsim.__all__
    ]


def test_every_public_definition_is_used_or_kept():
    assert [name for name in unused_public_definitions() if name.split(".")[1] not in KEEP] == []


def test_keep_list_names_only_unused_definitions():
    # an entry whose name gained a user, or lost its definition, is stale
    assert sorted(name.split(".")[1] for name in unused_public_definitions()) == sorted(KEEP)
