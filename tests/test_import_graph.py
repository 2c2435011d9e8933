"""Layering of the package, read from the import statements of ``src``.

The model layers (schedules, states, oscillator, tls, crossings) import
nothing from the checking layers (metrics, oracle, verify).  The oracle stays
independent of the closed forms it checks: it may take state classes and
constants from ``oscillator`` and ``tls`` but no function.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import mpemba_qsim

SRC = Path(mpemba_qsim.__file__).parent
MODEL_LAYERS = ("schedules", "states", "oscillator", "tls", "crossings")
CHECK_LAYERS = {"metrics", "oracle", "verify"}


def package_imports(module: str) -> list[tuple[str, str | None]]:
    """(package module, imported name or None for the module itself) for every import in ``module``."""
    found = []
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("mpemba_qsim"):
                continue
            base = (node.module or "").removeprefix("mpemba_qsim").lstrip(".")
            for alias in node.names:
                found.append((alias.name, None) if not base else (base, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mpemba_qsim."):
                    found.append((alias.name.split(".")[1], None))
    return found


@pytest.mark.parametrize("module", MODEL_LAYERS)
def test_model_layers_import_no_checking_layer(module):
    assert {target for target, _ in package_imports(module)} & CHECK_LAYERS == set()


def test_oracle_imports_no_closed_form_function():
    for target, name in package_imports("oracle"):
        if target not in ("oscillator", "tls"):
            continue
        assert name is not None, f"oracle imports the whole {target} module"
        obj = getattr(importlib.import_module(f"mpemba_qsim.{target}"), name)
        assert not inspect.isroutine(obj), f"oracle imports the function {target}.{name}"


def test_imports_are_read_from_every_spelling():
    # guards the reader above: a relative module import, a relative name import
    # and an absolute one are all seen
    assert ("oscillator", "Fock") in package_imports("oracle")
    assert ("tls", None) in package_imports("verify")
    assert ("schedules", "check_cos2") in package_imports("tls")
