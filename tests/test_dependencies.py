"""The package imports only the standard library and its declared
dependencies, numpy and scipy."""

from __future__ import annotations

import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
THIRD_PARTY = {"numpy", "scipy"}


def _imported_packages(path):
    """Top-level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_stdlib_numpy_scipy(path):
    allowed = THIRD_PARTY | set(sys.stdlib_module_names)
    assert sorted(set(_imported_packages(path)) - allowed) == []


def test_declared_dependencies_are_numpy_and_scipy():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", d)[0] for d in deps} == THIRD_PARTY
