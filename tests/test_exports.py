"""The package's export surface: ``bihop.__all__`` against what
``bihop/__init__.py`` imports."""

import ast
from pathlib import Path

import bihop


def imported_names() -> list:
    """Every name ``bihop/__init__.py`` binds by ``from ... import``."""
    tree = ast.parse(Path(bihop.__file__).read_text(encoding="utf-8"))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_all_has_no_duplicates():
    assert len(bihop.__all__) == len(set(bihop.__all__))


def test_every_listed_name_resolves():
    missing = [name for name in bihop.__all__ if not hasattr(bihop, name)]
    assert missing == []


def test_star_import_binds_all():
    namespace = {}
    exec("from bihop import *", namespace)
    assert set(bihop.__all__) <= namespace.keys()


def test_every_public_import_is_listed():
    public = {name for name in imported_names() if not name.startswith("_")}
    assert public - set(bihop.__all__) == set()
