"""Checks on the package and the suite themselves: the public API is exactly what
svetbound/__init__.py exports, and neither the library nor the shared test
helpers hold an assert."""

import ast
import types
from pathlib import Path

import pytest

import svetbound

SUPPORT = Path(__file__).resolve().parent / "support.py"
LIBRARY = sorted(Path(svetbound.__file__).parent.glob("*.py"))


def test_all_is_sorted_unique_and_resolves():
    names = svetbound.__all__
    assert names == sorted(set(names))
    for name in names:
        assert hasattr(svetbound, name), name


def test_all_equals_the_public_names_bound():
    bound = {
        name
        for name, value in vars(svetbound).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(svetbound.__all__) == bound


def _assert_lines(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_support_holds_no_assert():
    # pytest rewrites assert only in test modules, so python -O strips any
    # assert in support.py and the suite would pass without the check.
    assert _assert_lines(SUPPORT) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda path: path.name)
def test_library_holds_no_assert(path):
    # python -O strips assert, so no library invariant may rest on one.
    assert _assert_lines(path) == []
