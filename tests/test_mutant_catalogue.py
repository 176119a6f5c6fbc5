"""The mutation catalogue (``tests/mutants.py``) fits the checkout: every
mutant is a distinct edit that applies at exactly one place, and every test
file and test it names exists, each of its killers a test's node id. This
runs no mutant; ``python tests/mutants.py`` does."""

import ast
import functools

import pytest

from mutants import MUTANTS, ROOT


def test_names_are_unique():
    names = [mutant.name for mutant in MUTANTS]
    assert len(set(names)) == len(names)


def test_edits_are_distinct():
    edits = [(mutant.file, mutant.old, mutant.new) for mutant in MUTANTS]
    assert len(set(edits)) == len(edits)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1


@functools.lru_cache(maxsize=None)
def node_names(test_file: str) -> frozenset:
    """The node-id suffixes of a test file's module-level functions and
    classes, and of its classes' methods (``TestX::test_y``)."""
    names = set()
    for node in ast.parse((ROOT / test_file).read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}::{item.name}"
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            )
    return frozenset(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_named_tests_exist(mutant):
    assert mutant.tests
    assert all("::" in killer for killer in mutant.killers)
    for test in mutant.tests + mutant.killers:
        test_file, _, node = test.partition("::")
        path = ROOT / test_file
        assert path.is_file() and path.name.startswith("test_"), test
        if node:
            assert node in node_names(test_file), test
