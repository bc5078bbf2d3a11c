import doctest
import importlib
import pkgutil

import pytest

import gapboot

MODULES = sorted(
    f"gapboot.{info.name}" for info in pkgutil.iter_modules(gapboot.__path__)
) + ["gapboot"]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_gb2_has_examples():
    tests = doctest.DocTestFinder().find(importlib.import_module("gapboot.gb2"))
    assert sum(len(t.examples) for t in tests) >= 5
