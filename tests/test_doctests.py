"""The docstring examples of every aschur module."""
import doctest
import importlib
import pkgutil

import pytest

import aschur

MODULES = ["aschur"] + [m.name for m in pkgutil.iter_modules(aschur.__path__, "aschur.")]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    assert doctest.testmod(importlib.import_module(name)).failed == 0
