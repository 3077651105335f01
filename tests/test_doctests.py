"""The examples in the module docstrings run and hold."""

import doctest
import importlib
import pkgutil

import pytest

import curvegerm

MODULES = sorted(m.name for m in pkgutil.iter_modules(curvegerm.__path__, "curvegerm."))


@pytest.mark.parametrize("name", ["curvegerm"] + MODULES)
def test_module_examples_hold(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed in {name}"


def test_the_cyclotomic_examples_run():
    from curvegerm import cyclotomic

    assert doctest.testmod(cyclotomic).attempted >= 6
