"""The package surface: every public name resolves on first access to the object its module defines."""

import importlib

import pytest

import scalefit


def test_every_public_name_is_its_defining_modules_object():
    for name in scalefit.__all__:
        value = getattr(scalefit, name)
        module = importlib.import_module(f"scalefit.{scalefit._MODULE_OF[name]}")
        assert getattr(module, name) is value, name
        # The table names the defining module, not one that re-exports the name.
        assert getattr(value, "__module__", module.__name__) == module.__name__, name


def test_dir_covers_all():
    assert set(scalefit.__all__) <= set(dir(scalefit))
    assert "__version__" in dir(scalefit)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from scalefit import *", namespace)
    assert {name: namespace[name] for name in scalefit.__all__} == {
        name: getattr(scalefit, name) for name in scalefit.__all__
    }


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        scalefit.no_such_name
    assert not hasattr(scalefit, "_MODULE_OF_typo")
