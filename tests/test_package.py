"""The package namespace names only modules that exist, and each module
declares its public names."""
from __future__ import annotations

import importlib

import pytest

import faultmech


@pytest.mark.parametrize("name", faultmech.__all__)
def test_every_public_name_imports(name):
    assert getattr(faultmech, name) is importlib.import_module(f"faultmech.{name}")


@pytest.mark.parametrize("name", faultmech.__all__)
def test_every_submodule_declares_resolvable_public_names(name):
    module = importlib.import_module(f"faultmech.{name}")
    assert isinstance(module.__all__, list) and module.__all__
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"faultmech.{name}.__all__ lists undefined names {missing}"
