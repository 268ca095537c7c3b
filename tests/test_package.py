"""The package namespace names only modules that exist."""
from __future__ import annotations

import importlib

import pytest

import faultmech


@pytest.mark.parametrize("name", faultmech.__all__)
def test_every_public_name_imports(name):
    assert getattr(faultmech, name) is importlib.import_module(f"faultmech.{name}")
