"""The package's public names."""

import importlib

import pytest

MODULES_WITH_ALL = ("exact_core", "free_algebra", "nc_series", "frobenius", "juhl_core", "backends")


@pytest.mark.parametrize("name", MODULES_WITH_ALL)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"juhlkit.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
