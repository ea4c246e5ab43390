"""The package's public surface: ``spintip.__all__`` names exactly what it exports."""

import types

import spintip


def test_all_is_sorted_without_duplicates():
    assert spintip.__all__ == sorted(set(spintip.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in spintip.__all__ if not hasattr(spintip, name)]
    assert missing == []


def test_all_lists_every_public_name_that_is_not_a_module():
    public = {
        name
        for name, value in vars(spintip).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(spintip.__all__) == public
