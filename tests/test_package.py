"""The package's public name list."""

import bigs


def test_every_exported_name_imports():
    assert len(set(bigs.__all__)) == len(bigs.__all__)
    for name in bigs.__all__:
        assert hasattr(bigs, name), name


def test_removed_aliases_are_not_exported():
    for name in ("enumerate_design", "exclusion_probability", "modified_ht_acs"):
        assert name not in bigs.__all__
        assert not hasattr(bigs, name)
