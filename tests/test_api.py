"""The package's public names: everything exported resolves."""

import snoic


def test_every_exported_name_resolves():
    missing = [name for name in snoic.__all__ if not hasattr(snoic, name)]
    assert missing == []
    assert len(set(snoic.__all__)) == len(snoic.__all__)


def test_star_import_succeeds():
    namespace: dict = {}
    exec("from snoic import *", namespace)
    assert set(snoic.__all__) <= set(namespace)
