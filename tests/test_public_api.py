"""The package's public surface: ``ecoc.__all__`` and star-imports."""

import ecoc


def test_every_public_name_resolves():
    missing = [name for name in ecoc.__all__ if not hasattr(ecoc, name)]
    assert missing == []
    assert len(set(ecoc.__all__)) == len(ecoc.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from ecoc import *", namespace)
    assert set(ecoc.__all__) <= namespace.keys()
