"""The package surface: every exported name resolves."""

import rgc


def test_every_exported_name_resolves():
    missing = [name for name in rgc.__all__ if not hasattr(rgc, name)]
    assert not missing
    assert len(set(rgc.__all__)) == len(rgc.__all__)


def test_star_import():
    namespace = {}
    exec("from rgc import *", namespace)
    assert set(rgc.__all__) <= set(namespace)
