"""The package's public names."""

import elastodtn


def test_every_public_name_resolves():
    missing = [name for name in elastodtn.__all__ if not hasattr(elastodtn, name)]
    assert missing == []
    assert len(set(elastodtn.__all__)) == len(elastodtn.__all__)


def test_star_import():
    namespace = {}
    exec("from elastodtn import *", namespace)
    assert set(elastodtn.__all__) <= set(namespace)
