import tsocbmc


def test_every_exported_name_resolves():
    missing = [name for name in tsocbmc.__all__ if not hasattr(tsocbmc, name)]
    assert missing == []
    assert len(set(tsocbmc.__all__)) == len(tsocbmc.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from tsocbmc import *", namespace)
    assert set(tsocbmc.__all__) <= set(namespace)
