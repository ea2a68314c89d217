"""The package's export list."""

import eisencount


def test_every_export_resolves():
    missing = [name for name in eisencount.__all__
               if not hasattr(eisencount, name)]
    assert missing == []
    assert len(set(eisencount.__all__)) == len(eisencount.__all__)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from eisencount import *", namespace)
    assert set(eisencount.__all__) <= set(namespace)
