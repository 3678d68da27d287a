"""The package's public surface: every exported name resolves."""

import kendallcodes


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from kendallcodes import *", namespace)
    assert [name for name in kendallcodes.__all__ if name not in namespace] == []
    assert len(set(kendallcodes.__all__)) == len(kendallcodes.__all__)
