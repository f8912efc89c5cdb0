"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["sphmark", "sphmark.coupling",
                                    "sphmark.harmonics", "sphmark.grid",
                                    "sphmark.so3"])
def test_all_names_resolve_and_star_import_works(module):
    mod = importlib.import_module(module)
    assert mod.__all__ and len(set(mod.__all__)) == len(mod.__all__)
    for name in mod.__all__:
        assert hasattr(mod, name), "%s.__all__ names missing %r" % (module, name)
    namespace = {}
    exec("from %s import *" % module, namespace)
    assert set(mod.__all__) <= set(namespace)
