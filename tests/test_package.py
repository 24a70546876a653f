from types import ModuleType

import csneighborly


def test_every_public_name_resolves():
    # a name in __all__ that the package does not define makes the star
    # import raise AttributeError
    namespace = {}
    exec("from csneighborly import *", namespace)
    assert set(csneighborly.__all__) <= namespace.keys()
    assert len(set(csneighborly.__all__)) == len(csneighborly.__all__)


def test_every_imported_name_is_public():
    # the star import brings in each name the package imports from its
    # modules, lp_max among them
    namespace = {}
    exec("from csneighborly import *", namespace)
    assert "lp_max" in namespace
    imported = {name for name, value in vars(csneighborly).items()
                if not name.startswith("_")
                and not isinstance(value, ModuleType)}
    assert imported <= namespace.keys()
