import csneighborly


def test_every_public_name_resolves():
    # a name in __all__ that the package does not define makes the star
    # import raise AttributeError
    namespace = {}
    exec("from csneighborly import *", namespace)
    assert set(csneighborly.__all__) <= namespace.keys()
    assert len(set(csneighborly.__all__)) == len(csneighborly.__all__)
