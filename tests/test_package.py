import mazeswitch


def test_every_public_name_resolves_and_star_import_works():
    missing = [name for name in mazeswitch.__all__ if not hasattr(mazeswitch, name)]
    assert missing == []
    namespace = {}
    exec("from mazeswitch import *", namespace)
    assert set(mazeswitch.__all__) <= set(namespace)
