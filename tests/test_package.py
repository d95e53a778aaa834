import su21


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from su21 import *", namespace)  # raises AttributeError on a stale name
    assert sorted(set(su21.__all__)) == sorted(su21.__all__)
    assert [name for name in su21.__all__ if name not in namespace] == []
    # helpers that only tests called live in tests/helpers.py
    for removed in ("order_of_last_coordinate", "central_commutator_witness"):
        assert not hasattr(su21, removed)
