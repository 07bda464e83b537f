import stripgain


def test_star_import_resolves_every_exported_name_once():
    names = stripgain.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from stripgain import *", namespace)
    for name in names:
        assert namespace[name] is getattr(stripgain, name)
