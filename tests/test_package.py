import glocal


def test_every_exported_name_resolves_once():
    names = glocal.__all__
    repeated = sorted({name for name in names if names.count(name) > 1})
    assert not repeated, f"exported more than once: {repeated}"
    missing = [name for name in names if not hasattr(glocal, name)]
    assert not missing, f"exported but not defined: {missing}"
