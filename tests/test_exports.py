import boundprop


def test_every_export_resolves():
    assert len(set(boundprop.__all__)) == len(boundprop.__all__)
    missing = [name for name in boundprop.__all__ if not hasattr(boundprop, name)]
    assert not missing
