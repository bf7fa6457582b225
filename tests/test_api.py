import powertalk


def test_every_public_name_resolves_once():
    names = powertalk.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(powertalk, name)]
    assert missing == []
