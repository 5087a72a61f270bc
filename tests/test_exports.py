"""The package's public names: ``from padicgeo import *`` must not fail."""

import padicgeo


def test_every_exported_name_resolves_once():
    names = padicgeo.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(padicgeo, n)] == []
