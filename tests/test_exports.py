"""The package's public names."""

import lfock


def test_every_export_resolves_once():
    assert len(lfock.__all__) == len(set(lfock.__all__))
    missing = [name for name in lfock.__all__ if not hasattr(lfock, name)]
    assert missing == []
