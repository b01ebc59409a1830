"""The package's public surface."""

import pulsesched


def test_every_public_name_resolves():
    missing = [name for name in pulsesched.__all__ if not hasattr(pulsesched, name)]
    assert missing == []
    assert len(set(pulsesched.__all__)) == len(pulsesched.__all__)
