"""The package's public names: each one in ``ctxesc.__all__`` resolves, so a
stale lazy-export entry fails here and not in a user's import."""

import ctxesc


def test_every_public_name_resolves():
    assert len(set(ctxesc.__all__)) == len(ctxesc.__all__)
    for name in ctxesc.__all__:
        assert getattr(ctxesc, name) is not None, name
