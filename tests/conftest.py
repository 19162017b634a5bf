import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def chain_builds(monkeypatch):
    """The base hint of every StabilizerChain.build call from here on,
    in call order."""
    from twoclosure.group import StabilizerChain
    build = StabilizerChain.build.__func__
    hints = []

    def counted(cls, gens, degree, base_hint=(), **kwargs):
        hints.append(tuple(base_hint))
        return build(cls, gens, degree, base_hint=base_hint, **kwargs)

    monkeypatch.setattr(StabilizerChain, "build", classmethod(counted))
    return hints
