import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def chain_builds(monkeypatch):
    """The base hint of every stabilizer chain laid out from here on, in
    call order: each StabilizerChain.build, and the chain that a group
    which does not know its order grows for its closure, which only a
    fallback completes by the deterministic pass."""
    from twoclosure.group import StabilizerChain
    grow = StabilizerChain._grow
    hints = []

    def counted(self, gens, base_hint=(), *args, **kwargs):
        hints.append(tuple(base_hint))
        return grow(self, gens, base_hint, *args, **kwargs)

    monkeypatch.setattr(StabilizerChain, "_grow", counted)
    return hints


@pytest.fixture
def passes(monkeypatch):
    """The base of every chain the deterministic Schreier-Sims pass runs
    on from here on, in call order."""
    from twoclosure.group import StabilizerChain
    schreier_sims = StabilizerChain._schreier_sims
    bases = []

    def counted(self):
        bases.append(tuple(self.base()))
        return schreier_sims(self)

    monkeypatch.setattr(StabilizerChain, "_schreier_sims", counted)
    return bases
