import sys
from pathlib import Path

import pytest

import signeddom.solvers as solvers

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def degree_order_builds(monkeypatch):
    """The graphs the solvers build a DegreeOrder for, in build order."""
    built = []

    class Counted(solvers.DegreeOrder):
        __slots__ = ()

        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(solvers, "DegreeOrder", Counted)
    return built
