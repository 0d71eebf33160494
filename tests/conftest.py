import sys
from pathlib import Path

import pytest

import signeddom.solvers as solvers

# Make the sibling oracles module importable from every test file.
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def route_builds(monkeypatch):
    """(route class name, graph) for every route the solvers build, in build order."""
    built = []
    for route in (solvers.SearchRoute, solvers.ForestRoute):

        def __init__(self, g, *args, route=route):
            built.append((type(self).__name__, g))
            route.__init__(self, g, *args)

        counted = type(route.__name__, (route,), {"__slots__": (), "__init__": __init__})
        monkeypatch.setattr(solvers, route.__name__, counted)
    return built
