import sys
from pathlib import Path

import pytest

import signeddom.audit as audit_mod
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


@pytest.fixture
def violate_thm3_3(monkeypatch):
    """A call that makes thm3_3 read n + 2 from then on: 8 on C6, above gamma_s = 2."""
    real = audit_mod.lb_max_degree_domination

    def raised(profile, gamma):
        b = real(profile, gamma)
        b.tightened = profile.n + 2
        return b

    return lambda: monkeypatch.setattr(audit_mod, "lb_max_degree_domination", raised)
