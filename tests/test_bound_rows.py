"""The bound section as one row: a sweep's memo of it is exact and no longer-lived than the sweep.

``audit_graph`` evaluates the seven bounds from a few profile counts,
connectivity, and rho, gamma and gamma_s, so a sweep keeps one row per distinct
set of those inputs. A lone audit builds a row of its own, so a swept report
equals the lone audit of its graph, field for field and byte for byte.
"""

import dataclasses

import pytest

import signeddom.audit as audit_mod
from signeddom import (
    BoundViolation,
    CorpusSpec,
    Graph,
    audit_corpus,
    audit_graph,
    cycle_graph,
    iter_corpus,
    path_graph,
    structural_profile,
)

CORPORA = {
    "trees n<=6": [CorpusSpec("trees_exhaustive", 2, 6)],
    "random_connected n=5..9": [CorpusSpec("random_connected", 5, 9, count=20, p=p) for p in (0.3, 0.7)],
    "families n<=12": [CorpusSpec(kind, 1, 12) for kind in ("complete", "path", "cycle", "star")],
}

BOUND_FUNCTIONS = (
    "ub_packing_min_degree",
    "lb_degree_leaves",
    "lb_degree_parity",
    "lb_max_degree_domination",
    "tree_lower_bounds",
)


def _texts(reports) -> list:
    return [(r.csv_row(), r.to_json_text()) for r in reports]


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("name", CORPORA)
def test_sweeps_match_lone_audits(name, jobs):
    for spec in CORPORA[name]:
        lone = [audit_graph(g, graph_id) for graph_id, g in iter_corpus(spec)]
        swept = list(audit_mod._checked_reports(spec, jobs))
        assert swept == lone
        assert _texts(swept) == _texts(lone)
        assert all(r.bounds is r.row.bounds and r.sharp is r.row.sharp for r in swept + lone)
    # The bound section is the row's: a report cannot be handed another.
    with pytest.raises(AttributeError):
        swept[0].bounds = ()


def test_the_memo_key_separates_connected_from_disconnected():
    # C6 and 2K3 agree on every other field of the key, so a key without
    # connectivity would hand the second graph the first one's row.
    graphs = {"C6": cycle_graph(6), "2K3": Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])}
    lone = {name: audit_graph(g, name) for name, g in graphs.items()}
    c6, two_k3 = (dataclasses.asdict(structural_profile(g)) for g in graphs.values())
    assert {k for k in c6 if c6[k] != two_k3[k]} == {"is_connected"}
    assert {(r.rho, r.gamma, r.gamma_s) for r in lone.values()} == {(2, 2, 2)}
    assert all(b.reason == "disconnected" for b, _, _ in lone["2K3"].bounds)
    for order in (("C6", "2K3"), ("2K3", "C6")):
        bound_rows = {}
        reports = [audit_graph(graphs[name], name, bound_rows=bound_rows) for name in order]
        assert len(bound_rows) == 2
        assert reports == [lone[name] for name in order]
        assert _texts(reports) == _texts(lone[name] for name in order)


def _count_calls(monkeypatch, names) -> dict:
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(audit_mod, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(audit_mod, name, counted)
    return calls


def test_a_lone_audit_evaluates_every_bound(monkeypatch):
    calls = _count_calls(monkeypatch, BOUND_FUNCTIONS)
    tree = path_graph(7)  # a tree, so no bound function is skipped
    audit_graph(tree)
    assert calls == dict.fromkeys(BOUND_FUNCTIONS, 1)
    audit_graph(tree)
    assert calls == dict.fromkeys(BOUND_FUNCTIONS, 2)


@pytest.mark.parametrize("jobs", (1, 2))
def test_the_memo_lives_one_sweep(monkeypatch, jobs):
    # A memo kept across sweeps would answer the second sweep from the first
    # and never call the patched bound. Pool workers are forked after the patch.
    spec = CorpusSpec("cycle", 3, 8)
    audit_corpus(spec, jobs=jobs)
    real = audit_mod.lb_max_degree_domination
    monkeypatch.setattr(audit_mod, "lb_max_degree_domination",
                        lambda profile, gamma: dataclasses.replace(real(profile, gamma), tightened=profile.n + 2))
    with pytest.raises(BoundViolation, match="bound thm3_3 violated"):
        audit_corpus(spec, jobs=jobs)


def test_a_full_memo_starts_over(monkeypatch, tmp_path):
    # The 1,441 trees with n <= 6 have 13 distinct bound rows. A memo capped
    # at one row evaluates more of them and writes the same bytes.
    spec = CorpusSpec("trees_exhaustive", 2, 6)

    def sweep(tag, jobs=1):
        paths = tmp_path / f"{tag}.csv", tmp_path / f"{tag}.json"
        audit_corpus(spec, *paths, jobs=jobs)
        return [path.read_bytes() for path in paths]

    calls = _count_calls(monkeypatch, ("tree_lower_bounds",))
    full = sweep("full")
    assert calls["tree_lower_bounds"] == 13
    monkeypatch.setattr(audit_mod, "_BOUND_ROWS_CAP", 1)
    assert sweep("capped") == full
    assert calls["tree_lower_bounds"] > 2 * 13
    assert sweep("capped-pool", jobs=2) == full


def test_a_sweep_renders_each_row_once(monkeypatch, tmp_path):
    # 13 rows x 7 bounds, where rendering every report took 1,441 x 7 = 10,087.
    calls = _count_calls(monkeypatch, ("_bound_text",))
    audit_corpus(CorpusSpec("trees_exhaustive", 2, 6), tmp_path / "r.csv", tmp_path / "r.json")
    assert calls["_bound_text"] == 13 * 7
    # A lone audit builds a row of its own: its seven bounds are rendered
    # once, when the report is built, and never again.
    report = audit_graph(path_graph(7))
    assert calls["_bound_text"] == 13 * 7 + 7
    report.to_json_text()
    report.to_json_text()
    assert calls["_bound_text"] == 13 * 7 + 7

