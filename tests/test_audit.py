import concurrent.futures
import dataclasses
import json
import os
import tracemalloc

import pytest

import signeddom.audit as audit_mod
from signeddom import (
    BoundViolation,
    CorpusSpec,
    Graph,
    SignedFunction,
    SizeCapError,
    audit_corpus,
    audit_graph,
    complete_graph,
    cycle_graph,
    derive_seed,
    hunt,
    iter_corpus,
    limited_packing_number,
    parse_graph,
    path_graph,
    random_connected,
    serialize_graph,
    spider_graph,
    star_graph,
    structural_profile,
    tuple_domination_number,
    verify_sdf,
)
from signeddom.audit import CSV_HEADER
from signeddom.bounds import BOUND_ORDER
from signeddom.graphs import mask_of
from signeddom.solvers import VertexSet


def test_audit_k6_sharp_everywhere():
    report = audit_graph(complete_graph(6), "K6")
    assert report.gamma_s == 2
    for name in ("thm2_1_ub", "thm3_2_i", "thm3_2_ii", "thm3_3"):
        b, satisfied, gap = report.bound(name)
        assert b.applicable and satisfied and gap == 0 and b.tightened == 2
    assert report.sharp == ("thm2_1_ub", "thm3_2_i", "thm3_2_ii", "thm3_3")
    assert all(v is True for v in report.checks.values())
    assert report.gamma == 1 and report.rho == 1
    assert report.limited_packing_k == 2 and report.limited_packing_value == 2
    assert report.tuple_k == 4


def test_audit_p7_tree_bounds():
    report = audit_graph(path_graph(7), "P7")
    assert report.gamma_s == 5
    for name in ("thm3_4_tree", "cor_tree", "dunbar_tree"):
        b, satisfied, gap = report.bound(name)
        assert b.raw.numerator == 11 and b.raw.denominator == 3
        assert b.tightened == 5 and gap == 0 and satisfied
    b, _, _ = report.bound("thm2_1_ub")
    assert not b.applicable
    assert report.checks["eq1"] is None and report.checks["eq2"] is None


def test_audit_c6_gaps():
    report = audit_graph(cycle_graph(6), "C6")
    assert report.gamma_s == 2
    b, satisfied, gap = report.bound("thm3_3")
    assert b.tightened == 0 and satisfied and gap == 2
    b, _, gap = report.bound("thm2_1_ub")
    assert b.tightened == 2 and gap == 0
    assert "thm2_1_ub" in report.sharp and "thm3_3" not in report.sharp


def test_audit_disconnected_marks_na():
    report = audit_graph(Graph(4, [(0, 1), (2, 3)]), "2xP2")
    assert all(not b.applicable and b.reason == "disconnected" for b, _, _ in report.bounds)
    assert all(v is None for v in report.checks.values())
    assert report.gamma_s == 4  # exact values still computed


def test_audit_null_graph_has_no_violation():
    report = audit_graph(Graph(0))
    assert report.violations() == []
    b, satisfied, gap = report.bound("thm3_3")
    assert (b.applicable, b.reason, satisfied, gap) == (False, "n = 0", None, None)


@pytest.mark.parametrize("g", [cycle_graph(5), path_graph(6), Graph(1), Graph(0), Graph(4, [(0, 1), (2, 3)])],
                         ids=["C5", "P6", "K1", "null", "2xP2"])
def test_bounds_come_in_catalog_order(g):
    report = audit_graph(g)
    assert [b.name for b, _, _ in report.bounds] == list(BOUND_ORDER)
    cells = report.csv_row().split(",")[11:11 + 2 * len(BOUND_ORDER)]
    assert cells[::2] == ["NA" if not b.applicable else str(b.tightened) for b, _, _ in report.bounds]


def test_audit_cap():
    with pytest.raises(SizeCapError):
        audit_graph(cycle_graph(41))
    # A star's gamma_s skips the search, so the subset solvers enforce the cap.
    with pytest.raises(SizeCapError):
        audit_graph(star_graph(41))
    # graph6 encodes at most 62 vertices; the solvers refuse these graphs first.
    for g in (star_graph(100), cycle_graph(70)):
        with pytest.raises(SizeCapError, match="capped at n <= 40"):
            audit_graph(g)


def test_audit_witness_reverifies():
    report = audit_graph(cycle_graph(7))
    assert verify_sdf(parse_graph(report.graph6, "graph6"), report.witness) == []


def test_iter_corpus_ids_and_determinism():
    spec = CorpusSpec(kind="random_connected", n_min=5, n_max=6, count=2, p=0.5, seed=9)
    a = list(iter_corpus(spec))
    b = list(iter_corpus(spec))
    assert [gid for gid, _ in a] == [
        "random_connected-n5-0000",
        "random_connected-n5-0001",
        "random_connected-n6-0000",
        "random_connected-n6-0001",
    ]
    assert all(x == y for (_, x), (_, y) in zip(a, b))


def test_corpus_spec_validation():
    with pytest.raises(ValueError, match="unknown corpus kind"):
        CorpusSpec(kind="moebius", n_min=3, n_max=5)
    with pytest.raises(ValueError, match="count"):
        CorpusSpec(kind="path", n_min=3, n_max=5, count=0)
    with pytest.raises(ValueError, match="n_min"):
        CorpusSpec(kind="path", n_min=6, n_max=5)
    with pytest.raises(ValueError, match="caps"):
        CorpusSpec(kind="path", n_min=3, n_max=50)


def test_audit_corpus_complete_sharpness():
    summary = audit_corpus(CorpusSpec(kind="complete", n_min=3, n_max=12))
    assert summary["graphs"] == 10
    assert summary["violations"] == 0
    assert summary["sharp_histogram"]["thm2_1_ub"] == 10
    assert summary["sharp_histogram"]["thm3_3"] == 10
    assert summary["max_gap"]["thm2_1_ub"] == 0
    assert summary["mean_gap"]["thm2_1_ub"] == 0
    assert summary["mean_gap"]["thm3_4_tree"] is None  # never applicable here


def test_audit_corpus_deterministic_bytes(tmp_path):
    spec = CorpusSpec(kind="random_connected", n_min=5, n_max=7, count=4, p=0.5, seed=123)
    paths = []
    for run in ("a", "b"):
        csv_p = tmp_path / f"{run}.csv"
        json_p = tmp_path / f"{run}.json"
        audit_corpus(spec, csv_path=csv_p, json_path=json_p)
        paths.append((csv_p.read_bytes(), json_p.read_bytes()))
    assert paths[0][0] == paths[1][0]
    assert paths[0][1] == paths[1][1]
    assert paths[0][0].decode().splitlines()[0] == CSV_HEADER


def test_audit_corpus_parallel_matches_sequential(tmp_path):
    spec = CorpusSpec(kind="random_connected", n_min=5, n_max=7, count=3, p=0.5, seed=5)
    seq_csv = tmp_path / "seq.csv"
    par_csv = tmp_path / "par.csv"
    audit_corpus(spec, csv_path=seq_csv, jobs=1)
    audit_corpus(spec, csv_path=par_csv, jobs=2)
    assert seq_csv.read_bytes() == par_csv.read_bytes()


def test_audit_corpus_json_schema(tmp_path):
    json_p = tmp_path / "r.json"
    audit_corpus(CorpusSpec(kind="path", n_min=4, n_max=6), json_path=json_p)
    doc = json.loads(json_p.read_text())
    assert set(doc) == {"summary", "reports"}
    assert len(doc["reports"]) == 3
    rep = doc["reports"][0]
    assert rep["graph_id"] == "path-n4"
    assert rep["exact"]["gamma_s"] == 4
    by_name = {b["name"]: b for b in rep["bounds"]}
    assert by_name["cor_tree"]["raw"] == [8, 3]
    assert by_name["thm2_1_ub"]["applicable"] is False
    assert rep["checks"]["lemma_3_1_i"] == "pass"
    assert rep["checks"]["eq1"] == "na"


def test_corpus_spec_rejects_sizes_beyond_the_cap():
    # This guard is why a sweep never meets a graph its solvers would refuse.
    with pytest.raises(ValueError, match="caps"):
        CorpusSpec(kind="path", n_min=3, n_max=41)
    CorpusSpec(kind="path", n_min=3, n_max=40)
    # The cap is the solvers' constant, not a field.
    with pytest.raises(TypeError):
        CorpusSpec("path", 3, 5, bnb_cap=10)


def test_corpus_spec_raises_the_generators_errors():
    # Raised at construction, not at the first graph after the report files are open.
    for p in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"edge probability must be in \(0,1\]"):
            CorpusSpec(kind="random_connected", n_min=5, n_max=6, p=p)
    CorpusSpec(kind="random_connected", n_min=5, n_max=6, p=1.0)
    CorpusSpec(kind="path", n_min=5, n_max=6, p=1.5)  # p is read by random_connected only
    for kind, name in (("complete", "complete graph"), ("path", "path"), ("star", "star"),
                       ("random_tree", "tree"), ("random_connected", "random_connected")):
        for n_min in (0, -2):
            with pytest.raises(ValueError, match=f"^{name} needs n >= 1, got {n_min}$"):
                CorpusSpec(kind=kind, n_min=n_min, n_max=4)
        CorpusSpec(kind=kind, n_min=1, n_max=4)
    # These two corpora start at n = 2 and 3 whatever n_min is.
    CorpusSpec(kind="trees_exhaustive", n_min=0, n_max=4)
    CorpusSpec(kind="cycle", n_min=-1, n_max=4)


@pytest.mark.parametrize("case", ("jobs=0", "no connected sample"))
def test_argument_errors_come_before_any_report_file(monkeypatch, tmp_path, case):
    # jobs < 1, and a probability that passes CorpusSpec but gives no connected
    # G(8, 0.01) sample, both fail before a report file is opened.
    opened = []
    monkeypatch.setattr(audit_mod._ReportFiles, "open", lambda self, destination: opened.append(destination))
    if case == "jobs=0":
        spec, jobs, message = CorpusSpec("path", 3, 5), 0, "jobs must be >= 1"
    else:
        spec, jobs, message = CorpusSpec("random_connected", 8, 9, p=0.01), 1, "no connected G"
    with pytest.raises(ValueError, match=message):
        audit_corpus(spec, tmp_path / "r.csv", tmp_path / "r.json", jobs=jobs)
    with pytest.raises(ValueError, match=message):
        hunt(spec, "thm3_3", jobs=jobs)
    assert opened == [] and os.listdir(tmp_path) == []


def test_cycle_corpus_starts_at_three():
    # The CLI's default --n-min is 2, below the smallest cycle.
    assert audit_corpus(CorpusSpec("cycle", 2, 5))["graphs"] == 3


def test_trees_exhaustive_spec_rejects_n_max_beyond_enumeration():
    # Rejected up front, not after the 4.8 M trees of n = 9 have been audited.
    with pytest.raises(ValueError, match="trees_exhaustive"):
        CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=10)
    CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=9)


def test_trees_exhaustive_corpus_count():
    spec = CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=4)
    ids = [gid for gid, _ in iter_corpus(spec)]
    assert len(ids) == 1 + 3 + 16
    assert ids[0] == "tree-n2-0000000"


def test_violation_aborts_with_dump(monkeypatch):
    g = cycle_graph(6)
    # thm3_3 made to read n + 2 = 8 on C6, above gamma_s = 2.
    real = audit_mod.lb_max_degree_domination
    monkeypatch.setattr(audit_mod, "lb_max_degree_domination",
                        lambda profile, gamma: dataclasses.replace(real(profile, gamma), tightened=profile.n + 2))
    assert audit_graph(g, "C6").violations() == ["bound thm3_3 violated (raw=0, gamma_s=2)"]

    spec = CorpusSpec(kind="cycle", n_min=6, n_max=6)
    with pytest.raises(BoundViolation) as info:
        audit_corpus(spec)
    assert str(info.value) == "bound thm3_3 violated (raw=0, gamma_s=2)"
    assert info.value.graph6 == serialize_graph(g, "graph6")
    assert "thm3_3" in info.value.dump()
    with pytest.raises(BoundViolation):
        hunt(spec, "thm3_3")


@pytest.mark.parametrize("jobs", (None, 1, 2))
def test_certificate_abort_dumps_the_bound_section(monkeypatch, jobs):
    g = cycle_graph(6)
    lone = json.loads(audit_graph(g).to_json_text())
    real = audit_mod.check
    # Pool workers are forked after the patch, so their gamma re-check fails too.
    monkeypatch.setattr(audit_mod, "check",
                        lambda graph, name, *args: "gamma tampered" if name == "gamma" else real(graph, name, *args))
    with pytest.raises(BoundViolation, match="gamma tampered") as info:
        if jobs is None:
            audit_graph(g)
        else:
            audit_corpus(CorpusSpec("cycle", 6, 6), jobs=jobs)
    dumped = json.loads(info.value.dump().split("report: ", 1)[1])
    assert len(dumped["bounds"]) == len(BOUND_ORDER)
    assert (dumped["bounds"], dumped["sharp"], dumped["checks"]) == (lone["bounds"], lone["sharp"], {})


@pytest.mark.parametrize("jobs", (1, 2))
def test_failed_check_aborts(monkeypatch, jobs):
    tampered = audit_graph(cycle_graph(6), "C6")
    tampered.checks["eq1"] = False
    assert tampered.violations() == ["invariant check eq1 failed"]
    # Pool workers are forked after the patch, so they return the tampered report.
    monkeypatch.setattr(audit_mod, "audit_graph", lambda *a, **k: tampered)
    with pytest.raises(BoundViolation):
        audit_corpus(CorpusSpec(kind="cycle", n_min=6, n_max=6), jobs=jobs)


SUBSET_SOLVERS = ("domination_number", "packing_number", "limited_packing_number",
                  "tuple_domination_number")


def _tamper_sets(monkeypatch, name, members):
    """Make the audit's ``name`` solver return its value with the set ``members(value)``."""
    real = getattr(audit_mod, name)

    def tampered(*args, **kwargs):
        value, vs = real(*args, **kwargs)
        return value, VertexSet(mask_of(members(value)), vs.role, vs.k)

    monkeypatch.setattr(audit_mod, name, tampered)


def _circulant_10_1_2():
    # C10 with chords i ~ i + 2: 4-regular, so the audit solves L_2 itself.
    return Graph(10, [(i, (i + d) % 10) for i in range(10) for d in (1, 2)])


@pytest.mark.parametrize("name", SUBSET_SOLVERS)
def test_invalid_subset_certificate_aborts(monkeypatch, name):
    # On C10(1, 2) the first ``value`` vertices are no valid set for any of
    # the four roles: gamma = 2, rho = 2, L_2 = 4, gamma_x3 = 6.
    _tamper_sets(monkeypatch, name, range)
    with pytest.raises(BoundViolation, match="invalid at vertices"):
        audit_graph(_circulant_10_1_2(), "C10(1,2)")


def test_subset_certificate_of_another_k_aborts(monkeypatch):
    # C6 asks for a 2-tuple dominating set. {0, 1, 2, 3} is a tuple dominating
    # set at k = 1 only: at k = 2 it fails at vertices 4 and 5.
    monkeypatch.setattr(audit_mod, "tuple_domination_number",
                        lambda g, k, **kw: (4, VertexSet(mask_of({0, 1, 2, 3}), "tuple_dominating", 1)))
    with pytest.raises(BoundViolation) as info:
        audit_graph(cycle_graph(6), "C6")
    assert str(info.value) == (
        "gamma_xk = 4 has a certificate for a tuple_dominating set at k = 1,"
        " not for a tuple_dominating set at k = 2"
    )


def test_limited_packing_at_k1_is_the_packing(monkeypatch):
    # At delta // 2 == 1, L_k is rho: the audit takes value and set from the
    # rho solve and still certifies that set as a 1-limited packing.
    calls = []
    real = audit_mod.limited_packing_number
    monkeypatch.setattr(audit_mod, "limited_packing_number", lambda g, k, **kw: calls.append(k) or real(g, k, **kw))
    for i in (1, 3):
        # n = 12 > 10, so no chain check solves L_k either.
        g = random_connected(12, 0.3, derive_seed(3, i))
        report = audit_graph(g)
        assert structural_profile(g).delta // 2 == 1
        assert (report.limited_packing_k, report.limited_packing_value) == (1, report.rho)
    assert calls == []
    report = audit_graph(_circulant_10_1_2(), "C10(1,2)")
    assert report.limited_packing_k == 2 and calls[0] == 2
    certified = []
    monkeypatch.setattr(audit_mod, "check", lambda g, name, value, vs, role, k: certified.append((name, vs, role, k)))
    report = audit_graph(cycle_graph(6), "C6")
    lk = [(vs.role, vs.k, vs.size, role, k) for name, vs, role, k in certified if name == "L_k"]
    assert lk == [("limited_packing", 1, report.rho, "limited_packing", 1)]


def _chain_solves(monkeypatch, g):
    """(chain, k) of every L_k and gamma_xk solve the chain checks make while auditing g."""
    solves = []
    chain = [None]
    for solver in ("limited_packing_number", "tuple_domination_number"):
        real = getattr(audit_mod, solver)
        monkeypatch.setattr(
            audit_mod, solver,
            lambda graph, k, _real=real, _solver=solver, **kw: solves.append((chain[0], _solver, k)) or _real(graph, k, **kw),
        )
    for check in ("_check_limited_packing_chain", "_check_tuple_chain"):
        real = getattr(audit_mod, check)

        def in_chain(*args, _real=real, _check=check):
            chain[0] = _check
            try:
                return _real(*args)
            finally:
                chain[0] = None

        monkeypatch.setattr(audit_mod, check, in_chain)
    report = audit_graph(g)
    assert report.checks["chain_Lk"] is True and report.checks["chain_tuple"] is True
    return report, [(c, k) for c, solver, k in solves if c is not None]


@pytest.mark.parametrize("g", (path_graph(6), spider_graph(4, 2), _circulant_10_1_2()), ids=("P6", "spider", "C10(1,2)"))
def test_chains_take_the_audits_values(monkeypatch, g):
    # The chains solve neither k = 1 (rho, gamma) nor the audit's own k.
    report, solves = _chain_solves(monkeypatch, g)
    profile = report.profile
    lp_own = {1, report.limited_packing_k}
    lp_chain = [("_check_limited_packing_chain", k) for k in range(1, profile.Delta // 2 + 2) if k not in lp_own]
    tuple_chain = [("_check_tuple_chain", k) for k in range(1, profile.delta + 2) if k not in {1, report.tuple_k}]
    assert solves == lp_chain + tuple_chain
    if profile.is_tree:
        assert tuple_chain == [] and lp_chain[0] == ("_check_limited_packing_chain", 2)
    else:
        assert (report.limited_packing_k, report.tuple_k) == (2, 3)
        assert solves == [("_check_limited_packing_chain", 3)] + [("_check_tuple_chain", k) for k in (2, 4, 5)]


def _chains_by_hand(g):
    """chain_Lk and chain_tuple from every L_k and gamma_xk solved afresh."""
    profile = structural_profile(g)
    lk = [limited_packing_number(g, k, lex_least=False)[0] for k in range(1, profile.Delta // 2 + 2)]
    tk = [tuple_domination_number(g, k, lex_least=False)[0] for k in range(1, profile.delta + 2)]
    return (
        all(b > a for a, b in zip(lk, lk[1:]) if a < g.n),
        all(b > a for a, b in zip(tk, tk[1:])),
    )


def test_chains_match_a_fresh_solve_of_every_k():
    graphs = [g for _, g in iter_corpus(CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=6))]
    assert len(graphs) == 1441
    graphs += [
        random_connected(n, p, derive_seed(12, 100 * n + round(10 * p) + i))
        for n in range(4, 11) for p in (0.3, 0.5, 0.7) for i in range(3)
    ]
    for g in graphs:
        report = audit_graph(g)
        assert (report.checks["chain_Lk"], report.checks["chain_tuple"]) == _chains_by_hand(g), report.graph6


def test_subset_certificate_of_wrong_size_aborts(monkeypatch):
    # All of V dominates, but it is not a set of size gamma.
    _tamper_sets(monkeypatch, "domination_number", lambda value: range(6))
    with pytest.raises(BoundViolation, match="gamma = 2 has a certificate of size 6"):
        audit_graph(cycle_graph(6), "C6")


def _tamper_gamma_s(monkeypatch, tamper):
    real = audit_mod.signed_domination
    monkeypatch.setattr(audit_mod, "signed_domination", lambda *a, **k: tamper(*real(*a, **k)))


def test_invalid_gamma_s_witness_aborts(monkeypatch):
    # C6 has gamma_s = 2; flipping the witness's first + to - keeps the
    # claimed value but breaks the closed neighbourhood sums.
    def flip(value, f):
        minus = f.minus_mask | 1 << f.assignment.index(1)
        return value, SignedFunction.from_minus_mask(f.n, minus)

    _tamper_gamma_s(monkeypatch, flip)
    with pytest.raises(BoundViolation, match="gamma_s = 2 has a witness of weight 0 invalid"):
        audit_graph(cycle_graph(6), "C6")


def test_gamma_s_off_its_witness_aborts(monkeypatch):
    # The true witness of C6, with a value 2 too high.
    _tamper_gamma_s(monkeypatch, lambda value, f: (value + 2, f))
    with pytest.raises(BoundViolation, match=r"gamma_s = 4 has a witness of weight 2 invalid at vertices \[\]"):
        audit_graph(cycle_graph(6), "C6")


def test_audit_builds_one_route_per_graph(route_builds):
    chained = random_connected(10, 0.5, derive_seed(5, 10))
    assert audit_graph(chained).checks["chain_tuple"] is True
    assert route_builds == [("SearchRoute", chained)]
    tree = star_graph(5)
    assert structural_profile(tree).delta_star is None
    audit_graph(tree)
    assert route_builds == [("SearchRoute", chained), ("ForestRoute", tree)]
    route_builds.clear()
    spec = CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=5)
    summary = audit_corpus(spec)
    trees = [g for _, g in iter_corpus(spec)]
    assert len(trees) == summary["graphs"] == 145
    assert route_builds == [("ForestRoute", g) for g in trees]


def test_invalid_subset_certificate_aborts_in_a_pool(monkeypatch):
    # The BoundViolation raised in a worker arrives whole; workers fork after the patch.
    _tamper_sets(monkeypatch, "tuple_domination_number", range)
    with pytest.raises(BoundViolation) as info:
        audit_corpus(CorpusSpec(kind="cycle", n_min=6, n_max=6), jobs=2)
    assert info.value.graph6 == serialize_graph(cycle_graph(6), "graph6")
    assert "gamma_xk" in info.value.dump()


def test_pool_abort_drops_the_graphs_not_started(monkeypatch, tmp_path):
    # A violation on the first of the 18,248 trees with n <= 7 must not wait
    # for the pool to audit the rest of the corpus: with 2 workers at most
    # 2 * 2 chunks are ever submitted ahead of the reader.
    log = tmp_path / "audited"
    real = audit_mod.audit_graph

    def planted(g, graph_id=None, **kwargs):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, b".")
        os.close(fd)
        report = real(g, graph_id, **kwargs)
        if graph_id == "tree-n2-0000000":
            report.checks["eq1"] = False
        return report

    monkeypatch.setattr(audit_mod, "audit_graph", planted)
    with pytest.raises(BoundViolation):
        audit_corpus(CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=7), jobs=2)
    assert log.stat().st_size <= 2 * 2 * audit_mod.POOL_CHUNK


@pytest.mark.parametrize("which", ("csv_path", "json_path"))
def test_unwritable_output_audits_nothing(monkeypatch, tmp_path, which):
    audited = []
    real = audit_mod.audit_graph
    monkeypatch.setattr(audit_mod, "audit_graph", lambda g, *a, **k: audited.append(g) or real(g, *a, **k))
    spec = CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=5)
    with pytest.raises(FileNotFoundError, match="missing"):
        audit_corpus(spec, **{which: tmp_path / "missing" / "r.out"})
    with pytest.raises(IsADirectoryError):
        audit_corpus(spec, **{which: tmp_path})
    assert audited == []


@pytest.mark.parametrize("jobs", (1, 2))
def test_aborted_sweep_writes_nothing(monkeypatch, tmp_path, jobs):
    # The violation comes after several chunks of reports have been streamed.
    real = audit_mod.audit_graph

    def planted(g, graph_id=None, **kwargs):
        report = real(g, graph_id, **kwargs)
        if graph_id == "tree-n5-0000100":
            report.checks["eq2"] = False
        return report

    monkeypatch.setattr(audit_mod, "audit_graph", planted)
    old = tmp_path / "r.json"
    old.write_text("earlier report\n")
    with pytest.raises(BoundViolation, match="eq2"):
        audit_corpus(CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=5),
                     csv_path=tmp_path / "r.csv", json_path=old, jobs=jobs)
    assert os.listdir(tmp_path) == ["r.json"]
    assert old.read_text() == "earlier report\n"


def test_json_spool_has_no_name(monkeypatch, tmp_path):
    # The JSON reports wait for the summary in an unnamed file, so during the
    # sweep the directory holds only the CSV and JSON temporaries.
    listings = []
    real = audit_mod.audit_graph
    monkeypatch.setattr(audit_mod, "audit_graph",
                        lambda g, *a, **k: listings.append(sorted(os.listdir(tmp_path))) or real(g, *a, **k))
    audit_corpus(CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=4),
                 csv_path=tmp_path / "r.csv", json_path=tmp_path / "r.json")
    pid = os.getpid()
    assert len(listings) == 1 + 3 + 16
    assert all(names == [f".r.csv.{pid}-0.tmp", f".r.json.{pid}-0.tmp"] for names in listings), listings[0]
    assert sorted(os.listdir(tmp_path)) == ["r.csv", "r.json"]


def test_sweep_memory_stays_flat(tmp_path):
    # Reports are streamed to disk, so auditing the 1,441 trees with n <= 6
    # peaks within 1.5x of the 145 with n <= 5 (a sweep that held its reports
    # would grow about tenfold).
    paths = {"csv_path": tmp_path / "r.csv", "json_path": tmp_path / "r.json"}
    audit_corpus(CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=4), **paths)  # warm-up
    peaks = []
    for n_max in (5, 6):
        tracemalloc.start()
        try:
            audit_corpus(CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=n_max), **paths)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


class _InlineExecutor:
    """A stand-in process pool that runs each task at submit, in this process."""

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.mark.parametrize("jobs, cpus, built", [(10**6, 2, [2]), (3, 1, [])])
def test_jobs_are_capped_at_the_cpu_count(monkeypatch, tmp_path, jobs, cpus, built):
    # The pool may fork all its workers at the first submit, so --jobs must not
    # reach it uncapped; on one CPU the sweep runs serially.
    spec = CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=5)
    audit_corpus(spec, csv_path=tmp_path / "serial.csv", json_path=tmp_path / "serial.json")
    pools = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: pools.append(max_workers) or _InlineExecutor())
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    audit_corpus(spec, csv_path=tmp_path / "r.csv", json_path=tmp_path / "r.json", jobs=jobs)
    assert pools == built
    for name in ("csv", "json"):
        assert (tmp_path / f"r.{name}").read_bytes() == (tmp_path / f"serial.{name}").read_bytes()


def test_one_destination_for_both_reports_is_refused(monkeypatch, tmp_path):
    audited = []
    real = audit_mod.audit_graph
    monkeypatch.setattr(audit_mod, "audit_graph", lambda g, *a, **k: audited.append(g) or real(g, *a, **k))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    spec = CorpusSpec(kind="path", n_min=2, n_max=4)
    for csv_path, json_path in (("r.out", "./r.out"), (tmp_path / "r.out", "sub/../r.out")):
        with pytest.raises(ValueError, match="cannot both be written"):
            audit_corpus(spec, csv_path=csv_path, json_path=json_path)
    assert audited == [] and os.listdir(tmp_path) == ["sub"]


def test_report_files_are_opened_without_newline_translation(monkeypatch, tmp_path):
    newlines = []
    real = os.fdopen
    monkeypatch.setattr(os, "fdopen", lambda *a, **k: newlines.append(k.get("newline")) or real(*a, **k))
    audit_corpus(CorpusSpec(kind="path", n_min=2, n_max=4), csv_path=tmp_path / "r.csv", json_path=tmp_path / "r.json")
    assert newlines == ["", ""]


def test_jobs_below_one_are_rejected():
    spec = CorpusSpec(kind="cycle", n_min=3, n_max=4)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            audit_corpus(spec, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            hunt(spec, "thm3_3", jobs=jobs)


def test_empty_core_with_minus_vertices_aborts():
    # A witness with -1 vertices on a core-free graph is a solver bug; the guard
    # must raise under ``python -O`` too.
    g = cycle_graph(6)
    report = audit_graph(g, "C6")
    profile = dataclasses.replace(report.profile, delta_star=None)
    with pytest.raises(BoundViolation, match="empty core"):
        audit_mod._invariant_checks(g, profile, report)


def test_hunt_complete_thm3_3():
    witnesses = hunt(CorpusSpec(kind="complete", n_min=3, n_max=12), "thm3_3")
    assert len(witnesses) == 10
    assert witnesses[0] == "Bw"
    assert witnesses == sorted(witnesses, key=lambda g6: (parse_graph(g6, "graph6").n, g6))


def test_hunt_paths_thm3_4_includes_p7():
    witnesses = hunt(CorpusSpec(kind="path", n_min=4, n_max=10), "thm3_4_tree")
    assert serialize_graph(path_graph(7), "graph6") in witnesses


def test_hunt_empty_result_is_fine():
    # stars have empty cores: thm3_2_i never applies, so no witnesses, no error
    assert hunt(CorpusSpec(kind="star", n_min=3, n_max=6), "thm3_2_i") == []


def test_hunt_unknown_bound():
    with pytest.raises(ValueError, match="unknown bound"):
        hunt(CorpusSpec(kind="complete", n_min=3, n_max=4), "thm9_9")
