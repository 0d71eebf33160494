"""Acceptance suite: one test per criterion, one printed status line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The random corpus (1000
connected graphs per order n = 5..12 under one fixed master seed, densities
cycling over 0.3/0.5/0.7) is generated once and shared by criteria 4-6.
"""

import time

import pytest

from signeddom import (
    VertexSet,
    audit_graph,
    complete_graph,
    cycle_graph,
    derive_seed,
    enumerate_labeled_trees,
    limited_packing_number,
    packing_number,
    path_graph,
    random_connected,
    augment_packing,
    domination_number,
    sdf_from_limited_packing,
    signed_domination,
    star_graph,
    structural_profile,
    tree_lower_bounds,
    tuple_domination_number,
    verify_sdf,
    vertex_set_violations,
)
from signeddom.cli import main as cli_main

MASTER_SEED = 0x5D0
DENSITIES = (0.3, 0.5, 0.7)
SAMPLES_PER_SIZE = 1000
SIZES = range(5, 13)


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())


@pytest.fixture(scope="module")
def random_corpus():
    graphs = []
    idx = 0
    for n in SIZES:
        for i in range(SAMPLES_PER_SIZE):
            graphs.append(
                random_connected(n, DENSITIES[i % 3], derive_seed(MASTER_SEED, idx))
            )
            idx += 1
    return graphs


@pytest.fixture(scope="module")
def corpus_reports(random_corpus):
    return [audit_graph(g, f"rc-{i:05d}") for i, g in enumerate(random_corpus)]


def test_criterion_1_oracle_equivalence():
    """300 seeded random connected graphs, n <= 12: oracle == branch-and-bound."""
    t0 = time.monotonic()
    mismatches = 0
    for i in range(300):
        n = 4 + i % 9
        g = random_connected(n, DENSITIES[i % 3], derive_seed(301, i))
        vo, fo = signed_domination(g, "oracle")
        vb, fb = signed_domination(g, "branch_and_bound")
        if vo != vb or fo.assignment != fb.assignment:
            mismatches += 1
        assert verify_sdf(g, fo) == [] and verify_sdf(g, fb) == []
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 60
    _report("criterion 1 (oracle equivalence, 300 graphs)", ok,
            f"mismatches={mismatches} elapsed={elapsed:.1f}s (limit 60s)")
    assert mismatches == 0
    assert elapsed < 60


def test_criterion_2_complete_graph_sharpness():
    """K_n, n = 3..12: all four general bounds equal the exact value."""
    failures = []
    for n in range(3, 13):
        g = complete_graph(n)
        gamma_s, _ = signed_domination(g, "oracle")
        expected = 1 if n % 2 else 2
        if gamma_s != expected:
            failures.append((n, "gamma_s", gamma_s))
        report = audit_graph(g)
        for name in ("thm2_1_ub", "thm3_2_i", "thm3_2_ii", "thm3_3"):
            b, satisfied, gap = report.bound(name)
            if not (b.applicable and satisfied and b.raw == gamma_s and gap == 0):
                failures.append((n, name, b.raw))
    _report("criterion 2 (complete-graph sharpness)", not failures, f"failures={failures}")
    assert not failures


def test_criterion_3_exhaustive_tree_sweep():
    """All labeled trees n = 2..8: tree bounds hold and order correctly."""
    t0 = time.monotonic()
    total = 0
    violations = 0
    for n in range(2, 9):
        for g in enumerate_labeled_trees(n):
            total += 1
            prof = structural_profile(g)
            gamma_s, _ = signed_domination(g)
            thm34, cor, dun = tree_lower_bounds(prof)
            if not (cor.raw <= gamma_s and dun.raw <= gamma_s):
                violations += 1
            elif prof.delta_star is not None and thm34.raw > gamma_s:
                violations += 1
            elif not (thm34.raw >= cor.raw >= dun.raw):
                violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and total == sum(n ** (n - 2) for n in range(2, 9)) and elapsed < 300
    _report("criterion 3 (exhaustive trees n<=8)", ok,
            f"trees={total} violations={violations} elapsed={elapsed:.1f}s (limit 300s)")
    assert violations == 0
    assert total == 280392
    assert elapsed < 300


def test_criterion_4_random_corpus_bracket(corpus_reports):
    """8000-graph corpus: every applicable bound brackets, all SDF checks hold."""
    bound_violations = 0
    check_failures = 0
    for report in corpus_reports:
        for b, satisfied, _ in report.bounds:
            if b.applicable and not satisfied:
                bound_violations += 1
        for name in ("lemma_3_1_i", "lemma_3_1_ii", "claim1_limited_packing", "claim2_tuple_dom"):
            if report.checks[name] is not True:
                check_failures += 1
    ok = bound_violations == 0 and check_failures == 0
    _report("criterion 4 (random-corpus bracket, 8000 graphs)", ok,
            f"bound_violations={bound_violations} check_failures={check_failures}")
    assert bound_violations == 0
    assert check_failures == 0


def test_criterion_5_constructive_chain(random_corpus):
    """delta >= 2 corpus graphs: packing-based SDF construction and chains."""
    tested = 0
    failures = 0
    for g in random_corpus:
        delta = min(g.deg)
        if delta < 2:
            continue
        tested += 1
        half = delta // 2
        l_half, packing_witness = limited_packing_number(g, half)
        f = sdf_from_limited_packing(g, packing_witness)
        gamma_s, _ = signed_domination(g)
        rho, max_packing = packing_number(g)
        thm21_rhs = g.n - 2 * ((2 * rho + delta - 2) // 2)
        if verify_sdf(g, f) != []:
            failures += 1
        elif f.weight != g.n - 2 * l_half:
            failures += 1
        elif not (gamma_s <= f.weight <= thm21_rhs):
            failures += 1
        else:
            # augmenting a maximum packing certifies L_half >= rho + half - 1
            current = VertexSet(max_packing.mask, "limited_packing", 1)
            for k in range(1, half):
                current = augment_packing(g, current, k)
                if vertex_set_violations(g, current):
                    failures += 1
                    break
            else:
                if l_half < rho + half - 1:
                    failures += 1
    ok = failures == 0 and tested > 0
    _report("criterion 5 (constructive chain)", ok, f"tested={tested} failures={failures}")
    assert failures == 0
    assert tested > 0


def test_criterion_6_monotone_chains(corpus_reports):
    """n <= 10 corpus graphs: limited-packing and tuple-domination chains."""
    checked = 0
    failures = 0
    for report in corpus_reports:
        if report.n > 10:
            continue
        checked += 1
        if report.checks["chain_Lk"] is not True or report.checks["chain_tuple"] is not True:
            failures += 1
    ok = failures == 0 and checked == 6 * SAMPLES_PER_SIZE
    _report("criterion 6 (monotone chains, n<=10)", ok,
            f"graphs={checked} failures={failures}")
    assert failures == 0
    assert checked == 6 * SAMPLES_PER_SIZE


def test_criterion_7_fixed_fixtures():
    """Frozen small-graph values, independently derived by exhaustion."""
    values = {
        "gamma_s(P7)": (signed_domination(path_graph(7), "oracle")[0], 5),
        "gamma_s(C6)": (signed_domination(cycle_graph(6), "oracle")[0], 2),
        "gamma_s(K1,4)": (signed_domination(star_graph(5), "oracle")[0], 5),
        "gamma(P7)": (domination_number(path_graph(7))[0], 3),
        "rho(C6)": (packing_number(cycle_graph(6))[0], 2),
        "L2(C6)": (limited_packing_number(cycle_graph(6), 2)[0], 4),
        "gx2(C6)": (tuple_domination_number(cycle_graph(6), 2)[0], 4),
    }
    wrong = {k: v for k, v in values.items() if v[0] != v[1]}
    _report("criterion 7 (fixed-value fixtures)", not wrong, f"wrong={wrong}")
    assert not wrong


def test_criterion_8_audit_determinism(tmp_path, capsys):
    """Identical audit invocations produce byte-identical CSV and JSON."""
    outputs = []
    for run in ("a", "b"):
        csv_p = tmp_path / f"{run}.csv"
        json_p = tmp_path / f"{run}.json"
        code = cli_main([
            "audit", "--corpus", "random-connected", "--n-min", "5", "--n-max", "9",
            "--count", "10", "--seed", "99",
            "--out", str(csv_p), "--json-out", str(json_p),
        ])
        capsys.readouterr()
        assert code == 0
        outputs.append((csv_p.read_bytes(), json_p.read_bytes()))
    ok = outputs[0] == outputs[1]
    _report("criterion 8 (audit determinism)", ok,
            f"csv_bytes={len(outputs[0][0])} json_bytes={len(outputs[0][1])}")
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
