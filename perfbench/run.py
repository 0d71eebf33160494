"""signeddom benchmark: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports the package from ``src/``.

Workloads (BENCHMARK.json says why each one is there):

  trees-exhaustive  serial audit_corpus over every labeled tree with n <= 6
                    (1441 trees), writing CSV and JSON; repeated for S s.
  random-audit      audit_graph, csv_row() and to_json_dict() per random
                    connected graph, n = 13..18, p = 0.3/0.5/0.7.
  dense-solve       parse_graph(graph6), signed_domination(branch_and_bound)
                    and verify_sdf per G(n, p) graph, n = 19..20, p = 0.5/0.7.

Inputs. The tree corpus is exhaustive, so it has no random part and is the
same for every seed. The graph workloads draw from a fixed universe of
``SLOTS`` graphs per (n, p) cell; the graph in slot k of cell c is
``generate("random_connected", ..., derive_seed(MASTER, c * SLOTS + k))``.
The workload seed shuffles each cell's slots (a shuffle seeded with
``derive_seed(seed, c)``) and the run takes the first ``PICK`` of them, cells
round robin, so every run sees a balanced mix of the same size and the same
seed gives the same graph6 inputs. The universe is finite so that
``reference.json``, frozen from the package by ``freeze.py``, holds the
expected output for every graph any seed can reach.

Correctness. Every operation is checked against reference.json: the CSV and
JSON digests of each sweep; graph6, gamma_s, witness and a digest of the CSV
row and JSON report per random-audit graph; graph6, gamma_s and witness per
dense-solve graph. Every witness is re-verified with ``verify_sdf``. A raised
exception or any mismatch counts the operation's graphs as failed.

Timing. A run cycles through its inputs for S seconds, and through all of
them at least once. Graph and sweep times are scaled to a reference machine
speed (see speed.py): a fixed search, timed between operations, tracks how
fast the shared host runs at each moment, and each timing is scaled by it, so
that runs made while other tenants load the host still compare. The metrics
in wall time are logged and printed beside them. A graph's time is the median of its
timings: over every sweep of the run on the trees, over the passes on the
graph workloads. ``graph_p50_ms`` and ``graph_p90_ms`` are quantiles of the
graph times. ``graphs_per_s`` is the graphs timed over the sum of their times
on the graph workloads, where a graph's time is one operation, and the
graphs of a sweep over the median sweep time on the trees, where it includes
writing the reports. A tree's time is the interval from asking
``iter_corpus`` for the graph to asking for the next, the sweep's only
per-graph boundary outside the package. ``setup_s`` is the median of
SETUP_REPEATS set-ups in wall time: most of a set-up is importing the
package in a fresh interpreter, whose time does not follow the probe.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the workload
with spans recorded around the package calls (see spans.py), replays the same
inputs untraced, counts every output that differs between the two as failed,
and prints the per-layer metrics. On the trees the untraced replay alternates
serial sweeps with ``audit_corpus(jobs=2)`` sweeps, which must write the same
bytes and give ``audit.pool_efficiency``. Spans go to
``perfbench/out/spans-<workload>-seed<seed>.tsv``. Every run appends its raw
samples, its metrics, the same metrics in wall time, and the machine facts
(nproc, Python version, load average at start, every speed probe time) to
``perfbench/out/runs.jsonl``.

The last line of stdout is the result: a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` and ``failed`` count
graphs; their ratio is the failed fraction.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

if not (SRC / "signeddom" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no signeddom package source under {SRC}")
sys.path.insert(0, str(SRC))

from spans import Tracer, patched, summarize  # noqa: E402
from speed import SpeedProbe  # noqa: E402

audit = importlib.import_module("signeddom.audit")
codecs = importlib.import_module("signeddom.codecs")
gen = importlib.import_module("signeddom.generate")
solvers = importlib.import_module("signeddom.solvers")

# The checks hold their own references, so tracing neither records nor alters them.
_verify_sdf = solvers.verify_sdf
_parse_graph = codecs.parse_graph
_iter_corpus = audit.iter_corpus

WORKLOADS = ("trees-exhaustive", "random-audit", "dense-solve")
TREES_N_MAX = 6
CELLS = {
    "random-audit": tuple((n, p) for n in range(13, 19) for p in (0.3, 0.5, 0.7)),
    "dense-solve": tuple((n, p) for n in (19, 20) for p in (0.5, 0.7)),
}
SLOTS = {"random-audit": 30, "dense-solve": 25}
# Slots of each cell that one run takes. dense-solve takes them all, so that a
# pass has the 100 graphs its p90 needs; its seed only orders them.
PICK = {"random-audit": 24, "dense-solve": 25}
MASTER = {"random-audit": 1409, "dense-solve": 2755}
SETUP_REPEATS = 9
# Graphs between two speed probes inside a tree sweep (about 10 ms of work).
PROBE_EVERY = 16
# The tree corpus is the same every sweep, so two traced sweeps give every
# layer thousands of samples; the rest of a traced run is untraced sweeps.
TRACED_SWEEPS = 2
ROOT_SPANS = ("audit.graph", "solve.graph")
IMPORT_PROBE = "import time; t = time.perf_counter(); import signeddom; print(time.perf_counter() - t)"


# -- inputs ----------------------------------------------------------------------


def universe(workload: str):
    """Every graph the workload can reach: (universe index, n, p, graph seed)."""
    slots = SLOTS[workload]
    return [
        (c * slots + k, n, p, gen.derive_seed(MASTER[workload], c * slots + k))
        for c, (n, p) in enumerate(CELLS[workload])
        for k in range(slots)
    ]


def schedule(workload: str, seed: int):
    """Universe indices in run order for ``seed``: PICK shuffled slots per cell, cells round robin."""
    slots = SLOTS[workload]
    orders = []
    for c in range(len(CELLS[workload])):
        order = list(range(slots))
        random.Random(gen.derive_seed(seed, c)).shuffle(order)
        orders.append(order[: PICK[workload]])
    return [c * slots + orders[c][k] for k in range(PICK[workload]) for c in range(len(orders))]


def make_inputs(workload: str, seed: int):
    """The run's operation inputs and the seconds spent generating graphs.

    A tree item is (CorpusSpec, jobs); a graph item is (universe index, Graph)
    for random-audit and (universe index, graph6) for dense-solve.
    """
    if workload == "trees-exhaustive":
        return [(audit.CorpusSpec("trees_exhaustive", 2, TREES_N_MAX), 1)], 0.0
    table = universe(workload)
    items = []
    gen_s = 0.0
    for u in schedule(workload, seed):
        _, n, p, graph_seed = table[u]
        t0 = time.perf_counter()
        g = gen.generate("random_connected", {"n": n, "p": p}, graph_seed)
        gen_s += time.perf_counter() - t0
        items.append((u, g if workload == "random-audit" else codecs.serialize_graph(g, "graph6")))
    return items, gen_s


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter, measured inside it."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(done.stdout)


def setup(workload: str, seed: int):
    """Import the package and build the inputs SETUP_REPEATS times.

    Returns the inputs, each repeat's set-up seconds, and the median
    generation time per graph in ms (0 for the trees, which generate inside
    the sweep).
    """
    totals, gen_ms = [], []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        items, gen_s = make_inputs(workload, seed)
        totals.append(imported + gen_s)
        gen_ms.append(1000 * gen_s / len(items))
    return items, totals, statistics.median(gen_ms)


def load_reference(path=HERE / "reference.json") -> dict:
    ref = json.loads(Path(path).read_text())
    for workload, cells in CELLS.items():
        meta = ref[workload]
        if (meta["cells"], meta["slots"], meta["master"]) != ([list(c) for c in cells], SLOTS[workload], MASTER[workload]):
            raise SystemExit(f"perfbench: reference.json does not describe the {workload} universe")
    if ref["trees"]["n_max"] != TREES_N_MAX:
        raise SystemExit("perfbench: reference.json does not describe the tree corpus")
    return ref


# -- operations and their checks --------------------------------------------------


def audit_op(item):
    report = audit.audit_graph(item[1])
    return report.csv_row(), report.to_json_dict()


def solve_op(item):
    g = codecs.parse_graph(item[1], "graph6")
    value, f = solvers.signed_domination(g, "branch_and_bound")
    return value, str(f), solvers.verify_sdf(g, f)


def sweep_paths(jobs: int):
    return OUT / f"trees-jobs{jobs}.csv", OUT / f"trees-jobs{jobs}.json"


def sweep_op(item):
    spec, jobs = item
    return audit.audit_corpus(spec, *sweep_paths(jobs), jobs=jobs)


OPS = {"trees-exhaustive": sweep_op, "random-audit": audit_op, "dense-solve": solve_op}


def report_digest(row: str, report: dict) -> str:
    return hashlib.sha256((row + "\n" + json.dumps(report)).encode()).hexdigest()[:16]


def witness_problems(g, value: int, witness: str) -> list:
    f = solvers.SignedFunction(tuple(1 if c == "+" else -1 for c in witness))
    if f.n != g.n or _verify_sdf(g, f):
        return ["witness is not a signed dominating function"]
    if f.weight != value:
        return [f"witness weight {f.weight} != value {value}"]
    return []


class Checker:
    """Compares one operation's output with the frozen reference.

    ``check`` returns (problems, fingerprint, report bytes); equal
    fingerprints mean equal outputs, which is how a traced pass is matched
    against its untraced replay.
    """

    def __init__(self, workload: str, ref: dict):
        self.workload = workload
        self.ref = ref
        self.graphs_per_op = ref["trees"]["graphs"] if workload == "trees-exhaustive" else 1

    def check(self, item, out):
        if self.workload == "trees-exhaustive":
            return self._check_sweep(item, out)
        g6, value, witness, digest = self.ref[self.workload]["graphs"][item[0]]
        problems = []
        if self.workload == "random-audit":
            row, report = out
            got_value, got_witness = report["exact"]["gamma_s"], report["witness"]
            fingerprint = report_digest(row, report)
            if report["graph6"] != g6:
                problems.append("input graph differs from the reference universe")
            if fingerprint != digest:
                problems.append(f"report digest {fingerprint} != {digest}")
            g = item[1]
            nbytes = len(row) + 1 + len(json.dumps(report)) + 1
        else:
            got_value, got_witness, violations = out
            fingerprint = (got_value, got_witness, tuple(violations))
            if item[1] != g6:
                problems.append("input graph differs from the reference universe")
            if violations:
                problems.append(f"verify_sdf in the solve path flagged vertices {violations}")
            g = _parse_graph(item[1], "graph6")
            nbytes = 0
        if (got_value, got_witness) != (value, witness):
            problems.append(f"gamma_s/witness {got_value}/{got_witness} != {value}/{witness}")
        problems += witness_problems(g, got_value, got_witness)
        return problems, fingerprint, nbytes

    def _check_sweep(self, item, summary):
        ref = self.ref["trees"]
        paths = sweep_paths(item[1])
        fingerprint = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths)
        problems = []
        if summary["graphs"] != ref["graphs"]:
            problems.append(f"sweep audited {summary['graphs']} graphs, expected {ref['graphs']}")
        if fingerprint != (ref["csv_sha256"], ref["json_sha256"]):
            problems.append(f"jobs={item[1]} sweep output digests differ from the reference")
        return problems, fingerprint, sum(p.stat().st_size for p in paths)


class Tally:
    """Timed samples and failures of one pass over the inputs."""

    def __init__(self):
        # (operation index, start, seconds, key) for each operation that
        # passed its check; key is the universe index of a graph, or the jobs
        # of a sweep.
        self.samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprints = []  # one per operation; None when it raised
        self.report_bytes = 0

    def fail(self, graphs: int, message: str):
        self.failed += graphs
        if len(self.problems) < 20:
            self.problems.append(message)

    def seconds(self, length) -> float:
        """Time of the operations that passed, with ``length(start, end)`` as an interval's seconds."""
        return sum(length(s[1], s[1] + s[2]) for s in self.samples)

    def sweep_seconds(self, jobs: int, length) -> list:
        return [length(s[1], s[1] + s[2]) for s in self.samples if s[3] == jobs]


def run_ops(
    items, op, checker: Checker, seconds: float, limit: int | None = None, min_ops: int = 1, probe: SpeedProbe | None = None
) -> Tally:
    """Apply ``op`` to the items in order, cycling, until ``seconds`` or ``limit``.

    At least ``min_ops`` operations run. Only ``op`` itself is timed, not its
    check. With a ``probe``, the probe is sampled before the first operation
    and after each one, outside the timing.
    """
    tally = Tally()
    graphs = checker.graphs_per_op
    deadline = time.perf_counter() + seconds
    if probe:
        probe.sample()
    i = 0
    while (i < min_ops or time.perf_counter() < deadline) and (limit is None or i < limit):
        item = items[i % len(items)]
        tally.attempted += graphs
        t0 = time.perf_counter()
        try:
            out = op(item)
        except Exception as exc:  # counted as a failed operation; the run goes on
            tally.fail(graphs, f"op {i}: {type(exc).__name__}: {exc}")
            tally.fingerprints.append(None)
            if probe:
                probe.sample()
            i += 1
            continue
        elapsed = time.perf_counter() - t0
        if probe:
            probe.sample()
        problems, fingerprint, nbytes = checker.check(item, out)
        tally.fingerprints.append(fingerprint)
        tally.report_bytes += nbytes
        if problems:
            tally.fail(graphs, f"op {i}: " + "; ".join(problems))
        else:
            tally.samples.append((i, t0, elapsed, item[1] if checker.workload == "trees-exhaustive" else item[0]))
        i += 1
    return tally


def probed_iter_corpus(sweeps: list, probe: SpeedProbe):
    """``iter_corpus`` that records each graph's interval and samples the probe.

    Each call, one sweep, appends its list of (start, end) intervals to
    ``sweeps``. A graph's interval runs from asking the enumeration for the
    graph until the sweep asks for the next one, so it covers generating and
    auditing it. The probe runs every PROBE_EVERY graphs, between intervals.
    """

    def iter_corpus(spec):
        intervals = []
        sweeps.append(intervals)
        it = iter(_iter_corpus(spec))
        while True:
            if len(intervals) % PROBE_EVERY == 0:
                probe.sample()
            start = time.perf_counter()
            try:
                entry = next(it)
            except StopIteration:
                return
            yield entry
            intervals.append((start, time.perf_counter()))

    return iter_corpus


# -- metrics ----------------------------------------------------------------------


def untraced_run(workload: str, items, checker: Checker, seconds: float, probe: SpeedProbe):
    """The timed operations of a --trace 0 run: (tally, graph timings, sweep timings).

    The run cycles through the inputs for ``seconds``, and through all of
    them at least once. Graph timings are (graph, start, end): on the graph
    workloads one per operation, keyed by universe index; on the trees one
    per graph of each sweep, keyed by its place in the sweep. Sweep timings
    are the (start, end) of each tree sweep, which include writing the
    reports; None on the graph workloads.
    """
    if workload == "trees-exhaustive":
        sweeps = []
        with patched([(audit, "iter_corpus", probed_iter_corpus(sweeps, probe))]):
            tally = run_ops(items, sweep_op, checker, seconds, probe=probe)
        graph_timings = [(k, *iv) for s in tally.samples for k, iv in enumerate(sweeps[s[0]])]
        return tally, graph_timings, [(start, start + elapsed) for _, start, elapsed, _ in tally.samples]
    tally = run_ops(items, OPS[workload], checker, seconds, min_ops=len(items), probe=probe)
    return tally, [(key, start, start + elapsed) for _, start, elapsed, key in tally.samples], None


def end_to_end(graph_timings, sweep_timings, length, setup_s) -> dict:
    """The user-visible metrics, with ``length(start, end)`` as the seconds an interval counts for.

    A graph's time is the median of its timings. ``graphs_per_s`` is the
    graphs timed over the sum of their times, or on the trees the graphs of
    a sweep over the median sweep time.
    """
    per_graph = {}
    for key, start, end in graph_timings:
        per_graph.setdefault(key, []).append(length(start, end))
    if not per_graph:
        raise SystemExit("perfbench: no operation succeeded")
    times_ms = [1000 * statistics.median(t) for t in per_graph.values()]
    if sweep_timings:
        graphs_per_s = len(per_graph) / statistics.median(length(a, b) for a, b in sweep_timings)
    else:
        graphs_per_s = 1000 * len(times_ms) / sum(times_ms)
    return {
        "setup_s": statistics.median(setup_s),
        "graphs_per_s": graphs_per_s,
        "graph_p50_ms": statistics.median(times_ms),
        "graph_p90_ms": statistics.quantiles(times_ms, n=10)[8] if len(times_ms) > 1 else times_ms[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def trace_targets(tracer: Tracer, workload: str):
    """(owner, attribute, timing wrapper) for every package call the workload makes."""
    if workload == "dense-solve":
        calls = [
            (codecs, "parse_graph", "codecs.parse"),
            (solvers, "signed_domination", "solvers.gamma_s"),
            (solvers, "verify_sdf", "solvers.certify"),
        ]
    else:
        calls = [
            (audit, "audit_graph", "audit.graph"),
            (audit, "structural_profile", "graphs.profile"),
            (audit, "serialize_graph", "codecs.serialize"),
            (audit, "signed_domination", "solvers.gamma_s"),
            (audit, "domination_number", "solvers.gamma"),
            (audit, "packing_number", "solvers.rho"),
            (audit, "limited_packing_number", "solvers.L_k"),
            (audit, "tuple_domination_number", "solvers.gamma_xk"),
            (audit, "partition_stats", "solvers.certify"),
            (audit, "vertex_set_violations", "solvers.certify"),
            (audit, "_check_limited_packing_chain", "audit.chain"),
            (audit, "_check_tuple_chain", "audit.chain"),
            (audit.BoundReport, "csv_row", "audit.report"),
            (audit.BoundReport, "to_json_dict", "audit.report"),
        ] + [
            (audit, name, "bounds.eval")
            for name in (
                "ub_packing_min_degree",
                "lb_degree_leaves",
                "lb_degree_parity",
                "lb_max_degree_domination",
                "tree_lower_bounds",
                "not_applicable",
            )
        ]
    out = [(owner, attr, tracer.wrap(name, getattr(owner, attr))) for owner, attr, name in calls]
    if workload == "trees-exhaustive":
        out.append((audit, "enumerate_labeled_trees", tracer.wrap_iter("generate", audit.enumerate_labeled_trees)))
        out.append((audit, "open", tracer.timed_open("audit.report")))
    return out


def traced_run(workload: str, items, checker: Checker, seconds: float, gen_ms: float, spans_path, probe: SpeedProbe):
    """Traced pass, then an untraced replay of the same inputs.

    Returns the per-layer metrics, both tallies, and the number of graphs
    whose traced output differs from the untraced one. Span times are wall
    time; the tracing overhead and pool efficiency compare times scaled by
    ``probe``, which runs between operations.
    """
    trees = workload == "trees-exhaustive"
    tracer = Tracer(ROOT_SPANS)
    if trees:
        limit, traced_seconds = TRACED_SWEEPS, 0.0
        op = tracer.wrap("audit.sweep", sweep_op)
    else:
        limit, traced_seconds = None, seconds / 2
        op = tracer.wrap("solve.graph", solve_op) if workload == "dense-solve" else audit_op
    with patched(trace_targets(tracer, workload)):
        traced = run_ops(items, op, checker, traced_seconds, limit, min_ops=limit or 1, probe=probe)
    ops = len(traced.fingerprints)

    if trees:
        spec = items[0][0]
        replay = [(spec, 1), (spec, 2)]
        remaining = max(seconds - traced.seconds(probe.wall), 0.0)
        untraced = run_ops(replay, sweep_op, checker, remaining, min_ops=len(replay), probe=probe)
        serial = statistics.median(untraced.sweep_seconds(1, probe.scaled))
        overhead = statistics.median(traced.sweep_seconds(1, probe.scaled)) / serial - 1
        pool = serial / (2 * statistics.median(untraced.sweep_seconds(2, probe.scaled)))
        pairs = [(fp, untraced.fingerprints[0]) for fp in traced.fingerprints]
        graphs = [g for _, g in audit.iter_corpus(spec)]
    else:
        untraced = run_ops(items, OPS[workload], checker, float("inf"), ops, probe=probe)
        overhead = traced.seconds(probe.scaled) / untraced.seconds(probe.scaled) - 1
        pool = 0.0
        pairs = list(zip(traced.fingerprints, untraced.fingerprints))
        graphs = [item[1] if workload == "random-audit" else _parse_graph(item[1], "graph6") for item in items[:ops]]
    mismatched = checker.graphs_per_op * sum(a is not None and b is not None and a != b for a, b in pairs)

    s = summarize(tracer.spans, ROOT_SPANS, folds=("audit.chain",))
    n = traced.attempted

    def ms(name):
        return s["totals_ns"].get(name, 0) / 1e6 / n

    metrics = {
        "solvers.gamma_s_ms": ms("solvers.gamma_s"),
        "solvers.gamma_s_shortcut_frac": statistics.fmean(solvers.forced_plus_mask(g) == g.full_mask for g in graphs),
        "solvers.gamma_ms": ms("solvers.gamma"),
        "solvers.rho_ms": ms("solvers.rho"),
        "solvers.L_k_ms": ms("solvers.L_k"),
        "solvers.gamma_xk_ms": ms("solvers.gamma_xk"),
        "solvers.certify_ms": ms("solvers.certify"),
        "audit.chain_ms": ms("audit.chain"),
        "audit.chain_calls": s["folded_calls"] / n,
        "audit.report_ms": ms("audit.report"),
        "audit.report_bytes_per_graph": traced.report_bytes / n,
        "audit.pool_efficiency": pool,
        "generate.ms_per_graph": ms("generate") if trees else gen_ms,
        "codecs.parse_ms": ms("codecs.parse"),
        "codecs.serialize_ms": ms("codecs.serialize"),
        "graphs.profile_ms": ms("graphs.profile"),
        "bounds.eval_ms": ms("bounds.eval"),
        "audit.unattributed_frac": s["unattributed_ns"] / s["root_ns"],
        "trace.overhead_frac": overhead,
    }
    tracer.write_tsv(spans_path)
    return metrics, traced, untraced, mismatched


# -- entry point ------------------------------------------------------------------


def with_units(declared, values: dict) -> dict:
    """``values`` keyed and ordered as the BENCHMARK.json list ``declared``."""
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def run(workload: str, seed: int, seconds: float, trace: bool, ref: dict) -> tuple:
    """One benchmark run; returns (result, raw record)."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    raw = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_start": os.getloadavg(),
            "platform": platform.platform(),
        },
    }
    OUT.mkdir(exist_ok=True)
    items, setup_totals, gen_ms = setup(workload, seed)
    raw["setup_s_samples"] = setup_totals
    probe = SpeedProbe()
    checker = Checker(workload, ref)
    if trace:
        spans_path = OUT / f"spans-{workload}-seed{seed}.tsv"
        values, traced, untraced, mismatched = traced_run(workload, items, checker, seconds, gen_ms, spans_path, probe)
        attempted = traced.attempted + untraced.attempted
        failed = traced.failed + untraced.failed + mismatched
        problems = traced.problems + untraced.problems
        if mismatched:
            problems.append(f"traced and untraced outputs differ on {mismatched} graphs")
        metrics = with_units(declared["per_layer"], values)
        raw["traced_samples"] = traced.samples
        raw["untraced_samples"] = untraced.samples
    else:
        tally, graph_timings, sweep_timings = untraced_run(workload, items, checker, seconds, probe)
        attempted, failed, problems = tally.attempted, tally.failed, tally.problems
        metrics = with_units(declared["end_to_end"], end_to_end(graph_timings, sweep_timings, probe.scaled, setup_totals))
        raw["wall_metrics"] = end_to_end(graph_timings, sweep_timings, probe.wall, setup_totals)
        raw["samples"] = tally.samples
        raw["graphs_timed"] = len({key for key, _, _ in graph_timings})
    raw["machine"]["probe_s"] = probe.seconds
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    raw.update(result, failed_frac=failed / attempted, problems=problems)
    return result, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, raw = run(args.workload, args.seed, args.seconds, bool(args.trace), load_reference())
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(raw) + "\n")
    for message in raw["problems"]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    timed = f"{raw['graphs_timed']} graphs timed" if "graphs_timed" in raw else f"{len(raw['traced_samples'])} traced operations"
    print(
        f"perfbench: {args.workload} seed {args.seed}: {timed}, failed {result['failed']}/{result['attempted']} graphs",
        file=sys.stderr,
    )
    for name, m in result["metrics"].items():
        wall = f" (wall time: {raw['wall_metrics'][name]:.6g})" if "wall_metrics" in raw else ""
        print(f"perfbench:   {name} = {m['value']:.6g} {m['unit']}{wall}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
