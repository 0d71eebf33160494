"""Freeze the reference outputs that run.py checks every operation against.

    python3 perfbench/freeze.py

Writes perfbench/reference.json from the package under src/. The committed
file was frozen from the package as it stood when the benchmark was added, so
a later change that alters any output shows up as failed operations. Run this
again only when an output is meant to change, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json

import run


def freeze_trees() -> dict:
    spec = run.make_inputs("trees-exhaustive", 0)[0][0][0]
    digests = set()
    for jobs in (1, 2):
        summary = run.sweep_op((spec, jobs))
        digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in run.sweep_paths(jobs)))
    if len(digests) != 1:
        raise SystemExit("freeze: serial and jobs=2 sweeps wrote different reports")
    csv_sha, json_sha = digests.pop()
    return {"n_max": run.TREES_N_MAX, "graphs": summary["graphs"], "csv_sha256": csv_sha, "json_sha256": json_sha}


def freeze_graphs(workload: str) -> dict:
    entries = []
    for u, n, p, graph_seed in run.universe(workload):
        g = run.gen.generate("random_connected", {"n": n, "p": p}, graph_seed)
        g6 = run.codecs.serialize_graph(g, "graph6")
        if workload == "random-audit":
            row, report = run.audit_op((u, g))
            value, witness, digest = report["exact"]["gamma_s"], report["witness"], run.report_digest(row, report)
        else:
            value, witness, violations = run.solve_op((u, g6))
            digest = None
            if violations:
                raise SystemExit(f"freeze: {g6} witness fails verify_sdf")
        if run.witness_problems(g, value, witness):
            raise SystemExit(f"freeze: {g6} witness does not certify gamma_s = {value}")
        entries.append([g6, value, witness, digest])
    cells = [list(c) for c in run.CELLS[workload]]
    return {"cells": cells, "slots": run.SLOTS[workload], "master": run.MASTER[workload], "graphs": entries}


def main() -> None:
    run.OUT.mkdir(exist_ok=True)
    ref = {"trees": freeze_trees()}
    for workload in run.CELLS:
        ref[workload] = freeze_graphs(workload)
    path = run.HERE / "reference.json"
    with open(path, "w") as fh:
        json.dump(ref, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
