"""Frozen report bytes.

Acceptance criterion 8 compares two runs of the same code, so a change of
format would pass it. These sha256 digests were taken from the dict-based
``json.dump(..., indent=2)`` writer that ``BoundReport.to_json_text`` replaced;
any change to the CSV or JSON bytes fails here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from signeddom import CorpusSpec, Graph, audit_corpus, audit_graph, iter_corpus, serialize_graph
from signeddom.audit import BoundReport
from signeddom.cli import main

SWEEPS = {
    "trees n<=5": (
        CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=5),
        "0c31de05ca80e700d792b955ebcc71297f41bc131b515929b216fbf1b6e4c261",
        "311e9725ce3b1145dede0269b95194d4a9403964b46380eab5a8e0837cae398a",
    ),
    # The benchmark's tree sweep, whose digests perfbench/reference.json freezes too.
    "trees n<=6": (
        CorpusSpec(kind="trees_exhaustive", n_min=2, n_max=6),
        "4fc739c91ff46bfd5b980c35f32565a68976dfa7e3ed1789803997f04d72dc7e",
        "910f2a4fa347ce1c2aaee94ef719bf709ac0494c7cac48427843ab56356f3e2f",
    ),
    "random_connected n=5..7": (
        CorpusSpec(kind="random_connected", n_min=5, n_max=7, count=4, p=0.5, seed=123),
        "d4893c3a8a28738f775c1334308e298d94f2e1b9dffe65663417191c291cfc33",
        "68ebb97ff61fdca450cd268bb696cd4182fd37222e5fdfe5220e03274a5240ef",
    ),
    "empty": (
        CorpusSpec(kind="trees_exhaustive", n_min=1, n_max=1),
        "67a616f4cc979f9680a8a5f35ed746c64b4072d35b4d1eec2f918664a42e16fd",
        "b627ac0d54c842aaaa793f1a77e2e83e4093959a66be4ea11a27f1cee5e5d517",
    ),
}

DISCONNECTED = Graph(5, [(0, 1), (2, 3), (3, 4)])
BACKSLASH = Graph(4, [(0, 2), (1, 2), (0, 3), (2, 3)])  # graph6 "C\"

BOUNDS_JSON = {
    "disconnected": (DISCONNECTED, "a1a0f18c36a3a1914d2bd252378d4b075210ab675ed4262e4330aabba743dbb5"),
    "backslash": (BACKSLASH, "be935d362c2c368750b212f8bb11fdda6f4cfb45f19e86866a00bfa795b96d6c"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", SWEEPS)
@pytest.mark.parametrize("jobs", (1, 2))
def test_sweep_bytes_are_frozen(tmp_path, name, jobs):
    spec, csv_digest, json_digest = SWEEPS[name]
    csv_p, json_p = tmp_path / "r.csv", tmp_path / "r.json"
    audit_corpus(spec, csv_path=csv_p, json_path=json_p, jobs=jobs)
    assert (sha256(csv_p.read_bytes()), sha256(json_p.read_bytes())) == (csv_digest, json_digest)


def test_spawned_pool_writes_the_frozen_bytes(tmp_path):
    # Under the spawn start method, the default on macOS and Windows, every
    # worker imports the package afresh and the graphs and reports cross by pickle.
    spec, csv_digest, json_digest = SWEEPS["trees n<=5"]
    code = (
        "import multiprocessing, sys\n"
        "from signeddom import CorpusSpec, audit_corpus\n"
        "if __name__ == '__main__':\n"
        "    multiprocessing.set_start_method('spawn')\n"
        f"    audit_corpus({spec!r}, sys.argv[1], sys.argv[2], jobs=2)\n"
    )
    csv_p, json_p = tmp_path / "r.csv", tmp_path / "r.json"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    subprocess.run([sys.executable, "-c", code, str(csv_p), str(json_p)], env=env, check=True, timeout=120)
    assert (sha256(csv_p.read_bytes()), sha256(json_p.read_bytes())) == (csv_digest, json_digest)


def test_empty_sweep_has_no_reports(tmp_path):
    json_p = tmp_path / "r.json"
    audit_corpus(SWEEPS["empty"][0], json_path=json_p)
    assert json.loads(json_p.read_text())["reports"] == []


@pytest.mark.parametrize("name", BOUNDS_JSON)
def test_bounds_json_bytes_are_frozen(tmp_path, capsys, name):
    g, digest = BOUNDS_JSON[name]
    path = tmp_path / "g.el"
    path.write_text(serialize_graph(g, "edgelist"))
    assert main(["bounds", "--input", str(path), "--json"]) == 0
    assert sha256(capsys.readouterr().out.encode()) == digest


def test_backslash_graph6_is_escaped():
    assert serialize_graph(BACKSLASH, "graph6") == "C\\"
    assert '"graph6": "C\\\\"' in audit_graph(BACKSLASH).to_json_text()


def test_text_is_what_the_standard_encoder_writes():
    # Every report of the n <= 6 trees, the two graphs above, and a report cut
    # short before its checks (what a certificate abort dumps).
    reports = [audit_graph(g, graph_id) for graph_id, g in iter_corpus(CorpusSpec("trees_exhaustive", 2, 6))]
    reports += [audit_graph(DISCONNECTED, 'odd "id" \\ é'), audit_graph(BACKSLASH)]
    partial = audit_graph(BACKSLASH)
    reports.append(BoundReport(**{**vars(partial), "checks": {}}))
    assert len(reports) == 1441 + 3
    for report in reports:
        text = report.to_json_text()
        assert json.dumps(json.loads(text), indent=2) == text
