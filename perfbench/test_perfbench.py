"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import speed

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def graph6_inputs(workload, seed):
    items, _ = run.make_inputs(workload, seed)
    if workload == "random-audit":
        return [run.codecs.serialize_graph(g, "graph6") for _, g in items]
    return [g6 for _, g6 in items]


@pytest.mark.parametrize("workload", ["random-audit", "dense-solve"])
def test_same_seed_gives_same_graph6_inputs(workload):
    first = graph6_inputs(workload, 11)
    second = graph6_inputs(workload, 12)
    assert first == graph6_inputs(workload, 11)
    assert first != second
    assert len(first) == len(second) == run.PICK[workload] * len(run.CELLS[workload])
    universe = {g6 for g6, *_ in run.load_reference()[workload]["graphs"]}
    assert set(first) | set(second) <= universe
    if run.PICK[workload] == run.SLOTS[workload]:
        assert sorted(first) == sorted(second)  # the whole universe, in another order
    else:
        assert sorted(first) != sorted(second)  # another sample of the universe


@pytest.mark.parametrize("workload", ["random-audit", "dense-solve"])
def test_every_reachable_graph_has_a_reference(workload):
    entries = run.load_reference()[workload]["graphs"]
    assert len(entries) == len(run.universe(workload))
    items, _ = run.make_inputs(workload, 5)
    for u, g in items[: 3 * len(run.CELLS[workload])]:
        g6 = g if workload == "dense-solve" else run.codecs.serialize_graph(g, "graph6")
        assert entries[u][0] == g6


def corrupt(ref, workload, items):
    bad = copy.deepcopy(ref)
    if workload.startswith("trees"):
        bad["trees"]["json_sha256"] = "0" * 64
    else:
        bad[workload]["graphs"][items[0][0]][2] = "-" * 40  # a wrong witness
    return bad


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_corrupted_reference_is_counted_as_failed(workload):
    ref = run.load_reference()
    items, _ = run.make_inputs(workload, 3)
    good = run.run_ops(items, run.OPS[workload], run.Checker(workload, ref), 0.0, limit=2, min_ops=2)
    assert good.failed == 0 and good.attempted > 0
    bad = run.run_ops(items, run.OPS[workload], run.Checker(workload, corrupt(ref, workload, items)), 0.0, limit=2, min_ops=2)
    assert bad.attempted == good.attempted
    per_op = good.attempted // 2
    assert bad.failed == (2 * per_op if workload.startswith("trees") else 1)
    assert bad.problems


def test_corrupted_reference_shows_in_the_result():
    ref = run.load_reference()
    items, _ = run.make_inputs("random-audit", 4)
    result, raw = run.run("random-audit", 4, 0.2, False, corrupt(ref, "random-audit", items))
    assert result["correct"] is False
    assert result["failed"] >= 1 and raw["failed_frac"] == result["failed"] / result["attempted"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random-audit", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def probe_at(intervals):
    probe = speed.SpeedProbe()
    probe.starts = [a for a, _ in intervals]
    probe.ends = [b for _, b in intervals]
    return probe


def test_speed_probe_scales_each_gap_by_the_probes_around_it():
    # Probe times 1, 2 and 1 s: each probe counts as the median of it and its neighbours.
    assert probe_at([(0.0, 1.0), (3.0, 5.0), (9.0, 10.0)]).factors() == [speed.REF_S / 1.0] * 3
    probe = probe_at([(0.0, 1.0), (3.0, 5.0)])
    f = speed.REF_S / 1.5  # both probes count as the median of (1, 2)
    assert probe.wall(0.0, 12.0) == 2.0 + 7.0  # probe time is left out
    assert probe.scaled(1.0, 3.0) == pytest.approx(2.0 * f)
    assert probe.scaled(2.0, 7.0) == pytest.approx(3.0 * f)
    # Probe times 1, 1, 1, 3, 3, 3 s with 1 s gaps: the gap between the third
    # and fourth probe takes the mean of their factors.
    starts = [0.0, 2.0, 4.0, 6.0, 10.0, 14.0]
    probe = probe_at([(a, a + t) for a, t in zip(starts, [1, 1, 1, 3, 3, 3])])
    assert probe.scaled(5.0, 6.0) == pytest.approx((speed.REF_S / 1 + speed.REF_S / 3) / 2)
