import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signeddom.audit as audit_mod
import signeddom.cli as cli_mod
from signeddom import BoundViolation, audit_graph, cycle_graph, parse_graph, path_graph, serialize_graph, verify_sdf
from signeddom.cli import main
from signeddom.graphs import mask_of
from signeddom.solvers import SignedFunction, VertexSet

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_path_edgelist(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "path", "--n", "7", "--format", "edgelist")
    assert code == 0
    assert out == serialize_graph(path_graph(7), "edgelist")


def test_gen_graph6_and_seeded_kinds(capsys):
    code, out, _ = run(capsys, "gen", "--kind", "complete", "--n", "3", "--format", "graph6")
    assert code == 0 and out.strip() == "Bw"
    code, out1, _ = run(capsys, "gen", "--kind", "random_tree", "--n", "8", "--seed", "4")
    code2, out2, _ = run(capsys, "gen", "--kind", "random_tree", "--n", "8", "--seed", "4")
    assert code == code2 == 0 and out1 == out2


def test_gen_missing_params(capsys):
    code, _, err = run(capsys, "gen", "--kind", "path")
    assert code == 1 and "needs --n" in err
    code, _, err = run(capsys, "gen", "--kind", "spider", "--n", "5")
    assert code == 1 and "--legs" in err


def test_convert_roundtrip(tmp_path, capsys):
    el = tmp_path / "c6.el"
    el.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    g6 = tmp_path / "c6.g6"
    code, _, _ = run(capsys, "convert", "--input", str(el), "--format", "graph6", "--out", str(g6))
    assert code == 0
    assert parse_graph(g6.read_text(), "graph6") == cycle_graph(6)
    code, out, _ = run(capsys, "convert", "--input", str(g6), "--format", "edgelist")
    assert code == 0 and out == serialize_graph(cycle_graph(6), "edgelist")


def test_solve_gamma_s(tmp_path, capsys):
    p7 = tmp_path / "p7.el"
    p7.write_text(serialize_graph(path_graph(7), "edgelist"))
    code, out, _ = run(capsys, "solve", "--param", "gamma_s", "--input", str(p7))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "gamma_s 5"
    assert lines[1].startswith("witness ")
    pattern = lines[1].split()[1]
    f = SignedFunction(tuple(1 if ch == "+" else -1 for ch in pattern))
    assert verify_sdf(path_graph(7), f) == []


def test_solve_modes_and_sets(tmp_path, capsys):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    code, out, _ = run(capsys, "solve", "--param", "gamma_s", "--mode", "oracle", "--input", str(c6))
    assert code == 0 and out.splitlines()[0] == "gamma_s 2"
    code, out, _ = run(capsys, "solve", "--param", "rho", "--input", str(c6))
    assert code == 0 and out.splitlines()[0] == "rho 2"
    code, out, _ = run(capsys, "solve", "--param", "limited_packing", "--k", "2", "--input", str(c6))
    assert out.splitlines()[0] == "limited_packing 4"
    code, out, _ = run(capsys, "solve", "--param", "tuple", "--k", "2", "--input", str(c6),
                       "--json")
    doc = json.loads(out)
    assert doc["value"] == 4 and doc["param"] == "tuple"
    code, out, _ = run(capsys, "solve", "--param", "gamma", "--input", str(c6))
    assert out.splitlines()[0] == "gamma 2"


def test_solve_rejects_invalid_witness(tmp_path, capsys, monkeypatch):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    monkeypatch.setattr(cli_mod, "signed_domination",
                        lambda g, *a, **k: (-6, SignedFunction((-1,) * 6)))
    code, out, err = run(capsys, "solve", "--param", "gamma_s", "--input", str(c6))
    assert code == 1 and out == ""
    assert "invalid at vertices [0, 1, 2, 3, 4, 5]" in err
    # A valid assignment whose weight is not the value is rejected too.
    monkeypatch.setattr(cli_mod, "signed_domination",
                        lambda g, *a, **k: (4, SignedFunction((1,) * 6)))
    code, out, err = run(capsys, "solve", "--param", "gamma_s", "--input", str(c6))
    assert code == 1 and out == ""
    assert "error: gamma_s = 4 has a witness of weight 6 invalid at vertices []" in err


def test_solve_rejects_invalid_subset_witness(tmp_path, capsys, monkeypatch):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    # {0} dominates only 5, 0 and 1 of C6.
    monkeypatch.setattr(cli_mod, "domination_number",
                        lambda g, *a, **k: (1, VertexSet(mask_of({0}), "tuple_dominating", 1)))
    code, out, err = run(capsys, "solve", "--param", "gamma", "--input", str(c6))
    assert code == 1 and out == ""
    assert "error: gamma = 1 has a certificate of size 1 invalid at vertices [2, 3, 4]" in err
    # A valid set whose size is not the value is rejected too.
    monkeypatch.setattr(cli_mod, "packing_number",
                        lambda g, *a, **k: (3, VertexSet(mask_of({0, 3}), "limited_packing", 1)))
    code, out, err = run(capsys, "solve", "--param", "rho", "--input", str(c6))
    assert code == 1 and out == ""
    assert "error: rho = 3 has a certificate of size 2 invalid at vertices []" in err


def test_solve_checks_the_role_and_k_it_asked_for(tmp_path, capsys, monkeypatch):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    # {0, 1} is a 2-limited packing of C6, not the packing (k = 1) that rho asks for.
    monkeypatch.setattr(cli_mod, "packing_number",
                        lambda g, *a, **k: (2, VertexSet(mask_of({0, 1}), "limited_packing", 2)))
    code, out, err = run(capsys, "solve", "--param", "rho", "--input", str(c6))
    assert code == 1 and out == ""
    assert err == (
        "error: rho = 2 has a certificate for a limited_packing set at k = 2,"
        " not for a limited_packing set at k = 1\n"
    )


def test_oracle_mode_is_for_gamma_s_only(tmp_path, capsys):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    for param in ("gamma", "tuple", "limited_packing", "rho"):
        code, out, err = run(capsys, "solve", "--param", param, "--mode", "oracle", "--input", str(c6))
        assert code == 1 and out == ""
        assert f"error: --mode oracle solves only gamma_s, not {param}" in err


def test_k_is_for_tuple_and_limited_packing_only(tmp_path, capsys):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    for param in ("gamma_s", "gamma", "rho"):
        code, out, err = run(capsys, "solve", "--param", param, "--k", "3", "--input", str(c6))
        assert code == 1 and out == ""
        assert f"error: --k applies only to tuple and limited_packing, not {param}" in err
    for param in ("tuple", "limited_packing"):
        code, out, err = run(capsys, "solve", "--param", param, "--input", str(c6))
        assert code == 1 and out == ""
        assert f"error: --param {param} needs --k" in err


def test_solve_cap_error(tmp_path, capsys):
    big = tmp_path / "c21.el"
    big.write_text(serialize_graph(cycle_graph(21), "edgelist"))
    code, _, err = run(capsys, "solve", "--param", "gamma_s", "--mode", "oracle",
                       "--input", str(big))
    assert code == 1 and "capped at n <= 20" in err
    big.write_text(serialize_graph(cycle_graph(41), "edgelist"))
    code, _, err = run(capsys, "solve", "--param", "gamma", "--input", str(big))
    assert code == 1 and "capped at n <= 40" in err


def test_solve_caps_a_star_before_answering(capsys, monkeypatch):
    # Every vertex of a star is a leaf or its support, so gamma_s = n is
    # known without a search; the size cap still comes first.
    import io
    code, star, _ = run(capsys, "gen", "--kind", "star", "--n", "41")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(star))
    code, out, err = run(capsys, "solve", "--param", "gamma_s", "--input", "-")
    assert code == 1 and out == "" and "capped at n <= 40" in err


def test_cap_flags_are_gone(tmp_path, capsys):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    for argv in (
        ("solve", "--param", "gamma_s", "--input", str(c6), "--cap-bnb", "10"),
        ("audit", "--corpus", "path", "--n-max", "4", "--cap-bnb", "10"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err


def test_solve_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph(cycle_graph(6), "edgelist")))
    code, out, _ = run(capsys, "solve", "--param", "gamma_s", "--input", "-")
    assert code == 0 and out.splitlines()[0] == "gamma_s 2"


def test_bounds_command(tmp_path, capsys):
    p7 = tmp_path / "p7.el"
    p7.write_text(serialize_graph(path_graph(7), "edgelist"))
    code, out, _ = run(capsys, "bounds", "--input", str(p7))
    assert code == 0
    assert "gamma_s=5" in out
    assert "thm3_4_tree" in out and "NA (delta < 2)" in out
    code, out, _ = run(capsys, "bounds", "--input", str(p7), "--json")
    doc = json.loads(out)
    assert doc["exact"]["gamma_s"] == 5
    null = tmp_path / "null.el"
    null.write_text("0 0\n")
    code, out, err = run(capsys, "bounds", "--input", str(null))
    assert code == 0 and err == ""
    assert "thm3_3       lower NA (n = 0)" in out and "VIOLATED" not in out


def test_bounds_violation_exit_code(tmp_path, capsys, monkeypatch):
    c6 = tmp_path / "c6.el"
    c6.write_text(serialize_graph(cycle_graph(6), "edgelist"))
    # thm3_3 made to read n + 2 = 8 on C6, above gamma_s = 2.
    real = audit_mod.lb_max_degree_domination
    monkeypatch.setattr(audit_mod, "lb_max_degree_domination",
                        lambda profile, gamma: dataclasses.replace(real(profile, gamma), tightened=profile.n + 2))
    code, out, err = run(capsys, "bounds", "--input", str(c6))
    assert code == 2
    assert "thm3_3       lower raw=0 tightened=8 gap=6 VIOLATED" in out
    assert "VIOLATION: bound thm3_3 violated (raw=0, gamma_s=2)" in err and "graph6: E" in err
    code, out, err = run(capsys, "bounds", "--input", str(c6), "--json")
    assert code == 2
    assert json.loads(out)["bounds"][3]["satisfied"] is False
    assert "VIOLATION: bound thm3_3 violated" in err


def test_audit_command_writes_reports(tmp_path, capsys):
    csv_p = tmp_path / "r.csv"
    json_p = tmp_path / "r.json"
    code, out, _ = run(
        capsys, "audit", "--corpus", "complete", "--n-min", "3", "--n-max", "8",
        "--out", str(csv_p), "--json-out", str(json_p),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["graphs"] == 6 and summary["violations"] == 0
    assert csv_p.read_text().startswith("graph_id,")
    assert len(json.loads(json_p.read_text())["reports"]) == 6


def test_audit_refuses_one_path_for_both_reports(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "audit", "--corpus", "path", "--n-max", "4",
                         "--out", "r.out", "--json-out", "./r.out")
    assert (code, out) == (1, "")
    assert err == "error: the CSV and JSON reports cannot both be written to r.out\n"
    assert os.listdir(tmp_path) == []


def test_audit_determinism_cli(tmp_path, capsys):
    args = ["audit", "--corpus", "random-connected", "--n-min", "5", "--n-max", "7",
            "--count", "3", "--seed", "11"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run(capsys, *args, "--out", str(a))[0] == 0
    assert run(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_audit_trees_exhaustive_cli(tmp_path, capsys):
    code, out, _ = run(capsys, "audit", "--corpus", "trees-exhaustive", "--n-max", "5")
    assert code == 0
    assert json.loads(out)["graphs"] == 1 + 3 + 16 + 125


def test_audit_cycle_default_n_min_cli(capsys):
    # --n-min defaults to 2; the cycle corpus starts at C3.
    code, out, _ = run(capsys, "audit", "--corpus", "cycle", "--n-max", "5")
    assert code == 0
    assert json.loads(out)["graphs"] == 3


def test_audit_violation_exit_code(capsys, monkeypatch):
    tampered = audit_graph(cycle_graph(6), "C6")
    tampered.checks["eq1"] = False

    def boom(spec, **kwargs):
        raise BoundViolation("invariant check eq1 failed", tampered.graph6, tampered)

    monkeypatch.setattr(cli_mod, "audit_corpus", boom)
    code, _, err = run(capsys, "audit", "--corpus", "cycle", "--n-min", "6", "--n-max", "6")
    assert code == 2
    assert "VIOLATION" in err and f"graph6: {tampered.graph6}" in err


def test_hunt_command(capsys):
    code, out, _ = run(capsys, "hunt", "--corpus", "complete", "--n-min", "3", "--n-max", "6",
                       "--target", "thm3_3")
    assert code == 0
    assert out.split() == ["Bw", "C~", "D~{", "E~~w"]


def test_hunt_jobs_matches_serial(capsys):
    argv = ("hunt", "--corpus", "trees-exhaustive", "--n-max", "6", "--target", "thm3_4_tree")
    code, serial, _ = run(capsys, *argv)
    assert code == 0 and serial
    assert run(capsys, *argv, "--jobs", "2") == (0, serial, "")


def test_jobs_below_one_exit_1(capsys):
    for command in ("audit", "hunt"):
        argv = [command, "--corpus", "cycle", "--n-min", "3", "--n-max", "4", "--jobs", "0"]
        if command == "hunt":
            argv += ["--target", "thm3_3"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: jobs must be >= 1, got 0\n"


@pytest.mark.parametrize("argv, message", [
    (("audit", "--corpus", "random-connected", "--n-max", "6", "--p", "1.5", "--out", "r.csv", "--json-out", "r.json"),
     "edge probability must be in (0,1], got 1.5"),
    (("hunt", "--corpus", "path", "--n-min", "0", "--n-max", "6", "--target", "thm3_3"), "path needs n >= 1, got 0"),
])
def test_corpus_generator_errors_exit_1_before_any_report(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")
    assert os.listdir(tmp_path) == []


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "solve", "--param", "nope", "--input", "x")[0] == 1
    assert run(capsys)[0] == 1


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "solve", "--param", "gamma_s", "--input", "/nope/missing.el")
    assert code == 1 and "error" in err.lower()


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_141_quietly(tmp_path, unbuffered):
    # A reader that is gone before the first write, as with `| head -c 0`:
    # buffered, the write fails at the flush; unbuffered, inside print.
    # Either way the command says nothing and exits as a shell reports SIGPIPE.
    p7 = tmp_path / "p7.el"
    p7.write_text(serialize_graph(path_graph(7), "edgelist"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "signeddom.cli", "solve", "--param", "gamma_s", "--input", str(p7)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")
