"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "signeddom"


def test_no_assert_statements_in_package():
    # ``python -O`` strips assert statements, so no correctness guard may use one.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert list(SRC.glob("*.py")), f"no sources found under {SRC}"
    assert found == []


def test_import_loads_no_tempfile_or_pool():
    # audit_corpus imports tempfile for a JSON sweep and the process pool for
    # jobs > 1, each only there. -S keeps out what site's own imports load.
    code = "import sys, signeddom; print(sorted({'tempfile', 'concurrent.futures'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_certificates_are_defined_only_in_certify():
    # The re-checks stay independent of the solvers: certify.py imports the
    # standard library and graphs only, and no other module defines what it holds.
    owned = {"verify_sdf", "vertex_set_violations", "SignedFunction", "VertexSet"}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        if path.name != "certify.py":
            assert not defined & owned, path.name
            continue
        assert owned <= defined
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                imported.add("." * node.level + (node.module or ""))
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert {m for m in imported if m.split(".")[0] not in sys.stdlib_module_names} == {".graphs"}
