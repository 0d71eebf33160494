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
