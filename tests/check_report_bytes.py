"""Check the frozen report digests of ``test_report_bytes.py`` without pytest.

For interpreters that have no pytest, such as a bare CPython 3.10 install:

    PYTHONPATH=src python3.10 tests/check_report_bytes.py

Re-runs every frozen sweep with jobs 1 and 2, reading the digests from
``test_report_bytes.py`` itself. Prints one line per run and exits 1 if any
digest differs.
"""

import os
import platform
import sys
import tempfile
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
try:
    import pytest  # noqa: F401
except ImportError:
    # The test module only decorates with pytest.mark.parametrize at import.
    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=lambda *a, **k: (lambda f: f))
    sys.modules["pytest"] = stub

import test_report_bytes as frozen  # noqa: E402

from signeddom import audit_corpus  # noqa: E402


def sweep_digests(spec, jobs: int, directory: str) -> tuple:
    csv_p, json_p = os.path.join(directory, "r.csv"), os.path.join(directory, "r.json")
    audit_corpus(spec, csv_path=csv_p, json_path=json_p, jobs=jobs)
    with open(csv_p, "rb") as c, open(json_p, "rb") as j:
        return frozen.sha256(c.read()), frozen.sha256(j.read())


def main() -> int:
    print(f"Python {platform.python_version()}")
    bad = 0
    with tempfile.TemporaryDirectory() as directory:
        for name, (spec, csv_digest, json_digest) in frozen.SWEEPS.items():
            for jobs in (1, 2):
                ok = sweep_digests(spec, jobs, directory) == (csv_digest, json_digest)
                bad += not ok
                print(f"{'match' if ok else 'DIFFERS'}  sweep {name!r} jobs={jobs}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
