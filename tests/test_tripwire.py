"""Byte tripwire: every checked-in circuit's run keeps its exact output.

Each circuit in ``tests/data/tripwire`` runs through ``cli.main`` with the
fixed arguments of its entry in ``tests/data/tripwire.json``, from inside the
data directory so no absolute path enters an error line. The SHA-256 of its
exit code, stdout and stderr must equal the recorded digest. A change that
means to move these bytes rewrites the digests with

    PYTHONPATH=src python tests/test_tripwire.py

and says in CHANGES.md which circuits moved and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "tripwire.json"
CASES = json.loads(DIGESTS.read_text(encoding="utf-8"))


def run_digest(name, args):
    """SHA-256 of [exit code, stdout, stderr] of one circuit run, as JSON text."""
    import spintip.cli as cli

    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["--circuit", f"tripwire/{name}.circuit", *args])
    finally:
        os.chdir(here)
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_circuit_has_an_entry():
    assert sorted(path.stem for path in (DATA / "tripwire").glob("*.circuit")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_circuit_output_keeps_its_bytes(name):
    case = CASES[name]
    assert run_digest(name, case["args"]) == case["sha256"], f"{name} changed its output"


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parents[1] / "src"))
    for name, case in CASES.items():
        case["sha256"] = run_digest(name, case["args"])
    DIGESTS.write_text(json.dumps(CASES, indent=2, sort_keys=True) + "\n", encoding="utf-8")
