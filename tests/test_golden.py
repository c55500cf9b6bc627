"""CLI outputs pinned byte for byte against ``tests/golden``.

``tests/golden/regenerate.py`` writes the files; a change that moves an
output regenerates them and names each changed file and line.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from qkorobov.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_output_matches_golden(name):
    case = MANIFEST[name]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(case["argv"])
    out = buf.getvalue().encode("utf-8")
    assert code == case["exit"]
    if case["sha256"] is not None:
        assert hashlib.sha256(out).hexdigest() == case["sha256"]
    else:
        assert out == (GOLDEN / f"{name}.out").read_bytes()
