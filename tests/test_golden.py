"""CLI outputs pinned byte for byte against ``tests/golden``.

``tests/golden/regenerate.py`` writes the files; a change that moves an
output regenerates them and names each changed file and line.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = json.loads((GOLDEN / "MANIFEST.json").read_text(encoding="utf-8"))


def load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REGENERATE = load_regenerate()


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_output_matches_golden(name):
    problem = REGENERATE.case_problem(name, MANIFEST[name])
    assert problem is None, problem


def test_check_reports_each_case_and_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(REGENERATE, "HERE", tmp_path)
    monkeypatch.setattr(REGENERATE, "CASES", [
        ("full", ["eval", "--fn", "prod-quad", "--n", "2", "--x", "0.125"], False),
        ("digest", ["eval", "--fn", "prod-quad", "--n", "2", "--x", "0.3"], True),
    ])
    REGENERATE.regenerate()
    written = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    capsys.readouterr()
    assert REGENERATE.check() == 0
    assert capsys.readouterr().out == "OK   full\nOK   digest\n"

    changed = written["full.out"].replace(b"0.125", b"0.25", 1)
    (tmp_path / "full.out").write_bytes(changed)
    line = 1 + written["full.out"][:written["full.out"].index(b"0.125")].count(b"\n")
    manifest = json.loads(written["MANIFEST.json"])
    manifest["digest"]["sha256"] = "0" * 64
    (tmp_path / "MANIFEST.json").write_text(json.dumps(manifest), encoding="utf-8")
    changed_files = {f.name: f.read_bytes() for f in tmp_path.iterdir()}
    assert REGENERATE.check() == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "DIFF full: 1 line(s) differ, recorded -> got"
    assert out[1].startswith(f"  line {line}: ") and "0.25" in out[1] and "0.125" in out[1]
    assert out[2].startswith("DIFF digest: sha256 ") and out[2].endswith("0" * 64)
    assert {f.name: f.read_bytes() for f in tmp_path.iterdir()} == changed_files


def test_line_diffs_names_every_line():
    line_diffs = REGENERATE.line_diffs
    assert line_diffs(b"a\nb\nc\nd\n", b"a\nx\nc\ny\n") == [
        "line 2: b'x' -> b'b'", "line 4: b'y' -> b'd'"]
    assert line_diffs(b"a\nb\n", b"a\n") == ["line 2: <none> -> b'b'"]
    assert line_diffs(b"a\n", b"a\nb\n") == ["line 2: b'b' -> <none>"]
    assert line_diffs(b"a\n", b"a") == ["trailing newline differs"]
    assert line_diffs(b"a\n", b"a\n") == []


def test_check_caps_the_listed_lines(tmp_path, monkeypatch):
    monkeypatch.setattr(REGENERATE, "HERE", tmp_path)
    monkeypatch.setattr(REGENERATE, "run", lambda argv: (0, b"x\n" * 60))
    (tmp_path / "many.out").write_bytes(b"y\n" * 60)
    problem = REGENERATE.case_problem("many", {"argv": [], "exit": 0, "sha256": None})
    lines = problem.splitlines()
    assert lines[0] == "60 line(s) differ, recorded -> got"
    assert len(lines) == 52 and lines[50] == "  line 50: b'y' -> b'x'"
    assert lines[51] == "  ... and 10 more"
