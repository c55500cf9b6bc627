"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares.

Run from the repository root with the package on the path:

    PYTHONPATH=src python tests/golden/regenerate.py           # rewrite
    PYTHONPATH=src python tests/golden/regenerate.py --check   # compare only

Each case runs ``qkorobov.cli.main`` in-process.  Its stdout is written to
``<name>.out`` (or, for a case marked digest-only, its SHA-256 goes into the
manifest), and ``MANIFEST.json`` records every case's argv, exit code and
digest.  A change that moves an output regenerates the files and names each
changed file and line.

``--check`` reruns every case against the recorded files and writes nothing:
it prints ``OK`` or ``DIFF`` per case and exits 1 on any difference.  A
differing case lists every differing line, numbered, as recorded -> got (at
most 50 per case), or the two digests of a digest-only case, so the lines a
change moves can be copied from it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
from pathlib import Path

from qkorobov.cli import main

HERE = Path(__file__).resolve().parent
MAX_LISTED_LINES = 50  # differing lines that --check lists per case

D3_POINTS = "0.3,0.6,0.7;0.5,0.25,0.625;0,0.4,0.9"  # interior, dyadic, boundary
EVAL_D3 = ["eval", "--fn", "prod-quad", "--d", "3", "--n", "6", "--x", D3_POINTS]

# (name, argv, digest only)
CASES = [
    ("eval-csv", EVAL_D3, False),
    ("eval-json", EVAL_D3 + ["--format", "json"], False),
    ("eval-normalized", EVAL_D3 + ["--normalized"], False),
    ("eval-no-identity", EVAL_D3 + ["--no-include-identity-gates"], False),
    ("eval-asym-cubic", ["eval", "--fn", "asym-cubic", "--n", "5",
                         "--x", "0.1;0.37;0.5;1"], False),
    ("eval-sin-json", ["eval", "--fn", "prod-sin", "--d", "2", "--n", "5",
                       "--x", "0.3,0.7;0.5,0.8125;0.21,0", "--format", "json"], False),
    ("coeffs", ["coeffs", "--fn", "prod-sin", "--d", "2", "--n", "4"], False),
    ("coeffs-quadrature", ["coeffs", "--fn", "prod-quad", "--d", "2", "--n", "3",
                           "--quadrature"], False),
    ("verify-convergence-sin", ["convergence", "--fn", "prod-sin", "--d", "2", "--p", "inf",
                                "--n-range", "3..6"], False),
    ("verify-convergence-quad", ["convergence", "--fn", "prod-quad", "--d", "3", "--p", "2",
                                 "--n-range", "2..3"], False),
    ("verify-audit", ["audit", "--n", "5"], False),
    ("convergence-quad-d3-n4", ["convergence", "--fn", "prod-quad", "--d", "3", "--p", "2",
                                "--n-range", "4..4"], False),
    ("convergence-p3-csv", ["convergence", "--fn", "prod-sin", "--d", "1", "--p", "3",
                            "--n-range", "2..5"], False),
    ("convergence-json", ["convergence", "--fn", "prod-quad", "--d", "2",
                          "--n-range", "1..4", "--format", "json"], False),
    ("convergence-svg", ["convergence", "--fn", "prod-quad", "--d", "2",
                         "--n-range", "1..5", "--format", "svg"], False),
    ("convergence-aniso-d2", ["convergence", "--expr", "x^2(1-x)*sin(pi x)", "--d", "2",
                              "--p", "inf", "--n-range", "2..5"], False),
    ("convergence-aniso-d3", ["convergence", "--expr", "x(1-x)*x^2(1-x)*sin(pi x)", "--d", "3",
                              "--p", "inf", "--n-range", "1..3"], False),
    ("resources", ["resources"], False),
    ("resources-csv", ["resources", "--d", "3", "--n-range", "1..6", "--format", "csv"], False),
    ("audit-scaled", ["audit", "--n", "3", "--scale-coeffs", "1.1"], False),
    ("circuit-d3-n4", ["circuit", "--fn", "prod-quad", "--d", "3", "--n", "4",
                       "--x", "0.3,0.6,0.7"], True),
    ("circuit-sin-d2-n5", ["circuit", "--fn", "prod-sin", "--d", "2", "--n", "5",
                           "--x", "0.3,0.7"], True),
    ("circuit-readme", ["circuit", "--fn", "prod-quad", "--d", "1", "--n", "2",
                        "--x", "0.3"], False),
    ("circuit-unsupported", ["circuit", "--fn", "prod-quad", "--d", "2", "--n", "2",
                             "--x", "0,0.3"], False),
]


def run(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode("utf-8")


def regenerate() -> None:
    manifest = {}
    for name, argv, digest_only in CASES:
        code, out = run(argv)
        entry = {"argv": argv, "exit": code, "sha256": None}
        if digest_only:
            entry["sha256"] = hashlib.sha256(out).hexdigest()
        else:
            (HERE / f"{name}.out").write_bytes(out)
        manifest[name] = entry
        print(f"{name}: exit {code}, {len(out)} bytes")
    text = json.dumps(manifest, indent=1) + "\n"
    (HERE / "MANIFEST.json").write_text(text, encoding="utf-8", newline="\n")


def line_diffs(got: bytes, want: bytes) -> list[str]:
    """Every line where two outputs differ, numbered from 1, as recorded -> got.

    A line that one output lacks shows as ``<none>``.
    """
    def show(line: bytes | None) -> str:
        return "<none>" if line is None else repr(line)

    pairs = itertools.zip_longest(want.splitlines(), got.splitlines())
    diffs = [f"line {number}: {show(w)} -> {show(g)}"
             for number, (w, g) in enumerate(pairs, 1) if w != g]
    return diffs or (["trailing newline differs"] if got != want else [])


def case_problem(name: str, entry: dict) -> str | None:
    """Rerun one recorded MANIFEST entry: how its output differs, or None.

    A differing output lists its first MAX_LISTED_LINES differing lines.
    """
    code, out = run(entry["argv"])
    if code != entry["exit"]:
        return f"exit {code}, recorded {entry['exit']}"
    if entry["sha256"] is not None:
        digest = hashlib.sha256(out).hexdigest()
        return None if digest == entry["sha256"] else f"sha256 {digest}, recorded {entry['sha256']}"
    want = (HERE / f"{name}.out").read_bytes()
    diffs = line_diffs(out, want)
    if not diffs:
        return None
    listed = diffs[:MAX_LISTED_LINES]
    if len(diffs) > len(listed):
        listed.append(f"... and {len(diffs) - len(listed)} more")
    return f"{len(diffs)} line(s) differ, recorded -> got" + "".join(f"\n  {d}" for d in listed)


def check() -> int:
    """Rerun every case against the recorded files; 1 on any difference."""
    manifest = json.loads((HERE / "MANIFEST.json").read_text(encoding="utf-8"))
    failed = False
    for name, argv, digest_only in CASES:
        entry = manifest.get(name)
        if entry is None:
            problem = "not in MANIFEST.json"
        elif entry["argv"] != argv:
            problem = f"argv {argv} differs from recorded {entry['argv']}"
        elif (entry["sha256"] is not None) != digest_only:
            problem = "recorded in full" if digest_only else "recorded as digest-only"
        else:
            problem = case_problem(name, entry)
        failed = failed or problem is not None
        print(f"OK   {name}" if problem is None else f"DIFF {name}: {problem}")
    for name in sorted(set(manifest) - {case[0] for case in CASES}):
        failed = True
        print(f"DIFF {name}: recorded in MANIFEST.json but not a case")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--check]")
    regenerate()
