"""The benchmark's own workload checks pass at its tiny sizes.

``perfbench/workloads.py`` and ``perfbench/expected.json`` are loaded as
they are, without writing anything under ``perfbench/``, and each workload
runs its set-up, check preparation and eight checked ops in a temporary
directory.  A library change that breaks what the benchmark calls or
records then fails here, not only in a full benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import qkorobov
import qkorobov.cli  # the workloads reach every module through the package

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OPS = 8


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    cached, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = cached
    return module


WORKLOADS = load_workloads()
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_tiny_workload_passes_its_checks(name, tmp_path):
    wl = WORKLOADS.WORKLOADS[name](qkorobov, "tiny", WORKLOADS.DEFAULT_SEED,
                                   str(tmp_path), EXPECTED)
    wl.setup()
    wl.prepare_checks()
    for i in range(OPS):
        inp = wl.inputs(i)
        out = wl.run(inp)
        wl.counts(out)
        assert wl.check(i, inp, out) == [], f"{name} op {i}"
