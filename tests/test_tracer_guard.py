"""The benchmark tracer (``perfbench/tracer.py``) still finds every function it wraps.

Installing the tracer looks up each wrapped library function by name, so a
rename or deletion fails here instead of only in the slow benchmark suite.
"""

import importlib.util
from pathlib import Path

import qkorobov
import qkorobov.cli  # the tracer wraps cli functions too

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
MODULES = [qkorobov, qkorobov.sparsegrid, qkorobov.qsp, qkorobov.lcu, qkorobov.simulator,
           qkorobov.analysis, qkorobov.cli, qkorobov.sparsegrid.SurplusMap]


def test_tracer_installs_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = [dict(vars(owner)) for owner in MODULES]
    with tracer.Tracer().installed(qkorobov):
        pass
    for owner, saved in zip(MODULES, before):
        assert all(getattr(owner, key) is value for key, value in saved.items()
                   if callable(value)), owner
