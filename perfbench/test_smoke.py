"""Smoke test of the benchmark itself at tiny sizes: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import COUNT_METRICS, TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s",
    "failed_share": "ratio", "peak_rss_mib": "MiB",
}
PER_LAYER = {**{m: "s" for m in TIME_METRICS}, **COUNT_METRICS, "trace.overhead_s": "s"}


def bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def printed_units(stdout: str) -> dict:
    """{(workload, metric): unit} from the human-readable metric lines."""
    units, workload = {}, None
    for line in stdout.splitlines():
        if line.startswith("# workload="):
            workload = line.split()[1].split("=", 1)[1]
        elif line and not line.startswith(("#", "{")):
            name, _value, unit = line.split()[:3]
            units[(workload, name)] = unit
    return units


@pytest.fixture(scope="module")
def traced_twice():
    return [bench("--workload", "all", "--tiny", "--seconds", "0.5", "--trace", "1")
            for _ in range(2)]


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc = bench("--workload", "all", "--tiny", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    units = printed_units(proc.stdout)
    for workload in WORKLOADS:
        for name, unit in END_TO_END.items():
            assert units.get((workload, name)) == unit, (workload, name)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4


def test_one_workload_reports_exactly_the_end_to_end_metrics():
    proc = bench("--workload", "verify", "--tiny", "--seconds", "0.2", "--seed", "2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert {m: v["unit"] for m, v in metrics.items()} == {
        m: u for m, u in END_TO_END.items() if m != "failed_share"}


def test_traced_run_prints_every_layer_metric(traced_twice):
    for proc in traced_twice:
        assert proc.returncode == 0, proc.stdout + proc.stderr
        units = printed_units(proc.stdout)
        for workload in WORKLOADS:
            for name, unit in PER_LAYER.items():
                assert units.get((workload, name)) == unit, (workload, name)


def test_counts_repeat_exactly_between_runs(traced_twice):
    first, second = (json.loads(p.stdout.splitlines()[-1])["metrics"] for p in traced_twice)
    counts = [f"{w}/{m}" for w in WORKLOADS for m in COUNT_METRICS]
    assert {m: first[m] for m in counts} == {m: second[m] for m in counts}
    assert first["circuit-eval/lcu.terms_kept"]["value"] > 0
    assert first["hierarchize/sparsegrid.f_evals"]["value"] > 0
    assert first["verify/sparsegrid.grid_point_levels"]["value"] > 0
    assert first["export/cli.bytes_out"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "hierarchize", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
