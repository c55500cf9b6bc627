#!/usr/bin/env python3
"""Benchmark of qkorobov: closed-loop workloads timed end to end, or traced.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload circuit-eval --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seconds 27     # every workload

Each workload is one client in one process with no think time.  After one
warm-up op, ops run back to back for ``--seconds``; every op's output is
checked, with the clock stopped, and a failed check counts as a failed op.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half of the
time untraced and half traced and reports per-layer self times and counts
plus the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
TAIL_BEYOND = 10
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("sparsegrid", "qsp", "lcu", "simulator", "analysis", "cli")
WORKLOADS = ("circuit-eval", "hierarchize", "verify", "export")
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qkorobov; "
    "print(time.perf_counter() - t); print(qkorobov.__file__)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def import_program():
    """Import qkorobov from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    qk = importlib.import_module("qkorobov")
    for name in MODULES:
        importlib.import_module(f"qkorobov.{name}")
    if Path(qk.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"qkorobov imported from {qk.__file__}, not from {SRC}")
    return qk


def time_import() -> float:
    """Seconds to import qkorobov in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    seconds, location = proc.stdout.split("\n")[:2]
    if Path(location).resolve().parent.parent != SRC:
        raise ImportError(f"probe imported qkorobov from {location}")
    return float(seconds)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": ",".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS),
        "cpu": cpu,
    }


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qkorobov").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Session:
    """One workload in this process: runs ops, keeps latencies and failures."""

    def __init__(self, qk, workload):
        self.qk = qk
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, i, tracer=None, op_id=None):
        """Run and check op ``i``; return (latency or None if it raised, passed)."""
        inp = self.wl.inputs(i)
        span = tracer.op(self.qk, op_id or i) if tracer else contextlib.nullcontext({})
        gc.collect()
        self.attempted += 1
        latency = None
        try:
            with span as counts:
                start = perf_counter()
                try:
                    out = self.wl.run(inp)
                finally:
                    latency = perf_counter() - start
            counts.update(self.wl.counts(out))
            problems = self.wl.check(i, inp, out)
        except Exception:  # an op that raises is a failed op; keep measuring
            problems = [traceback.format_exc(limit=3)]
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return latency, not problems

    def set_up(self) -> float:
        """One set-up sample: a fresh interpreter's import plus the fixed inputs."""
        imported = time_import()
        start = perf_counter()
        self.wl.setup()
        return imported + perf_counter() - start

    def phase(self, seconds, tracer=None, min_ops=0, setups=None):
        """Ops 1, 2, ... until ``seconds`` have passed and ``min_ops`` ran.

        Returns the latencies of the ops that passed, their indices, and the
        time spent inside ops, input generation and checks excluded.  Given a
        ``setups`` list, set-up samples are added between ops until it holds
        SETUP_REPEATS, spread evenly over the phase so that a slow stretch of
        the machine does not hit them all.
        """
        latencies, indices, busy = [], [], 0.0
        start, i = perf_counter(), 1
        while perf_counter() - start < seconds or i <= min_ops:
            due = setups is not None and len(setups) < SETUP_REPEATS and \
                perf_counter() - start >= len(setups) * seconds / SETUP_REPEATS
            if due:
                setups.append(self.set_up())
            latency, passed = self.op(i, tracer)
            busy += latency or 0.0
            if passed:
                latencies.append(latency)
                indices.append(i)
            i += 1
        while setups is not None and len(setups) < SETUP_REPEATS:
            setups.append(self.set_up())
        return latencies, indices, busy


def tail(latencies):
    """The highest percentile with TAIL_BEYOND ops beyond it, and a note.

    Below 2 * TAIL_BEYOND + 1 ops that percentile would not exceed the
    median, so the median stands in and the note says so.
    """
    ranked = sorted(latencies)
    n = len(ranked)
    if n < 2 * TAIL_BEYOND + 1:
        return statistics.median(ranked), (
            f"{n} ops: too few for a tail with {TAIL_BEYOND} beyond it, median shown")
    k = n - TAIL_BEYOND - 1
    return ranked[k], f"p{100.0 * (k + 1) / n:.1f}, {TAIL_BEYOND} ops beyond, of {n}"


def end_to_end(setup_samples, latencies, busy, session):
    if not latencies:
        return {}, {}
    tail_value, tail_note = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (len(latencies) / busy, "1/s"),
        "failed_share": (session.failed / session.attempted, "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups",
        "op_p50_s": f"of {len(latencies)} timed ops",
        "op_tail_s": tail_note,
        "failed_share": f"{session.failed} of {session.attempted} ops",
    }
    return metrics, notes


def check_counts_repeat(tracer, session, counted, digest, args):
    """Replay the first counted op, and compare with earlier runs' counts."""
    session.op(counted[0], tracer, op_id="replay")
    per_op = tracer.per_op()
    if per_op["replay"][1] != per_op[counted[0]][1]:
        session.problems.append(
            f"counts of op {counted[0]} changed on replay: {per_op[counted[0]][1]} "
            f"then {per_op['replay'][1]}")
    counts = {str(i): per_op[i][1] for i in counted}
    size = "tiny" if args.tiny else "full"
    record = OUT / "counts" / f"{digest}-{args.workload}-{size}-seed{args.seed}.json"
    if record.exists():
        if json.loads(record.read_text()) != counts:
            session.problems.append(f"counts differ from an earlier run recorded in {record.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps(counts, sort_keys=True))


def run_one(args) -> int:
    qk = import_program()
    import tracer as tracing  # after main() has fixed the BLAS thread count
    import workloads

    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        wl = workloads.WORKLOADS[args.workload](
            qk, "tiny" if args.tiny else "full", args.seed, str(workdir), expected)
        session = Session(qk, wl)
        setup_samples = [session.set_up()]
        wl.prepare_checks()
        session.op(0)  # warm-up, checked but not timed

        seconds = args.seconds / 2 if args.trace else args.seconds
        latencies, _, busy = session.phase(seconds, setups=setup_samples)
        metrics, notes = end_to_end(setup_samples, latencies, busy, session)
        if args.trace and latencies:
            tracer = tracing.Tracer()
            wl.use_tracer(tracer)
            traced, indices, _ = session.phase(seconds, tracer, wl.counted_ops)
            counted = list(range(1, wl.counted_ops + 1))
            if traced and all(i in indices for i in counted):
                layers = tracer.layer_metrics(indices, counted)
                overhead = statistics.median(traced) - statistics.median(latencies)
                layers["trace.overhead_s"] = (overhead, "s")
                notes["trace.overhead_s"] = (
                    f"traced op_p50_s {statistics.median(traced):.6g} s over "
                    f"{len(traced)} ops minus untraced {statistics.median(latencies):.6g} s")
                check_counts_repeat(tracer, session, counted, code_digest(), args)
                metrics = {**metrics, **layers}
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print("# " + " ".join(f"{k}={json.dumps(v)}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={session.attempted} failed={session.failed}")
    for problem in session.problems:
        print("# FAILED " + problem.rstrip().replace("\n", "\n#   "))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:32s} {value:>16.6g} {unit}{note}")
    correct = not session.problems and bool(latencies)
    reported = tracing.TIME_METRICS + list(tracing.COUNT_METRICS) + ["trace.overhead_s"] \
        if args.trace else [m for m in metrics if m != "failed_share"]
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]}
                    for m in reported if m in metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so that peak RSS is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            correct = False
            print(f"# {name}: no result (exit code {proc.returncode})")
            continue
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:  # one client, one thread: steadier than nproc threads
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
