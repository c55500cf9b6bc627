"""Spans around qkorobov's public functions, installed from outside the program.

``Tracer.installed()`` replaces each wrapped function at every module binding
it is reachable through (``lcu`` calls ``qsp.bind_signal`` through the ``qsp``
module, ``analysis`` imported ``surplus_coefficients`` by name, the package
re-exports most of them), so the spans see every call the program makes.
Spans live in memory as ``[id, parent, op, name, start, end, counts]`` lists
and are written out by ``Tracer.dump``.  A span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import statistics
from collections import defaultdict
from time import perf_counter

import numpy as np

# per-op counts that combine by maximum instead of by sum
_MAX_COUNTS = {"simulator.width"}

TIME_METRICS = [
    "sparsegrid.surplus_s", "sparsegrid.f_s", "sparsegrid.batch_s",
    "sparsegrid.grid_s", "sparsegrid.expand_s", "qsp.bind_s", "lcu.plan_s",
    "lcu.assemble_s", "lcu.hadamard_s", "lcu.trace_s", "simulator.run_s",
    "simulator.report_s", "analysis.lp_inf_s", "analysis.lp_2_s",
    "analysis.audit_s", "analysis.gap_s", "cli.json_s", "cli.self_s",
]
COUNT_METRICS = {
    "sparsegrid.f_evals": "count", "sparsegrid.nodes": "count",
    "sparsegrid.batch_points": "count", "sparsegrid.grid_point_levels": "count",
    "sparsegrid.terms": "count", "qsp.bind_calls": "count",
    "lcu.terms_kept": "count", "lcu.ancillas": "count", "lcu.ops": "count",
    "simulator.width": "qubits", "simulator.amp_bytes_computed": "B",
    "analysis.f_evals": "count", "cli.bytes_out": "B",
}
# span name whose self time a metric reports, where it is not metric minus "_s"
_SPAN_OF = {"cli.self_s": "cli.main"}


def _points(x) -> int:
    return math.prod(np.shape(x)[:-1])


class Tracer:
    """Records spans of the calls made while ``installed()`` is active."""

    def __init__(self):
        self.spans: list[list] = []
        self.current_op = None
        self.active = False
        self._stack: list[int] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, counts=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            label = name(args, kwargs, spans[parent][3] if parent is not None else "") \
                if callable(name) else name
            rec = [len(spans), parent, self.current_op, label, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            rec[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = perf_counter()
                stack.pop()
            if counts is not None:
                rec[6] = counts(label, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def op(self, qk, op_id):
        """Trace one op: wrappers installed, under a root span named "op".

        Yields the root span's counts dict, for counts the benchmark takes itself.
        """
        self.current_op = op_id
        rec = [len(self.spans), None, op_id, "op", 0.0, 0.0, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        with self.installed(qk):
            rec[4] = perf_counter()
            try:
                yield rec[6]
            finally:
                rec[5] = perf_counter()
                self._stack.pop()

    def counting(self, f):
        """Wrap a test function ``f`` so that its calls count points.

        Like every wrapper, it records only while ``installed()`` is active.
        """
        def name(args, kwargs, parent):
            return "analysis.f" if parent.startswith("analysis.lp") else "sparsegrid.f"

        def counts(label, args, result):
            return {label + "_evals": _points(args[0])}

        return self._wrap(f, name, counts)

    def _targets(self, qk):
        sg, qsp, lcu, sim, an, cli = (
            qk.sparsegrid, qk.qsp, qk.lcu, qk.simulator, qk.analysis, qk.cli)

        def lp_name(args, kwargs, parent):
            p = kwargs.get("p", args[2] if len(args) > 2 else None)
            return "analysis.lp_inf" if float(p) == math.inf else "analysis.lp_2"

        def plan_counts(label, args, plan):
            if plan is None:
                return {"lcu.terms_kept": 0, "lcu.ancillas": 0}
            return {"lcu.terms_kept": plan.term_count, "lcu.ancillas": plan.ancilla_count}

        def run_counts(label, args, state):
            circuit = args[0]
            return {
                "simulator.width": circuit.width,
                "simulator.amp_bytes_computed":
                    len(circuit.ops) * 2 ** circuit.width * 16 * 2,
            }

        def grid_counts(label, args, values):
            smap = args[0]
            return {"sparsegrid.grid_point_levels":
                    int(np.size(values)) * len(smap.levels())}

        def corpus(*args, **kwargs):
            return [dataclasses.replace(fn, f=self.counting(fn.f))
                    for fn in corpus.__wrapped__(*args, **kwargs)]

        corpus.__wrapped__ = an.corpus
        return [
            (sg, "surplus_coefficients", self._wrap(
                sg.surplus_coefficients, "sparsegrid.surplus",
                lambda label, a, r: {"sparsegrid.nodes": len(r)})),
            (sg.SurplusMap, "evaluate_batch", self._wrap(
                sg.SurplusMap.evaluate_batch, "sparsegrid.batch",
                lambda label, a, r: {"sparsegrid.batch_points": int(np.size(r))})),
            (sg.SurplusMap, "evaluate_grid", self._wrap(
                sg.SurplusMap.evaluate_grid, "sparsegrid.grid", grid_counts)),
            (sg, "chebyshev_expansion", self._wrap(
                sg.chebyshev_expansion, "sparsegrid.expand",
                lambda label, a, r: {"sparsegrid.terms": len(r)})),
            (qsp, "bind_signal", self._wrap(
                qsp.bind_signal, "qsp.bind", lambda label, a, r: {"qsp.bind_calls": 1})),
            (qsp, "chebyshev_circuit", self._wrap(qsp.chebyshev_circuit, "qsp.bind")),
            (lcu, "plan_from_terms", self._wrap(lcu.plan_from_terms, "lcu.plan", plan_counts)),
            (lcu, "assemble_lcu", self._wrap(lcu.assemble_lcu, "lcu.assemble")),
            (lcu, "hadamard_test_circuit", self._wrap(
                lcu.hadamard_test_circuit, "lcu.hadamard",
                lambda label, a, r: {"lcu.ops": len(r.ops)})),
            (lcu, "circuit_json_ops", self._wrap(lcu.circuit_json_ops, "lcu.trace")),
            (sim, "run_circuit", self._wrap(sim.run_circuit, "simulator.run", run_counts)),
            (sim, "expectation_z_first", self._wrap(sim.expectation_z_first, "simulator.run")),
            (sim, "resource_report", self._wrap(sim.resource_report, "simulator.report")),
            (an, "lp_error", self._wrap(an.lp_error, lp_name)),
            (an, "coefficient_bound_audit", self._wrap(
                an.coefficient_bound_audit, "analysis.audit")),
            (an, "dual_oracle_gap", self._wrap(an.dual_oracle_gap, "analysis.gap")),
            (an, "corpus", corpus),
            (cli, "json_text", self._wrap(cli.json_text, "cli.json")),
            (cli, "main", self._wrap(cli.main, "cli.main")),
        ]

    @contextlib.contextmanager
    def installed(self, qk):
        """Swap the wrappers in at every binding of the originals, then back."""
        modules = [qk, qk.sparsegrid, qk.qsp, qk.lcu, qk.simulator, qk.analysis, qk.cli]
        undo = []
        try:
            for owner, attr, wrapper in self._targets(qk):
                original = getattr(owner, attr)
                homes = [owner] if isinstance(owner, type) else modules
                for mod in homes:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            self.active = True
            yield self
        finally:
            self.active = False
            for mod, key, value in reversed(undo):
                setattr(mod, key, value)

    # -- reporting ----------------------------------------------------------

    def per_op(self) -> dict:
        """{op: ({span name: self seconds}, {count metric: value})}."""
        child_time = defaultdict(float)
        for rec in self.spans:
            if rec[1] is not None:
                child_time[rec[1]] += rec[5] - rec[4]
        out: dict = {}
        for rec in self.spans:
            times, counts = out.setdefault(rec[2], (defaultdict(float), {}))
            times[rec[3]] += rec[5] - rec[4] - child_time[rec[0]]
            for key, value in (rec[6] or {}).items():
                if key in _MAX_COUNTS:
                    counts[key] = max(counts.get(key, 0), value)
                else:
                    counts[key] = counts.get(key, 0) + value
        return out

    def layer_metrics(self, timed_ops, counted_ops) -> dict:
        """Median per-op self times over ``timed_ops``, counts over ``counted_ops``."""
        per_op = self.per_op()
        metrics = {}
        for name in TIME_METRICS:
            span = _SPAN_OF.get(name, name[:-2])
            values = [per_op[op][0].get(span, 0.0) for op in timed_ops]
            metrics[name] = (statistics.median(values), "s")
        for name, unit in COUNT_METRICS.items():
            values = [per_op[op][1].get(name, 0) for op in counted_ops]
            metrics[name] = (statistics.median_low(values), unit)
        return metrics

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[0], "parent": rec[1], "op": rec[2], "name": rec[3],
                    "start": rec[4], "end": rec[5], "counts": rec[6] or {},
                }) + "\n")
