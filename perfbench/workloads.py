"""The benchmark's four workloads.

Each workload has fixed inputs built by ``setup`` (timed as part of set-up),
seeded per-op inputs from ``inputs(i)`` (op ``i`` depends only on the seed and
``i``), the op itself in ``run`` (the only timed part), and ``check``, which
returns the problems found in one op's output.  Reference data that only the
checks need is built by ``prepare_checks``, outside set-up.

Why these four (each stresses different layers, and each is the bypass
workload for an optimisation aimed at another one):

* ``circuit-eval``: the paper's headline path, sparse-grid point to QSP+LCU
  circuit to statevector readout.  ``lcu``/``qsp`` object building and the
  ``simulator`` dominate; ``sparsegrid`` work happens only in set-up.  Every
  eighth point is dyadic, which varies the circuit width and exercises the
  exit taken when no term supports the point.
* ``hierarchize``: writes and reads a ``SurplusMap`` (surplus build, then a
  batch read of 65,536 points) with no circuit layer at all.
* ``verify``: the error-decay and coefficient-bound corpus through the CLI;
  ``analysis`` and ``evaluate_grid`` dominate and no circuit is built.
* ``export``: the circuit trace through the CLI, where JSON serialisation
  dominates and the ``lcu`` objects feed a trace instead of a simulation.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# the seed whose export digests are recorded; README names a second seed
DEFAULT_SEED = 1

# generic points at d=3, n=6 give d + ceil(log2 448) + 1 = 13 qubits
SIZES = {
    "full": {
        "circuit-eval": {"d": 3, "n": 6},
        "hierarchize": {"d": 3, "n": 8, "block": 65536},
        "verify": [
            ["convergence", "--fn", "prod-sin", "--d", "2", "--p", "inf", "--n-range", "3..6"],
            ["convergence", "--fn", "prod-quad", "--d", "3", "--p", "2", "--n-range", "2..3"],
            ["audit", "--n", "5"],
        ],
        "export": {"d": 3, "n": 4},
    },
    "tiny": {
        "circuit-eval": {"d": 2, "n": 3},
        "hierarchize": {"d": 2, "n": 4, "block": 1024},
        "verify": [
            ["convergence", "--fn", "prod-sin", "--d", "2", "--p", "inf", "--n-range", "1..2"],
            ["convergence", "--fn", "prod-quad", "--d", "3", "--p", "2", "--n-range", "1..1"],
            ["audit", "--n", "1"],
        ],
        "export": {"d": 2, "n": 2},
    },
}


def op_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, i])


def ceil_log2(m: int) -> int:
    return (m - 1).bit_length()


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    """Shared defaults; ``counted_ops`` is how many ops the traced counts cover."""

    counted_ops = 1

    def __init__(self, qk, size: str, seed: int, workdir: str, expected: dict):
        self.qk = qk
        self.seed = seed
        self.workdir = workdir
        self.params = SIZES[size][self.name]
        self.expected = expected[self.name][size]

    def setup(self) -> None:
        pass

    def prepare_checks(self) -> None:
        pass

    def use_tracer(self, tracer) -> None:
        pass

    def counts(self, out) -> dict:
        return {}


class CircuitEval(Workload):
    name = "circuit-eval"
    counted_ops = 16

    def setup(self):
        d, n = self.params["d"], self.params["n"]
        f = self.qk.analysis.corpus_function("prod-quad", d).f
        self.smap = self.qk.sparsegrid.surplus_coefficients(f, n, d)

    def inputs(self, i):
        d, n = self.params["d"], self.params["n"]
        rng = op_rng(self.seed, i)
        x = rng.random(d)
        dyadic = i % 8 == 7
        if dyadic:
            # one coordinate on a grid line of some level, or on the boundary
            level = int(rng.integers(1, n + 1))
            x[int(rng.integers(d))] = int(rng.integers(0, 2 ** level + 1)) / 2 ** level
        return x, dyadic

    def run(self, inp):
        return self.qk.lcu.evaluate_via_circuit(self.smap, inp[0])

    def check(self, i, inp, out):
        x, dyadic = inp
        value, report = out
        kept = [t for t in self.qk.sparsegrid.chebyshev_expansion(self.smap, x)
                if t.weight != 0.0]
        one_norm = sum(abs(t.weight) for t in kept)
        problems = []
        reference = self.smap.evaluate(x)
        if not abs(value - reference) <= 1e-12 * max(1.0, one_norm):
            problems.append(f"circuit value {value!r} != classical {reference!r}")
        width = self.params["d"] + ceil_log2(len(kept)) + 1 if kept else 0
        if report.width != width:
            problems.append(f"width {report.width} != {width} for {len(kept)} terms")
        if not dyadic:
            got = {k: getattr(report, k) for k in self.expected}
            if got != self.expected:
                problems.append(f"report {got} != recorded {self.expected}")
        return problems


class Hierarchize(Workload):
    name = "hierarchize"
    counted_ops = 2

    def setup(self):
        self.f = self.qk.analysis.corpus_function("prod-quad", self.params["d"]).f

    def use_tracer(self, tracer):
        self.f = tracer.counting(self.f)

    def inputs(self, i):
        return op_rng(self.seed, i).random((self.params["block"], self.params["d"]))

    def run(self, points):
        smap = self.qk.sparsegrid.surplus_coefficients(
            self.f, self.params["n"], self.params["d"])
        return smap, smap.evaluate_batch(points)

    def check(self, i, points, out):
        smap, values = out
        problems = []
        if len(smap) != self.expected["nodes"]:
            problems.append(f"{len(smap)} nodes, recorded {self.expected['nodes']}")
        nodes = np.array([g.node() for g in smap.entries])
        gap = float(np.max(np.abs(smap.evaluate_batch(nodes) - self.f(nodes))))
        if not gap <= 1e-12:
            problems.append(f"interpolant misses f at a node by {gap!r}")
        for k in range(8):
            scalar = smap.evaluate(points[k])
            if not close(values[k], scalar, 1e-12):
                problems.append(f"batch {values[k]!r} != scalar {scalar!r} at row {k}")
        return problems


def leaves(obj):
    """Every scalar of a parsed JSON document, in document order."""
    if isinstance(obj, dict):
        return [v for value in obj.values() for v in leaves(value)]
    if isinstance(obj, list):
        return [v for value in obj for v in leaves(value)]
    return [obj]


def csv_leaves(text: str):
    """Comment lines verbatim, then every cell, numbers parsed."""
    out = []
    for line in text.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        for cell in line.split(","):
            try:
                out.append(float(cell))
            except ValueError:
                out.append(cell)
    return out


def output_leaves(argv, text: str):
    return leaves(json.loads(text)) if argv[0] == "audit" else csv_leaves(text)


def same_leaves(got, want, rel: float) -> bool:
    """Equal scalars, numbers to ``rel`` relative.

    The absolute floor of 1e-15 only matters for rounding residues such as a
    1e-17 stencil-vs-integral gap, whose last bits carry no meaning.
    """
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        numbers = (isinstance(a, (int, float)) and not isinstance(a, bool)
                   and isinstance(b, (int, float)) and not isinstance(b, bool))
        if numbers:
            if not abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15:
                return False
        elif a != b:
            return False
    return True


class Verify(Workload):
    name = "verify"

    def path(self, k):
        return os.path.join(self.workdir, f"verify-{k}.out")

    def inputs(self, i):
        return [argv + ["--out", self.path(k)] for k, argv in enumerate(self.params)]

    def run(self, commands):
        return [self.qk.cli.main(argv) for argv in commands]

    def check(self, i, commands, codes):
        problems = [f"exit code {c} from {argv[:2]}" for c, argv in zip(codes, commands) if c]
        for k, argv in enumerate(commands):
            with open(argv[-1], encoding="utf-8") as fh:
                got = output_leaves(argv, fh.read())
            if not same_leaves(got, self.expected[k], 1e-9):
                problems.append(f"{' '.join(argv[:3])} output differs from the recorded one")
        return problems

    def counts(self, codes):
        return {"cli.bytes_out": sum(os.path.getsize(self.path(k))
                                     for k in range(len(self.params)))}


class Export(Workload):
    name = "export"
    counted_ops = 2

    def prepare_checks(self):
        d, n = self.params["d"], self.params["n"]
        f = self.qk.analysis.corpus_function("prod-quad", d).f
        self.reference = self.qk.sparsegrid.surplus_coefficients(f, n, d)

    def path(self):
        return os.path.join(self.workdir, "export.json")

    def inputs(self, i):
        x = op_rng(self.seed, i).random(self.params["d"])
        argv = ["circuit", "--fn", "prod-quad", "--d", str(self.params["d"]),
                "--n", str(self.params["n"]), "--x", ",".join(repr(float(v)) for v in x),
                "--out", self.path()]
        return x, argv

    def run(self, inp):
        return self.qk.cli.main(inp[1])

    def check(self, i, inp, code):
        if code:
            return [f"exit code {code}"]
        with open(self.path(), "rb") as fh:
            data = fh.read()
        doc = json.loads(data)
        lcu, sg = self.qk.lcu, self.qk.sparsegrid
        plan = lcu.plan_from_terms(sg.chebyshev_expansion(self.reference, inp[0]),
                                   self.params["d"])
        circuit = lcu.hadamard_test_circuit(lcu.assemble_lcu(plan))
        primitives = sum(1 if isinstance(op, self.qk.simulator.Gate) else len(op.blocks)
                         for op in circuit.ops)
        want = (circuit.width, plan.term_count, primitives)
        got = (doc["width"], doc["terms"], len(doc["ops"]))
        problems = [] if got == want else [f"(width, terms, ops) {got} != library {want}"]
        recorded = self.expected["sha256"]
        if self.seed == DEFAULT_SEED and i < len(recorded):
            digest = hashlib.sha256(data).hexdigest()
            if digest != recorded[i]:
                problems.append(f"sha256 {digest} != recorded {recorded[i]}")
        return problems

    def counts(self, code):
        return {"cli.bytes_out": os.path.getsize(self.path())}


WORKLOADS = {w.name: w for w in (CircuitEval, Hierarchize, Verify, Export)}
