"""Linear-combination-of-unitaries assembly and interferometric readout.

Given signed weights a_1..a_M and term unitaries U_1..U_M (an ``LcuPlan``),
the combination is realised by sandwiching the select operation, which
applies sign(a_j) U_j on branch j, between a state-preparation oracle F and
its inverse:

    F|0> = (1/sqrt(||a||_1)) sum_j sqrt(|a_j|) |j>,
    U_LCU = (I (x) F^dag) (sum_j sign(a_j) U_j (x) |j><j|) (I (x) F),

so that <0|U_LCU|0> = (1/||a||_1) sum_j a_j <0|U_j|0>.  The real part of that
amplitude is read out exactly with a one-ancilla Hadamard test; callers
rescale by ||a||_1 classically.

Register layout: data qubits 0..d-1 (coordinate j of the interpolation point
drives qubit j), selector ancillas d..d+s-1 with s = ceil(log2 M), and the
Hadamard-test ancilla in front as qubit 0 of the widened circuit.  The select
operation is materialised gate by gate: every single-qubit gate of every term
circuit becomes one ``Gate`` whose controls are the selector and whose
control values are the bits of the term index j, which is what gives the
assembled circuit the elementary-gate counts of the select-oracle
construction (M = 1 needs no ancilla and no controls).

Each matrix is checked once: F when it is built, W(u) when it is bound (once
per distinct coordinate, degree and argument of a plan).  The select gates,
F^dag and the Hadamard-test wrap derive from those checked gates and reuse
their read-only matrices.  The plan is checked once too, when it is built;
it is frozen, term circuits included, so assembly does not check it again.
Each builder here collects its ops and constructs one ``Circuit``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qsp
from .simulator import (
    Circuit,
    Gate,
    HADAMARD,
    IDENTITY_2,
    ResourceReport,
    controlled,
    expectation_z_first,
    resource_report,
    run_circuit,
    shifted,
)
from .sparsegrid import ChebyshevTerm, SurplusMap, chebyshev_expansion


def ancilla_count(m: int) -> int:
    """ceil(log2 m) selector qubits; a single term needs none."""
    if m < 1:
        raise ValueError("need at least one term")
    return max(0, math.ceil(math.log2(m)))


def prepare_state_unitary(coefficients) -> np.ndarray:
    """Dense oracle F with F|0> proportional to (sqrt(a_1), ..., sqrt(a_M)).

    The remaining columns are completed deterministically by the Householder
    reflection exchanging |0> with the target column.
    """
    a = np.asarray(coefficients, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValueError("need at least one coefficient")
    if np.any(a <= 0.0):
        raise ValueError("all coefficients must be strictly positive")
    dim = 2 ** ancilla_count(a.size)
    column = np.zeros(dim)
    column[: a.size] = np.sqrt(a / a.sum())
    v = column - np.eye(dim)[:, 0]
    vnorm2 = v @ v
    if vnorm2 < 1e-30:
        return np.eye(dim, dtype=complex)
    f = np.eye(dim) - 2.0 * np.outer(v, v) / vnorm2
    return f.astype(complex)


@dataclass(frozen=True, eq=False)
class LcuPlan:
    """Everything needed to assemble one combination circuit.

    ``weights`` are the signed term weights a_j (finite, non-zero, read-only)
    and ``term_circuits`` the width-d circuits of single-qubit gates, one per
    weight.  The rest derives from the weights: the positive magnitudes
    ``coefficients``, the +-1 ``term_signs``, ``one_norm`` = ||a||_1 and the
    ``ancilla_count`` of selector qubits.
    """

    weights: np.ndarray
    term_circuits: tuple[Circuit, ...]

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float).reshape(-1)  # own copy, frozen
        weights.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "term_circuits", tuple(self.term_circuits))
        if weights.size == 0:
            raise ValueError("a plan needs at least one term")
        if not np.all(np.isfinite(weights) & (weights != 0.0)):
            raise ValueError("plan weights must be finite and non-zero")
        if len(self.term_circuits) != weights.size:
            raise ValueError("weights and circuits must align")
        if {c.width for c in self.term_circuits} != {self.data_width} or not self.data_width:
            raise ValueError("term circuits must share one data width >= 1")

    @property
    def coefficients(self) -> np.ndarray:
        return np.abs(self.weights)

    @property
    def term_signs(self) -> np.ndarray:
        return np.sign(self.weights)

    @property
    def one_norm(self) -> float:
        return float(np.abs(self.weights).sum())

    @property
    def ancilla_count(self) -> int:
        return ancilla_count(self.term_count)

    @property
    def term_count(self) -> int:
        return self.weights.size

    @property
    def data_width(self) -> int:
        return self.term_circuits[0].width


def plan_from_terms(terms: Sequence[ChebyshevTerm], d: int,
                    include_identity: bool = True) -> LcuPlan | None:
    """Build the combination plan for signed Chebyshev product terms.

    Per term, coordinate j gets the degree-k_j polynomial circuit bound at
    the term's local argument u_j.  Zero-weight terms are dropped; returns
    None when nothing remains.
    """
    kept = [t for t in terms if t.weight != 0.0]
    if not kept:
        return None
    symbolic: dict[int, Circuit] = {}
    bound: dict[tuple, list[Gate]] = {}  # the 2^d terms of a level share u
    circuits = []
    for t in kept:
        if len(t.degrees) != d:
            raise ValueError("term dimension does not match d")
        ops: list[Gate] = []
        for j, (k, u) in enumerate(zip(t.degrees, t.arguments)):
            if abs(u) > 1.0:
                raise ValueError(
                    f"term argument u={u} outside [-1, 1]; support filtering failed"
                )
            if (j, k, u) not in bound:
                if k not in symbolic:
                    symbolic[k] = qsp.chebyshev_circuit(k, include_identity)
                bound[j, k, u] = [shifted(op, j) for op in qsp.bind_signal(symbolic[k], u).ops]
            ops += bound[j, k, u]
        circuits.append(Circuit(d, ops))
    return LcuPlan(np.array([t.weight for t in kept]), circuits)


def assemble_lcu(plan: LcuPlan) -> Circuit:
    """The full combination circuit on d + ceil(log2 M) qubits.

    Ops are F on the ancillas, then per term and per single-qubit gate one
    selector-controlled op (the sign rides on the term's first gate, or on
    an identity gate on qubit 0 when a negative term has none), then F^dag.
    <00..0|circuit|00..0> is the combination divided by ||a||_1.
    """
    d = plan.data_width
    s = plan.ancilla_count
    sel = tuple(range(d, d + s))
    ops: list[Gate] = []
    if s:
        prepare = Gate(prepare_state_unitary(plan.coefficients), targets=sel, label="prepare")
        ops.append(prepare)
    for j, (sign, term) in enumerate(zip(plan.term_signs, plan.term_circuits)):
        bits = tuple((j >> b) & 1 for b in range(s))
        gates = term.ops
        if sign < 0 and not gates:
            # a gate-free term (degree 0 without identity gates) still carries its sign
            gates = (Gate(IDENTITY_2, targets=(0,)),)
        for pos, op in enumerate(gates):
            mat = sign * op.matrix if pos == 0 and sign < 0 else op.matrix
            ops.append(Gate._trusted(mat, op.targets, op.controls + sel,
                                     op.control_values + bits, f"term-{j}"))
    if s:
        ops.append(Gate._trusted(prepare.matrix.conj().T, sel, label="unprepare"))
    return Circuit(d + s, ops)


def hadamard_test_circuit(target: Circuit) -> Circuit:
    """One-ancilla interferometer for Re<0|target|0>, ancilla in front."""
    h = Gate(HADAMARD, targets=(0,), label="h")
    body = [controlled(shifted(op, 1), control=0) for op in target.ops]
    return Circuit(target.width + 1, [h, *body, h])


def hadamard_test(target: Circuit) -> float:
    """Exact Re<0|target|0> via the test circuit's Z expectation."""
    return expectation_z_first(run_circuit(hadamard_test_circuit(target)))


def direct_amplitude(target: Circuit) -> complex:
    """<0...0|target|0...0> read straight off the statevector."""
    return complex(run_circuit(target).amplitudes[0])


def evaluate_via_circuit(s: SurplusMap, x, include_identity: bool = True
                         ) -> tuple[float, ResourceReport]:
    """Interpolant value at ``x`` computed by the quantum pipeline.

    Expands the point into signed Chebyshev terms, assembles the combination
    circuit, runs the Hadamard test, and rescales by the weight one-norm.
    Returns the value and the resource report of the executed test circuit
    (width d + ceil(log2 M) + 1).  A point supported by no term (grid lines,
    boundary) yields 0.0 with an empty report.
    """
    plan = plan_from_terms(chebyshev_expansion(s, x), s.d, include_identity)
    if plan is None:
        return 0.0, ResourceReport(0, 0, 0, 0, 0)
    circuit = hadamard_test_circuit(assemble_lcu(plan))
    value = expectation_z_first(run_circuit(circuit))
    return plan.one_norm * value, resource_report(circuit)


def circuit_json_ops(circuit: Circuit) -> list[dict]:
    """The trace that ``cli.json_text`` writes: ordered primitive ops.

    Each op's ``matrix`` is a read-only float ndarray of shape (K, 2), the
    gate's entries as row-major [re, im] pairs (a view, or a copy where the
    gate holds a transposed matrix).  ``cli.json_text`` writes it as the list
    of pairs, sign bits included, without a Python object per entry; the
    standard ``json`` module cannot write an ndarray.
    """
    ops = []
    for op in circuit.ops:
        pairs = np.ascontiguousarray(op.matrix).view(np.float64).reshape(-1, 2)
        pairs.flags.writeable = False
        ops.append({
            "kind": "unitary",
            "label": op.label,
            "targets": list(op.targets),
            "controls": list(op.controls),
            "control_values": list(op.control_values),
            "matrix": pairs,
        })
    return ops
