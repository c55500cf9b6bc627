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
Hadamard-test ancilla in front as qubit 0 of the widened circuit.

A plan holds its width-1 blocks as data, not as circuits: one read-only
(B, L, 2, 2) array of single-qubit gate matrices, block by block in circuit
order and padded with identities to the longest length L, the (B,) gate
counts, and an (M, d) table naming the block on each data qubit of each
term.  ``plan_from_terms`` builds it from the columns of a
``chebyshev_expansion`` record with numpy: it drops zero weights, numbers
the distinct (k, u) pairs in order of first occurrence, and has
``qsp.chebyshev_blocks`` build all their gates at once, so nothing runs per
term or per block.  The plan checks every 2x2 unitary once, in one
vectorised pass of the closed-form rule ``simulator.unitarity_errors``, so a
hand-built plan with a non-unitary block is refused too.  F is the
Householder reflection I - 2 v v^T / (v^T v) with v = F|0> - |0>
(Householder, J. ACM 5, 1958), unitary by construction, so its check is
O(2^s): v is finite and F|0> has norm 1.

The test unitary exists in two forms:

* ``run_hadamard_test`` runs it on a structured statevector of shape (2^s
  selector, 2 per data qubit from q_{d-1} to q_0, 2 test), the little-endian
  layout once flattened.  On the test = 1 branch it applies F as the
  reflection, then the (d, 2^s, 2, 2) select stack (block products, the
  identity on padding slots, the sign in the qubit-0 factor), then F^dag =
  F.  The block products take L batched 2x2 steps over all blocks; each data
  qubit's select factor is two broadcast multiply-adds over the (2^s,
  2^(d-1-q), 2, 2^q) view of the branch; the Hadamard wrap is one
  (2^(s+d), 2) @ (2, 2) product.  It builds no ``Gate`` or ``Circuit`` and
  no dense F; ``hadamard_test_report`` counts its gates from the plan's
  gate counts.  ``evaluate_via_circuit`` uses these two.  The state holds
  2^(d+s+1) amplitudes, so ``simulator.check_dense`` refuses it above
  2^MAX_DENSE_WIDTH, as it does every dense array.
* ``assemble_lcu`` spells the select out gate by gate: every single-qubit
  gate of every term circuit becomes one ``Gate`` whose controls are the
  selector and whose control values are the bits of the term index j (M = 1
  needs no ancilla and no controls), between a dense F and F^dag, which the
  same rule refuses above 2^MAX_DENSE_WIDTH entries.  Wrapped by
  ``hadamard_test_circuit``, it is what the ``circuit`` trace writes, and
  ``run_circuit`` on it is the reference the structured run is tested
  against.  ``term_circuits`` and ``assemble_lcu`` are the only places that
  turn block rows into gates; those gates reuse the plan's checked
  read-only matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qsp
from .simulator import (
    HADAMARD,
    IDENTITY_2,
    UNITARY_ATOL,
    Circuit,
    Gate,
    ResourceReport,
    Statevector,
    check_dense,
    expectation_z_first,
    run_circuit,
    unitarity_errors,
)
from .sparsegrid import SurplusMap, chebyshev_expansion


def ancilla_count(m: int) -> int:
    """ceil(log2 m) selector qubits; a single term needs none."""
    if m < 1:
        raise ValueError("need at least one term")
    return max(0, math.ceil(math.log2(m)))


def _reflection_vector(coefficients) -> np.ndarray | None:
    """v with F = I - 2 v v^T / (v^T v) and F|0> = (sqrt(a_j / ||a||_1))_j, zero-padded.

    None when F|0> is |0> (one term), where F is the identity.  This is F's
    check: the prepared column must be finite and of norm 1.
    """
    a = np.asarray(coefficients, dtype=float).reshape(-1)
    if a.size == 0:
        raise ValueError("need at least one coefficient")
    if np.any(a <= 0.0):
        raise ValueError("all coefficients must be strictly positive")
    v = np.zeros(2 ** ancilla_count(a.size))
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        v[: a.size] = np.sqrt(a / a.sum())
    err = abs(v @ v - 1.0)
    if not err <= UNITARY_ATOL:  # nan or inf in the column too
        raise ValueError(f"prepared state is not a unit vector: | ||F|0>||^2 - 1 | = {err:.3e}")
    v[0] -= 1.0
    return v if v @ v >= 1e-30 else None


def prepare_state_unitary(coefficients) -> np.ndarray:
    """Dense oracle F with F|0> proportional to (sqrt(a_1), ..., sqrt(a_M)).

    The remaining columns are completed deterministically by the Householder
    reflection exchanging |0> with the target column.  Raises before
    allocating when F would have more than 2^MAX_DENSE_WIDTH entries.
    """
    a = np.asarray(coefficients, dtype=float).reshape(-1)
    v = _reflection_vector(a)
    s = ancilla_count(a.size)
    check_dense(2 * s, f"dense state preparation on {s} selector qubits")
    if v is None:
        return np.eye(2 ** s, dtype=complex)
    f = np.eye(v.size) - 2.0 * np.outer(v, v) / (v @ v)
    return f.astype(complex)


@dataclass(frozen=True, eq=False)
class LcuPlan:
    """Everything needed to run or assemble one combination circuit.

    ``weights`` are the signed term weights a_j (finite, non-zero),
    ``blocks`` the (B, L, 2, 2) gate matrices of the distinct width-1 blocks,
    each in circuit order and padded with identities to length L,
    ``gate_counts`` the (B,) number of gates of each block, and ``table``
    the (M, d) block indices: term j runs block ``table[j, q]`` on data qubit
    q.  All four are read-only copies.  The rest derives from these: the
    ``term_circuits``, the positive magnitudes ``coefficients``, the +-1
    ``term_signs``, ``one_norm`` = ||a||_1 and the ``ancilla_count`` of
    selector qubits.
    """

    weights: np.ndarray
    blocks: np.ndarray
    gate_counts: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float).reshape(-1)  # own copies, frozen
        blocks = np.array(self.blocks, dtype=complex)
        counts = np.array(self.gate_counts)
        table = np.array(self.table)
        for name, value in (("weights", weights), ("blocks", blocks),
                            ("gate_counts", counts), ("table", table)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if weights.size == 0:
            raise ValueError("a plan needs at least one term")
        if not (np.isfinite(weights) & (weights != 0.0)).all():
            raise ValueError("plan weights must be finite and non-zero")
        if table.ndim != 2 or table.shape[0] != weights.size:
            raise ValueError("weights and table rows must align")
        if not table.shape[1] or blocks.ndim != 4 or blocks.shape[2:] != (2, 2):
            raise ValueError("blocks must be a (B, L, 2, 2) array of width-1 gates "
                             "on a data width >= 1")
        if (counts.shape != blocks.shape[:1] or counts.dtype.kind not in "iu"
                or not ((counts >= 0) & (counts <= blocks.shape[1])).all()):
            raise ValueError("gate_counts must give each block's length, at most L")
        if not (blocks[np.arange(blocks.shape[1]) >= counts[:, None]] == IDENTITY_2).all():
            raise ValueError("blocks must be padded with identity gates")
        err = unitarity_errors(blocks).max(initial=0.0)
        if not err <= UNITARY_ATOL:
            raise ValueError(f"block gate is not unitary: max |U^dag U - I| = {err:.3e}")
        if table.dtype.kind not in "iu" or not (table.min() >= 0 and table.max() < len(blocks)):
            raise ValueError("table entries must index the blocks")

    @cached_property
    def term_circuits(self) -> tuple[Circuit, ...]:
        """Per term, the width-d circuit running its block on each data qubit in turn."""
        placed: dict[tuple[int, int], tuple[Gate, ...]] = {}
        circuits = []
        for row in self.table.tolist():
            ops: list[Gate] = []
            for q, b in enumerate(row):
                if (q, b) not in placed:
                    gates = self.blocks[b, :self.gate_counts[b]]
                    placed[q, b] = tuple(Gate._trusted(m, (q,)) for m in gates)
                ops += placed[q, b]
            circuits.append(Circuit(self.data_width, ops))
        return tuple(circuits)

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
        return self.table.shape[1]


def plan_from_terms(terms: np.ndarray, d: int,
                    include_identity: bool = True) -> LcuPlan | None:
    """Build the combination plan for a ``chebyshev_expansion`` record.

    Zero-weight rows are dropped; returns None when nothing remains.  Row r
    runs, on data qubit j, the degree-k_j polynomial block at its argument
    u_j.  Each distinct (k, u) becomes one block, the blocks are numbered in
    order of first occurrence (row by row, qubit by qubit), and
    ``qsp.chebyshev_blocks`` builds all of them in one call.
    """
    rows = np.asarray(terms)  # a plain ndarray view: masking a recarray is slower
    kept = rows[rows["weight"] != 0.0]
    if not kept.size:
        return None
    degrees, arguments = kept["degrees"], kept["arguments"]
    if degrees.shape[1:] != (d,):
        raise ValueError("term dimension does not match d")
    outside = ~(np.abs(arguments) <= 1.0)
    if outside.any():
        raise ValueError(f"term argument u={arguments[outside][0]} outside [-1, 1]; "
                         "support filtering failed")
    k, u = degrees.reshape(-1), arguments.reshape(-1)
    # the sort is stable, so equal pairs (-0.0 == 0.0) sit together, earliest first
    perm = np.lexsort((u, k))
    ks, us = k[perm], u[perm]
    new = np.ones(perm.size, dtype=bool)
    new[1:] = (ks[1:] != ks[:-1]) | (us[1:] != us[:-1])
    first = perm[new]  # the first occurrence of each distinct pair, in sorted order
    order = np.argsort(first)
    table = np.empty_like(perm)
    table[perm] = np.argsort(order)[np.cumsum(new) - 1]
    table = table.reshape(degrees.shape)
    blocks, counts = qsp.chebyshev_blocks(k[first[order]], u[first[order]], include_identity)
    return LcuPlan(kept["weight"], blocks, counts, table)


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
        prepare = Gate._trusted(prepare_state_unitary(plan.coefficients), sel, label="prepare")
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
    # each op moved up one qubit and controlled on qubit 0 in one gate: after
    # the move no op touches qubit 0, so the wiring stays disjoint
    body = [Gate._trusted(op.matrix, tuple([q + 1 for q in op.targets]),
                          (0, *[q + 1 for q in op.controls]), (1, *op.control_values), op.label)
            for op in target.ops]
    return Circuit(target.width + 1, [h, *body, h])


def hadamard_test(target: Circuit) -> float:
    """Exact Re<0|target|0> via the test circuit's Z expectation."""
    return expectation_z_first(run_circuit(hadamard_test_circuit(target)))


def direct_amplitude(target: Circuit) -> complex:
    """<0...0|target|0...0> read straight off the statevector."""
    return complex(run_circuit(target).amplitudes[0])


def _select_stack(plan: LcuPlan) -> np.ndarray:
    """(d, 2^s, 2, 2): the factor on data qubit q for selector value j.

    Padding slots j >= M hold the identity; the sign of term j rides on its
    qubit-0 factor.  The block products start from the identity and take
    one batched 2x2 step per gate slot for all blocks at once, entry by
    entry as ``circuit_unitary`` multiplies a width-1 circuit out.
    """
    blocks = plan.blocks
    products = np.broadcast_to(IDENTITY_2, (len(blocks), 2, 2))
    for i in range(blocks.shape[1]):  # gate i @ products
        g = blocks[:, i]
        products = g[:, :, :1] * products[:, None, 0] + g[:, :, 1:] * products[:, None, 1]
    m = plan.term_count
    stack = np.empty((plan.data_width, 2 ** plan.ancilla_count, 2, 2), dtype=complex)
    stack[:, :m] = products[plan.table.T]
    stack[:, m:] = IDENTITY_2
    stack[0, :m] *= plan.term_signs[:, None, None]
    return stack


def run_hadamard_test(plan: LcuPlan) -> Statevector:
    """The final state of ``hadamard_test_circuit(assemble_lcu(plan))`` from |0...0>.

    The same unitary, run on the structured statevector described in the
    module docstring, without building a gate per term or a dense F.
    """
    d, s = plan.data_width, plan.ancilla_count
    width = d + s + 1
    check_dense(width, f"a width-{width} Hadamard-test state")
    v = _reflection_vector(plan.coefficients)
    stack = _select_stack(plan)

    def reflect(a):  # F = F^dag = I - 2 v v^T / (v^T v) on the selector axis
        return a if v is None else a - np.outer(v, (2.0 / (v @ v)) * (v @ a))

    amps = np.zeros((2 ** s, 2 ** d, 2), dtype=complex)
    amps[0, 0] = HADAMARD[:, 0]  # H on the test qubit
    branch = reflect(amps[:, :, 1])  # F, select and F^dag act where the test qubit is 1
    for q in range(d):
        # out[j, l, a, r] = S[j, a, 0] t[j, l, 0, r] + S[j, a, 1] t[j, l, 1, r]
        t = branch.reshape(2 ** s, 2 ** (d - 1 - q), 2, 2 ** q)
        factor = stack[q][:, None, :, :, None]
        branch = (factor[..., 0, :] * t[:, :, :1] + factor[..., 1, :] * t[:, :, 1:]
                  ).reshape(2 ** s, 2 ** d)
    amps[:, :, 1] = reflect(branch)
    return Statevector((amps.reshape(-1, 2) @ HADAMARD.T).reshape(-1), width)


def hadamard_test_report(plan: LcuPlan) -> ResourceReport:
    """``resource_report(hadamard_test_circuit(assemble_lcu(plan)))`` from gate counts.

    Every op but the two H gates is controlled on the test qubit, so the ops
    run one after another on it.  With G select gates and s selector qubits,
    gate_count = layered_depth = touch_depth = 2 + 2[s>0] + G (1 + s) and
    multi_depth = G + 2[s>0].
    """
    s = plan.ancilla_count
    # a gate-free negative term still gets one gate, which carries its sign
    g = int(np.maximum(plan.gate_counts[plan.table].sum(axis=1), plan.weights < 0).sum())
    wrap = 2 if s else 0
    serial = 2 + wrap + g * (1 + s)
    return ResourceReport(width=plan.data_width + s + 1, gate_count=serial,
                          multi_depth=g + wrap, layered_depth=serial, touch_depth=serial)


def evaluate_via_circuit(s: SurplusMap, x, include_identity: bool = True
                         ) -> tuple[float, ResourceReport]:
    """Interpolant value at ``x`` computed by the quantum pipeline.

    Expands the point into signed Chebyshev terms, plans the combination,
    runs its Hadamard test on the structured statevector, and rescales by
    the weight one-norm.  Returns the value and the resource report of the
    executed test circuit (width d + ceil(log2 M) + 1).  A point supported
    by no term (grid lines, boundary) yields 0.0 with an empty report.
    """
    plan = plan_from_terms(chebyshev_expansion(s, x), s.d, include_identity)
    if plan is None:
        return 0.0, ResourceReport(0, 0, 0, 0, 0)
    value = expectation_z_first(run_hadamard_test(plan))
    return plan.one_norm * value, hadamard_test_report(plan)


def circuit_json_ops(circuit: Circuit) -> list[dict]:
    """The trace that ``cli.json_text`` writes: ordered primitive ops.

    Each op's ``matrix`` is a read-only float ndarray of shape (K, 2), the
    gate's entries as row-major [re, im] pairs (a view, or a copy where the
    gate holds a transposed matrix).  ``cli.json_text`` writes it as the list
    of pairs, sign bits included: a large matrix from the texts of its
    distinct values and pairs, each formatted once (the F of a trace holds a
    few dozen distinct values among its 2^(2s)), and a matrix that repeats
    one earlier in the trace from that matrix's text; the standard ``json``
    module cannot write an ndarray.
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
