"""Dense statevector simulation of small quantum circuits.

Conventions used throughout the package:

* Qubits are little-endian: qubit 0 is the least significant bit of the
  basis-state index.  Qubit 0 is "the first qubit" wherever a single wire is
  singled out (the Z observable of ``expectation_z_first``, the
  interferometric test ancilla).
* ``Gate`` is the one op type: a dense unitary on one or more named target
  qubits, optionally conditioned on control qubits (each with a required bit
  value, default 1).  A register-selected block (a multiplexer) is a
  sequence of gates, one per branch, whose controls are the selector and
  whose control values are the bits of the branch index.
* Matrices are validated once, where they enter: the public ``Gate``
  constructor checks unitarity and freezes its own copy.  A 2x2 is checked
  by ``unitarity_errors``, the entries of U^dag U - I in closed form for a
  whole stack of 2x2s at once, which ``lcu.LcuPlan`` applies to its block
  array too.  Gates derived from a checked gate (moved to other qubits,
  given more controls, a +-1 sign, an adjoint) reuse that read-only matrix
  through ``Gate._trusted``, without a second dense check.
* ``Circuit`` is read-only: a width and a tuple of gates, checked in one
  pass when it is built, so a builder collects its ops first.
* Simulation is exact and dense.  One rule decides what may be allocated
  densely: ``check_dense`` refuses any array of more than 2^MAX_DENSE_WIDTH
  complex entries (MAX_DENSE_WIDTH = 22, 64 MiB), before it is allocated.
  It guards the statevector (2^width), ``circuit_unitary`` (4^width), the
  dense state preparation of ``lcu`` and its structured Hadamard-test run.
  ``run_circuit`` applies the gates one at a time, except that a width-1
  circuit, whose gates all share the one wire, becomes one product taken in
  Python complex arithmetic.

Resource accounting costs a gate with ``c`` control wires as ``max(1, c)``
elementary gates on each wire it touches.  This mirrors the ancilla-free
decompositions of multi-controlled gates whose depth grows linearly in the
number of controls; it is what makes select-style circuits report the extra
logarithmic depth factor their elementary-gate compilations carry.  Width-1
circuits contain no controls, so their counts are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNITARY_ATOL = 1e-12

MAX_DENSE_WIDTH = 22


def _unitarity_terms(a, b, c, d, hypot):
    """The entries of U^dag U - I for U = [[a, b], [c, d]] in closed form, as magnitudes.

    The same expression serves complex scalars (with ``math.hypot``) and
    arrays of them (with ``np.hypot``).  Float products and hypot overflow
    to inf, where ``**`` and ``abs(complex)`` raise.
    """
    z = a.conjugate() * b + c.conjugate() * d
    return (abs(a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag - 1.0),
            abs(b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag - 1.0),
            hypot(z.real, z.imag))


def unitarity_errors(m: np.ndarray) -> np.ndarray:
    """max |U^dag U - I| of each 2x2 U in ``m``, shape (..., 2, 2); nan where an entry is nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = _unitarity_terms(m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1], np.hypot)
        return np.maximum.reduce(terms)


def _as_unitary(matrix, what: str) -> np.ndarray:
    m = np.array(matrix, dtype=complex)  # own copy, frozen below
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be square, got shape {m.shape}")
    dim = m.shape[0]
    if dim & (dim - 1) or dim == 0:
        raise ValueError(f"{what} dimension must be a power of two, got {dim}")
    if dim == 2:  # one gate: Python complex arithmetic is faster than numpy here
        errs = _unitarity_terms(*m.ravel().tolist(), math.hypot)
        err = math.nan if math.isnan(sum(errs)) else max(errs)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan are rejected
            err = np.abs(m.conj().T @ m - np.eye(dim)).max()
    if not err <= UNITARY_ATOL:
        raise ValueError(f"{what} is not unitary: max |U^dag U - I| = {err:.3e}")
    m.flags.writeable = False
    return m


def check_dense(log2_entries: int, what: str) -> None:
    """Refuse ``what``, a dense array of 2^log2_entries complex entries, above the ceiling."""
    if log2_entries > MAX_DENSE_WIDTH:
        raise ValueError(
            f"{what} needs 2^{log2_entries} complex entries, "
            f"above the dense ceiling of 2^MAX_DENSE_WIDTH = 2^{MAX_DENSE_WIDTH}"
        )


@dataclass(frozen=True, eq=False)
class Gate:
    """Dense unitary on ``targets``, conditioned on ``controls``.

    ``targets[0]`` is the least significant bit of the matrix's row index.
    ``control_values`` gives the required bit per control (defaults to all 1).
    """

    matrix: np.ndarray
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    control_values: tuple[int, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "controls", tuple(self.controls))
        values = tuple(self.control_values) or (1,) * len(self.controls)
        if len(values) != len(self.controls) or any(v not in (0, 1) for v in values):
            raise ValueError("control_values must be one bit per control")
        object.__setattr__(self, "control_values", values)
        object.__setattr__(self, "matrix", _as_unitary(self.matrix, "gate matrix"))
        if self.matrix.shape[0] != 2 ** len(self.targets):
            raise ValueError(
                f"matrix of dimension {self.matrix.shape[0]} does not fit "
                f"{len(self.targets)} target qubit(s)"
            )
        seen = set()
        for q in self.targets + self.controls:
            if q < 0:
                raise ValueError(f"negative qubit index: {q}")
            if q in seen:
                raise ValueError(f"qubit {q} appears in more than one role")
            seen.add(q)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, targets: tuple[int, ...],
                 controls: tuple[int, ...] = (), control_values: tuple[int, ...] = (),
                 label: str = "") -> "Gate":
        """A gate built without checks, for derivations that keep them true.

        ``matrix`` must be unitary by construction (a checked gate's matrix,
        its adjoint or a +-1 multiple of one); it is frozen here.
        The wiring must be disjoint, non-negative and one bit per control.
        """
        matrix.flags.writeable = False
        gate = object.__new__(cls)
        gate.__dict__.update(matrix=matrix, targets=targets, controls=controls,
                             control_values=control_values, label=label)
        return gate

    def touched(self) -> tuple[int, ...]:
        return self.targets + self.controls


@dataclass(frozen=True)
class Circuit:
    """Ordered gates on a fixed-width register: checked once, read-only."""

    width: int
    ops: tuple[Gate, ...] = ()

    def __post_init__(self):
        if not 0 <= self.width:
            raise ValueError("width must be non-negative")
        object.__setattr__(self, "ops", tuple(self.ops))
        bad = sorted({q for op in self.ops for q in op.touched() if q >= self.width})
        if bad:
            raise ValueError(f"op touches qubit(s) {bad} outside width {self.width}")


@dataclass(eq=False)
class Statevector:
    """Dense complex amplitudes over the computational basis, little-endian."""

    amplitudes: np.ndarray
    width: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if self.amplitudes.size != 2 ** self.width:
            raise ValueError(
                f"{self.amplitudes.size} amplitudes do not fill width {self.width}"
            )

    @classmethod
    def zero(cls, width: int) -> "Statevector":
        check_dense(width, f"a width-{width} statevector")
        amps = np.zeros(2 ** width, dtype=complex)
        amps[0] = 1.0
        return cls(amps, width)


# ---------------------------------------------------------------------------
# gate application

def _axis(width: int, qubit: int) -> int:
    # tensor axis of a qubit when amplitudes are reshaped to [2]*width
    return width - 1 - qubit


def _apply_op(tensor: np.ndarray, width: int, op: Gate) -> None:
    """Apply ``op`` on its wiring (targets, controls, values)."""
    slicer = [slice(None)] * tensor.ndim
    for q, v in zip(op.controls, op.control_values):
        slicer[_axis(width, q)] = slice(v, v + 1)
    slicer = tuple(slicer)
    view = tensor[slicer]
    k = len(op.targets)
    axes = [_axis(width, q) for q in reversed(op.targets)]
    moved = np.moveaxis(view, axes, range(k))
    flat = moved.reshape(2 ** k, -1)
    out = (op.matrix @ flat).reshape(moved.shape)
    tensor[slicer] = np.moveaxis(out, range(k), axes)


def _run_ops(tensor: np.ndarray, circuit: "Circuit") -> np.ndarray:
    """``tensor`` (amplitudes reshaped to [2]*width plus any trailing axes) after the ops."""
    if circuit.width == 1:
        # every gate spans the register: take their product in Python complex
        # arithmetic, reading each distinct gate's entries once, and apply it once
        entries: dict[Gate, list] = {}
        a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
        for op in circuit.ops:
            m = entries.get(op)
            if m is None:
                m = entries[op] = op.matrix.ravel().tolist()
            e, f, g, h = m
            a, b, c, d = e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d
        return np.array([[a, b], [c, d]]) @ tensor
    for op in circuit.ops:
        _apply_op(tensor, circuit.width, op)
    return tensor


def run_circuit(circuit: Circuit, initial: Statevector | None = None) -> Statevector:
    """Apply all ops of ``circuit`` in order to ``initial`` (default |0...0>)."""
    check_dense(circuit.width, f"a width-{circuit.width} statevector")
    if initial is None:
        initial = Statevector.zero(circuit.width)
    if initial.width != circuit.width:
        raise ValueError(
            f"state width {initial.width} does not match circuit width {circuit.width}"
        )
    amps = initial.amplitudes.copy()
    return Statevector(_run_ops(amps.reshape([2] * circuit.width), circuit), circuit.width)


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix of the whole circuit (column c is the image of |c>)."""
    check_dense(2 * circuit.width, f"the matrix of a width-{circuit.width} circuit")
    dim = 2 ** circuit.width
    mat = np.eye(dim, dtype=complex)
    return _run_ops(mat.reshape([2] * circuit.width + [dim]), circuit).reshape(dim, dim)


def expectation_z_first(state: Statevector) -> float:
    """<psi| Z x I x ... x I |psi> with Z on qubit 0."""
    p = np.abs(state.amplitudes) ** 2
    return float(p[0::2].sum() - p[1::2].sum())


# ---------------------------------------------------------------------------
# resource accounting

@dataclass(frozen=True)
class ResourceReport:
    """Width and depth counters for one circuit.

    ``multi_depth`` counts, per qubit, only the primitives that touch two or
    more wires (the text-book depth definition); ``touch_depth`` counts every
    primitive, weighted by the control cost model; ``layered_depth`` is the
    makespan of the as-soon-as-possible schedule under the same weights.
    The three are reported side by side because published depth conventions
    disagree on whether single-qubit gates count.
    """

    width: int
    gate_count: int
    multi_depth: int
    layered_depth: int
    touch_depth: int


def resource_report(circuit: Circuit) -> ResourceReport:
    multi = [0] * circuit.width
    touch = [0] * circuit.width
    finish = [0] * circuit.width
    gate_count = 0
    for op in circuit.ops:
        touched = op.touched()
        w = max(1, len(op.controls))
        wide = len(touched) >= 2
        gate_count += w
        start = max((finish[q] for q in touched), default=0)
        for q in touched:
            multi[q] += wide
            touch[q] += w
            finish[q] = start + w
    return ResourceReport(
        width=circuit.width,
        gate_count=gate_count,
        multi_depth=max(multi, default=0),
        layered_depth=max(finish, default=0),
        touch_depth=max(touch, default=0),
    )


# ---------------------------------------------------------------------------
# common matrices

IDENTITY_2 = np.eye(2, dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
