"""Signal-processing circuits whose matrix entries are Chebyshev polynomials.

The one-qubit signal unitary for a scalar x in [-1, 1] is

    W(x) = [[x, i*sqrt(1-x^2)], [i*sqrt(1-x^2), x]],

and the phased product e^{i phi_0 Z} W(x) e^{i phi_1 Z} ... W(x) e^{i phi_l Z}
realises a degree-l polynomial in its top-left entry.  With all phases zero
the product collapses to W(x)^r, whose entries are the first- and second-kind
Chebyshev polynomials:

    W(x)^r = [[T_r(x), i*sqrt(1-x^2)*U_{r-1}(x)],
              [i*sqrt(1-x^2)*U_{r-1}(x), T_r(x)]]      (U_{-1} := 0).

The zero-phase instance comes in two forms; finding phases for other
target polynomials is out of scope.

* ``chebyshev_circuit`` builds the symbolic width-1 circuit, and
  ``bind_signal`` substitutes ``signal_encoding``'s W(x) for its one shared
  placeholder gate, with the ordinary ``Gate`` and ``Circuit`` checks.
  This is the reference form.
* ``chebyshev_blocks`` is the form the LCU plan runs: for columns of degrees
  k and arguments u it returns one (B, L, 2, 2) array of gate matrices, each
  block padded with identities to the longest length L, and the (B,) gate
  counts.  It applies ``signal_encoding``'s range check and clamp to the
  whole column and builds no ``Gate`` or ``Circuit``; its matrices are
  those of the reference form byte for byte, signed zeros included.
"""

from __future__ import annotations

import math

import numpy as np

from .simulator import Circuit, Gate, IDENTITY_2

SIGNAL_LABEL = "signal"
PHASE_LABEL = "phase"


def _three_term(r: int, x, slope: float):
    """P_r(x) from P_0 = 1, P_1 = slope * x and P_r = 2x P_{r-1} - P_{r-2}."""
    if r < 0:
        raise ValueError("degree must be non-negative")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if r == 0:
        return prev if prev.ndim else float(prev)
    cur = slope * x
    for _ in range(r - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.ndim else float(cur)


def chebyshev_first_kind(r: int, x):
    """T_r(x) by the three-term recurrence T_r = 2x T_{r-1} - T_{r-2}."""
    return _three_term(r, x, 1.0)


def chebyshev_second_kind(r: int, x):
    """U_r(x) with U_0 = 1, U_1 = 2x, U_r = 2x U_{r-1} - U_{r-2}."""
    return _three_term(r, x, 2.0)


def signal_encoding(x: float) -> np.ndarray:
    """The 2x2 signal unitary W(x); raises for |x| > 1 and for nan."""
    if not abs(x) <= 1.0 + 1e-12:
        raise ValueError(f"signal value {x} outside [-1, 1]")
    x = min(1.0, max(-1.0, float(x)))
    s = math.sqrt(max(0.0, 1.0 - x * x))
    return np.array([[x, 1j * s], [1j * s, x]], dtype=complex)


def chebyshev_circuit(r: int, include_identity: bool = True) -> Circuit:
    """Width-1 circuit computing T_r in its |0> -> |0> amplitude.

    The circuit is symbolic: r placeholder signal gates interleaved with r+1
    zero-angle phase gates (materialised as explicit identities so the gate
    and depth counts are 2r+1 exactly).  ``bind_signal`` substitutes W(x).
    With ``include_identity=False`` the identity phase gates are dropped and
    only the r signal gates remain.
    """
    if r < 0:
        raise ValueError("degree must be non-negative")
    phase = Gate(IDENTITY_2, targets=(0,), label=PHASE_LABEL)
    signal = Gate(IDENTITY_2, targets=(0,), label=SIGNAL_LABEL)
    if include_identity:
        return Circuit(1, [phase] + [signal, phase] * r)
    return Circuit(1, [signal] * r)


def chebyshev_blocks(degrees, arguments, include_identity: bool = True
                     ) -> tuple[np.ndarray, np.ndarray]:
    """``bind_signal(chebyshev_circuit(k, include_identity), u)`` per (k, u) pair, as arrays.

    Returns the read-only (B, L, 2, 2) gate matrices of the B blocks, slot
    by slot in circuit order and padded with identities to the longest
    length L, and the (B,) gate counts (2k + 1, or k without identities).
    """
    k = np.asarray(degrees, dtype=np.intp).reshape(-1)
    x = np.asarray(arguments, dtype=float).reshape(-1)
    if k.size != x.size:
        raise ValueError("need one degree per argument")
    if (k < 0).any():
        raise ValueError("degree must be non-negative")
    inside = np.abs(x) <= 1.0 + 1e-12  # signal_encoding's rule, on the whole column
    if not inside.all():
        raise ValueError(f"signal value {float(x[~inside][0])} outside [-1, 1]")
    x = np.minimum(np.maximum(x, -1.0), 1.0)  # keeps -0.0
    w = np.zeros((x.size, 2, 2), dtype=complex)  # W(x) entry by entry, as signal_encoding has it
    w.real[:, 0, 0] = w.real[:, 1, 1] = x
    w.imag[:, 0, 1] = w.imag[:, 1, 0] = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    counts = 2 * k + 1 if include_identity else k
    slot = np.arange(counts.max(initial=0))
    signal = slot < (2 * k if include_identity else k)[:, None]
    if include_identity:  # phase, signal, phase, ..., signal, phase
        signal &= slot % 2 == 1
    gates = np.empty((k.size, slot.size, 2, 2), dtype=complex)
    gates[...] = IDENTITY_2
    gates[signal] = w[np.nonzero(signal)[0]]
    gates.flags.writeable = False
    return gates, counts


def bind_signal(circuit: Circuit, x: float) -> Circuit:
    """Substitute W(x) for every placeholder signal gate of ``circuit``."""
    w = signal_encoding(x)
    # gates are immutable: each placeholder gate becomes one bound gate, shared
    bound = {op: Gate(w, op.targets, op.controls, op.control_values, label=SIGNAL_LABEL)
             for op in set(circuit.ops) if op.label == SIGNAL_LABEL}
    return Circuit(circuit.width, [bound.get(op, op) for op in circuit.ops])
