"""Gate application, circuit composition, and resource counters."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qkorobov.simulator import (
    Circuit,
    Gate,
    HADAMARD,
    IDENTITY_2,
    MAX_DENSE_WIDTH,
    UNITARY_ATOL,
    Statevector,
    check_dense,
    circuit_unitary,
    expectation_z_first,
    resource_report,
    run_circuit,
)
from qkorobov.lcu import LcuPlan, prepare_state_unitary, run_hadamard_test
from qkorobov.qsp import chebyshev_circuit

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def controlled(op: Gate, control: int, value: int = 1) -> Gate:
    """``op`` conditioned on one extra control qubit, in front of its controls.

    The reference for the one-pass wrap of ``lcu.hadamard_test_circuit``.
    """
    if control in op.touched():
        raise ValueError(f"control {control} already used by the op")
    if control < 0 or value not in (0, 1):
        raise ValueError(f"control {control} with value {value} is not a qubit and a bit")
    return Gate._trusted(op.matrix, op.targets, (control,) + op.controls,
                         (value,) + op.control_values, op.label)


def shifted(op: Gate, offset: int) -> Gate:
    """``op`` with every qubit index moved by ``offset``."""
    if min(op.touched(), default=0) + offset < 0:
        raise ValueError(f"offset {offset} moves the op below qubit 0")
    return Gate._trusted(op.matrix, tuple(q + offset for q in op.targets),
                         tuple(q + offset for q in op.controls), op.control_values, op.label)


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bit(index, qubit):
    return (index >> qubit) & 1


def qubit_touch_counts(circuit):
    """Per-qubit (multi-qubit-gate count, weighted touch count): the plain reference."""
    multi = [0] * circuit.width
    touch = [0] * circuit.width
    for op in circuit.ops:
        touched = op.touched()
        w = max(1, len(op.controls))
        wide = len(touched) >= 2
        for q in touched:
            touch[q] += w
            if wide:
                multi[q] += 1
    return multi, touch


class TestApplyGate:
    def test_x_flips_zero(self):
        out = run_circuit(Circuit(1, [Gate(PAULI_X, (0,))]))
        np.testing.assert_allclose(out.amplitudes, [0, 1], atol=1e-15)

    def test_hadamard_makes_plus(self):
        out = run_circuit(Circuit(1, [Gate(HADAMARD, (0,))]))
        np.testing.assert_allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15)

    def test_multiplexed_selector_semantics(self):
        # data qubit 0, ancilla qubit 1 = |1>: branch 1 applies X to the data
        mux = Circuit(2, select_gates({0: IDENTITY_2, 1: PAULI_X}, n_data=1, n_sel=1))
        state = Statevector(np.array([0, 0, 1, 0], dtype=complex), 2)  # |ancilla=1, data=0>
        out = run_circuit(mux, state)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)
        # ancilla |0> leaves the data alone
        out0 = run_circuit(mux, Statevector.zero(2))
        np.testing.assert_allclose(out0.amplitudes, [1, 0, 0, 0], atol=1e-15)

    def test_input_state_not_mutated(self):
        state = Statevector.zero(1)
        run_circuit(Circuit(1, [Gate(PAULI_X, (0,))]), state)
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            Gate(np.array([[1.0, 0.0], [0.0, 2.0]]), (0,))

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, dim, bad):
        for k in range(dim * dim):
            m = np.eye(dim, dtype=complex)
            m.flat[k] = bad
            with pytest.raises(ValueError, match="not unitary"):
                Gate(m, tuple(range(dim.bit_length() - 1)))

    @pytest.mark.parametrize("dim", [2, 4])
    @pytest.mark.parametrize("big", [1e200, -1e200j, 1.2e154 + 1.2e154j])
    def test_rejects_huge_finite_entries(self, dim, big):
        # |U^dag U - I| overflows to inf, which is rejected like any other large error
        for k in range(dim * dim):
            m = np.eye(dim, dtype=complex)
            m.flat[k] = big
            with pytest.raises(ValueError, match="not unitary"):
                Gate(m, tuple(range(dim.bit_length() - 1)))
        # finite (U^dag U)_01 = 1.44e308 (1 + 1j), whose modulus overflows
        m = np.eye(dim, dtype=complex)
        m[0, :2] = 1.2e154, 1.2e154 + 1.2e154j
        with pytest.raises(ValueError, match="not unitary"):
            Gate(m, tuple(range(dim.bit_length() - 1)))

    def test_closed_form_2x2_check_matches_dense_reference(self):
        # the 2x2 check in closed form accepts and rejects as max |U^dag U - I| does
        rng = np.random.default_rng(11)
        for scale in (0.0, 1e-14, 3e-13, 3e-12, 1e-6, 0.3):
            for _ in range(50):
                u = random_unitary(rng, 2) + scale * (
                    rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                err = np.abs(u.conj().T @ u - np.eye(2)).max()
                if abs(err - UNITARY_ATOL) < 1e-14:
                    continue
                if err <= UNITARY_ATOL:
                    gate = Gate(u, (0,))
                    assert gate.matrix.tobytes() == u.tobytes()
                else:
                    with pytest.raises(ValueError, match="not unitary") as info:
                        Gate(u, (0,))
                    reported = float(str(info.value).rsplit("= ", 1)[1])
                    assert reported == pytest.approx(err, rel=2e-3)

    def test_rejects_overlapping_roles(self):
        with pytest.raises(ValueError, match="role"):
            Gate(PAULI_X, targets=(0,), controls=(0,))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Circuit(1, [Gate(PAULI_X, (1,))])


class TestCircuitIsReadOnly:
    """A circuit is checked once, at construction, and cannot change afterwards."""

    def test_ops_are_a_tuple_of_the_given_gates(self):
        gates = [Gate(PAULI_X, (0,)), Gate(HADAMARD, (1,))]
        circ = Circuit(2, gates)
        assert isinstance(circ.ops, tuple) and list(circ.ops) == gates
        gates.append(Gate(PAULI_X, (5,)))  # the caller's list is not the circuit's
        assert len(circ.ops) == 2

    def test_no_way_to_add_an_op(self):
        circ = Circuit(1, [Gate(PAULI_X, (0,))])
        assert not hasattr(circ, "append") and not hasattr(circ, "extend")
        with pytest.raises(AttributeError):
            circ.ops.append(Gate(PAULI_X, (3,)))

    @pytest.mark.parametrize("field, value", [("width", 5), ("ops", ())])
    def test_fields_cannot_be_assigned(self, field, value):
        circ = Circuit(1, [Gate(PAULI_X, (0,))])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(circ, field, value)
        assert circ.width == 1 and len(circ.ops) == 1

    def test_op_beyond_width_names_its_qubits(self):
        # qubit 3 of a width-1 register would wrap to axis -3 of the tensor
        with pytest.raises(ValueError, match=r"qubit\(s\) \[3\] outside width 1"):
            Circuit(1, [Gate(PAULI_X, (3,))])
        with pytest.raises(ValueError, match=r"\[2, 4\] outside width 2"):
            Circuit(2, [Gate(PAULI_X, (0,)), Gate(PAULI_X, (4,), controls=(2,))])

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Circuit(-1)


class TestRunCircuit:
    def test_empty_circuit_is_identity(self):
        out = run_circuit(Circuit(width=3), Statevector.zero(3))
        np.testing.assert_allclose(out.amplitudes, Statevector.zero(3).amplitudes)

    def test_hadamard_squares_to_identity(self):
        circ = Circuit(1, [Gate(HADAMARD, (0,)), Gate(HADAMARD, (0,))])
        out = run_circuit(circ)
        np.testing.assert_allclose(out.amplitudes, [1, 0], atol=1e-15)

    def test_parallel_x_gates(self):
        circ = Circuit(2, [Gate(PAULI_X, (0,)), Gate(PAULI_X, (1,))])
        out = run_circuit(circ)
        np.testing.assert_allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_width_mismatch(self):
        with pytest.raises(ValueError, match="width"):
            run_circuit(Circuit(2), Statevector.zero(3))


class TestDenseCeiling:
    # both checks run before the 2^width amplitudes are allocated
    def test_zero_state_beyond_ceiling(self):
        with pytest.raises(ValueError, match="MAX_DENSE_WIDTH"):
            Statevector.zero(MAX_DENSE_WIDTH + 1)

    def test_run_beyond_ceiling(self):
        with pytest.raises(ValueError, match="MAX_DENSE_WIDTH"):
            run_circuit(Circuit(MAX_DENSE_WIDTH + 1))

    # each allocation site one step above its limit: 2^(MAX_DENSE_WIDTH + 1)
    # amplitudes, a width-12 matrix (4^12 entries), F on 12 selector qubits
    # (4^12 entries) and a d + s + 1 = MAX_DENSE_WIDTH + 1 Hadamard-test state
    @pytest.mark.parametrize("call", [
        lambda: Statevector.zero(MAX_DENSE_WIDTH + 1),
        lambda: run_circuit(Circuit(MAX_DENSE_WIDTH + 1)),
        lambda: circuit_unitary(Circuit(MAX_DENSE_WIDTH // 2 + 1)),
        lambda: prepare_state_unitary(np.ones(2 ** (MAX_DENSE_WIDTH // 2) + 1)),
        lambda: run_hadamard_test(LcuPlan(  # one gate-free block on every qubit
            [1.0, 1.0], np.empty((1, 0, 2, 2)), [0],
            np.zeros((2, MAX_DENSE_WIDTH - 1), dtype=int))),
    ], ids=["zero-state", "run-circuit", "circuit-unitary", "prepare-state",
            "hadamard-test"])
    def test_every_site_refuses_before_allocating(self, call):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dense ceiling") as info:
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "MAX_DENSE_WIDTH" in str(info.value)
        assert peak < 2 ** 20  # the refused array would take 128 MiB or more

    def test_ceiling_itself_is_allowed(self):
        check_dense(MAX_DENSE_WIDTH, "an array at the ceiling")
        with pytest.raises(ValueError, match="dense ceiling"):
            check_dense(MAX_DENSE_WIDTH + 1, "an array above the ceiling")


class TestFusion:
    def test_fused_run_equals_gate_by_gate(self):
        # runs of same-wiring gates (control values 0 and 1) interleaved with
        # wiring changes, against a Kronecker-product reference per gate
        rng = np.random.default_rng(17)
        for _ in range(60):
            width = int(rng.integers(2, 6))
            ops = []
            for _ in range(int(rng.integers(1, 6))):
                qubits = list(rng.permutation(width))
                n_ctrl = int(rng.integers(0, width))
                target, controls = (int(qubits[0]),), tuple(int(q) for q in qubits[1:1 + n_ctrl])
                values = tuple(int(v) for v in rng.integers(0, 2, size=n_ctrl))
                for _ in range(int(rng.integers(1, 5))):
                    ops.append(Gate(random_unitary(rng, 2), target, controls, values))
            circ = Circuit(width, ops)
            psi = rng.standard_normal(2 ** width) + 1j * rng.standard_normal(2 ** width)
            state = Statevector(psi / np.linalg.norm(psi), width)
            want = state.amplitudes
            for op in circ.ops:
                want = reference_embedding(
                    op.matrix, op.targets, op.controls, op.control_values, width) @ want
            n_ops = len(circ.ops)
            got = run_circuit(circ, state)
            np.testing.assert_allclose(got.amplitudes, want, atol=1e-12)
            assert len(circ.ops) == n_ops  # running never rewrites the circuit


class TestExpectationZFirst:
    def test_zero_state(self):
        assert expectation_z_first(Statevector.zero(1)) == pytest.approx(1.0)

    def test_one_on_first_qubit(self):
        # width 2, qubit 0 (the first qubit) in |1>, qubit 1 in |0>
        state = Statevector(np.array([0, 1, 0, 0], dtype=complex), 2)
        assert expectation_z_first(state) == pytest.approx(-1.0)

    def test_plus_state(self):
        state = Statevector(np.array([1, 1], dtype=complex) / np.sqrt(2), 1)
        assert expectation_z_first(state) == pytest.approx(0.0, abs=1e-15)


class TestResourceReport:
    def test_qsp_circuit_fixture(self):
        report = resource_report(chebyshev_circuit(3))
        assert report.width == 1
        assert report.touch_depth == 7
        assert report.gate_count == 7

    def test_empty_circuit(self):
        report = resource_report(Circuit(width=5))
        assert (report.gate_count, report.multi_depth, report.layered_depth,
                report.touch_depth) == (0, 0, 0, 0)
        assert report.width == 5

    def test_cnot_multi_depth_per_qubit(self):
        # enumeration of touches: the controlled X touches both wires once
        circ = Circuit(2, [Gate(PAULI_X, (0,), controls=(1,))])
        multi, touch = qubit_touch_counts(circ)
        assert multi == [1, 1]
        assert touch == [1, 1]
        report = resource_report(circ)
        assert report.multi_depth == 1
        assert report.gate_count == 1

    def test_counter_ordering_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            width = int(rng.integers(1, 6))
            ops = []
            for _ in range(int(rng.integers(0, 8))):
                q = int(rng.integers(width))
                free = [c for c in range(width) if c != q]
                n_ctrl = int(rng.integers(0, len(free) + 1))
                ctrls = tuple(rng.choice(free, size=n_ctrl, replace=False)) if n_ctrl else ()
                ops.append(Gate(random_unitary(rng, 2), (q,), controls=ctrls))
            report = resource_report(Circuit(width, ops))
            assert report.multi_depth <= report.touch_depth <= report.gate_count
            assert report.touch_depth <= report.layered_depth

    def test_one_walk_matches_reference_counts(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            width = int(rng.integers(1, 7))
            ops = []
            for _ in range(int(rng.integers(0, 12))):
                q = int(rng.integers(width))
                free = [c for c in range(width) if c != q]
                n_ctrl = int(rng.integers(0, len(free) + 1))
                ctrls = tuple(rng.choice(free, size=n_ctrl, replace=False)) if n_ctrl else ()
                values = tuple(int(v) for v in rng.integers(0, 2, size=n_ctrl))
                ops.append(Gate(random_unitary(rng, 2), (q,), ctrls, values))
            circ = Circuit(width, ops)
            multi, touch = qubit_touch_counts(circ)
            report = resource_report(circ)
            assert report.multi_depth == max(multi, default=0)
            assert report.touch_depth == max(touch, default=0)
            assert report.gate_count == sum(max(1, len(op.controls)) for op in circ.ops)
            assert report.width == width

    def test_width1_touch_equals_gate_count(self):
        for r in (0, 1, 5, 12):
            report = resource_report(chebyshev_circuit(r))
            assert report.touch_depth == report.gate_count == 2 * r + 1

    def test_layered_depth_parallelism(self):
        x0, x1 = Gate(PAULI_X, (0,)), Gate(PAULI_X, (1,))
        cnot = Gate(PAULI_X, (0,), controls=(1,))
        assert resource_report(Circuit(2, [x0, x1])).layered_depth == 1
        assert resource_report(Circuit(2, [x0, x0])).layered_depth == 2
        assert resource_report(Circuit(2, [x0, x1, cnot])).layered_depth == 2
        # the entangling gate blocks both wires before the trailing gate
        assert resource_report(Circuit(2, [cnot, x0])).layered_depth == 2

    def test_layered_depth_counts_control_cost(self):
        # two controls cost two elementary layers under the expansion model
        ccx = Gate(PAULI_X, (0,), controls=(1, 2))
        report = resource_report(Circuit(3, [ccx]))
        assert report.gate_count == 2
        assert report.layered_depth == 2
        assert report.touch_depth == 2
        assert report.multi_depth == 1


class TestNormAndLinearity:
    def test_norm_preserved_over_random_circuits(self):
        rng = np.random.default_rng(20240)
        for _ in range(1000):
            width = int(rng.integers(1, 7))
            ops = []
            for _ in range(int(rng.integers(1, 6))):
                k = int(rng.integers(1, min(width, 2) + 1))
                targets = tuple(rng.choice(width, size=k, replace=False))
                ops.append(Gate(random_unitary(rng, 2 ** k), targets))
            out = run_circuit(Circuit(width, ops), Statevector.zero(width))
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-10

    def test_gate_application_is_linear(self):
        rng = np.random.default_rng(3)
        gate = Gate(random_unitary(rng, 2), (1,))
        for _ in range(20):
            psi1 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            psi2 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            alpha, beta = complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))
            apply = lambda psi: run_circuit(Circuit(3, [gate]), Statevector(psi, 3)).amplitudes
            mixed = apply(alpha * psi1 + beta * psi2)
            parts = alpha * apply(psi1) + beta * apply(psi2)
            np.testing.assert_allclose(mixed, parts, atol=1e-12)


class TestControlledWrapper:
    def test_control_blocks(self):
        rng = np.random.default_rng(11)
        for width in (2, 3, 4, 5):
            k = int(rng.integers(1, width))
            targets = tuple(rng.choice(width, size=k, replace=False))
            free = [q for q in range(width) if q not in targets]
            ctrl = int(rng.choice(free))
            op = Gate(random_unitary(rng, 2 ** k), targets)
            full = circuit_unitary(Circuit(width, [controlled(op, ctrl)]))
            plain = circuit_unitary(Circuit(width, [op]))
            dim = 2 ** width
            expected = np.eye(dim, dtype=complex)
            for col in range(dim):
                if bit(col, ctrl) == 1:
                    expected[:, col] = plain[:, col]
            np.testing.assert_allclose(full, expected, atol=1e-12)

    def test_control_on_zero_value(self):
        op = Gate(PAULI_X, (0,), controls=(1,), control_values=(0,))
        out = run_circuit(Circuit(2, [op]))  # ancilla |0> fires the X
        np.testing.assert_allclose(out.amplitudes, [0, 1, 0, 0], atol=1e-15)


def reference_embedding(matrix, targets, controls, control_values, width):
    """Kron-product embedding built fully independently of the simulator."""
    dim = 2 ** width
    out = np.zeros((dim, dim), dtype=complex)
    k = len(targets)
    for col in range(dim):
        if any((col >> q) & 1 != v for q, v in zip(controls, control_values)):
            out[col, col] = 1.0
            continue
        local = sum(((col >> t) & 1) << m for m, t in enumerate(targets))
        rest = col & ~sum(1 << t for t in targets)
        for row_local in range(2 ** k):
            row = rest | sum(((row_local >> m) & 1) << t for m, t in enumerate(targets))
            out[row, col] = matrix[row_local, local]
    return out


class TestAgainstKronReference:
    def test_random_controlled_gates(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            width = int(rng.integers(2, 6))
            k = int(rng.integers(1, 3))
            qubits = list(rng.permutation(width))
            targets = tuple(qubits[:k])
            n_ctrl = int(rng.integers(0, min(2, width - k) + 1))
            controls = tuple(qubits[k : k + n_ctrl])
            values = tuple(int(v) for v in rng.integers(0, 2, size=n_ctrl))
            mat = random_unitary(rng, 2 ** k)
            op = Gate(mat, targets, controls, values)
            got = circuit_unitary(Circuit(width, [op]))
            want = reference_embedding(mat, targets, controls, values, width)
            np.testing.assert_allclose(got, want, atol=1e-12)


def select_gates(blocks, n_data, n_sel):
    """One selector-controlled gate per branch: controls = selector, values = bits of j."""
    selector = tuple(range(n_data, n_data + n_sel))
    return [
        Gate(block, tuple(range(n_data)), selector, tuple((j >> b) & 1 for b in range(n_sel)))
        for j, block in sorted(blocks.items())
    ]


def reference_multiplexer_matrix(blocks, n_data, n_sel):
    """Independent dense construction: branch j of the selector applies U_j."""
    dim = 2 ** (n_data + n_sel)
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        data = col % (2 ** n_data)
        sel = col // (2 ** n_data)
        block = blocks.get(sel)
        if block is None:
            out[col, col] = 1.0
            continue
        for row_data in range(2 ** n_data):
            out[sel * 2 ** n_data + row_data, col] = block[row_data, data]
    return out


class TestMultiplexer:
    def test_block_diagonal_dense_matrix(self):
        rng = np.random.default_rng(5)
        for n_data, n_sel in ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3)):
            blocks = {
                j: random_unitary(rng, 2 ** n_data)
                for j in range(2 ** n_sel)
                if rng.random() < 0.8
            }
            mux = Circuit(n_data + n_sel, select_gates(blocks, n_data, n_sel))
            dense = circuit_unitary(mux)
            expected = reference_multiplexer_matrix(blocks, n_data, n_sel)
            np.testing.assert_allclose(dense, expected, atol=1e-12)

    def test_branch_out_of_register(self):
        # branch 2 needs a second selector bit; a one-qubit selector only has 0/1
        with pytest.raises(ValueError, match="one bit per control"):
            Gate(IDENTITY_2, (0,), controls=(1,), control_values=(2,))


class TestShifted:
    def test_shift_moves_indices(self):
        op = Gate(PAULI_Z, (0,), controls=(1,))
        moved = shifted(op, 2)
        assert moved.targets == (2,) and moved.controls == (3,)

    def test_composes_with_control(self):
        rng = np.random.default_rng(9)
        op = Gate(random_unitary(rng, 2), (0,))
        wrapped = controlled(shifted(op, 1), control=0)
        dense = circuit_unitary(Circuit(2, [wrapped]))
        # |c=0> column untouched, |c=1> column applies op on qubit 1
        assert dense[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(dense[1::2, 1::2], op.matrix, atol=1e-14)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError, match="below qubit 0"):
            shifted(Gate(PAULI_X, (1,), controls=(0,)), -1)


class TestDerivedGates:
    def test_derived_gates_share_the_checked_matrix(self):
        op = Gate(HADAMARD, (0,))
        derived = controlled(shifted(op, 2), control=1, value=0)
        assert derived.matrix is op.matrix
        assert not derived.matrix.flags.writeable
        assert (derived.targets, derived.controls, derived.control_values) == ((2,), (1,), (0,))

    def test_control_collision_still_checked(self):
        op = Gate(PAULI_X, (0,), controls=(1,))
        with pytest.raises(ValueError, match="already used"):
            controlled(op, 1)
        with pytest.raises(ValueError, match="bit"):
            controlled(op, 2, value=2)
