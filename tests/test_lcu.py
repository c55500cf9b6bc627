"""State preparation, select ops, the assembled sandwich, and readout."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qkorobov import lcu, qsp, simulator
from qkorobov.lcu import (
    LcuPlan,
    _select_stack,
    ancilla_count,
    assemble_lcu,
    circuit_json_ops,
    direct_amplitude,
    evaluate_via_circuit,
    hadamard_test,
    hadamard_test_circuit,
    hadamard_test_report,
    plan_from_terms,
    prepare_state_unitary,
    run_hadamard_test,
)
from qkorobov.analysis import corpus, corpus_function, generic_point
from qkorobov.qsp import bind_signal, chebyshev_circuit
from qkorobov.simulator import (
    Circuit,
    Gate,
    IDENTITY_2,
    circuit_unitary,
    expectation_z_first,
    resource_report,
    run_circuit,
)
from qkorobov.sparsegrid import chebyshev_expansion, surplus_coefficients
from test_simulator import controlled, shifted

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PROD_QUAD_1 = lambda X: X[:, 0] * (1 - X[:, 0])
PROD_QUAD_2 = lambda X: X[:, 0] * (1 - X[:, 0]) * X[:, 1] * (1 - X[:, 1])


def term_record(weights, degrees, arguments):
    """A read-only term record like ``chebyshev_expansion``'s, from plain columns."""
    degrees = np.asarray(degrees).reshape(len(weights), -1)
    d = degrees.shape[1]
    terms = np.recarray(len(weights), dtype=[
        ("weight", float), ("degrees", np.int8, (d,)), ("arguments", float, (d,))])
    terms["weight"], terms["degrees"], terms["arguments"] = weights, degrees, arguments
    terms.flags.writeable = False
    return terms


def block_plan(weights, blocks, table):
    """A plan from hand-built blocks, each a list of 2x2 gate matrices in circuit order.

    The matrices are kept as given; shorter blocks are padded with identities.
    """
    counts = [len(block) for block in blocks]
    gates = np.empty((len(blocks), max(counts, default=0), 2, 2), dtype=complex)
    gates[...] = IDENTITY_2
    for b, block in enumerate(blocks):
        for i, matrix in enumerate(block):
            gates[b, i] = matrix
    return LcuPlan(weights, gates, counts, table)


def identity_plan(weights):
    # one block, the identity gate, on the one data qubit of every term
    return block_plan(weights, [[IDENTITY_2]], np.zeros((len(weights), 1), dtype=int))


class TestPrepareState:
    def test_uniform_four(self):
        f = prepare_state_unitary([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(f[:, 0], [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_three_four_five(self):
        f = prepare_state_unitary([9.0, 16.0])
        np.testing.assert_allclose(f[:, 0], [0.6, 0.8], atol=1e-15)

    def test_single_term(self):
        np.testing.assert_allclose(prepare_state_unitary([2.5]), [[1.0]])

    def test_unitary_and_padding(self):
        rng = np.random.default_rng(8)
        for m in (2, 3, 5, 6, 9):
            a = rng.uniform(0.1, 3.0, size=m)
            f = prepare_state_unitary(a)
            dim = 2 ** ancilla_count(m)
            assert f.shape == (dim, dim)
            np.testing.assert_allclose(f.conj().T @ f, np.eye(dim), atol=1e-12)
            np.testing.assert_allclose(
                f[:m, 0], np.sqrt(a / a.sum()), atol=1e-14
            )
            np.testing.assert_allclose(f[m:, 0], 0.0, atol=1e-15)

    def test_deterministic(self):
        a = [0.3, 1.2, 0.7]
        np.testing.assert_array_equal(
            prepare_state_unitary(a), prepare_state_unitary(a)
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            prepare_state_unitary([1.0, 0.0])
        with pytest.raises(ValueError):
            prepare_state_unitary([])

    def test_rejects_column_off_the_unit_sphere(self):
        # ||a||_1 overflows, or a weight is nan: F|0> is no unit vector
        for a in ([1e308, 1e308], [1.0, math.nan], [math.inf, 1.0]):
            with pytest.raises(ValueError, match="unit vector"):
                prepare_state_unitary(a)

    def test_dense_ceiling_checked_before_allocating(self):
        # 2^11 + 1 terms need 12 selector qubits: F would hold 4^12 > 2^22 entries
        m = 2 ** 11 + 1
        with pytest.raises(ValueError, match="dense ceiling"):
            prepare_state_unitary(np.ones(m))
        plan = block_plan(np.ones(m), [[]], np.zeros((m, 1), dtype=int))
        with pytest.raises(ValueError, match="dense ceiling"):
            assemble_lcu(plan)
        # the structured run never makes F dense, so the plan still evaluates
        assert expectation_z_first(run_hadamard_test(plan)) == pytest.approx(1.0, abs=1e-12)
        assert hadamard_test_report(plan).width == 1 + 12 + 1


def select_segment(plan):
    """The assembled select ops alone: everything between F and F^dag."""
    circuit = assemble_lcu(plan)
    return Circuit(circuit.width, circuit.ops[1:-1])


class TestMultiplexer:
    # the select block of assemble_lcu: one selector-controlled gate per term gate
    def test_single_term_is_plain_gate(self):
        plan = block_plan(np.array([1.0]), [[PAULI_X]], [[0]])
        circuit = assemble_lcu(plan)
        assert circuit.width == 1
        [op] = circuit.ops
        assert op.controls == ()
        np.testing.assert_allclose(op.matrix, PAULI_X)

    def test_two_term_selector(self):
        plan = block_plan(np.array([1.0, 1.0]), [[IDENTITY_2], [PAULI_X]], [[0], [1]])
        dense = circuit_unitary(select_segment(plan))
        expected = np.eye(4, dtype=complex)
        expected[2:, 2:] = PAULI_X
        np.testing.assert_allclose(dense, expected, atol=1e-14)

    def test_sign_becomes_branch_phase(self):
        dense = circuit_unitary(select_segment(identity_plan([1.0, -1.0])))
        expected = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
        np.testing.assert_allclose(dense, expected, atol=1e-14)

    def test_width_mismatch(self):
        # a two-qubit gate has no place in a width-1 block
        with pytest.raises(ValueError, match="width"):
            LcuPlan(np.array([1.0, 1.0]), np.zeros((2, 1, 4, 4)), [1, 1], [[0], [1]])


class TestAssemble:
    def test_single_term_no_ancilla(self):
        plan = plan_from_terms_from_circuit(0.25)
        circuit = assemble_lcu(plan)
        assert circuit.width == 1
        amp = direct_amplitude(circuit)
        assert amp.real == pytest.approx(0.25, abs=1e-14)

    def test_two_identity_terms(self):
        circuit = assemble_lcu(identity_plan([1.0, 1.0]))
        assert circuit.width == 2
        assert direct_amplitude(circuit).real == pytest.approx(1.0, abs=1e-12)

    def test_cancellation(self):
        circuit = assemble_lcu(identity_plan([1.0, -1.0]))
        assert abs(direct_amplitude(circuit)) <= 1e-12

    def test_gate_free_negative_term_keeps_its_sign(self):
        # degree-0 terms have no gates when identity gates are left out
        plan = block_plan(np.array([1.0, -1.0]), [[]], [[0], [0]])
        assert abs(direct_amplitude(assemble_lcu(plan))) <= 1e-12

    def test_identity_free_circuit_matches_classical(self):
        smap = surplus_coefficients(lambda X: -PROD_QUAD_2(X), 3, 2)
        x = np.array([0.37, 0.61])
        value, _ = evaluate_via_circuit(smap, x, include_identity=False)
        assert value == pytest.approx(smap.evaluate(x), abs=1e-12)

    def test_sandwich_matches_dense_select(self):
        # expanded per-gate assembly == (I x F^dag) select (I x F) as matrices
        smap = surplus_coefficients(PROD_QUAD_2, 2, 2)
        terms = chebyshev_expansion(smap, np.array([0.3, 0.45]))
        plan = plan_from_terms(terms, 2)
        assembled = circuit_unitary(assemble_lcu(plan))
        f = prepare_state_unitary(plan.coefficients)
        dim_data = 2 ** plan.data_width
        # block-diagonal select in plain numpy: selector value j picks sign_j U_j
        select = np.eye(dim_data * 2 ** plan.ancilla_count, dtype=complex)
        for j, (sign, term) in enumerate(zip(plan.term_signs, plan.term_circuits)):
            block = slice(j * dim_data, (j + 1) * dim_data)
            select[block, block] = sign * circuit_unitary(term)
        f_full = np.kron(f, np.eye(dim_data))
        np.testing.assert_allclose(
            assembled, f_full.conj().T @ select @ f_full, atol=1e-12
        )

    def test_each_argument_bound_once(self):
        smap = surplus_coefficients(PROD_QUAD_2, 3, 2)
        terms = chebyshev_expansion(smap, np.array([0.3, 0.45]))
        terms = terms[terms.weight != 0.0]
        plan = plan_from_terms(terms, 2)
        pairs = [(k, u) for t in terms for k, u in zip(t.degrees.tolist(), t.arguments.tolist())]
        assert plan.term_count == len(terms)
        assert len(plan.blocks) == len(plan.gate_counts) == len(set(pairs)) < len(terms) * 2
        # one block per distinct (k, u): the table maps equal pairs, and only those, together
        block_of = dict(zip(pairs, plan.table.reshape(-1).tolist()))
        assert sorted(block_of.values()) == list(range(len(plan.blocks)))
        assert [block_of[pair] for pair in pairs] == plan.table.reshape(-1).tolist()


class TestCircuitJsonOps:
    def test_matrix_pairs_are_read_only_entry_bits(self):
        smap = surplus_coefficients(PROD_QUAD_2, 3, 2)
        plan = plan_from_terms(chebyshev_expansion(smap, np.array([0.3, 0.45])), 2)
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        gate = Gate(u, (0, 1))
        # the unprepare adjoint of a real symmetric F, and of a complex U: transposed views
        for circuit in (hadamard_test_circuit(assemble_lcu(plan)),
                        Circuit(2, [gate, Gate._trusted(gate.matrix.conj().T, (1, 0))])):
            self.check_trace(circuit)

    def check_trace(self, circuit):
        ops = circuit_json_ops(circuit)
        assert len(ops) == len(circuit.ops)
        assert any(not op.matrix.flags.c_contiguous for op in circuit.ops)
        for op, doc in zip(circuit.ops, ops):
            pairs = doc["matrix"]
            want = [[float(z.real), float(z.imag)] for z in op.matrix.ravel()]
            assert pairs.shape == (op.matrix.size, 2) and pairs.dtype == np.float64
            assert not pairs.flags.writeable
            assert pairs.tobytes() == np.array(want).tobytes()  # -0.0 kept
            assert (doc["label"], doc["targets"], doc["controls"], doc["control_values"]) == (
                op.label, list(op.targets), list(op.controls), list(op.control_values))


class TestPlan:
    # everything but the weights and term circuits derives from the weights
    def test_derived_fields_match_formulas(self):
        rng = np.random.default_rng(61)
        for func in corpus():
            for n in range(1, 7):
                smap = surplus_coefficients(func.f, n, func.d)
                for x in [generic_point(func.d), np.full(func.d, 0.375), *rng.random((2, func.d))]:
                    terms = chebyshev_expansion(smap, x)
                    plan = plan_from_terms(terms, func.d)
                    w = np.array([t.weight for t in terms if t.weight != 0.0])
                    if not w.size:
                        assert plan is None
                        continue
                    np.testing.assert_array_equal(plan.weights, w)
                    np.testing.assert_array_equal(plan.coefficients, np.abs(w))
                    np.testing.assert_array_equal(plan.term_signs, np.sign(w))
                    assert plan.one_norm == float(np.abs(w).sum())
                    assert plan.ancilla_count == max(0, math.ceil(math.log2(w.size)))
                    assert plan.term_count == len(plan.term_circuits) == w.size
                    assert plan.data_width == func.d
                    assert plan.table.shape == (w.size, func.d)

    def test_zero_or_nan_weight_rejected(self):
        for bad in (0.0, -0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite and non-zero"):
                identity_plan([1.0, bad])
        with pytest.raises(ValueError, match="at least one term"):
            identity_plan([])
        with pytest.raises(ValueError, match="align"):
            block_plan(np.array([1.0, -1.0]), [[]], [[0]])

    def test_table_must_index_the_blocks(self):
        for table in ([[1]], [[-1]], [[0.0]]):
            with pytest.raises(ValueError, match="index the blocks"):
                block_plan(np.array([1.0]), [[]], table)
        with pytest.raises(ValueError, match="width"):
            block_plan(np.array([1.0]), [[]], np.zeros((1, 0), dtype=int))

    def test_hand_built_blocks_are_checked(self):
        # every 2x2 is checked unitary once, when the plan is built
        for bad in (np.diag([1.0, 2.0]), np.diag([1.0, np.nan]), PAULI_X * (1 + 1e-11)):
            with pytest.raises(ValueError, match="block gate is not unitary"):
                block_plan([1.0], [[IDENTITY_2, bad]], [[0]])
        block_plan([1.0], [[IDENTITY_2, PAULI_X * (1 + 1e-13)]], [[0]])  # within UNITARY_ATOL
        gates = np.array([[IDENTITY_2, PAULI_X]])
        with pytest.raises(ValueError, match="padded with identity"):
            LcuPlan([1.0], gates, [1], [[0]])  # the slot past the count is not the identity
        for counts in ([3], [-1], [1.0], [1, 1]):
            with pytest.raises(ValueError, match="gate_counts"):
                LcuPlan([1.0], gates, counts, [[0]])

    def test_weights_are_read_only(self):
        given = np.array([0.5, -2.0])
        plan = identity_plan(given)
        with pytest.raises(ValueError, match="read-only"):
            plan.weights[1] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            plan.table[1, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            plan.blocks[0, 0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            plan.gate_counts[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.weights = np.array([0.5, 2.0])
        given[1] = 2.0  # the plan keeps its own copy
        np.testing.assert_array_equal(plan.term_signs, [1.0, -1.0])
        assert plan.one_norm == 2.5
        assert isinstance(plan.term_circuits, tuple)

    def test_term_circuits_cannot_change(self):
        plan = identity_plan(np.array([0.5, -2.0]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.term_circuits[0].width = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.term_circuits[1].ops = ()
        with pytest.raises(AttributeError):
            plan.term_circuits[0].ops.append(Gate(PAULI_X, (3,)))
        with pytest.raises(TypeError):
            plan.term_circuits[0] = Circuit(5)
        assert plan.data_width == 1
        assert [len(c.ops) for c in plan.term_circuits] == [1, 1]


def plan_from_terms_from_circuit(x):
    """Plan with the single degree-1 term bound at x."""
    ops = bind_signal(chebyshev_circuit(1), x).ops
    return block_plan(np.array([1.0]), [[op.matrix for op in ops]], [[0]])


class TestHadamardTest:
    def test_z_target(self):
        assert hadamard_test(Circuit(1, [Gate(PAULI_Z, (0,))])) == pytest.approx(1.0)

    def test_x_target(self):
        assert hadamard_test(Circuit(1, [Gate(PAULI_X, (0,))])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_global_phase(self):
        phase = np.exp(1j * np.pi / 3) * np.eye(2)
        value = hadamard_test(Circuit(1, [Gate(phase, (0,))]))
        assert value == pytest.approx(0.5, abs=1e-14)  # cos(pi/3)

    def test_circuit_width_and_ancilla_position(self):
        target = Circuit(2, [Gate(PAULI_X, (0,)), Gate(PAULI_Z, (1,))])
        wrapped = hadamard_test_circuit(target)
        assert wrapped.width == 3
        assert wrapped.ops[0].targets == (0,)  # leading H on the test qubit

    @pytest.mark.parametrize("target", ["d3-n4", "one-term", "controlled"])
    def test_one_pass_wrap_equals_shift_then_control(self, target):
        if target == "d3-n4":  # the selector-controlled gates of a traced combination
            smap = surplus_coefficients(corpus_function("prod-quad", 3).f, 4, 3)
            plan = plan_from_terms(chebyshev_expansion(smap, np.array([0.3, 0.6, 0.7])), 3)
            circuit = assemble_lcu(plan)
            assert circuit.width == 3 + 8 and len(circuit.ops) > 900
        elif target == "one-term":  # no selector, plain width-1 gates
            circuit = assemble_lcu(plan_from_terms_from_circuit(0.25))
            assert circuit.width == 1 and not any(op.controls for op in circuit.ops)
        else:  # controls given with values, on two-qubit targets
            circuit = Circuit(4, [Gate(np.eye(4), (2, 0), controls=(3, 1), control_values=(0, 1),
                                       label="cc"), Gate(PAULI_X, (3,))])
        wrapped = hadamard_test_circuit(circuit)
        assert wrapped.width == circuit.width + 1
        assert len(wrapped.ops) == len(circuit.ops) + 2
        for got, op in zip(wrapped.ops[1:-1], circuit.ops, strict=True):
            want = controlled(shifted(op, 1), control=0)
            assert got.matrix is want.matrix is op.matrix
            assert (got.targets, got.controls, got.control_values, got.label) == (
                want.targets, want.controls, want.control_values, want.label)
            assert all(type(q) is int for q in got.targets + got.controls + got.control_values)

    def test_matches_direct_real_part(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            q, r = np.linalg.qr(z)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            target = Circuit(2, [Gate(u, (0, 1))])
            assert hadamard_test(target) == pytest.approx(
                direct_amplitude(target).real, abs=1e-12
            )


class TestEvaluateViaCircuit:
    def test_d1_fixture(self):
        smap = surplus_coefficients(PROD_QUAD_1, 2, 1)
        value, report = evaluate_via_circuit(smap, np.array([0.125]))
        assert value == pytest.approx(3 / 32, abs=1e-9)
        assert report.width == 4  # 1 data + 2 selector + 1 test

    def test_zero_interpolant(self):
        smap = surplus_coefficients(lambda X: np.zeros(len(X)), 2, 1)
        value, report = evaluate_via_circuit(smap, np.array([0.3]))
        assert value == 0.0
        assert report.width == 0 and report.gate_count == 0

    def test_boundary_point(self):
        smap = surplus_coefficients(PROD_QUAD_1, 2, 1)
        value, _ = evaluate_via_circuit(smap, np.array([0.0]))
        assert value == 0.0

    def test_d2_matches_classical(self):
        smap = surplus_coefficients(PROD_QUAD_2, 2, 2)
        x = np.array([0.3, 0.3])
        value, _ = evaluate_via_circuit(smap, x)
        assert value == pytest.approx(smap.evaluate(x), abs=1e-9)

    def test_normalization_bookkeeping(self):
        rng = np.random.default_rng(77)
        for d, n in itertools.product((1, 2), (1, 2, 3)):
            f = PROD_QUAD_1 if d == 1 else PROD_QUAD_2
            smap = surplus_coefficients(f, n, d)
            for x in rng.random((5, d)):
                terms = chebyshev_expansion(smap, x)
                plan = plan_from_terms(terms, d)
                target = assemble_lcu(plan)
                raw = hadamard_test(target)
                assert plan.one_norm * raw == pytest.approx(
                    smap.evaluate(x), abs=1e-9
                )
                # the two readout routes agree far below that
                assert raw == pytest.approx(direct_amplitude(target).real, abs=1e-12)

    def test_width_formula(self):
        for d, n in itertools.product((1, 2), (1, 2, 3)):
            f = PROD_QUAD_1 if d == 1 else PROD_QUAD_2
            smap = surplus_coefficients(f, n, d)
            x = np.full(d, 1 / 3)
            m = len(chebyshev_expansion(smap, x))
            _, report = evaluate_via_circuit(smap, x)
            assert report.width == d + max(0, math.ceil(math.log2(m))) + 1

    def test_d3_n12_without_dense_f(self):
        # 2,912 terms on 12 selector qubits: a dense F would hold 4^12 entries
        smap = surplus_coefficients(corpus_function("prod-quad", 3).f, 12, 3)
        x = generic_point(3)
        value, report = evaluate_via_circuit(smap, x)
        assert abs(value - smap.evaluate(x)) <= 1e-12
        assert report.width == 3 + 12 + 1

    def test_rejects_bad_term_argument(self):
        bad = term_record([1.0], [[1]], [[1.5]])
        with pytest.raises(ValueError, match="support"):
            plan_from_terms(bad, 1)
        with pytest.raises(ValueError, match=r"u=nan outside \[-1, 1\]"):
            plan_from_terms(term_record([1.0, 2.0], [[0], [1]], [[0.5], [np.nan]]), 1)


class TestSyntheticCombinations:
    def test_random_term_data_matches_arithmetic(self):
        # fully synthetic plans: the expected readout is plain arithmetic
        rng = np.random.default_rng(424242)
        for _ in range(30):
            d = int(rng.integers(1, 4))
            m = int(rng.integers(1, 10))
            degrees = rng.integers(0, 2, size=(m, d))
            args = rng.uniform(-1, 1, size=(m, d))
            weights = rng.uniform(0.05, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
            terms = term_record(weights, degrees, args)
            expected = sum(
                t.weight * np.prod([u ** k for u, k in zip(t.arguments, t.degrees)])
                for t in terms
            )
            plan = plan_from_terms(terms, d)
            target = assemble_lcu(plan)
            got = plan.one_norm * hadamard_test(target)
            assert got == pytest.approx(expected, abs=1e-10)


class TestTermRecord:
    """The record ``chebyshev_expansion`` returns and ``plan_from_terms`` reads."""

    def test_read_only(self):
        smap = surplus_coefficients(PROD_QUAD_2, 3, 2)
        terms = chebyshev_expansion(smap, np.array([0.3, 0.45]))
        assert len(terms) == 4 * 6 and not terms.flags.writeable
        for write in (lambda: terms.weight.__setitem__(0, 1.0),
                      lambda: terms["degrees"].__setitem__((0, 0), 1),
                      lambda: terms.arguments.__setitem__((0, 1), 0.0),
                      lambda: terms.__setitem__(0, terms[1])):
            with pytest.raises(ValueError, match="read-only"):
                write()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_boundary_and_grid_line_points(self, d):
        smap = surplus_coefficients(corpus_function("prod-quad", d).f, 4, d)
        for side in (0.0, 1.0):
            x = generic_point(d)
            x[-1] = side
            terms = chebyshev_expansion(smap, x)
            assert len(terms) == 0
            assert terms.degrees.shape == terms.arguments.shape == (0, d)
            assert plan_from_terms(terms, d) is None
        # 0.5 is on a grid line of every level above 1: only l_0 = 1 supports it
        x = generic_point(d)
        x[0] = 0.5
        terms = chebyshev_expansion(smap, x)
        supported = [level for level in smap.levels() if level[0] == 1]
        assert len(terms) == 2 ** d * len(supported)
        assert terms.degrees.shape == terms.arguments.shape == (len(terms), d)

    def test_all_zero_weights_plan_to_none(self):
        smap = surplus_coefficients(lambda X: np.zeros(len(X)), 3, 2)
        terms = chebyshev_expansion(smap, np.array([0.3, 0.45]))
        assert len(terms) > 0 and not terms.weight.any()
        assert plan_from_terms(terms, 2) is None
        assert plan_from_terms(term_record([0.0, -0.0], [[1], [0]], [[0.2], [0.2]]), 1) is None

    def test_dimension_must_match_d(self):
        terms = term_record([1.0, -0.5], [[1, 0], [0, 1]], [[0.2, -0.3], [0.2, 0.4]])
        assert plan_from_terms(terms, 2).table.shape == (2, 2)
        for d in (1, 3):
            with pytest.raises(ValueError, match="term dimension does not match d"):
                plan_from_terms(terms, d)

    def test_blocks_numbered_by_first_occurrence(self):
        terms = term_record([1.0, 2.0, -1.0, 0.0], [[1, 0], [0, 1], [1, 1], [1, 1]],
                            [[0.5, -0.25], [0.5, 0.5], [0.5, 0.5], [0.9, 0.9]])
        plan = plan_from_terms(terms, 2, include_identity=False)
        # (1, .5), (0, -.25), (0, .5), then (1, .5) on any qubit is block 0 again;
        # the zero-weight row is dropped before numbering
        np.testing.assert_array_equal(plan.table, [[0, 1], [2, 0], [0, 0]])
        np.testing.assert_array_equal(plan.weights, [1.0, 2.0, -1.0])
        assert plan.gate_counts.tolist() == [1, 0, 0]


class TestGateAccounting:
    def test_select_op_count_matches_formula(self):
        # materialised select ops = 2 ||n||_1 + d M, plus F and F^dag
        for d, n in itertools.product((1, 2), (1, 2, 3, 4)):
            f = PROD_QUAD_1 if d == 1 else PROD_QUAD_2
            smap = surplus_coefficients(f, n, d)
            x = np.full(d, 1 / 3)
            terms = chebyshev_expansion(smap, x)
            plan = plan_from_terms(terms, d)
            m = plan.term_count
            degree_norm = int(terms.degrees.sum())  # numpy sums int8 in the platform int
            circuit = assemble_lcu(plan)
            expected = 2 * degree_norm + d * m + (2 if plan.ancilla_count else 0)
            assert len(circuit.ops) == expected


def random_unitary(rng, dim=2):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_plan(rng, m, d):
    """Hand-built plan: random blocks of 0-3 gates, random table and signs.

    Block 0 is gate-free, and the last term runs it on every qubit with a
    negative weight, so one negative term has no gate to carry its sign.
    """
    blocks = [[]] + [
        [random_unitary(rng) for _ in range(int(rng.integers(0, 4)))]
        for _ in range(int(rng.integers(1, 5)))
    ]
    table = rng.integers(0, len(blocks), size=(m, d))
    weights = rng.uniform(0.05, 2.0, size=m) * rng.choice([-1.0, 1.0], size=m)
    if m > 1:
        table[-1] = 0
        weights[-1] = -abs(weights[-1])
    return block_plan(weights, blocks, table)


def gate_list_state(plan):
    return run_circuit(hadamard_test_circuit(assemble_lcu(plan)))


class TestStructuredRun:
    """``run_hadamard_test`` = ``run_circuit`` of the test circuit's gate list."""

    def test_random_hand_built_plans(self):
        rng = np.random.default_rng(2024)
        # M = 1, powers of two and not, so padding slots with and without
        for m in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17):
            for d in (1, 2, 3):
                plan = random_plan(rng, m, d)
                want = gate_list_state(plan)
                got = run_hadamard_test(plan)
                assert got.width == want.width == d + plan.ancilla_count + 1
                np.testing.assert_allclose(got.amplitudes, want.amplitudes, rtol=0, atol=1e-12)

    def test_all_negative_and_gate_free_terms(self):
        for weights in ([-1.0], [-0.5, -2.0], [-1.0, 3.0, -0.25]):
            m = len(weights)
            plan = block_plan(weights, [[]], np.zeros((m, 2), dtype=int))
            np.testing.assert_allclose(run_hadamard_test(plan).amplitudes,
                                       gate_list_state(plan).amplitudes, rtol=0, atol=1e-12)
            assert expectation_z_first(run_hadamard_test(plan)) == pytest.approx(
                sum(weights) / plan.one_norm, abs=1e-12)

    @pytest.mark.parametrize("include_identity", [True, False])
    def test_expansion_plans(self, include_identity):
        rng = np.random.default_rng(9)
        for func in corpus():
            for n in (1, 2, 3):
                smap = surplus_coefficients(func.f, n, func.d)
                for x in (generic_point(func.d), *rng.random((2, func.d))):
                    plan = plan_from_terms(chebyshev_expansion(smap, x), func.d,
                                           include_identity)
                    np.testing.assert_allclose(
                        run_hadamard_test(plan).amplitudes,
                        gate_list_state(plan).amplitudes, rtol=0, atol=1e-12)


class TestBlockProducts:
    def test_products_equal_circuit_unitary(self):
        # the select stack's batched block products equal the bound block's
        # circuit_unitary, the sign of a negative term on the qubit-0 factor
        rng = np.random.default_rng(5)
        us = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, *rng.uniform(-1, 1, 6)]
        pairs = [(k, u) for k in range(6) for u in us]
        weights = [(-1.0) ** j for j in range(len(pairs))]
        terms = term_record(weights, [[k] for k, _ in pairs], [[u] for _, u in pairs])
        for include_identity in (True, False):
            plan = plan_from_terms(terms, 1, include_identity)
            stack = _select_stack(plan)
            assert stack.shape == (1, 2 ** plan.ancilla_count, 2, 2)
            for j, (k, u) in enumerate(pairs):
                bound = bind_signal(chebyshev_circuit(k, include_identity), u)
                want = weights[j] * circuit_unitary(bound)
                assert np.array_equal(stack[0, j], want), (k, u, include_identity)
            padding = stack[0, len(pairs):]
            assert np.array_equal(padding, np.broadcast_to(IDENTITY_2, padding.shape))


class TestHotPathBuildsNoObjects:
    """``evaluate_via_circuit`` builds no Gate or Circuit and binds no circuit per block.

    A guard of the structure, not of timing: every object-per-block
    constructor raises while a d=3, n=6 point is evaluated and reported.
    """

    def test_no_gate_circuit_or_bound_block(self, monkeypatch):
        smap = surplus_coefficients(corpus_function("prod-quad", 3).f, 6, 3)
        x = np.array([0.3, 0.6, 0.7])
        want = smap.evaluate(x)

        def refuse(*args, **kwargs):
            raise AssertionError("an object-per-block path ran")

        monkeypatch.setattr(Gate, "__post_init__", refuse)
        monkeypatch.setattr(Gate, "_trusted", refuse)
        monkeypatch.setattr(Circuit, "__post_init__", refuse)
        for module in (qsp, lcu, simulator):  # and any binding imported by name
            for name in ("bind_signal", "circuit_unitary"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        with pytest.raises(AssertionError, match="object-per-block"):
            Circuit(1)  # the guard is live
        value, report = evaluate_via_circuit(smap, x)
        plan = plan_from_terms(chebyshev_expansion(smap, x), 3)
        assert hadamard_test_report(plan) == report
        assert report.width == 3 + plan.ancilla_count + 1 == 13
        assert abs(value - want) <= 1e-12 * max(1.0, plan.one_norm)


class TestReportFromPlan:
    """``hadamard_test_report`` = ``resource_report`` of the built test circuit, exactly."""

    def test_corpus_points(self):
        for func in corpus():
            if func.d > 3:
                continue
            generic = generic_point(func.d)
            dyadic = np.full(func.d, 0.375)  # a grid line of level 3 on every axis
            boundary = generic.copy()
            boundary[-1] = 1.0
            for n in range(1, 7):
                smap = surplus_coefficients(func.f, n, func.d)
                for x in (generic, dyadic, boundary):
                    for include_identity in (True, False):
                        plan = plan_from_terms(chebyshev_expansion(smap, x), func.d,
                                               include_identity)
                        if plan is None:  # no level supports a boundary point
                            assert x is boundary
                            continue
                        built = hadamard_test_circuit(assemble_lcu(plan))
                        assert hadamard_test_report(plan) == resource_report(built)

    def test_hand_built_plans(self):
        rng = np.random.default_rng(17)
        for m in (1, 2, 3, 8, 9):
            for d in (1, 3):
                plan = random_plan(rng, m, d)
                built = hadamard_test_circuit(assemble_lcu(plan))
                assert hadamard_test_report(plan) == resource_report(built)
