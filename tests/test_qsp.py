"""Signal unitaries, phased products, and Chebyshev oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkorobov.qsp import (
    bind_signal,
    chebyshev_blocks,
    chebyshev_circuit,
    chebyshev_first_kind,
    chebyshev_second_kind,
    signal_encoding,
)
from qkorobov.simulator import circuit_unitary, resource_report, run_circuit


def phase_rotation(phi: float) -> np.ndarray:
    """e^{i phi sigma_z} = diag(e^{i phi}, e^{-i phi})."""
    return np.array([[np.exp(1j * phi), 0.0], [0.0, np.exp(-1j * phi)]], dtype=complex)


def qsp_ansatz(phases, x: float) -> np.ndarray:
    """Reference phased product e^{i phi_0 Z} W(x) e^{i phi_1 Z} ... W(x) e^{i phi_l Z}.

    ``phases`` = (phi_0, ..., phi_l) yields l applications of W(x); a single
    phase gives a bare phase rotation (zero-length signal product).
    """
    phases = tuple(float(p) for p in phases)
    if not phases:
        raise ValueError("phase sequence must contain at least one angle")
    w = signal_encoding(x)
    out = phase_rotation(phases[0])
    for phi in phases[1:]:
        out = out @ w @ phase_rotation(phi)
    return out


class TestChebyshevOracles:
    def test_first_kind_fixtures(self):
        assert chebyshev_first_kind(0, 0.7) == 1.0
        # 2 * 0.25 - 1 and 4 x^3 - 3 x at 0.5
        assert chebyshev_first_kind(2, 0.5) == pytest.approx(2 * 0.25 - 1, abs=1e-15)
        assert chebyshev_first_kind(3, 0.5) == pytest.approx(4 * 0.125 - 1.5, abs=1e-15)

    def test_second_kind_fixtures(self):
        assert chebyshev_second_kind(0, 0.123) == 1.0
        assert chebyshev_second_kind(1, 0.5) == pytest.approx(1.0, abs=1e-15)
        # 4 x^2 - 1 at 0.5
        assert chebyshev_second_kind(2, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_cosine_identity(self):
        for r in range(12):
            for x in np.linspace(-1, 1, 41):
                assert chebyshev_first_kind(r, x) == pytest.approx(
                    math.cos(r * math.acos(x)), abs=1e-12
                )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(0, 40), st.floats(-1.0, 1.0))
    def test_first_kind_parity(self, r, x):
        left = chebyshev_first_kind(r, -x)
        right = (-1.0) ** r * chebyshev_first_kind(r, x)
        assert abs(left - right) <= 1e-12 * max(1.0, abs(left))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_first_kind(-1, 0.0)


class TestSignalEncoding:
    def test_x_one_is_identity(self):
        np.testing.assert_allclose(signal_encoding(1.0), np.eye(2), atol=1e-14)

    def test_x_zero_is_i_sigma_x(self):
        np.testing.assert_allclose(
            signal_encoding(0.0), np.array([[0, 1j], [1j, 0]]), atol=1e-14
        )

    def test_three_four_five(self):
        # sqrt(1 - 0.36) = 0.8 by hand
        np.testing.assert_allclose(
            signal_encoding(0.6),
            np.array([[0.6, 0.8j], [0.8j, 0.6]]),
            atol=1e-15,
        )

    def test_unitary(self):
        for x in np.linspace(-1, 1, 101):
            w = signal_encoding(x)
            np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            signal_encoding(1.5)

    def test_nan_rejected(self):
        # nan is no point of [-1, 1]: no W(-1) or other matrix stands in for it
        for x in (math.nan, np.float64("nan")):
            with pytest.raises(ValueError, match=r"nan outside \[-1, 1\]"):
                signal_encoding(x)
            with pytest.raises(ValueError, match=r"nan outside \[-1, 1\]"):
                bind_signal(chebyshev_circuit(2), x)


class TestAnsatz:
    def test_single_zero_phase_is_identity(self):
        for x in (-0.4, 0.0, 0.9):
            np.testing.assert_allclose(qsp_ansatz((0.0,), x), np.eye(2), atol=1e-15)

    def test_two_zero_phases_single_signal(self):
        np.testing.assert_allclose(
            qsp_ansatz((0.0, 0.0), 0.6), signal_encoding(0.6), atol=1e-15
        )

    def test_degree_two_entry(self):
        # T_2(0.6) = 2*0.36 - 1 = -0.28 by the recurrence
        v = qsp_ansatz((0.0, 0.0, 0.0), 0.6)
        assert v[0, 0].real == pytest.approx(-0.28, abs=1e-15)
        assert abs(v[0, 0].imag) <= 1e-15

    def test_empty_phases_rejected(self):
        with pytest.raises(ValueError):
            qsp_ansatz((), 0.3)

    def test_nonzero_phases_unitary(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            phases = rng.uniform(-np.pi, np.pi, size=rng.integers(1, 8))
            x = rng.uniform(-1, 1)
            v = qsp_ansatz(phases, x)
            np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-13)


class TestChebyshevCircuit:
    def test_r0_single_gate(self):
        circ = chebyshev_circuit(0)
        assert len(circ.ops) == 1
        for x in (-1.0, -0.3, 0.5, 1.0):
            out = run_circuit(bind_signal(circ, x))
            assert out.amplitudes[0] == pytest.approx(1.0)

    def test_r1_linear(self):
        out = run_circuit(bind_signal(chebyshev_circuit(1), 0.25))
        assert out.amplitudes[0].real == pytest.approx(0.25, abs=1e-15)

    def test_r4_value(self):
        # recurrence oracle 8 x^4 - 8 x^2 + 1 at 0.9
        expected = 8 * 0.9 ** 4 - 8 * 0.9 ** 2 + 1
        out = run_circuit(bind_signal(chebyshev_circuit(4), 0.9))
        assert out.amplitudes[0].real == pytest.approx(expected, abs=1e-13)

    def test_gate_structure(self):
        circ = chebyshev_circuit(3)
        labels = [op.label for op in circ.ops]
        assert labels == ["phase", "signal", "phase", "signal", "phase", "signal", "phase"]
        report = resource_report(circ)
        assert (report.width, report.touch_depth) == (1, 7)

    def test_identity_free_variant(self):
        circ = chebyshev_circuit(2, include_identity=False)
        assert [op.label for op in circ.ops] == ["signal", "signal"]
        u = circuit_unitary(bind_signal(circ, 0.3))
        assert u[0, 0].real == pytest.approx(chebyshev_first_kind(2, 0.3), abs=1e-14)

    def test_matches_zero_phase_ansatz(self):
        for r in (0, 1, 2, 5, 9):
            for x in (-0.8, 0.1, 0.77):
                u = circuit_unitary(bind_signal(chebyshev_circuit(r), x))
                v = qsp_ansatz((0.0,) * (r + 1), x)
                np.testing.assert_allclose(u, v, atol=1e-12)


class TestChebyshevBlocks:
    """The array builder holds, byte for byte, what the bound gate form holds."""

    SIGNALS = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 1.0 + 1e-13,
               *np.random.default_rng(12).uniform(-1, 1, 20)]

    @pytest.mark.parametrize("include_identity", [True, False])
    def test_bytes_equal_bound_circuit(self, include_identity):
        degrees = [k for k in range(6) for _ in self.SIGNALS]
        signals = [u for _ in range(6) for u in self.SIGNALS]
        gates, counts = chebyshev_blocks(degrees, signals, include_identity)
        assert gates.shape == (len(degrees), max(counts), 2, 2) and gates.dtype == complex
        assert not gates.flags.writeable
        for b, (k, u) in enumerate(zip(degrees, signals)):
            ops = bind_signal(chebyshev_circuit(k, include_identity), u).ops
            assert counts[b] == len(ops) == (2 * k + 1 if include_identity else k)
            want = np.array([op.matrix for op in ops]).reshape(-1, 2, 2)
            assert gates[b, :counts[b]].tobytes() == want.tobytes(), (k, u)  # -0.0 kept
            padding = gates[b, counts[b]:]
            assert padding.tobytes() == np.broadcast_to(np.eye(2, dtype=complex),
                                                        padding.shape).tobytes()
            # slot by slot: W(u) where the circuit has a signal gate, I elsewhere
            labels = [op.label for op in chebyshev_circuit(k, include_identity).ops]
            for label, gate in zip(labels, gates[b]):
                want = signal_encoding(u) if label == "signal" else np.eye(2, dtype=complex)
                assert gate.tobytes() == want.tobytes(), (k, u, label)

    def test_rejects_what_signal_encoding_rejects(self):
        for bad in (1.0 + 2e-12, -1.5, math.nan):
            with pytest.raises(ValueError, match=r"outside \[-1, 1\]") as info:
                chebyshev_blocks([1, 0], [0.5, bad])
            with pytest.raises(ValueError) as direct:
                signal_encoding(bad)
            assert str(info.value) == str(direct.value)
        with pytest.raises(ValueError, match="non-negative"):
            chebyshev_blocks([-1], [0.5])

    def test_empty_and_gate_free_columns(self):
        gates, counts = chebyshev_blocks([], [])
        assert gates.shape == (0, 0, 2, 2) and counts.shape == (0,)
        gates, counts = chebyshev_blocks([0, 0], [0.3, -0.2], include_identity=False)
        assert gates.shape == (2, 0, 2, 2) and counts.tolist() == [0, 0]


class TestMatrixIdentity:
    """W(x)^r carries (T_r, U_{r-1}) in its entries."""

    def test_power_identity_sweep(self):
        xs = np.linspace(-1.0, 1.0, 201)
        for r in range(33):
            t = chebyshev_first_kind(r, xs)
            u = chebyshev_second_kind(r - 1, xs) if r >= 1 else np.zeros_like(xs)
            s = np.sqrt(np.maximum(0.0, 1.0 - xs ** 2))
            for k, x in enumerate(xs):
                wr = np.linalg.matrix_power(signal_encoding(x), r)
                expected = np.array(
                    [[t[k], 1j * s[k] * u[k]], [1j * s[k] * u[k], t[k]]]
                )
                assert np.abs(wr - expected).max() <= 1e-10

    def test_pythagorean_invariant(self):
        xs = np.linspace(-1.0, 1.0, 201)
        for r in range(33):
            t = chebyshev_first_kind(r, xs)
            u = chebyshev_second_kind(r - 1, xs) if r >= 1 else np.zeros_like(xs)
            residual = t ** 2 + (1 - xs ** 2) * u ** 2 - 1.0
            assert np.abs(residual).max() <= 1e-10
