"""Tests for the ASCII circuit drawer."""

import pytest

from repro.circuits import Circuit, draw_circuit, qft_circuit
from repro.errors import CircuitError
from repro.gates import Gate


class TestBasics:
    def test_wire_labels(self):
        text = draw_circuit(Circuit(3).h(0))
        lines = text.splitlines()
        assert lines[0].startswith("q0:")
        assert lines[2].startswith("q2:")
        assert len(lines) == 3

    def test_gate_symbols(self):
        text = draw_circuit(Circuit(2).h(0).x(1))
        assert "H" in text.splitlines()[0]
        assert "X" in text.splitlines()[1]

    def test_control_symbol(self):
        text = draw_circuit(Circuit(2).cx(0, 1))
        assert "*" in text.splitlines()[0]
        assert "X" in text.splitlines()[1]

    def test_swap_endpoints(self):
        text = draw_circuit(Circuit(3).swap(0, 2))
        assert "x" in text.splitlines()[0]
        assert "x" in text.splitlines()[2]
        assert "|" in text.splitlines()[1]

    def test_phase_exponent_labels(self):
        import math

        text = draw_circuit(Circuit(2).cp(math.pi / 4, 0, 1))
        assert "P2" in text  # pi / 2**2

    def test_no_wire_labels(self):
        text = draw_circuit(Circuit(2).h(0), wire_labels=False)
        assert "q0" not in text

    def test_width_cap(self):
        with pytest.raises(CircuitError):
            draw_circuit(Circuit(33).h(0))

    def test_empty_circuit(self):
        text = draw_circuit(Circuit(2))
        assert len(text.splitlines()) == 2


class TestPacking:
    def test_parallel_gates_share_column(self):
        packed = draw_circuit(Circuit(2).h(0).h(1), pack=True)
        unpacked = draw_circuit(Circuit(2).h(0).h(1), pack=False)
        assert len(packed.splitlines()[0]) < len(unpacked.splitlines()[0])

    def test_overlapping_gates_serialise(self):
        text = draw_circuit(Circuit(2).cx(0, 1).cx(1, 0), pack=True)
        top = text.splitlines()[0]
        assert "*" in top and "X" in top

    def test_max_columns_truncates(self):
        c = Circuit(1)
        for _ in range(10):
            c.h(0)
        text = draw_circuit(c, max_columns=3, pack=False)
        assert text.splitlines()[0].endswith("...")
        assert text.count("H") == 3

    def test_all_wires_same_length(self):
        text = draw_circuit(qft_circuit(5))
        lengths = {len(line) for line in text.splitlines()}
        assert len(lengths) == 1


class TestFig1:
    def test_experiment(self):
        from repro.experiments import fig1_circuits

        result = fig1_circuits.run()
        assert "(a) standard QFT" in result.plot
        assert "(b) cache-blocked QFT" in result.plot

    def test_fused_gate_symbol(self):
        import math

        ladder = [
            Gate.named("p", (0,), controls=(1,), params=(math.pi / 2,)),
        ]
        c = Circuit(2)
        c.append(Gate.fused([*ladder, Gate.named("p", (1,), params=(0.1,))]))
        assert "D*" in draw_circuit(c)
