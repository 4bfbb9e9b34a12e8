"""Tests for the generic cache-blocking transpiler."""

import pytest

from repro.circuits import (
    Circuit,
    census,
    distributed_gate_count,
    grover_circuit,
    qft_circuit,
    random_circuit,
)
from repro.errors import TranspilerError
from repro.gates import Gate, GateLocality, classify_gate
from repro.statevector.partition import Partition
from repro.transpile import cache_block, transpile
from repro.transpile.verify import assert_equivalent


class TestInvariants:
    @pytest.mark.parametrize("seed", range(4))
    def test_equivalence_with_permutation(self, seed):
        c = random_circuit(7, 60, seed=seed)
        result = cache_block(c, 4)
        assert_equivalent(
            c, result.circuit, output_permutation=result.output_permutation
        )

    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_all_pairing_gates_local(self, m):
        c = random_circuit(7, 80, seed=9)
        result = cache_block(c, m)
        for gate in result.circuit:
            if classify_gate(gate, m) is GateLocality.DISTRIBUTED:
                assert gate.is_swap()

    def test_everything_local_noop(self):
        c = random_circuit(5, 30, seed=1)
        result = cache_block(c, 5)
        assert result.circuit.gates == c.gates
        assert result.stats["swaps_inserted"] == 0


class TestOnQft:
    def test_matches_handcrafted_distributed_count(self):
        """The generic pass matches fig. 1b's communication: d swaps."""
        n, m = 10, 6
        result = cache_block(qft_circuit(n), m)
        assert distributed_gate_count(result.circuit, m) == n - m

    def test_swaps_absorbed(self):
        n, m = 10, 6
        result = cache_block(qft_circuit(n), m)
        assert result.stats["swaps_absorbed"] == n // 2

    def test_qft_equivalent(self):
        n, m = 8, 5
        c = qft_circuit(n)
        result = cache_block(c, m)
        assert_equivalent(
            c, result.circuit, output_permutation=result.output_permutation
        )

    def test_no_hadamard_distributed(self):
        n, m = 10, 6
        result = cache_block(qft_circuit(n), m)
        for gate in result.circuit:
            if gate.name == "h":
                assert gate.targets[0] < m


class TestOptions:
    def test_absorbed_swap_is_free(self):
        c = Circuit(4).swap(0, 3)
        result = cache_block(c, 2)
        assert len(result.circuit) == 0
        assert result.output_permutation == {0: 3, 3: 0, 1: 1, 2: 2}

    def test_bad_local_qubits(self):
        with pytest.raises(TranspilerError):
            cache_block(Circuit(4).h(0), 0)

    def test_gate_wider_than_window(self):
        # A controlled SWAP is not absorbed, and it needs both pairing
        # targets in the local window; with a 1-slot window there is no
        # victim slot left to evict.
        c = Circuit(4)
        c.append(Gate.named("swap", (0, 1), controls=(2,)))
        with pytest.raises(TranspilerError, match="local window"):
            cache_block(c, 1)


class TestVictimPolicy:
    def test_prefers_finished_qubits(self):
        # H on every high qubit in sequence: each swap should evict a
        # low qubit with no future pairing use where possible.
        c = Circuit(6).h(4).h(5)
        result = cache_block(c, 4)
        # Two distributed H -> two inserted swaps, both distributed.
        assert result.stats["swaps_inserted"] == 2
        assert distributed_gate_count(result.circuit, 4) == 2

    def test_repeated_gate_single_swap(self):
        # 50 H on the same high qubit: one swap suffices.
        from repro.circuits import hadamard_benchmark

        c = hadamard_benchmark(6, 5, gates=50)
        result = cache_block(c, 4)
        assert result.stats["swaps_inserted"] == 1
        assert distributed_gate_count(result.circuit, 4) == 1


class TestBlockedStrategy:
    @pytest.mark.parametrize(
        "circuit",
        [
            qft_circuit(10),
            random_circuit(10, 120, seed=3),
            grover_circuit(10, 5, iterations=1),
        ],
        ids=["qft", "random", "grover"],
    )
    @pytest.mark.parametrize("ranks", [2, 8, 64])
    def test_pipeline_equals_function(self, circuit, ranks):
        """``strategy="blocked"`` is exactly one ``cache_block`` call."""
        partition = Partition(circuit.num_qubits, ranks)
        direct = cache_block(circuit, partition.local_qubits)
        piped = transpile(circuit, partition, strategy="blocked")
        assert piped.circuit.gates == direct.circuit.gates
        assert piped.output_permutation == direct.output_permutation
        namespaced = {
            key.removeprefix("cache_blocking."): value
            for key, value in piped.stats.items()
            if key.startswith("cache_blocking.")
        }
        assert namespaced == direct.stats
