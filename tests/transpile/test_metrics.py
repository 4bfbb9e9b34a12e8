"""Schedule metrics: exact model-level communication accounting."""

from repro.circuits import builtin_qft_circuit
from repro.statevector.partition import AMPLITUDE_BYTES, Partition
from repro.transpile import schedule_metrics, transpile


def test_naive_qft_counts_match_the_distribution_model():
    # QFT on 12 qubits over 16 ranks: qubits 8..11 are distributed.
    # Each pays one full exchange for its Hadamard (controlled phases
    # are diagonal, hence free), and the closing bit-reversal swaps
    # add four more -- eight full-buffer exchanges in total.
    n, ranks = 12, 16
    partition = Partition(n, ranks)
    metrics = schedule_metrics(builtin_qft_circuit(n), partition)
    assert metrics.num_gates == len(builtin_qft_circuit(n))
    assert metrics.distributed_gates == 8
    assert metrics.exchange_rounds == 8
    local_bytes = AMPLITUDE_BYTES << partition.local_qubits
    assert metrics.bytes_per_rank == 8 * local_bytes
    assert metrics.remap_gates == 0


def test_grouped_qft_halves_rounds_and_quarters_bytes():
    n, ranks = 12, 16
    partition = Partition(n, ranks)
    circuit = builtin_qft_circuit(n)
    naive = schedule_metrics(circuit, partition)
    grouped = transpile(circuit, partition, strategy="grouped")
    after = schedule_metrics(grouped.circuit, partition)
    assert naive.exchange_rounds == 2 * after.exchange_rounds
    assert naive.bytes_per_rank == 4 * after.bytes_per_rank
    assert after.remap_gates > 0


def test_blocked_matches_grouped_rounds_but_moves_more_bytes():
    n, ranks = 12, 16
    partition = Partition(n, ranks)
    circuit = builtin_qft_circuit(n)
    blocked = transpile(circuit, partition, strategy="blocked")
    grouped = transpile(circuit, partition, strategy="grouped")
    mb = schedule_metrics(blocked.circuit, partition)
    mg = schedule_metrics(grouped.circuit, partition)
    assert mb.exchange_rounds == mg.exchange_rounds
    assert mg.bytes_per_rank < mb.bytes_per_rank
    assert mb.remap_gates == 0


def test_as_dict_round_trips():
    metrics = schedule_metrics(builtin_qft_circuit(8), Partition(8, 4))
    d = metrics.as_dict()
    assert d["num_gates"] == metrics.num_gates
    assert d["exchange_rounds"] == metrics.exchange_rounds
