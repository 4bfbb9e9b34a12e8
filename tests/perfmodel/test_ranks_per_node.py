"""Tests for the multi-rank-per-node cost extension."""

import pytest

from repro.circuits import hadamard_benchmark
from repro.gates import Gate
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import (
    DEFAULT_CALIBRATION,
    RunConfiguration,
    exchange_time,
    numa_level,
    predict,
)
from repro.statevector import Partition, plan_gate

CAL = DEFAULT_CALIBRATION
MED = CpuFrequency.MEDIUM


class TestPlanPairRankBit:
    def test_distributed_single(self):
        part = Partition(10, 4)
        plan = plan_gate(Gate.named("h", (9,)), part)
        assert plan.pair_rank_bit == 1

    def test_swap_one_distributed(self):
        part = Partition(10, 4)
        plan = plan_gate(Gate.named("swap", (0, 8)), part)
        assert plan.pair_rank_bit == 0

    def test_swap_both_distributed_uses_high_bit(self):
        part = Partition(10, 4)
        plan = plan_gate(Gate.named("swap", (8, 9)), part)
        assert plan.pair_rank_bit == 1

    def test_local_gate_has_none(self):
        part = Partition(10, 4)
        assert plan_gate(Gate.named("h", (0,)), part).pair_rank_bit is None


class TestExchangeRouting:
    def test_intranode_cheaper_than_network(self):
        intra = exchange_time(
            2**30, 1, CommMode.BLOCKING, 64, MED, CAL,
            pair_rank_bit=0, ranks_per_node=2,
        )
        inter = exchange_time(
            2**30, 1, CommMode.BLOCKING, 64, MED, CAL,
            pair_rank_bit=1, ranks_per_node=2,
        )
        assert intra < inter

    def test_nic_contention(self):
        solo = exchange_time(
            2**30, 1, CommMode.BLOCKING, 64, MED, CAL,
            pair_rank_bit=3, ranks_per_node=1,
        )
        shared = exchange_time(
            2**30, 1, CommMode.BLOCKING, 64, MED, CAL,
            pair_rank_bit=3, ranks_per_node=4,
        )
        assert shared > 3.5 * solo

    def test_one_rank_per_node_unchanged(self):
        """The paper's configuration must be bit-identical to before."""
        plain = exchange_time(2**30, 1, CommMode.BLOCKING, 64, MED, CAL)
        tagged = exchange_time(
            2**30, 1, CommMode.BLOCKING, 64, MED, CAL,
            pair_rank_bit=5, ranks_per_node=1,
        )
        assert plain == tagged

    def test_bad_ranks_per_node(self):
        from repro.errors import CalibrationError

        with pytest.raises(CalibrationError):
            exchange_time(
                1, 1, CommMode.BLOCKING, 64, MED, CAL, ranks_per_node=0
            )


class TestNumaWindowShrinks:
    def test_penalty_window_moves(self):
        part1 = Partition(38, 64)
        plan = plan_gate(Gate.named("h", (29,)), part1)
        assert numa_level(plan, part1, STANDARD_NODE, ranks_per_node=1) == 1
        # With 8 ranks per node each rank owns one region: no striding.
        part8 = Partition(38, 512)
        plan8 = plan_gate(Gate.named("h", (28,)), part8)
        assert numa_level(plan8, part8, STANDARD_NODE, ranks_per_node=8) == 0


class TestConfiguration:
    def test_node_count(self):
        config = RunConfiguration(
            partition=Partition(38, 256),
            node_type=STANDARD_NODE,
            frequency=MED,
            ranks_per_node=4,
        )
        assert config.num_nodes == 64
        assert config.topology.num_switches == 8

    def test_invalid_packing_rejected(self):
        with pytest.raises(ValueError):
            RunConfiguration(
                partition=Partition(10, 4),
                node_type=STANDARD_NODE,
                frequency=MED,
                ranks_per_node=3,
            )
        with pytest.raises(ValueError):
            RunConfiguration(
                partition=Partition(10, 2),
                node_type=STANDARD_NODE,
                frequency=MED,
                ranks_per_node=4,
            )

    def test_intranode_exchange_dominates_worst_case_less(self):
        """A distributed H on the lowest rank bit is cheap when that bit
        is intra-node."""
        inter = predict(
            hadamard_benchmark(38, 32),
            RunConfiguration(
                partition=Partition(38, 64),
                node_type=STANDARD_NODE,
                frequency=MED,
            ),
        )
        intra = predict(
            hadamard_benchmark(37, 31),  # same local size, bit 0 of 2 rank bits
            RunConfiguration(
                partition=Partition(37, 128),
                node_type=STANDARD_NODE,
                frequency=MED,
                ranks_per_node=2,
            ),
        )
        assert intra.per_gate_runtime_s() < inter.per_gate_runtime_s()
