"""Pool executor vs serial: bit-identity, schedules, observers, seams."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import (
    grover_circuit,
    qft_circuit,
    random_circuit,
    random_state,
)
from repro.errors import PoolError, SimulationError, ValidationError
from repro.gates import Gate
from repro.mpi import CommMode
from repro.parallel import EXECUTOR_ENV, resolve_executor
from repro.statevector import DistributedStatevector


def _pair(circuit, psi, ranks, **kwargs):
    serial = DistributedStatevector.from_amplitudes(
        psi, ranks, executor="serial", **kwargs
    )
    serial.apply_circuit(circuit)
    pool = DistributedStatevector.from_amplitudes(
        psi, ranks, executor="pool", **kwargs
    )
    pool.apply_circuit(circuit)
    return serial, pool


COMM_GRID = [
    (CommMode.BLOCKING, False),
    (CommMode.BLOCKING, True),
    (CommMode.NONBLOCKING, False),
    (CommMode.NONBLOCKING, True),
]


class TestBitIdentity:
    @pytest.mark.parametrize("comm_mode,halved", COMM_GRID)
    def test_qft_identical_across_comm_modes(self, comm_mode, halved):
        psi = random_state(10, seed=3)
        serial, pool = _pair(
            qft_circuit(10), psi, 4, comm_mode=comm_mode, halved_swaps=halved
        )
        assert np.array_equal(serial.gather(), pool.gather())

    def test_grover_identical(self):
        serial, pool = _pair(
            grover_circuit(9, marked=17), random_state(9, seed=4), 4
        )
        assert np.array_equal(serial.gather(), pool.gather())

    def test_random_circuit_identical(self):
        circuit = random_circuit(9, 60, seed=12)
        serial, pool = _pair(circuit, random_state(9, seed=12), 8)
        assert np.array_equal(serial.gather(), pool.gather())

    def test_qft_16q_identical(self):
        serial, pool = _pair(qft_circuit(16), random_state(16, seed=5), 8)
        assert np.array_equal(serial.gather(), pool.gather())

    def test_zero_state_single_rank(self):
        pool = DistributedStatevector.zero_state(6, 1, executor="pool")
        pool.apply_circuit(qft_circuit(6))
        serial = DistributedStatevector.zero_state(6, 1)
        serial.apply_circuit(qft_circuit(6))
        assert np.array_equal(serial.gather(), pool.gather())

    def test_apply_gate_entry_point(self):
        pool = DistributedStatevector.zero_state(6, 4, executor="pool")
        serial = DistributedStatevector.zero_state(6, 4)
        for gate in [Gate.named("h", (5,)), Gate.named("x", (4,)), Gate.named("h", (0,))]:
            pool.apply_gate(gate)
            serial.apply_gate(gate)
        assert np.array_equal(serial.gather(), pool.gather())


class TestObservableEquivalence:
    """Not just amplitudes: stats, logs and observers must match serial."""

    @pytest.mark.parametrize("comm_mode,halved", COMM_GRID)
    def test_message_schedule_identical(self, comm_mode, halved):
        psi = random_state(9, seed=6)
        serial, pool = _pair(
            qft_circuit(9), psi, 8, comm_mode=comm_mode, halved_swaps=halved
        )
        assert serial.comm.stats == pool.comm.stats
        assert serial.comm.message_log == pool.comm.message_log

    def test_chunked_schedule_identical(self):
        psi = random_state(8, seed=7)
        serial, pool = _pair(
            qft_circuit(8), psi, 4, max_message=64
        )
        assert serial.comm.message_log == pool.comm.message_log

    def test_observer_events_in_gate_order(self):
        circuit = random_circuit(8, 40, seed=8)
        seen_serial, seen_pool = [], []
        serial = DistributedStatevector.zero_state(
            8, 4, observer=lambda i, g, p: seen_serial.append((i, g, p))
        )
        serial.apply_circuit(circuit)
        pool = DistributedStatevector.zero_state(
            8,
            4,
            executor="pool",
            observer=lambda i, g, p: seen_pool.append((i, g, p)),
        )
        pool.apply_circuit(circuit)
        assert [i for i, _g, _p in seen_pool] == sorted(
            i for i, _g, _p in seen_pool
        )
        assert seen_pool == seen_serial

    def test_trace_builder_matches_model_under_pool(self):
        from repro.circuits import builtin_qft_circuit
        from repro.machine.frequency import CpuFrequency
        from repro.machine.node import STANDARD_NODE
        from repro.perfmodel.trace import (
            RunConfiguration,
            TraceBuilder,
            trace_circuit,
        )
        from repro.statevector import Partition

        n, ranks = 7, 8
        config = RunConfiguration(
            partition=Partition(n, ranks),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
        )
        builder = TraceBuilder(config)
        state = DistributedStatevector(
            config.partition, observer=builder, executor="pool"
        )
        state.apply_circuit(builtin_qft_circuit(n))
        model = trace_circuit(builtin_qft_circuit(n), config)
        assert builder.trace.plans == model.plans

    def test_gate_index_advances_like_serial(self):
        serial, pool = _pair(qft_circuit(7), random_state(7, seed=9), 4)
        assert serial._gate_index == pool._gate_index


def _measuring_circuit(n: int):
    """Rank-crossing gates around two mid-circuit measures, one on a
    rank qubit and one on a local qubit."""
    circuit = random_circuit(n, 40, seed=31)
    circuit.h(n - 1).cx(n - 1, 0).measure(n - 2).swap(1, n - 1).measure(2)
    return circuit.h(n - 2).cx(0, n - 1)


class TestStateSegment:
    """A pool state is one segment; the blob rows belong to the pool."""

    @pytest.fixture(autouse=True)
    def _shm_pool(self, monkeypatch):
        from repro.parallel import POOL_HOSTS_ENV

        monkeypatch.delenv(POOL_HOSTS_ENV, raising=False)

    def _assert_matches(self, pool, serial):
        assert pool.gather().tobytes() == serial.gather().tobytes()
        assert pool.comm.message_log == serial.comm.message_log
        assert pool.measure_outcomes == serial.measure_outcomes

    def test_one_segment_per_state(self):
        from repro import obs

        circuit = _measuring_circuit(9)
        psi = random_state(9, seed=31)
        serial = DistributedStatevector.from_amplitudes(
            psi, 8, executor="serial", measure_seed=5
        )
        serial.apply_circuit(circuit)
        created = obs.counter("repro_shm_segments_created_total")
        before = created.value
        pool = DistributedStatevector.from_amplitudes(
            psi, 8, executor="pool", measure_seed=5
        )
        pool.apply_circuit(circuit)
        assert created.value == before + 1
        self._assert_matches(pool, serial)

    def test_blob_rows_follow_a_pool_rebuild(self, monkeypatch):
        from repro.parallel import POOL_WORKERS_ENV, get_pool, shutdown_pool

        circuit = _measuring_circuit(9)
        psi = random_state(9, seed=32)
        serial = DistributedStatevector.from_amplitudes(
            psi, 8, executor="serial", measure_seed=7
        )
        pool = DistributedStatevector.from_amplitudes(
            psi, 8, executor="pool", measure_seed=7
        )
        try:
            for workers in (2, 3):
                shutdown_pool()
                monkeypatch.setenv(POOL_WORKERS_ENV, str(workers))
                assert get_pool().num_workers == workers
                serial.apply_circuit(circuit)
                pool.apply_circuit(circuit)
                self._assert_matches(pool, serial)
        finally:
            shutdown_pool()
        assert len(pool.measure_outcomes) == 4


class TestValidationParity:
    def test_out_of_range_gate_raises_before_touching_state(self):
        pool = DistributedStatevector.zero_state(5, 4, executor="pool")
        before = pool.gather()
        with pytest.raises(SimulationError, match="touches qubit"):
            pool.apply_gate(Gate.named("h", (9,)))
        assert np.array_equal(pool.gather(), before)

    def test_controlled_distributed_swap_rejected(self):
        pool = DistributedStatevector.zero_state(5, 4, executor="pool")
        with pytest.raises(SimulationError, match="controlled distributed SWAP"):
            pool.apply_gate(Gate.named("swap", (0, 4), controls=(1,)))

    def test_tiny_max_message_rejected(self):
        pool = DistributedStatevector.zero_state(5, 4, executor="pool", max_message=8)
        with pytest.raises(ValidationError, match="amplitude"):
            pool.apply_gate(Gate.named("h", (4,)))


class TestExecutorSeam:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        state = DistributedStatevector.zero_state(4, 2)
        assert state.executor == "serial"

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValidationError, match="unknown executor"):
            DistributedStatevector.zero_state(4, 2, executor="gpu")

    def test_env_selects_pool(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "pool")
        state = DistributedStatevector.zero_state(4, 2)
        assert state.executor == "pool"

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "pool")
        state = DistributedStatevector.zero_state(4, 2, executor="serial")
        assert state.executor == "serial"

    def test_resolve_inside_worker_degrades_to_serial(self, monkeypatch):
        monkeypatch.setenv("_REPRO_POOL_WORKER", "1")
        assert resolve_executor("pool") == "serial"

    def test_resolve_without_shm(self, monkeypatch):
        import repro.parallel.shm as shm_mod
        from repro.parallel import POOL_HOSTS_ENV

        # The no-host-list path: a host list would select TCP, which
        # needs no shared memory.
        monkeypatch.delenv(POOL_HOSTS_ENV, raising=False)
        monkeypatch.setattr(shm_mod, "_available", False)
        with pytest.raises(PoolError, match="shared memory"):
            resolve_executor("pool")
        monkeypatch.setenv(EXECUTOR_ENV, "pool")
        assert resolve_executor() == "serial"

    def test_runner_pass_through(self):
        from repro.core.options import RunOptions
        from repro.core.runner import SimulationRunner

        runner = SimulationRunner()
        circuit = qft_circuit(8)
        amps_serial, _ = runner.execute_numeric(
            circuit, RunOptions(executor="serial"), num_ranks=4
        )
        amps_pool, _ = runner.execute_numeric(
            circuit, RunOptions(executor="pool"), num_ranks=4
        )
        assert np.array_equal(amps_serial, amps_pool)

    def test_options_fast_preserves_executor(self):
        from repro.core.options import RunOptions

        assert RunOptions(executor="pool").fast().executor == "pool"
