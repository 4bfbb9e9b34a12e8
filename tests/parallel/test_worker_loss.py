"""Worker loss under the TCP transport: checkpoint-streamed restart.

The tentpole's fault story: PR 3's Young/Daly checkpoints stream through
the transport, so a fail-stopped worker mid-exchange restarts the plan
from the last complete checkpoint -- and the final state stays
bit-identical to serial.  Kills are injected with the exact fail-stop
primitive :mod:`repro.faults` defines (``os._exit`` in the worker), via
:func:`TcpPool.inject_failures`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.circuits.qft import qft_circuit
from repro.errors import PoolError
from repro.parallel.stepper import PlanTask
from repro.parallel.tcp import (
    CHECKPOINT_STEPS_ENV,
    MAX_RESTARTS,
    TcpPool,
    get_tcp_pool,
    shutdown_tcp_pools,
)
from repro.statevector.apply_plan import StepKind, compile_plan
from repro.statevector.distributed import DistributedStatevector
from repro.statevector.fusion import resolve_fusion
from repro.statevector.partition import Partition
from repro.tune.workloads import build_workload

LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_tcp_pools()


def _compiled_task(n, ranks, *, checkpoint_steps=None, fusion=None):
    circuit = qft_circuit(n)
    local_qubits = n - (ranks.bit_length() - 1)
    plan = compile_plan(
        circuit, fusion=resolve_fusion(fusion), local_qubits=local_qubits
    )
    return circuit, PlanTask(
        partition=Partition(n, ranks),
        halved_swaps=False,
        plan=plan,
        checkpoint_steps=checkpoint_steps,
    )


def _serial_amps(n, ranks, circuit):
    state = DistributedStatevector.zero_state(n, ranks, executor="serial")
    return state.apply_circuit(circuit).gather()


def _zero_inputs(n, ranks):
    init = np.zeros(2 ** n // ranks, dtype=np.complex128)
    init[0] = 1.0
    return {0: init, **{r: None for r in range(1, ranks)}}


class TestWorkerLossRestart:
    def test_kill_mid_plan_restarts_from_checkpoint(self):
        circuit, task = _compiled_task(8, 8, checkpoint_steps=4)
        expected = _serial_amps(8, 8, circuit)
        pool = TcpPool(LOOPBACK2)
        try:
            # QFT-8 compiles to 19 steps here; kill worker 1 at step 10,
            # past the step-8 checkpoint.
            assert len(task.plan.steps) > 10
            pool.inject_failures([(1, 10)])
            finals, _ = pool.run_plan(task, _zero_inputs(8, 8))
            got = np.concatenate([finals[r] for r in range(8)])
            assert np.array_equal(expected, got)
            assert pool.restarts == 1
            assert pool.last_resume_step > 0
        finally:
            pool.close()

    def test_kill_before_first_checkpoint_restarts_from_zero(self):
        circuit, task = _compiled_task(8, 8, checkpoint_steps=8)
        expected = _serial_amps(8, 8, circuit)
        pool = TcpPool(LOOPBACK2)
        try:
            pool.inject_failures([(0, 3)])
            finals, _ = pool.run_plan(task, _zero_inputs(8, 8))
            got = np.concatenate([finals[r] for r in range(8)])
            assert np.array_equal(expected, got)
            assert pool.restarts == 1
            assert pool.last_resume_step == 0
        finally:
            pool.close()

    def test_kill_and_checkpoint_inside_a_run_of_local_steps(self):
        # 24 local gates on 8 qubits over 4 ranks (6 local qubits) are
        # one run of table steps; the step-8 checkpoint and the kill at
        # step 11 both fall inside it, so the run splits at both.
        from repro.circuits import Circuit

        circuit = Circuit(8)
        for layer in range(8):
            circuit.h(layer % 6).rz(0.3 * layer + 0.1, (layer + 1) % 6)
            circuit.cx(layer % 6, (layer + 2) % 6)
        circuit.h(7)
        plan = compile_plan(circuit, fusion="off", local_qubits=6)
        assert plan.ops.run_ends[0] == 24
        task = PlanTask(
            partition=Partition(8, 4),
            halved_swaps=False,
            plan=plan,
            checkpoint_steps=4,
        )
        expected = DistributedStatevector.zero_state(
            8, 4, executor="serial", fusion="off"
        ).apply_circuit(circuit).gather()
        pool = TcpPool(LOOPBACK2)
        try:
            pool.inject_failures([(1, 11)])
            finals, _ = pool.run_plan(task, _zero_inputs(8, 4))
            got = np.concatenate([finals[r] for r in range(4)])
            assert got.tobytes() == expected.tobytes()
            assert pool.restarts == 1
            assert pool.last_resume_step == 8
        finally:
            pool.close()

    def test_injection_is_one_shot(self):
        # A second plan on the same pool runs clean -- the injection was
        # consumed by the restart.
        circuit, task = _compiled_task(7, 8, checkpoint_steps=4)
        expected = _serial_amps(7, 8, circuit)
        pool = TcpPool(LOOPBACK2)
        try:
            pool.inject_failures([(1, 6)])
            pool.run_plan(task, _zero_inputs(7, 8))
            assert pool.restarts == 1
            finals, _ = pool.run_plan(task, _zero_inputs(7, 8))
            got = np.concatenate([finals[r] for r in range(8)])
            assert np.array_equal(expected, got)
            assert pool.restarts == 1
        finally:
            pool.close()

    def test_restart_past_a_measure_keeps_its_outcome(self, monkeypatch):
        # QAOA-8 measures twice.  Worker 1 dies just after the second
        # measure, whose norm allgather no worker leaves before every
        # worker has streamed the checkpoint below it.  The restart from
        # that checkpoint skips the first measure, so its outcome must
        # come from the checkpoint; the second is drawn again.
        n, ranks = 8, 4
        circuit = build_workload("qaoa-sampled", n, seed=3).circuit
        state = DistributedStatevector.zero_state(
            n, ranks, executor="pool", hosts=LOOPBACK2, measure_seed=5
        )
        plan = compile_plan(
            circuit, fusion=state.fusion, local_qubits=state.partition.local_qubits
        )
        first, second = (
            i for i, step in enumerate(plan.steps) if step.kind is StepKind.MEASURE
        )
        # A cadence that streams a checkpoint between the two measures
        # and none at the step worker 1 dies on.
        cadence = next(
            c for c in range(4, 16) if first < second // c * c and (second + 1) % c
        )
        resume = second // cadence * cadence
        monkeypatch.setenv(CHECKPOINT_STEPS_ENV, str(cadence))
        pool = get_tcp_pool(LOOPBACK2)
        restarts = pool.restarts
        pool.inject_failures([(1, second + 1)])
        state.apply_circuit(circuit)
        assert pool.restarts == restarts + 1
        assert pool.last_resume_step == resume
        serial = DistributedStatevector.zero_state(
            n, ranks, executor="serial", measure_seed=5
        ).apply_circuit(circuit)
        assert len(serial.measure_outcomes) == 2
        assert state.measure_outcomes == serial.measure_outcomes
        assert state.comm.message_log == serial.comm.message_log
        assert state.gather().tobytes() == serial.gather().tobytes()


class TestCheckpointEnv:
    """``REPRO_POOL_CHECKPOINT_STEPS`` against the default cadence."""

    @staticmethod
    def _checkpoints_streamed(task, n, ranks):
        counter = obs.counter("repro_pool_checkpoints_total")
        before = counter.value
        pool = TcpPool(LOOPBACK2)
        try:
            finals, _ = pool.run_plan(task, _zero_inputs(n, ranks))
        finally:
            pool.close()
        got = np.concatenate([finals[r] for r in range(ranks)])
        return counter.value - before, got

    def test_zero_disables_streaming(self, monkeypatch):
        # QFT-10 unfused is 60 steps: without the variable the default
        # cadence (60 // 4 = 15) would stream at steps 15, 30 and 45.
        circuit, task = _compiled_task(10, 8, fusion="off")
        assert len(task.plan.steps) == 60
        monkeypatch.setenv(CHECKPOINT_STEPS_ENV, "0")
        streamed, got = self._checkpoints_streamed(task, 10, 8)
        assert streamed == 0
        assert np.array_equal(_serial_amps(10, 8, circuit), got)

    def test_unset_keeps_default_cadence(self, monkeypatch):
        _, task = _compiled_task(10, 8, fusion="off")
        monkeypatch.delenv(CHECKPOINT_STEPS_ENV, raising=False)
        streamed, _ = self._checkpoints_streamed(task, 10, 8)
        assert streamed == 3


class TestRemoteLossIsFatal:
    def test_exhausted_restarts_raise(self):
        # Despite its name this exhausts nothing: a one-shot injection
        # costs one restart and the run recovers, and MAX_RESTARTS is
        # checked to be a positive bound.  test_restarts_run_out runs
        # the budget out.
        from repro.parallel.tcp import MAX_RESTARTS

        _, task = _compiled_task(7, 8, checkpoint_steps=4)
        pool = TcpPool(LOOPBACK2)
        try:
            pool.inject_failures([(1, 6)])
            assert MAX_RESTARTS >= 1
            pool.run_plan(task, _zero_inputs(7, 8))
            assert pool.restarts == 1
        finally:
            pool.close()

    def test_restarts_run_out(self, monkeypatch):
        # Re-arm the fail-stop on every dispatch: each restart loses a
        # worker again, until the budget is spent.
        _, task = _compiled_task(7, 8, checkpoint_steps=4)
        dispatch = TcpPool._dispatch
        resumed_from = []

        def fail_every_dispatch(pool, task, slices):
            resumed_from.append(task.resume_step)
            return dispatch(pool, replace(task, fail_at=((1, 6),)), slices)

        monkeypatch.setattr(TcpPool, "_dispatch", fail_every_dispatch)
        pool = TcpPool(LOOPBACK2)
        try:
            with pytest.raises(PoolError, match=f"exhausted {MAX_RESTARTS} restarts"):
                pool.run_plan(task, _zero_inputs(7, 8))
            assert pool.broken
            assert len(resumed_from) == MAX_RESTARTS + 1
            assert pool.restarts == MAX_RESTARTS + 1
        finally:
            pool.close()
