"""The step interpreter driven directly, in this process.

``execute_plan`` is what every executor runs; these tests drive it over
stores and transports the executors do not combine themselves: message
routing of remaps (the TCP path) next to the direct gather, checkpoint
and resume, and the shared-memory worker entry point with one party.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro import obs
from repro.circuits import Circuit, qft_circuit, random_circuit, random_state
from repro.gates import Gate
from repro.parallel import shm_available
from repro.parallel.stepper import PlanTask, execute_plan, run_plan_worker
from repro.parallel.transport import (
    BLOB_SLOT_BYTES,
    Array2DStore,
    ShmTransport,
)
from repro.statevector import DistributedStatevector, Partition
from repro.statevector.apply_plan import compile_plan

N = 8
RANKS = 4


class MessageRoutedTransport(ShmTransport):
    """Single-party copies, but remaps route as on a message transport."""

    direct_gather = False


def _task(plan, **kwargs) -> PlanTask:
    return PlanTask(
        local_name=None,
        pair_name=None,
        num_qubits=N,
        num_ranks=RANKS,
        halved_swaps=False,
        plan=plan,
        emit_events=False,
        **kwargs,
    )


def _run(psi, plan, transport_cls=ShmTransport, checkpoint=None, **kwargs):
    local = psi.reshape(RANKS, -1).copy()
    store = Array2DStore(local, np.empty_like(local))
    transport = transport_cls(
        None,
        store,
        tuple(range(RANKS)),
        worker_id=0,
        blobs=np.zeros((1, BLOB_SLOT_BYTES), np.uint8),
    )
    executed = execute_plan(
        transport,
        store,
        _task(plan, **kwargs),
        worker_id=0,
        num_workers=1,
        checkpoint=checkpoint,
    )
    return local.reshape(-1), executed


def _serial(psi, circuit, **kwargs):
    state = DistributedStatevector.from_amplitudes(
        psi, RANKS, executor="serial", **kwargs
    )
    return state.apply_circuit(circuit).gather()


def _plan(circuit, fusion="diag"):
    m = Partition(N, RANKS).local_qubits
    return compile_plan(circuit, fusion=fusion, local_qubits=m)


REMAPS = Circuit(
    N,
    [
        Gate.named("h", (0,)),
        Gate.remap(((0, 6), (1, 7), (2, 3))),
        Gate.named("x", (6,)),
        Gate.remap(((4, 7),)),
    ],
)


@pytest.mark.parametrize(
    "transport_cls", [ShmTransport, MessageRoutedTransport], ids=["gather", "routed"]
)
def test_remap_routings_agree_with_serial(transport_cls):
    psi = random_state(N, seed=4)
    got, executed = _run(psi, _plan(REMAPS), transport_cls)
    assert executed == len(_plan(REMAPS).steps)
    assert got.tobytes() == _serial(psi, REMAPS, fusion="diag").tobytes()


def test_local_remap_and_fused_steps_agree_with_serial():
    circuit = Circuit(
        N,
        [
            Gate.named("h", (0,)),
            Gate.named("x", (1,), controls=(0,)),
            Gate.remap(((0, 3), (1, 2))),
            Gate.named("swap", (2, 4), controls=(7,)),
            Gate.named("h", (3,)),
        ],
    )
    psi = random_state(N, seed=5)
    plan = _plan(circuit, fusion="full:3")
    assert any(step.kind.name == "FUSED" for step in plan.steps)
    got, _ = _run(psi, plan)
    assert got.tobytes() == _serial(psi, circuit, fusion="full:3").tobytes()


def test_checkpoint_then_resume_reproduces_the_full_run():
    circuit = random_circuit(N, 30, seed=9)
    plan = _plan(circuit)
    psi = random_state(N, seed=9)
    snapshots: dict[int, np.ndarray] = {}
    local_ref: list[np.ndarray] = []

    def checkpoint(step_index: int) -> None:
        snapshots[step_index] = local_ref[0].copy()

    local = psi.reshape(RANKS, -1).copy()
    local_ref.append(local)
    store = Array2DStore(local, np.empty_like(local))
    transport = ShmTransport(None, store, tuple(range(RANKS)))
    execute_plan(
        transport,
        store,
        _task(plan, checkpoint_steps=4),
        worker_id=0,
        num_workers=1,
        checkpoint=checkpoint,
    )
    full = local.reshape(-1).copy()
    assert sorted(snapshots) == list(range(4, len(plan.steps), 4))

    resume = max(snapshots)
    resumed, executed = _run(
        snapshots[resume].reshape(-1), plan, resume_step=resume
    )
    assert executed == len(plan.steps) - resume
    assert resumed.tobytes() == full.tobytes()


def test_traced_run_counts_dispatches_per_owned_rank():
    was_enabled = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        _run(random_state(N, seed=2), _plan(qft_circuit(N)))
        dispatched = sum(
            m.value
            for m in obs.metrics()
            if m.name == "repro_kernel_dispatch_total"
        )
        steps = [s for s in obs.spans() if s.name == "worker.step"]
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    assert steps
    assert dispatched == RANKS * len(steps)


def test_shm_worker_entry_point_with_one_party():
    if not shm_available():
        pytest.skip("named shared memory unavailable on this host")
    from repro.parallel.shm import SharedArray

    circuit = qft_circuit(N)
    circuit.measure(7)
    psi = random_state(N, seed=6)
    shape = (RANKS, (1 << N) // RANKS)
    local = SharedArray(shape, np.complex128)
    pair = SharedArray(shape, np.complex128)
    blobs = SharedArray((1, BLOB_SLOT_BYTES), np.uint8)
    events: list[tuple] = []
    try:
        local.array[...] = psi.reshape(shape)
        task = PlanTask(
            local_name=local.name,
            pair_name=pair.name,
            num_qubits=N,
            num_ranks=RANKS,
            halved_swaps=False,
            plan=_plan(circuit),
            emit_events=False,
            measure_seed=3,
            blob_name=blobs.name,
        )
        ctx = SimpleNamespace(
            worker_id=0,
            num_workers=1,
            barrier=threading.Barrier(1),
            emit=events.append,
        )
        assert run_plan_worker(ctx, task) == ("done", 0, len(task.plan.steps))
        got = local.array.reshape(-1).copy()
    finally:
        for segment in (local, pair, blobs):
            segment.close()
    state = DistributedStatevector.from_amplitudes(
        psi, RANKS, executor="serial", fusion="diag", measure_seed=3
    )
    state.apply_circuit(circuit)
    assert got.tobytes() == state.gather().tobytes()
    assert [e[2:] for e in events if e[0] == "measure"] == state.measure_outcomes
