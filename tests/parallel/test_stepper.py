"""The step interpreter driven directly, in this process.

``execute_plan`` is what every executor runs; these tests drive it over
stores and transports the executors do not combine themselves: message
routing of remaps (the TCP path) next to the direct gather, checkpoint
and resume, the shared-memory worker entry point with one party, and
workers in threads whose transport records its calls (rank pairs one
worker owns must never reach it).  The copy lists every executor moves
(``exchange_rounds``) are held to the cost model's per-step exchange
(``plan_gate``).
"""

from __future__ import annotations

import threading
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits import Circuit, qft_circuit, random_circuit, random_state
from repro.errors import PoolError
from repro.gates import Gate
from repro.parallel import POOL_WORKERS_ENV, shm_available, shutdown_pool
from repro.parallel.stepper import (
    PlanTask,
    exchange_rounds,
    execute_plan,
    run_plan_worker,
)
from repro.parallel.tcp import shutdown_tcp_pools
from repro.parallel.transport import BLOB_SLOT_BYTES, ShmTransport
from repro.statevector import DistributedStatevector, Partition
from repro.statevector.apply_plan import compile_gate_step, compile_plan
from repro.statevector.partition import AMPLITUDE_BYTES
from repro.statevector.plan import plan_gate
from repro.statevector.slices import RankSlices

N = 8
RANKS = 4


class MessageRoutedTransport(ShmTransport):
    """Single-party copies, but remaps route as on a message transport."""

    direct_gather = False


def _task(plan, **kwargs) -> PlanTask:
    return PlanTask(
        partition=Partition(N, RANKS),
        halved_swaps=False,
        plan=plan,
        **kwargs,
    )


def _run(psi, plan, transport_cls=ShmTransport, checkpoint=None, **kwargs):
    local = psi.reshape(RANKS, -1).copy()
    store = RankSlices.from_backing(local, np.empty_like(local))
    transport = transport_cls(None, store, tuple(range(RANKS)))
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


@st.composite
def distributed_steps(draw):
    """A partition of 2-16 ranks and one communicating gate on it."""
    d = draw(st.integers(1, 4))
    m = draw(st.integers(3, 5))
    local = list(range(m))
    rank = list(range(m, m + d))
    kind = draw(st.sampled_from(["single", "swap", "swap2", "remap"]))
    if kind == "single":
        target = draw(st.sampled_from(rank))
        others = [q for q in local + rank if q != target]
        controls = draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
        name = draw(st.sampled_from(["h", "x", "y"]))
        gate = Gate.named(name, (target,), controls=tuple(controls))
    elif kind == "swap":
        gate = Gate.named(
            "swap", (draw(st.sampled_from(local)), draw(st.sampled_from(rank)))
        )
    elif kind == "swap2" and d >= 2:
        gate = Gate.named("swap", tuple(draw(st.permutations(rank))[:2]))
    else:
        g = draw(st.integers(1, min(3, d)))
        lows = draw(st.permutations(local))
        highs = draw(st.permutations(rank))[:g]
        pairs = list(zip(lows[:g], highs))
        if m - g >= 2 and draw(st.booleans()):
            pairs.append((lows[g], lows[g + 1]))
        gate = Gate.remap(pairs)
    return Partition(m + d, 1 << d), compile_gate_step(gate)


@settings(max_examples=300, deadline=None)
@given(distributed_steps(), st.booleans())
def test_exchange_rounds_move_what_the_cost_model_prices(case, halved_swaps):
    partition, step = case
    rounds = exchange_rounds(step, partition, halved_swaps)
    plan = plan_gate(step.gate, partition, halved_swaps=halved_swaps)
    assert len(rounds) == plan.comm_rounds
    received: Counter[int] = Counter()
    masks = []
    for copies in rounds:
        receivers = [c.dst_rank for c in copies]
        assert len(receivers) == len(set(receivers))
        lengths = {(c.dst_rank, c.src_rank): c.length for c in copies}
        for c in copies:
            assert lengths.get((c.src_rank, c.dst_rank)) == c.length
            received[c.dst_rank] += c.length
        (mask,) = {c.dst_rank ^ c.src_rank for c in copies}
        masks.append(mask)
    assert {n * AMPLITUDE_BYTES for n in received.values()} == {plan.send_bytes}
    assert len(received) / partition.num_ranks == plan.comm_fraction
    if plan.pair_masks:
        assert tuple(masks) == plan.pair_masks
    assert max(masks).bit_length() - 1 == plan.pair_rank_bit


def test_steps_that_do_not_communicate_have_no_rounds():
    partition = Partition(N, RANKS)
    for gate in (
        Gate.named("h", (2,), controls=(7,)),
        Gate.named("z", (7,)),
        Gate.named("swap", (1, 4)),
        Gate.remap(((0, 3),)),
        Gate.measure(7),
    ):
        assert exchange_rounds(compile_gate_step(gate), partition, True) == []


def test_plan_without_an_op_table_for_the_partition_is_refused():
    plan = compile_plan(qft_circuit(N))
    assert plan.ops.local_qubits == N
    with pytest.raises(PoolError, match="op table"):
        _run(random_state(N, seed=1), plan)


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
    store = RankSlices.from_backing(local, np.empty_like(local))
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


def _snapshots(plan, psi, cadence):
    snapshots: dict[int, bytes] = {}
    local = psi.reshape(RANKS, -1).copy()
    store = RankSlices.from_backing(local, np.empty_like(local))
    transport = ShmTransport(None, store, tuple(range(RANKS)))
    execute_plan(
        transport,
        store,
        _task(plan, checkpoint_steps=cadence),
        worker_id=0,
        num_workers=1,
        checkpoint=lambda idx: snapshots.__setitem__(idx, local.tobytes()),
    )
    return snapshots, local.tobytes()


def test_runs_split_at_checkpoints_like_one_step_runs():
    # Untraced, stretches of local steps run as one apply_run; traced,
    # every run is one step.  Checkpoints must see the same states.
    circuit = random_circuit(N, 60, seed=12)
    plan = _plan(circuit, fusion="off")
    assert max(e - i for i, e in enumerate(plan.ops.run_ends)) > 3
    psi = random_state(N, seed=12)
    runs = _snapshots(plan, psi, 3)
    was_enabled = obs.is_enabled()
    obs.enable()
    try:
        steps = _snapshots(plan, psi, 3)
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    assert sorted(runs[0]) == list(range(3, len(plan.steps), 3))
    assert runs == steps


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
    segment = SharedArray((2, RANKS, (1 << N) // RANKS), np.complex128)
    try:
        segment.array[0] = psi.reshape(RANKS, -1)
        task = _task(_plan(circuit), measure_seed=3)
        ctx = SimpleNamespace(
            worker_id=0,
            num_workers=1,
            barrier=threading.Barrier(1),
            blobs=np.zeros((1, BLOB_SLOT_BYTES), np.uint8),
        )
        outcomes = run_plan_worker(ctx, (segment.name, task))
        got = segment.array[0].reshape(-1).copy()
    finally:
        segment.close()
    state = DistributedStatevector.from_amplitudes(
        psi, RANKS, executor="serial", fusion="diag", measure_seed=3
    )
    state.apply_circuit(circuit)
    assert got.tobytes() == state.gather().tobytes()
    assert outcomes == state.measure_outcomes


# -- rank pairs one worker owns ----------------------------------------------------


class RecordingTransport(ShmTransport):
    """Shared-memory copies that count their fences and exchanges."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls: Counter[str] = Counter()

    def fence(self) -> None:
        self.calls["fence"] += 1
        super().fence()

    def exchange(self, step_index, copies, on_ready=None) -> None:
        self.calls["exchange"] += 1
        super().exchange(step_index, copies, on_ready)


def _run_workers(psi, circuit, ranks, num_workers, halved_swaps=False):
    """Replay ``circuit`` with ``num_workers`` workers in threads over one
    pair of arrays, as the shm pool does; returns the final state and
    each worker's recorded transport calls."""
    n = circuit.num_qubits
    partition = Partition(n, ranks)
    plan = compile_plan(circuit, fusion="diag", local_qubits=partition.local_qubits)
    local = psi.reshape(ranks, -1).copy()
    store = RankSlices.from_backing(local, np.empty_like(local))
    barrier = threading.Barrier(num_workers)
    task = PlanTask(
        partition=partition,
        halved_swaps=halved_swaps,
        plan=plan,
    )
    transports = [
        RecordingTransport(
            barrier if num_workers > 1 else None,
            store,
            partition.ranks_for_worker(w, num_workers),
        )
        for w in range(num_workers)
    ]
    errors = []

    def work(w: int) -> None:
        try:
            execute_plan(
                transports[w], store, task, worker_id=w, num_workers=num_workers
            )
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=work, args=(w,)) for w in range(num_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    return local.reshape(-1), [t.calls for t in transports]


#: 8 qubits on 8 ranks: local qubits 0-4, rank bits 0-2 are qubits 5-7.
#: Over 2 workers, pairs on rank bit 0 have two owners, pairs on rank
#: bits 1 and 2 one.
PAIR_STEPS = {
    "single_rank_bit_1": (Gate.named("h", (6,)), False),
    "single_rank_bit_2_controlled": (
        Gate.named("ry", (7,), params=(0.3,), controls=(1, 5)),
        False,
    ),
    "swap_local_rank_bit_2": (Gate.named("swap", (2, 7)), False),
    "rank_bits_1_2_swap": (Gate.named("swap", (6, 7)), False),
    "single_rank_bit_0": (Gate.named("h", (5,)), True),
    "single_rank_bit_0_controlled": (
        Gate.named("x", (5,), controls=(0,)),
        True,
    ),
    "swap_local_rank_bit_0": (Gate.named("swap", (3, 5)), True),
    "rank_bits_0_1_swap": (Gate.named("swap", (5, 6)), True),
}


@pytest.mark.parametrize("halved_swaps", [False, True], ids=["full", "halved"])
@pytest.mark.parametrize("name", sorted(PAIR_STEPS))
def test_same_owner_pairs_make_no_transport_call(name, halved_swaps):
    gate, crosses_workers = PAIR_STEPS[name]
    circuit = Circuit(N, [gate])
    psi = random_state(N, seed=len(name))
    want = DistributedStatevector.from_amplitudes(
        psi, 8, executor="serial", halved_swaps=halved_swaps, fusion="diag"
    )
    want.apply_circuit(circuit)
    (got1, (calls1,)) = _run_workers(psi, circuit, 8, 1, halved_swaps)
    assert calls1 == {}
    got2, calls2 = _run_workers(psi, circuit, 8, 2, halved_swaps)
    want_calls = {"exchange": 1, "fence": 2} if crosses_workers else {}
    assert calls2 == [want_calls, want_calls]
    assert got1.tobytes() == got2.tobytes() == want.gather().tobytes()


def test_threaded_workers_match_serial_on_a_random_circuit():
    # 3 workers over 8 ranks: only rank-bit SWAPs of bits 0 and 2 (rank
    # difference 3) pair ranks of one owner; every other step crosses.
    circuit = random_circuit(N, 80, seed=21)
    circuit.append(Gate.named("swap", (5, 7)))
    circuit.append(Gate.named("h", (6,), controls=(1,)))
    psi = random_state(N, seed=21)
    want = DistributedStatevector.from_amplitudes(
        psi, 8, executor="serial", fusion="diag"
    )
    want = want.apply_circuit(circuit).gather()
    for workers in (1, 2, 3, 5):
        got, _calls = _run_workers(psi, circuit, 8, workers)
        assert got.tobytes() == want.tobytes(), workers


@pytest.fixture
def three_worker_pools(monkeypatch):
    """The shm pool and TCP mesh rebuilt with 3 workers, torn down after."""
    shutdown_pool()
    monkeypatch.setenv(POOL_WORKERS_ENV, "3")
    yield "127.0.0.1:0,127.0.0.1:0,127.0.0.1:0"
    shutdown_pool()
    shutdown_tcp_pools()


def test_three_worker_pools_match_serial_bitwise(three_worker_pools):
    circuit = random_circuit(N, 60, seed=23)
    circuit.append(Gate.named("swap", (5, 7)))
    circuit.append(Gate.named("swap", (2, 6)))
    psi = random_state(N, seed=23)
    want = DistributedStatevector.from_amplitudes(psi, 8, executor="serial")
    want = want.apply_circuit(circuit)
    legs = [{"hosts": three_worker_pools}]
    if shm_available():
        legs.append({})
    for leg in legs:
        state = DistributedStatevector.from_amplitudes(
            psi, 8, executor="pool", **leg
        )
        state.apply_circuit(circuit)
        assert state.gather().tobytes() == want.gather().tobytes(), leg
        assert state.comm.message_log == want.comm.message_log


def test_traced_run_counts_pair_updates_and_fences():
    circuit = Circuit(
        N,
        [
            Gate.named("h", (6,)),
            Gate.named("swap", (2, 7)),
            Gate.named("swap", (6, 7)),
            Gate.named("h", (5,)),
        ],
    )
    psi = random_state(N, seed=8)
    was_enabled = obs.is_enabled()
    obs.reset()
    obs.enable()
    try:
        _run_workers(psi, circuit, 8, 2)
        counts = {
            (m.name, dict(m.labels).get("kind")): m.value
            for m in obs.metrics()
            if m.name in ("repro_pair_updates_total", "repro_pool_fences_total")
        }
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    # Each worker counts each step it ran on pairs in place, and waits
    # at the two fences of the one step whose pairs cross workers.
    assert counts == {
        ("repro_pair_updates_total", "single"): 2,
        ("repro_pair_updates_total", "swap_halves"): 2,
        ("repro_pair_updates_total", "swap_slices"): 2,
        ("repro_pool_fences_total", None): 4,
    }
