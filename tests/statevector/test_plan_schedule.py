"""A partitioned plan is compiled once; a run only replays it.

``DistributedStatevector`` keeps each plan's schedule on the plan --
step kinds, exchange rounds, gate offsets and message-log records -- per
partition and exchange options.  These tests hold the log and the
traffic counters of repeated runs to a per-step replay written out
here (each step's exchange rounds logged one rank pair at a time, as
the simulator did before the schedule was stored), check that the
memo is keyed on every option, holds nothing a one-shot plan needs to
outlive, and that a plan crosses a pickle with each table step's
operator shipped once.
"""

from __future__ import annotations

import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, random_circuit, random_state
from repro.gates import Gate
from repro.mpi import MAX_MESSAGE_BYTES, CommMode, SimComm, log_exchange_schedule
from repro.parallel import shm_available, stepper
from repro.parallel.stepper import exchange_rounds
from repro.parallel.tcp import shutdown_tcp_pools
from repro.statevector import DistributedStatevector, Partition
from repro.statevector import distributed
from repro.statevector.apply_plan import (
    StepKind,
    compile_gate_plan,
    compile_plan,
    relabels,
)
from repro.statevector.plan import plan_gate
from repro.tune.workloads import build_workload


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_tcp_pools()


def _replayed_log(
    plan, state: DistributedStatevector, comm: SimComm, base: int
) -> None:
    """Log ``plan``'s run at gate ``base`` onto ``comm``, step by step.

    Each communicating step logs its exchange rounds, one exchange per
    rank pair, lower rank first, tagged from its own gate's place in
    the circuit (relabelled gates riding ahead of it are skipped); a
    measurement logs ``log2(R)`` recursive-doubling rounds of 16-byte
    messages under absolute tags.
    """
    partition = state.partition
    m = partition.local_qubits
    gate_index = base
    for step in plan.steps:
        gate_plan = plan_gate(
            step.gate,
            partition,
            halved_swaps=state.halved_swaps,
            max_message=state.max_message,
        )
        lead = 0
        while lead < step.num_gates - 1 and relabels(step.gates[lead], m):
            lead += 1
        start = gate_index + lead
        gate_index += step.num_gates
        if not gate_plan.communicates:
            continue
        if step.kind is StepKind.MEASURE:
            for r in range(partition.rank_qubits):
                for rank in range(partition.num_ranks):
                    comm.record_only(rank, rank ^ (1 << r), (1 << 20) + r, 16)
            continue
        for copies in exchange_rounds(step, partition, state.halved_swaps):
            for c in copies:
                if c.dst_rank < c.src_rank:
                    log_exchange_schedule(
                        comm,
                        c.dst_rank,
                        c.src_rank,
                        c.length,
                        itemsize=16,
                        mode=state.comm_mode,
                        max_message=state.max_message,
                        tag_base=start << 8,
                    )


def _plan_of(state: DistributedStatevector, circuit: Circuit):
    """The cached plan ``state.apply_circuit(circuit)`` runs."""
    return compile_plan(
        circuit, fusion=state.fusion, local_qubits=state.partition.local_qubits
    )


def _expected_comm(
    state: DistributedStatevector, circuit: Circuit, runs: int
) -> SimComm:
    comm = SimComm(state.num_ranks)
    for run in range(runs):
        _replayed_log(_plan_of(state, circuit), state, comm, run * len(circuit))
    return comm


@st.composite
def scheduled_runs(draw):
    """A measuring circuit, a partition and a set of exchange options."""
    n = draw(st.integers(3, 7))
    seed = draw(st.integers(0, 10_000))
    gates = list(
        random_circuit(n, draw(st.integers(1, 40)), seed=seed, allow_unitaries=False)
    )
    if draw(st.booleans()):
        # A remap of a local with the top qubit: bucket rounds on a
        # distributed partition, a relabel on one rank.
        gates.insert(draw(st.integers(0, len(gates))), Gate.remap(((0, n - 1),)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(gates)))
        gates.insert(at, Gate.measure(draw(st.integers(0, n - 1))))
    options = dict(
        comm_mode=draw(st.sampled_from(list(CommMode))),
        halved_swaps=draw(st.booleans()),
        max_message=draw(st.sampled_from([64, 256, 4096, MAX_MESSAGE_BYTES])),
        fusion=draw(st.sampled_from(["off", "diag", "full"])),
        measure_seed=seed,
    )
    ranks = 1 << draw(st.integers(0, min(3, n - 1)))
    return Circuit(n, gates), ranks, options


class TestLogIsTheStepReplay:
    @given(drawn=scheduled_runs())
    @settings(max_examples=60, deadline=None)
    def test_two_runs_log_what_a_per_step_replay_logs(self, drawn):
        circuit, ranks, options = drawn
        state = DistributedStatevector.zero_state(circuit.num_qubits, ranks, **options)
        state.apply_circuit(circuit)
        state.apply_circuit(circuit)
        expected = _expected_comm(state, circuit, runs=2)
        assert state.comm.message_log == expected.message_log
        assert state.comm.stats == expected.stats

    def test_a_plan_with_no_steps_logs_nothing(self):
        # Two local SWAPs that undo each other compile to no step at all.
        circuit = Circuit(3).swap(0, 1).swap(0, 1)
        assert not compile_plan(circuit, fusion="diag", local_qubits=2).steps
        state = DistributedStatevector.zero_state(3, 2, fusion="diag")
        state.apply_circuit(circuit)
        assert state.comm.message_log == []
        assert state.gather().tobytes() == (
            DistributedStatevector.zero_state(3, 2).gather().tobytes()
        )

    def test_observer_runs_log_before_each_callback(self):
        circuit = build_workload("qaoa-sampled", 8, seed=3).circuit
        seen = []
        state = DistributedStatevector.zero_state(
            8, 4, observer=lambda *_: seen.append(len(state.comm.message_log))
        )
        state.apply_circuit(circuit)
        state.apply_circuit(circuit)
        expected = _expected_comm(state, circuit, runs=2)
        assert state.comm.message_log == expected.message_log
        assert state.comm.stats == expected.stats
        assert len(seen) == 2 * len(circuit)
        assert seen == sorted(seen) and seen[-1] == len(expected.message_log)

    def test_one_plan_gets_each_states_own_log(self):
        circuit = build_workload("qft", 8).circuit
        option_sets = [
            dict(),
            dict(comm_mode=CommMode.NONBLOCKING),
            dict(halved_swaps=True),
            dict(max_message=64),
            dict(comm_mode=CommMode.NONBLOCKING, halved_swaps=True, max_message=256),
            dict(),
        ]
        plans = set()
        for options in option_sets:
            state = DistributedStatevector.zero_state(8, 4, fusion="diag", **options)
            state.apply_circuit(circuit)
            plans.add(id(_plan_of(state, circuit)))
            expected = _expected_comm(state, circuit, runs=1)
            assert state.comm.message_log == expected.message_log
            assert state.comm.stats == expected.stats
        assert len(plans) == 1  # every state ran the one cached plan

    def test_a_plan_logs_from_each_runs_first_gate(self):
        # Compiled by a run that starts at gate 1, rerun from gate 0:
        # exchange tags move with the run, measure reductions do not.
        circuit = build_workload("qaoa-sampled", 8, seed=3).circuit
        plan = compile_plan(circuit, local_qubits=6, cache=False)
        h = Gate.named("h", (7,))
        late = DistributedStatevector.zero_state(8, 4)
        late.apply_gate(h)
        late._run_plan(plan)
        fresh = DistributedStatevector.zero_state(8, 4)
        fresh._run_plan(plan)
        for state, base in ((late, 1), (fresh, 0)):
            expected = SimComm(4)
            if base:
                _replayed_log(compile_gate_plan(h, 8, 6), state, expected, 0)
            _replayed_log(plan, state, expected, base)
            assert state.comm.message_log == expected.message_log
            assert state.comm.stats == expected.stats


EXECUTORS = {
    "serial": {"executor": "serial"},
    "shm": {"executor": "pool"},
    "tcp": {"executor": "pool", "hosts": "127.0.0.1:0,127.0.0.1:0"},
}


class TestObserverChangesNothing:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("seed", [5, 17])
    def test_observed_run_equals_unobserved(self, executor, seed):
        # Observers are replayed from the plan after the run, so an
        # observed run compiles and runs the same (fused) plan.
        if executor == "shm" and not shm_available():
            pytest.skip("named shared memory unavailable on this host")
        gates = list(random_circuit(8, 60, seed=seed))
        gates.insert(20, Gate.measure(2))
        gates.insert(45, Gate.measure(7))
        circuit = Circuit(8, gates)
        psi = random_state(8, seed=seed)
        seen = []
        runs = []
        for observer in (None, lambda i, gate, _plan: seen.append((i, gate))):
            state = DistributedStatevector.from_amplitudes(
                psi, 4, measure_seed=seed, observer=observer, **EXECUTORS[executor]
            )
            state.apply_circuit(circuit)
            state.apply_circuit(circuit)
            runs.append(state)
        plain, observed = runs
        assert observed.gather().tobytes() == plain.gather().tobytes()
        assert observed.comm.message_log == plain.comm.message_log
        assert observed.comm.stats == plain.comm.stats
        assert observed.measure_outcomes == plain.measure_outcomes
        assert seen == list(enumerate(list(circuit.gates) * 2))


class TestCompiledOnce:
    def test_a_second_run_plans_no_gate(self, monkeypatch):
        circuit = build_workload("random", 8).circuit
        state = DistributedStatevector.zero_state(8, 4, fusion="diag")
        state.apply_circuit(circuit)
        calls = []
        original = distributed.plan_gate

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(distributed, "plan_gate", counted)
        state.apply_circuit(circuit)
        assert calls == []
        other = DistributedStatevector.zero_state(8, 4, fusion="diag", max_message=64)
        other.apply_circuit(circuit)
        assert len(calls) == len(_plan_of(state, circuit).steps)

    def test_each_step_is_classified_once(self, monkeypatch):
        circuit = build_workload("random", 8).circuit
        plan = compile_plan(circuit, local_qubits=6, cache=False)
        seen = []
        original = stepper._step_kind

        def counted(step, partition):
            seen.append(step)
            return original(step, partition)

        monkeypatch.setattr(stepper, "_step_kind", counted)
        kinds, _rounds = stepper.step_schedule(plan, Partition(8, 4), False)
        assert any(kind.startswith("distributed_") for kind in kinds)
        assert len(seen) == len(plan.steps)

    def test_apply_gate_keeps_no_one_shot_plan(self, monkeypatch):
        refs = []
        original = distributed.compile_gate_plan

        def recorded(*args):
            plan = original(*args)
            refs.append(weakref.ref(plan))
            return plan

        monkeypatch.setattr(distributed, "compile_gate_plan", recorded)
        state = DistributedStatevector.zero_state(6, 4)
        state.apply_gate(Gate.named("h", (5,)))
        state.apply_gate(Gate.measure(5))
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]


class TestPickledPlan:
    @pytest.mark.parametrize(
        "family,qubits,fusion",
        [("random", 12, "diag"), ("qft", 12, "full:4"), ("qaoa-sampled", 12, "off")],
    )
    def test_round_trip_keeps_every_operator(self, family, qubits, fusion):
        circuit = build_workload(family, qubits).circuit
        plan = compile_plan(
            circuit, fusion=fusion, local_qubits=qubits - 3, cache=False
        )
        loaded = pickle.loads(pickle.dumps(plan))
        assert [s.kind for s in loaded.steps] == [s.kind for s in plan.steps]
        assert [s.gates for s in loaded.steps] == [s.gates for s in plan.steps]
        for before, after in zip(plan.steps, loaded.steps):
            for name in ("matrix", "diag"):
                a, b = getattr(before, name), getattr(after, name)
                assert (a is None) == (b is None)
                if a is not None:
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_unpickled_plan_runs_byte_identically(self):
        circuit = build_workload("random", 10).circuit
        psi = random_state(10, seed=4)
        plan = compile_plan(circuit, local_qubits=7, cache=False)
        states = []
        for run in (plan, pickle.loads(pickle.dumps(plan))):
            state = DistributedStatevector.from_amplitudes(psi, 8, executor="serial")
            state._run_plan(run)
            states.append(state)
        assert states[0].gather().tobytes() == states[1].gather().tobytes()
        assert states[0].comm.message_log == states[1].comm.message_log

    def test_the_memo_does_not_travel(self):
        circuit = build_workload("qft", 8).circuit
        state = DistributedStatevector.zero_state(
            8, 4, executor="serial", fusion="diag"
        )
        state.apply_circuit(circuit)
        plan = _plan_of(state, circuit)
        assert plan._memo
        assert "_memo" not in plan.__getstate__()
        assert pickle.loads(pickle.dumps(plan))._memo == {}

    def test_random18_r8_plan_ships_each_operator_once(self):
        # The bound is the default plan's: $REPRO_FUSION must not move it.
        circuit = build_workload("random", 18).circuit
        plan = compile_plan(circuit, fusion="diag", local_qubits=15, cache=False)
        assert len(pickle.dumps(plan)) <= 145_000
