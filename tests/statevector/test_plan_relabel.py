"""Local SWAPs become qubit relabels in the compiled plan.

Under ``diag`` and ``full`` fusion, a SWAP (or a REMAP) between local
qubits moves no data between ranks: the plan emits no step for it, runs
every later step on the renamed qubits, and ends with the fewest local
swaps that restore logical order.  These tests pin what the stage turns
into a relabel and what it keeps, what the restore costs, and that no
executor can tell the difference: amplitudes, measurement records, shot
streams and message schedules.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import Circuit, random_circuit, random_state
from repro.gates import Gate
from repro.parallel import shm_available
from repro.parallel.tcp import shutdown_tcp_pools
from repro.statevector import DenseStatevector, DistributedStatevector
from repro.statevector import gate_kernels as kernels
from repro.statevector.apply_plan import StepKind, compile_plan

LOOPBACK2 = "127.0.0.1:0,127.0.0.1:0"

PERMUTING = (StepKind.SWAP, StepKind.REMAP)


@pytest.fixture(scope="module", autouse=True)
def _teardown_pools():
    yield
    shutdown_tcp_pools()


def _kinds(plan) -> list[tuple[StepKind, tuple[int, ...]]]:
    return [(s.kind, s.targets) for s in plan.steps]


def _restore_tail(plan) -> list:
    """The trailing run of permuting steps (the restore)."""
    tail = []
    for step in reversed(plan.steps):
        if step.kind not in PERMUTING:
            break
        tail.append(step)
    return tail[::-1]


class TestWhatBecomesARelabel:
    def test_local_swap_emits_no_step(self):
        c = Circuit(4)
        c.h(0).swap(0, 2).h(2)
        plan = compile_plan(c, fusion="diag", cache=False)
        # h(2) runs where logical qubit 2 now lives; one swap restores.
        assert _kinds(plan) == [
            (StepKind.SINGLE, (0,)),
            (StepKind.SINGLE, (0,)),
            (StepKind.SWAP, (0, 2)),
        ]
        # The relabelled swap rides with the step after it.
        assert [s.gates for s in plan.steps] == [
            (c.gates[0],),
            c.gates[1:],
            (),
        ]

    def test_all_local_remap_emits_no_step(self):
        c = Circuit(6)
        c.append(Gate.remap(((0, 3), (1, 4))))
        c.h(0).x(1)
        plan = compile_plan(c, fusion="diag", local_qubits=5, cache=False)
        assert _kinds(plan)[:2] == [
            (StepKind.SINGLE, (3,)),
            (StepKind.SINGLE, (4,)),
        ]
        # Two transpositions from one absorbed pass restore as one pass.
        (restore,) = plan.steps[2:]
        assert restore.kind is StepKind.REMAP
        assert restore.gate.swap_pairs() == ((0, 3), (1, 4))

    def test_rank_crossing_and_controlled_swaps_stay(self):
        c = Circuit(6)
        c.swap(0, 1)  # local: relabelled
        c.swap(0, 5)  # rank-crossing at m = 4: stays, local end renamed
        c.append(Gate.named("swap", (2, 3), controls=(0,)))  # controlled
        c.append(Gate.remap(((2, 4),)))  # crosses the rank boundary
        plan = compile_plan(c, fusion="diag", local_qubits=4, cache=False)
        assert _kinds(plan) == [
            (StepKind.SWAP, (1, 5)),
            (StepKind.SWAP, (2, 3)),
            (StepKind.REMAP, (2, 4)),
            (StepKind.SWAP, (0, 1)),
        ]
        assert plan.steps[1].controls == (1,)
        assert plan.steps[0].gates == c.gates[:2]

    @pytest.mark.parametrize(
        "build",
        [
            # Relabelled swaps ride ahead of the distributed gate ...
            lambda c: c.swap(0, 1).swap(1, 2).h(4).x(0).h(4),
            # ... or, with nothing left to restore, behind the last one.
            lambda c: c.h(4).swap(0, 1).swap(0, 1),
        ],
        ids=["ahead", "behind"],
    )
    def test_messages_keep_their_gate_tags(self, build):
        c = Circuit(5)
        build(c)
        logs = {}
        for mode in ("off", "diag"):
            state = DistributedStatevector.zero_state(5, 2, fusion=mode)
            state.apply_circuit(c)
            logs[mode] = state.comm.message_log
        distributed = [i for i, g in enumerate(c.gates) if 4 in g.targets]
        assert {m.tag >> 8 for m in logs["diag"]} == set(distributed)
        assert logs["diag"] == logs["off"]

    def test_off_mode_and_observers_stay_per_gate(self):
        c = Circuit(4)
        c.h(0).swap(0, 1).swap(2, 3).h(1)
        plan = compile_plan(c, fusion="off", cache=False)
        assert [s.kind for s in plan.steps].count(StepKind.SWAP) == 2
        seen = []
        state = DistributedStatevector.zero_state(
            4, 2, fusion="diag", observer=lambda i, g, _p: seen.append((i, g))
        )
        state.apply_circuit(c)
        assert seen == list(enumerate(c.gates))

    def test_lone_apply_gate_swap_is_unchanged(self, monkeypatch):
        psi = random_state(4, seed=3)
        calls = []
        real = kernels.apply_swap_local

        def counting(amps, a, b, controls=()):
            calls.append((a, b))
            return real(amps, a, b, controls)

        monkeypatch.setattr(kernels, "apply_swap_local", counting)
        dense = DenseStatevector.from_amplitudes(psi)
        dense.apply_gate(Gate.named("swap", (0, 2)))
        dist = DistributedStatevector.from_amplitudes(
            psi, 2, executor="serial", fusion="diag"
        )
        dist.apply_gate(Gate.named("swap", (0, 2)))
        index = np.arange(16)
        swapped = (index & ~0b101) | ((index & 1) << 2) | ((index >> 2) & 1)
        assert np.array_equal(dense.amplitudes, psi[swapped])
        assert np.array_equal(dist.gather(), psi[swapped])
        assert calls == [(0, 2)] * 3  # dense + one per rank


class TestRestore:
    @given(
        n=st.integers(2, 8),
        pairs=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=1,
            max_size=12,
        ),
        mode=st.sampled_from(("diag", "full")),
    )
    @settings(max_examples=80, deadline=None)
    def test_restore_is_minimal_and_never_more_passes(self, n, pairs, mode):
        pairs = [(a % n, b % n) for a, b in pairs if a % n != b % n]
        c = Circuit(n)
        for a, b in pairs:
            c.h(a).swap(a, b)
        plan = compile_plan(c, fusion=mode, cache=False)
        passes = [s for s in plan.steps if s.kind in PERMUTING]
        assert len(passes) <= len(pairs)
        if mode == "diag":
            # Only the restore permutes, with the fewest swaps: the
            # qubit count minus the cycles of the final layout.
            restore = _restore_tail(plan)
            assert restore == passes
            layout = list(range(n))
            for a, b in pairs:
                layout[a], layout[b] = layout[b], layout[a]
            cycles, seen = 0, set()
            for q in range(n):
                cycles += q not in seen
                while q not in seen:
                    seen.add(q)
                    q = layout[q]
            assert len(restore) == n - cycles
        psi = random_state(n, seed=len(pairs))
        unfused = compile_plan(c, fusion="off", cache=False)
        ref = DenseStatevector.from_amplitudes(psi).apply_plan(unfused).amplitudes
        got = DenseStatevector.from_amplitudes(psi).apply_plan(plan).amplitudes
        assert np.allclose(got, ref, rtol=0, atol=1e-12)

    def test_restoring_swaps_allocate_a_quarter_each(self):
        n = 16
        c = Circuit(n)
        # A 4-cycle and two transpositions: three + two restoring swaps.
        c.swap(0, 1).swap(1, 2).swap(2, 3).swap(5, 9).swap(6, 15).h(0)
        plan = compile_plan(c, fusion="diag", cache=False)
        restore = _restore_tail(plan)
        assert [s.kind for s in restore] == [StepKind.SWAP] * 5
        amps = random_state(n, seed=1)
        bound = amps.nbytes // 4 + (16 << 10)

        def peak_of(run) -> int:
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # The production (strided) kernels; the reference backend
        # builds index arrays by design.
        with kernels.using_backend("strided"):
            for step in restore:
                assert peak_of(lambda: step.run_local(amps)) <= bound
            # A gather-based restore would need a whole-state temporary.
            pairs = ((0, 1), (5, 9), (6, 15))
            assert peak_of(lambda: kernels.apply_permutation(amps, pairs)) > bound


class TestMeasure:
    def _circuit(self) -> Circuit:
        c = Circuit(4)
        c.x(0).swap(0, 2).measure(2).h(1).swap(1, 3).measure(3).measure(0)
        return c

    def test_measure_step_collapses_the_physical_bit(self):
        plan = compile_plan(self._circuit(), fusion="diag", cache=False)
        measures = [s for s in plan.steps if s.kind is StepKind.MEASURE]
        assert [(s.targets[0], s.measured_qubit) for s in measures] == [
            (0, 2),
            (1, 3),
            (2, 0),
        ]

    @pytest.mark.parametrize(
        "executor",
        [
            {"executor": "dense"},
            {"executor": "serial"},
            {"executor": "pool", "hosts": LOOPBACK2},
        ],
        ids=["dense", "serial", "tcp"],
    )
    def test_outcome_records_the_logical_qubit(self, executor):
        if executor["executor"] == "dense":
            state = DenseStatevector(4, measure_seed=9)
            state.apply_circuit(self._circuit())
        else:
            state = DistributedStatevector.zero_state(
                4, 2, fusion="diag", measure_seed=9, **executor
            )
            state.apply_circuit(self._circuit())
        off = DenseStatevector(4, measure_seed=9)
        off.apply_plan(compile_plan(self._circuit(), fusion="off", cache=False))
        assert state.measure_outcomes[0] == (2, 1)
        assert state.measure_outcomes == off.measure_outcomes


# -- no executor can tell ----------------------------------------------------------


def _swap_measure_circuit(n: int, gates: int, seed: int) -> Circuit:
    """A random stream (swaps included) with a measurement every fifth gate."""
    base = random_circuit(n, gates, seed=seed, allow_unitaries=False)
    out = Circuit(n, name="relabel")
    for index, gate in enumerate(base.gates):
        out.append(gate)
        if index % 5 == 4:
            out.measure((index * 7) % n)
    return out


def _distributed(circuit, ranks, mode, seed, **executor):
    state = DistributedStatevector.zero_state(
        circuit.num_qubits, ranks, fusion=mode, measure_seed=seed, **executor
    )
    return state.apply_circuit(circuit)


@given(
    n=st.integers(3, 6),
    gates=st.integers(5, 40),
    seed=st.integers(0, 10_000),
    ranks=st.sampled_from((2, 4)),
    mode=st.sampled_from(("diag", "full")),
)
@settings(max_examples=12, deadline=None)
def test_every_executor_matches_the_per_gate_dense_run(n, gates, seed, ranks, mode):
    circuit = _swap_measure_circuit(n, gates, seed)
    shots = 64
    ref = DenseStatevector(n, measure_seed=seed)
    ref.apply_plan(compile_plan(circuit, fusion="off", cache=False))
    ref_samples = ref.sample_bitstrings(shots, seed)

    dense = DenseStatevector(n, measure_seed=seed)
    dense.apply_plan(compile_plan(circuit, fusion=mode, cache=False))
    assert np.allclose(dense.amplitudes, ref.amplitudes, rtol=0, atol=1e-12)
    assert dense.measure_outcomes == ref.measure_outcomes
    assert np.array_equal(dense.sample_bitstrings(shots, seed), ref_samples)

    per_gate = _distributed(circuit, ranks, "off", seed, executor="serial")
    executors = {"serial": {"executor": "serial"}}
    if shm_available():
        executors["shm"] = {"executor": "pool"}
    executors["tcp"] = {"executor": "pool", "hosts": LOOPBACK2}
    gathered = {}
    for name, kwargs in executors.items():
        state = _distributed(circuit, ranks, mode, seed, **kwargs)
        gathered[name] = state.gather()
        assert np.allclose(gathered[name], ref.amplitudes, rtol=0, atol=1e-12)
        assert state.measure_outcomes == ref.measure_outcomes
        assert np.array_equal(state.sample_bitstrings(shots, seed), ref_samples)
        # Relabels touch no rank bit: the same messages, tags and bytes.
        assert state.comm.message_log == per_gate.comm.message_log
    assert all(np.array_equal(amps, gathered["serial"]) for amps in gathered.values())
