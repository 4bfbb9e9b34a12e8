"""Differential tests: the orbit replay against the full replay.

A fault-free replay runs one representative rank per orbit of the rank
bits nothing depends on, and relabels the rest.  That must change
nothing a caller can see, so every comparison here is ``==`` against
the same replay with folding forced off (``_fold=False``, the ``H = 0``
replay that fault plans always take) -- no tolerance anywhere.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.circuits import Circuit, hadamard_benchmark, qft_circuit
from repro.circuits.qft import builtin_qft_circuit
from repro.des import simulate_trace
from repro.des import replay as replay_module
from repro.des.replay import symmetry_mask
from repro.des.schedule import export_schedules
from repro.experiments import ext_des_crosscheck
from repro.faults import FaultPlan, Straggler
from repro.gates.gate import Gate
from repro.machine import CpuFrequency, STANDARD_NODE
from repro.mpi import CommMode
from repro.perfmodel import RunConfiguration, predict, trace_circuit
from repro.statevector import Partition
from repro.transpile import transpile
from repro.tune.workloads import build_workload


def make_config(n, ranks, **kwargs):
    return RunConfiguration(
        partition=Partition(n, ranks),
        node_type=STANDARD_NODE,
        frequency=CpuFrequency.MEDIUM,
        **kwargs,
    )


def replay_both(circuit, config, **kwargs):
    """(folded, full) replays of one circuit/configuration."""
    trace = trace_circuit(circuit, config)
    return (
        simulate_trace(trace, **kwargs),
        simulate_trace(trace, _fold=False, **kwargs),
    )


def assert_identical(folded, full):
    """Every caller-visible output of the two replays is bitwise equal."""
    assert full.timeline.symmetry == 0
    assert folded.makespan_s == full.makespan_s
    assert folded.network_bytes == full.network_bytes
    assert folded.num_exchanges == full.num_exchanges
    assert folded.nic_utilisation == full.nic_utilisation
    assert folded.uplink_utilisation == full.uplink_utilisation
    assert folded.utilisation == full.utilisation
    restored = pickle.loads(pickle.dumps(folded.timeline))
    assert restored.symmetry == folded.timeline.symmetry
    assert restored.makespan == full.timeline.makespan
    for rank in range(full.config.partition.num_ranks):
        spans = full.timeline.spans_of(rank)
        assert folded.timeline.spans_of(rank) == spans
        assert restored.spans_of(rank) == spans


def _folds(result) -> bool:
    return result.timeline.symmetry != 0


class TestSuiteConfigurations:
    """The replays the rest of ``tests/des`` and the property suite run."""

    @pytest.mark.parametrize(
        "n, ranks, kwargs",
        [
            (22, 8, {}),
            (22, 8, {"comm_mode": CommMode.NONBLOCKING}),
            (22, 8, {"max_message": 64 * 1024}),
            (
                22,
                8,
                {"comm_mode": CommMode.NONBLOCKING, "max_message": 64 * 1024},
            ),
            (
                22,
                8,
                {"comm_mode": CommMode.NONBLOCKING, "overlap_comm_compute": True},
            ),
            (18, 2, {"ranks_per_node": 2}),
            (20, 8, {}),
            (20, 8, {"ranks_per_node": 4}),
            (20, 8, {"max_message": 1024}),
        ],
    )
    def test_qft(self, n, ranks, kwargs):
        assert_identical(*replay_both(qft_circuit(n), make_config(n, ranks, **kwargs)))

    @pytest.mark.parametrize("n", [12, 18])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("mode", list(CommMode))
    def test_property_suite_grid(self, n, d, mode):
        """``test_property_des``'s circuits at the corners of its ranges."""
        for circuit in (qft_circuit(n), hadamard_benchmark(n, n - 1, gates=10)):
            assert_identical(*replay_both(circuit, make_config(n, 1 << d, comm_mode=mode)))
        assert_identical(
            *replay_both(
                qft_circuit(n),
                make_config(n, 1 << d, comm_mode=mode, max_message=256 * 1024),
            )
        )

    def test_crosscheck_demo(self):
        n, nodes = ext_des_crosscheck._DEMO_QUBITS, ext_des_crosscheck._DEMO_NODES
        folded, full = replay_both(builtin_qft_circuit(n), make_config(n, nodes))
        assert _folds(folded)
        assert_identical(folded, full)
        assert folded.timeline.gantt(width=64) == full.timeline.gantt(width=64)


#: The DES points the end-to-end benchmark replays: (family, qubits,
#: ranks, shots).
BENCHMARK_POINTS = [
    ("qft", 20, 8, 0),
    ("random", 18, 8, 0),
    ("qaoa-sampled", 16, 4, 1024),
    ("qft", 30, 64, 0),
    ("qft", 32, 128, 0),
    ("qft", 34, 256, 0),
    ("qft", 36, 1024, 0),
]


class TestBenchmarkPoints:
    @pytest.mark.parametrize("family, n, ranks, shots", BENCHMARK_POINTS)
    def test_identical(self, family, n, ranks, shots):
        circuit = build_workload(family, n).circuit
        folded, full = replay_both(circuit, make_config(n, ranks, shots=shots))
        assert _folds(folded)
        assert folded.events_processed < full.events_processed
        assert_identical(folded, full)

    def test_predict_energy_identical(self, monkeypatch):
        """``predict(..., backend="des")`` cannot tell the replays apart."""
        circuit, config = qft_circuit(30), make_config(30, 64)
        folded = predict(circuit, config, backend="des")
        real = replay_module.simulate_trace
        monkeypatch.setattr(
            replay_module,
            "simulate_trace",
            lambda trace, **kw: real(trace, _fold=False, **kw),
        )
        full = predict(circuit, config, backend="des")
        assert full.des.timeline.symmetry == 0 and _folds(folded.des)
        assert folded.runtime_s == full.runtime_s
        assert folded.total_energy_j == full.total_energy_j


class TestPaperScale:
    """Table 2's replays, which the orbit fold makes affordable."""

    @pytest.mark.parametrize("n, nodes", ext_des_crosscheck.PAPER_RUNS)
    @pytest.mark.parametrize("variant", range(3))
    def test_identical(self, n, nodes, variant):
        _name, circuit, mode = ext_des_crosscheck._variants(n, nodes)[variant]
        folded, full = replay_both(circuit, make_config(n, nodes, comm_mode=mode))
        assert _folds(folded)
        assert_identical(folded, full)


def _random_controlled(n: int, seed: int) -> Circuit:
    """Controlled gates on any qubits: partial participation masks."""
    circuit = Circuit(n)
    for step in range(12):
        a, b = (seed + 3 * step) % n, (seed * 5 + 7 * step + 1) % n
        if a == b:
            circuit.h(a)
        elif step % 3 == 0:
            circuit.cx(a, b)
        elif step % 3 == 1:
            circuit.cp(0.3, a, b)
        else:
            circuit.x(b, controls=(a,))
            circuit.h(a)
    return circuit


def _with_remap(n: int) -> Circuit:
    """A QFT with a two-pair remap in the middle: ``comm_rounds > 1``."""
    circuit = Circuit(n)
    gates = qft_circuit(n).gates
    circuit.extend(gates[: len(gates) // 2])
    circuit.append(Gate.remap([(0, n - 1), (1, n - 2)]))
    circuit.extend(gates[len(gates) // 2 :])
    return circuit


_CIRCUITS = st.sampled_from(["qft", "controlled", "remap", "grouped", "hadamard"])


@st.composite
def configurations(draw):
    n = draw(st.integers(min_value=12, max_value=15))
    ranks = 1 << draw(st.integers(min_value=1, max_value=6))
    rpn = draw(st.sampled_from([1, 2, 4]).filter(lambda r: ranks % r == 0))
    config = make_config(
        n,
        ranks,
        ranks_per_node=rpn,
        nodes_per_switch=draw(st.sampled_from([2, 8])),
        comm_mode=draw(st.sampled_from(list(CommMode))),
        overlap_comm_compute=draw(st.booleans()),
        halved_swaps=draw(st.booleans()),
        max_message=draw(st.sampled_from([1 << 30, 4096, 512])),
    )
    kind = draw(_CIRCUITS)
    if kind == "qft":
        circuit = qft_circuit(n)
    elif kind == "controlled":
        circuit = _random_controlled(n, draw(st.integers(0, 1000)))
    elif kind == "remap":
        circuit = _with_remap(n)
    elif kind == "grouped":
        circuit = transpile(
            qft_circuit(n), config.partition, strategy="grouped"
        ).circuit
    else:
        circuit = hadamard_benchmark(n, n - 1, gates=6)
    return circuit, config


@given(configurations())
@settings(max_examples=60, deadline=None)
def test_sweep_identical(case):
    circuit, config = case
    assert_identical(*replay_both(circuit, config))


class TestSymmetryMask:
    def test_participation_bits_excluded(self):
        config = make_config(20, 8)
        schedule = export_schedules(trace_circuit(builtin_qft_circuit(20), config))
        mask = schedule.symmetry_mask()
        for item in schedule._items:
            assert mask & getattr(item, "participate_mask", 0) == 0

    def test_remap_config_folds(self):
        config = make_config(16, 16)
        circuit = _with_remap(16)
        trace = trace_circuit(circuit, config)
        assert any(plan.comm_rounds > 1 for plan in trace.plans)
        folded, full = replay_both(circuit, config)
        assert _folds(folded)
        assert_identical(folded, full)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ranks_per_node": 2},
            {"nodes_per_switch": 6},
        ],
    )
    def test_fabric_fallbacks(self, kwargs):
        config = make_config(20, 64, **kwargs)
        trace = trace_circuit(qft_circuit(20), config)
        assert symmetry_mask(export_schedules(trace), config) == 0
        assert simulate_trace(trace).timeline.symmetry == 0

    def test_single_switch_group_folds_any_width(self):
        config = make_config(20, 4, nodes_per_switch=6)
        assert _folds(simulate_trace(trace_circuit(qft_circuit(20), config)))

    def test_oversubscription_falls_back(self):
        trace = trace_circuit(qft_circuit(20), make_config(20, 64))
        assert simulate_trace(trace).timeline.symmetry != 0
        result = simulate_trace(trace, uplink_oversubscription=2.0)
        assert result.timeline.symmetry == 0

    def test_fault_plan_falls_back(self):
        trace = trace_circuit(qft_circuit(20), make_config(20, 8))
        plan = FaultPlan(stragglers=(Straggler(rank=0, slowdown=2.0),))
        assert simulate_trace(trace, faults=plan).timeline.symmetry == 0
        zero = simulate_trace(trace, faults=FaultPlan())
        assert_identical(zero, simulate_trace(trace, _fold=False))


class TestObservability:
    def _replay_metrics(self, trace, **kwargs):
        obs.reset()
        simulate_trace(trace, **kwargs)
        counters = {
            (m.name, m.labels): m.value
            for m in obs.metrics()
            if m.name != "repro_des_events_total"
        }
        (span,) = [s for s in obs.spans() if s.name == "des.replay"]
        return counters, span.attrs

    def test_counters_match_full_replay(self):
        trace = trace_circuit(qft_circuit(30), make_config(30, 64))
        was_enabled = obs.is_enabled()
        obs.enable()
        try:
            folded, attrs = self._replay_metrics(trace)
            full, full_attrs = self._replay_metrics(trace, _fold=False)
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()
        kinds = {
            dict(labels)["kind"]
            for name, labels in folded
            if name == "repro_des_timeline_spans_total"
        }
        assert {"comm", "compute"} <= kinds
        assert folded == full
        assert attrs["orbit_size"] * attrs["orbits"] == 64
        assert attrs["orbit_size"] > 1
        assert (full_attrs["orbits"], full_attrs["orbit_size"]) == (64, 1)
