"""Plan reuse and shared per-plan pricing: faster, never different.

Three properties pin the optimisation down:

(a) ``cost_trace`` prices each distinct plan once, and the result is
    bit-identical to pricing every gate on its own;
(b) shared ``GateCost`` objects survive a pickle round trip (the
    prediction cache's storage format) unchanged, and shrink it;
(c) plan reuse lives only inside a ``plan_reuse()`` scope -- one
    ``tune()`` search -- never across searches or bare ``predict()``.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro import obs
from repro.circuits.circuit import Circuit
from repro.machine.frequency import CpuFrequency
from repro.machine.node import STANDARD_NODE
from repro.mpi.datatypes import CommMode
from repro.parallel.cache import CACHE_DIR_ENV
from repro.perfmodel.predictor import predict
from repro.perfmodel.trace import (
    ExecutionTrace,
    RunConfiguration,
    cost_trace,
    trace_circuit,
)
from repro.statevector import plan as plan_module
from repro.statevector.partition import Partition
from repro.statevector.plan import plan_circuit, plan_reuse
from repro.transpile import transpile
from repro.tune.levers import LeverSpace
from repro.tune.search import Constraint, tune
from repro.tune.workloads import build_workload

COST_FIELDS = (
    "plan",
    "comm_s",
    "mem_s",
    "cpu_s",
    "node_energy_j",
    "switch_energy_j",
)

#: (family, qubits) circuits the pricing cases draw from.
FAMILIES = (
    ("random", 14),
    ("qft", 16),
    ("qaoa", 12),
    ("qaoa-sampled", 12),
    ("qft", 44),
)

#: Run-configuration variants: plain, overlapped, TCP-priced, halved.
VARIANTS = (
    {},
    {"overlap_comm_compute": True},
    {"executor": "pool", "transport": "tcp", "overlap_factor": 0.6},
    {"executor": "pool", "transport": "tcp", "num_hosts": 2},
    {"halved_swaps": True, "shots": 256},
)


def _cases(seed: int, count: int):
    """Seeded (family, qubits, ranks, strategy, config kwargs) draws."""
    rng = random.Random(seed)
    for _ in range(count):
        family, qubits = rng.choice(FAMILIES)
        max_bits = min(12, qubits - 1)
        ranks = 1 << rng.randint(0, max_bits)
        strategy = (
            "naive"
            if family.endswith("sampled")
            else rng.choice(("naive", "blocked", "grouped"))
        )
        kwargs = dict(rng.choice(VARIANTS))
        kwargs["frequency"] = rng.choice(list(CpuFrequency))
        kwargs["comm_mode"] = rng.choice(list(CommMode))
        if rng.random() < 0.3 and ranks >= 4:
            kwargs["ranks_per_node"] = 2
        yield family, qubits, ranks, strategy, kwargs


def _traced(family, qubits, ranks, strategy, kwargs):
    circuit = build_workload(family, qubits).circuit
    partition = Partition(qubits, ranks)
    if strategy != "naive":
        circuit = transpile(circuit, partition, strategy=strategy).circuit
    config = RunConfiguration(
        partition=partition, node_type=STANDARD_NODE, **kwargs
    )
    return circuit, trace_circuit(circuit, config)


def _gate_by_gate(trace: ExecutionTrace):
    """Every gate priced on its own, as a one-gate trace."""
    return [
        cost_trace(ExecutionTrace(trace.config, [plan])).gates[0]
        for plan in trace.plans
    ]


class TestDistinctPlanPricing:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_gate_by_gate_bitwise(self, seed):
        for case in _cases(seed, 6):
            _, trace = _traced(*case)
            costed = cost_trace(trace)
            reference = _gate_by_gate(trace)
            assert len(costed.gates) == len(reference) == len(trace.plans)
            for got, want, plan in zip(costed.gates, reference, trace.plans):
                assert got.plan == plan
                for name in COST_FIELDS:
                    assert getattr(got, name) == getattr(want, name), (case, name)
            # Totals sum the same floats in the same order.
            assert costed.runtime_s == sum(g.total_s for g in reference)
            assert costed.total_energy_j == (
                sum(g.node_energy_j for g in reference)
                + sum(g.switch_energy_j for g in reference)
            )

    def test_every_frequency_and_comm_mode(self):
        circuit = build_workload("qft", 20).circuit
        for frequency in CpuFrequency:
            for mode in CommMode:
                config = RunConfiguration(
                    partition=Partition(20, 64),
                    node_type=STANDARD_NODE,
                    frequency=frequency,
                    comm_mode=mode,
                )
                trace = trace_circuit(circuit, config)
                got = cost_trace(trace)
                want = _gate_by_gate(trace)
                assert [g.total_s for g in got.gates] == [g.total_s for g in want]
                assert [g.total_energy_j for g in got.gates] == [
                    g.total_energy_j for g in want
                ]

    def test_equal_plans_share_one_cost_object(self):
        _, trace = _traced("random", 14, 8, "naive", {"frequency": CpuFrequency.LOW})
        costed = cost_trace(trace)
        distinct = set(trace.plans)
        assert len({id(g) for g in costed.gates}) == len(distinct) < len(trace.plans)
        by_plan = {}
        for cost in costed.gates:
            assert by_plan.setdefault(cost.plan, cost) is cost

    def test_pricing_counters_count_calls_not_gates(self):
        _, trace = _traced("qft", 16, 8, "naive", {"frequency": CpuFrequency.MEDIUM})
        priced = obs.counter("repro_model_pricings_total", outcome="priced")
        shared = obs.counter("repro_model_pricings_total", outcome="shared")
        before = (priced.value, shared.value)
        cost_trace(trace)
        distinct = len(set(trace.plans))
        assert priced.value - before[0] == distinct
        assert shared.value - before[1] == len(trace.plans) - distinct


class TestPickledPrediction:
    @pytest.mark.parametrize(
        "kwargs",
        (
            {"comm_mode": CommMode.NONBLOCKING},
            {"executor": "pool", "transport": "tcp", "overlap_factor": 0.5},
            {"overlap_comm_compute": True, "shots": 128},
        ),
    )
    def test_round_trip_equals_original(self, kwargs):
        circuit = build_workload("qft", 12).circuit
        config = RunConfiguration(
            partition=Partition(12, 8),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.HIGH,
            **kwargs,
        )
        prediction = predict(circuit, config)
        restored = pickle.loads(
            pickle.dumps(prediction, protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert restored == prediction
        assert restored.runtime_s == prediction.runtime_s
        assert restored.total_energy_j == prediction.total_energy_j
        assert restored.cu == prediction.cu

    def test_shared_costs_stay_shared_and_small(self):
        config = RunConfiguration(
            partition=Partition(18, 8),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.LOW,
        )
        prediction = predict(build_workload("random", 18).circuit, config)
        blob = pickle.dumps(prediction, protocol=pickle.HIGHEST_PROTOCOL)
        restored = pickle.loads(blob)
        assert restored == prediction
        distinct = len({id(g) for g in prediction.costed.gates})
        assert len({id(g) for g in restored.costed.gates}) == distinct
        # One GateCost per gate pickled to ~112 KB; one per distinct
        # plan is under 30 KB.
        assert len(blob) <= 30_000


@pytest.fixture
def plan_gate_calls(monkeypatch):
    """Count ``plan_gate`` calls made through ``plan_circuit``."""
    calls = [0]
    real = plan_module.plan_gate

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(plan_module, "plan_gate", counting)
    return calls


class TestReuseScope:
    SPACE = LeverSpace(node_counts=(4, 8), fusion_modes=("off",))

    def _search(self, workload=None):
        return tune(
            workload or build_workload("qft", 10),
            Constraint(deadline_s=1.0),
            self.SPACE,
        )

    def test_back_to_back_searches_plan_alike(self, plan_gate_calls, monkeypatch):
        # The same workload object twice: a scope that outlived its
        # search would serve the second search's input plans.
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        workload = build_workload("qft", 10)
        first = self._search(workload)
        after_first = plan_gate_calls[0]
        second = self._search(workload)
        assert plan_gate_calls[0] - after_first == after_first
        assert second.to_json() == first.to_json()

    def test_search_plans_each_circuit_once(self, plan_gate_calls, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        result = self._search()
        calls = plan_gate_calls[0]
        circuit = build_workload("qft", 10).circuit
        # Without reuse every point (plus every spot check) would plan
        # its whole circuit again.  With it, each partition plans the
        # input once (the transpiles' shared "before" metrics), the
        # naive output once (its first trace) and each transpiled
        # circuit once (its "after" metrics).
        expected = 0
        for ranks in (4, 8):
            partition = Partition(10, ranks)
            expected += 2 * len(circuit)
            for strategy in ("blocked", "grouped"):
                expected += len(
                    transpile(circuit, partition, strategy=strategy).circuit
                )
        assert result.evaluated == 36
        assert calls == expected

    def test_bare_predict_plans_every_gate_every_call(self, plan_gate_calls):
        circuit = build_workload("qft", 10).circuit
        config = RunConfiguration(
            partition=Partition(10, 4),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
        )
        for calls in range(1, 4):
            predict(circuit, config)
            assert plan_gate_calls[0] == calls * len(circuit)

    def test_scope_reuses_then_forgets(self, plan_gate_calls):
        circuit = build_workload("qft", 10).circuit
        partition = Partition(10, 4)
        planned = obs.counter("repro_model_plans_total", outcome="planned")
        reused = obs.counter("repro_model_plans_total", outcome="reused")
        counts = (planned.value, reused.value)
        with plan_reuse():
            first = plan_circuit(circuit, partition)
            with plan_reuse():  # nested scopes join the outer one
                second = plan_circuit(circuit, partition)
            # Distinct options plan again.
            plan_circuit(circuit, partition, halved_swaps=True)
        assert plan_gate_calls[0] == 2 * len(circuit)
        assert first == second and first is not second
        assert (planned.value - counts[0], reused.value - counts[1]) == (2, 1)
        plan_circuit(circuit, partition)
        assert plan_gate_calls[0] == 3 * len(circuit)

    def test_mutated_circuit_is_replanned(self):
        source = build_workload("qft", 8).circuit
        circuit = Circuit(source.num_qubits, source.gates)
        partition = Partition(8, 4)
        with plan_reuse():
            before = plan_circuit(circuit, partition)
            circuit.append(circuit.gates[0])
            after = plan_circuit(circuit, partition)
        assert len(after) == len(before) + 1

    def test_trace_extension_does_not_leak_into_scope(self):
        circuit = build_workload("qft", 8).circuit
        config = RunConfiguration(
            partition=Partition(8, 4),
            node_type=STANDARD_NODE,
            frequency=CpuFrequency.MEDIUM,
            shots=64,
        )
        with plan_reuse():
            sampled = trace_circuit(circuit, config)
            plain = plan_circuit(circuit, config.partition)
        assert len(sampled) == len(circuit) + 1
        assert len(plain) == len(circuit)
