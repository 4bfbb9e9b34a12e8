"""The pass manager: ordering, requirements, stats, permutations."""

import pytest

from repro.circuits import Circuit
from repro.errors import TranspilerError
from repro.gates import Gate
from repro.statevector.partition import Partition
from repro.transpile import (
    AnalysisPass,
    PropertySet,
    TransformationPass,
    TranspilePassManager,
)
from repro.transpile.basepass import (
    PassResult,
    compose_permutations,
    identity_permutation,
)


class _CountingAnalysis(AnalysisPass):
    name = "counting"

    def analyse(self, circuit, partition, properties):
        properties["gate_count"] = len(circuit)


class _NeedsCount(TransformationPass):
    name = "needs_count"
    requires = ("gate_count",)

    def transform(self, circuit, partition, properties):
        properties.require("gate_count")
        return PassResult(
            circuit=circuit,
            output_permutation=identity_permutation(circuit.num_qubits),
            stats={"seen": properties["gate_count"]},
        )


class _RelabelPass(TransformationPass):
    """Swap wires 0 and 1 (rewrites gates, reports the permutation)."""

    name = "relabel01"

    def transform(self, circuit, partition, properties):
        mapping = {q: q for q in range(circuit.num_qubits)}
        mapping[0], mapping[1] = 1, 0
        out = Circuit(circuit.num_qubits, name=circuit.name)
        for gate in circuit:
            out.append(gate.remapped(mapping))
        return PassResult(circuit=out, output_permutation=mapping)


def _circuit():
    c = Circuit(3)
    c.append(Gate.named("h", (0,)))
    c.append(Gate.named("x", (2,), controls=(0,)))
    return c


def test_empty_pipeline_rejected():
    with pytest.raises(TranspilerError, match="at least one pass"):
        TranspilePassManager([])


def test_analysis_results_flow_to_later_passes():
    manager = TranspilePassManager([_CountingAnalysis(), _NeedsCount()])
    result, props = manager.run(_circuit(), Partition(3, 2))
    assert props["gate_count"] == 2
    assert result.stats == {"needs_count.seen": 2}


def test_missing_requirement_fails_with_producer_hint():
    manager = TranspilePassManager([_NeedsCount()])
    with pytest.raises(TranspilerError, match="gate_count"):
        manager.run(_circuit(), Partition(3, 2))


def test_property_set_require_names_known_producer():
    with pytest.raises(TranspilerError, match="CommutationAnalysis"):
        PropertySet().require("commutation_dag")


def test_permutations_compose_across_passes():
    manager = TranspilePassManager([_RelabelPass(), _RelabelPass()])
    result, _ = manager.run(_circuit(), Partition(3, 2))
    # Two swaps of the same wires cancel.
    assert result.output_permutation == identity_permutation(3)
    single, _ = TranspilePassManager([_RelabelPass()]).run(
        _circuit(), Partition(3, 2)
    )
    assert single.output_permutation == {0: 1, 1: 0, 2: 2}


def test_analysis_pass_leaves_circuit_object_untouched():
    circuit = _circuit()
    result, _ = TranspilePassManager([_CountingAnalysis()]).run(
        circuit, Partition(3, 2)
    )
    assert result.circuit is circuit


class _Unnamed(TransformationPass):
    def transform(self, circuit, partition, properties):
        return PassResult(circuit, identity_permutation(circuit.num_qubits))


class TestPassResult:
    def test_identity_layout_detection(self):
        r = PassResult(Circuit(2), identity_permutation(2))
        assert r.is_identity_layout()
        r2 = PassResult(Circuit(2), {0: 1, 1: 0})
        assert not r2.is_identity_layout()

    def test_pass_name_defaults_to_class(self):
        assert _Unnamed().name == "_Unnamed"


class TestPermutations:
    def test_identity(self):
        assert identity_permutation(3) == {0: 0, 1: 1, 2: 2}

    def test_compose(self):
        first = {0: 1, 1: 0, 2: 2}
        second = {0: 0, 1: 2, 2: 1}
        composed = compose_permutations(first, second)
        assert composed == {0: 2, 1: 0, 2: 1}
