"""Pass framework: analysis vs transformation passes and their manager.

This is the communication-minimizing pipeline's skeleton (the style of
Qiskit's pass manager, specialised for distributed statevector
simulation): passes run in order against a fixed
:class:`~repro.statevector.partition.Partition`, reading and writing a
shared :class:`~repro.transpile.property_set.PropertySet`.

* An :class:`AnalysisPass` inspects the circuit and records results in
  the property set; the circuit flows through unchanged.
* A :class:`TransformationPass` returns a :class:`PassResult` -- a
  rewritten circuit plus the qubit relabelling it left behind; the
  manager composes relabellings across passes.

Every pass runs inside a ``transpile.pass`` observability span, so a
trace of a transpilation shows exactly where the time (and the gate
count) went.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro import obs
from repro.circuits.circuit import Circuit
from repro.errors import TranspilerError
from repro.statevector.partition import Partition
from repro.transpile.property_set import PropertySet

__all__ = [
    "PassResult",
    "identity_permutation",
    "compose_permutations",
    "AnalysisPass",
    "TransformationPass",
    "TranspilePassManager",
]


def identity_permutation(n: int) -> dict[int, int]:
    """The do-nothing logical-to-physical map."""
    return {q: q for q in range(n)}


def compose_permutations(
    first: dict[int, int], second: dict[int, int]
) -> dict[int, int]:
    """Apply ``first`` then ``second``: result[q] = second[first[q]]."""
    return {q: second[p] for q, p in first.items()}


@dataclass
class PassResult:
    """Output of one transformation pass (or of a whole pipeline)."""

    circuit: Circuit
    #: Logical qubit -> physical wire at the *end* of the circuit.  The
    #: identity unless the pass left qubits virtually relocated.
    output_permutation: dict[int, int]
    #: Free-form counters ("swaps_inserted", "remap_pairs", ...).
    stats: dict[str, int] = field(default_factory=dict)

    def is_identity_layout(self) -> bool:
        """True when the output layout matches the input layout."""
        return all(q == p for q, p in self.output_permutation.items())


class _BasePass(abc.ABC):
    """Common machinery: naming and declared property requirements."""

    #: Human-readable pass name (defaults to the class name).
    name: str = ""
    #: Property-set keys this pass reads (checked before it runs).
    requires: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Only a name set in the class body counts: an inherited one
        # would name every unnamed pass "TransformationPass".
        if not cls.__dict__.get("name"):
            cls.name = cls.__name__


class AnalysisPass(_BasePass):
    """Writes properties; never touches the circuit."""

    @abc.abstractmethod
    def analyse(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> None:
        """Record analysis results into ``properties``."""


class TransformationPass(_BasePass):
    """Rewrites the circuit (and may relabel qubits)."""

    @abc.abstractmethod
    def transform(
        self, circuit: Circuit, partition: Partition, properties: PropertySet
    ) -> PassResult:
        """Return the rewritten circuit and its output permutation."""


class TranspilePassManager:
    """Run a pipeline of passes over one circuit.

    The manager owns the property set, verifies each pass's declared
    requirements, composes output permutations across transformation
    passes, and namespaces every pass's stats under its name.
    """

    def __init__(self, passes: list[AnalysisPass | TransformationPass]):
        if not passes:
            raise TranspilerError("TranspilePassManager needs at least one pass")
        self.passes = list(passes)

    def run(
        self,
        circuit: Circuit,
        partition: Partition,
        properties: PropertySet | None = None,
    ) -> tuple[PassResult, PropertySet]:
        """Apply every pass in order; returns (result, property set)."""
        props = properties if properties is not None else PropertySet()
        permutation = identity_permutation(circuit.num_qubits)
        stats: dict[str, int] = {}
        current = circuit
        for p in self.passes:
            for key in p.requires:
                props.require(key)
            with obs.span(
                "transpile.pass", pass_name=p.name, gates_in=len(current)
            ):
                if isinstance(p, AnalysisPass):
                    p.analyse(current, partition, props)
                    continue
                result = p.transform(current, partition, props)
                current = result.circuit
                permutation = compose_permutations(
                    permutation, result.output_permutation
                )
                for key, value in result.stats.items():
                    stats[f"{p.name}.{key}"] = value
        return (
            PassResult(
                circuit=current, output_permutation=permutation, stats=stats
            ),
            props,
        )
