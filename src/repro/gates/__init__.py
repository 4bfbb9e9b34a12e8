"""Gate library: matrices, the Gate IR, locality classification.

The locality taxonomy (fully local / local memory / distributed) is the
paper's section 2.1 and drives everything downstream: the communication
planner, the performance model and the cache-blocking transpiler all key
off :func:`classify_gate`.
"""

from repro.gates import matrices
from repro.gates.classify import (
    GateLocality,
    classify_gate,
    distributed_targets,
    local_targets,
)
from repro.gates.gate import GATE_REGISTRY, Gate, GateSpec, register_gate

__all__ = [
    "matrices",
    "Gate",
    "GateSpec",
    "GATE_REGISTRY",
    "register_gate",
    "GateLocality",
    "classify_gate",
    "distributed_targets",
    "local_targets",
]
