"""Statevector simulation: dense reference, QuEST-style distributed, planner.

The dense simulator is the numerical ground truth; the distributed
simulator reproduces QuEST's data distribution and communication
schedule over the simulated MPI layer; the planner describes each gate's
structure for the performance model.
"""

from typing import TYPE_CHECKING

from repro import _export_lazily

# ``fidelity`` is also a submodule's name, and importing that submodule
# binds the module on this package: bind the function first, eagerly.
from repro.statevector.fidelity import fidelity

if TYPE_CHECKING:
    from repro.statevector.apply_plan import (
        ApplyPlan,
        ApplyStep,
        StepKind,
        compile_gate_step,
        compile_plan,
    )
    from repro.statevector.dense import DenseStatevector
    from repro.statevector.distributed import DistributedStatevector
    from repro.statevector.measurement import (
        expectation_z,
        marginal_probability,
        probabilities,
    )
    from repro.statevector.partition import AMPLITUDE_BYTES, Partition
    from repro.statevector.sampling import SampleResult, sample
    from repro.statevector.fusion import FusionConfig, parse_fusion, resolve_fusion
    from repro.statevector.soa import SoAStatevector
    from repro.statevector.plan import (
        FLOPS_PER_AMP_DIAGONAL,
        FLOPS_PER_AMP_PAIR_UPDATE,
        GatePlan,
        plan_circuit,
        plan_gate,
        sampling_plan,
    )

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.statevector.apply_plan": (
            "ApplyPlan",
            "ApplyStep",
            "StepKind",
            "compile_gate_step",
            "compile_plan",
        ),
        "repro.statevector.dense": ("DenseStatevector",),
        "repro.statevector.distributed": ("DistributedStatevector",),
        "repro.statevector.measurement": (
            "expectation_z",
            "marginal_probability",
            "probabilities",
        ),
        "repro.statevector.partition": ("AMPLITUDE_BYTES", "Partition"),
        "repro.statevector.sampling": ("SampleResult", "sample"),
        "repro.statevector.fusion": ("FusionConfig", "parse_fusion", "resolve_fusion"),
        "repro.statevector.soa": ("SoAStatevector",),
        "repro.statevector.plan": (
            "FLOPS_PER_AMP_DIAGONAL",
            "FLOPS_PER_AMP_PAIR_UPDATE",
            "GatePlan",
            "plan_circuit",
            "plan_gate",
            "sampling_plan",
        ),
    },
)

__all__ = [
    "ApplyPlan",
    "ApplyStep",
    "StepKind",
    "compile_plan",
    "compile_gate_step",
    "FusionConfig",
    "parse_fusion",
    "resolve_fusion",
    "DenseStatevector",
    "DistributedStatevector",
    "SoAStatevector",
    "Partition",
    "AMPLITUDE_BYTES",
    "GatePlan",
    "plan_gate",
    "plan_circuit",
    "sampling_plan",
    "FLOPS_PER_AMP_PAIR_UPDATE",
    "FLOPS_PER_AMP_DIAGONAL",
    "fidelity",
    "probabilities",
    "marginal_probability",
    "expectation_z",
    "sample",
    "SampleResult",
]
