"""Fault injection & resilience modelling for the DES/analytic stack.

The paper's headline numbers assume a perfectly healthy machine; at
4,096 nodes that is the exception, not the rule.  This package models
what failures do to the runtime *and energy* story:

* :mod:`~repro.faults.plan` -- :class:`FaultPlan`: a frozen, validated,
  seed-driven declaration of node fail-stops (explicit or MTBF-drawn),
  straggler ranks, degraded NICs, lossy exchange chunks, and the
  checkpoint policy.
* :mod:`~repro.faults.checkpoint` -- Young/Daly interval optimisation
  and the deterministic failure/checkpoint overlay walk.
* :mod:`~repro.faults.inject` -- the hooks the DES replay uses to bend
  its schedule, fabric and exchange drivers around a plan.
* :mod:`~repro.faults.analytic` -- the lockstep closed form of the same
  degradations, plus the energy adjustments (idle ranks still burn
  power).
* :mod:`~repro.faults.rng` -- coordinate-keyed splitmix64 streams, so
  every injected fault is a pure function of the seed and never of
  event order.

Entry points: ``predict(circuit, config, backend="des", faults=plan)``
or ``simulate_trace(trace, faults=plan)``; the ``ext-resilience``
experiment sweeps MTBF against checkpoint cadence.

Quickstart::

    from repro.faults import CheckpointPolicy, FaultPlan, Straggler, daly_interval

    plan = FaultPlan(
        seed=7,
        mtbf_s=3600.0,
        checkpoint=CheckpointPolicy(
            interval_s=daly_interval(write_s=30.0, mtbf_s=3600.0),
            write_s=30.0,
        ),
        stragglers=(Straggler(rank=3, slowdown=1.4),),
    )
    prediction = predict(circuit, config, backend="des", faults=plan)
    print(prediction.faults.describe())
"""

from typing import TYPE_CHECKING

from repro import _export_lazily

if TYPE_CHECKING:
    from repro.faults.analytic import (
        analytic_fault_report,
        degraded_runtime,
        fault_adjusted_energy,
    )
    from repro.faults.checkpoint import (
        CheckpointOverlay,
        FaultEvent,
        apply_overlay,
        daly_interval,
        expected_slowdown,
        young_interval,
    )
    from repro.faults.inject import (
        ChunkFaultModel,
        FaultReport,
        FaultySchedule,
        build_report,
        degrade_fabric,
    )
    from repro.faults.plan import (
        ZERO_FAULTS,
        CheckpointPolicy,
        FaultPlan,
        LinkDegradation,
        NodeFailure,
        Straggler,
    )

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.faults.analytic": (
            "analytic_fault_report",
            "degraded_runtime",
            "fault_adjusted_energy",
        ),
        "repro.faults.checkpoint": (
            "CheckpointOverlay",
            "FaultEvent",
            "apply_overlay",
            "daly_interval",
            "expected_slowdown",
            "young_interval",
        ),
        "repro.faults.inject": (
            "ChunkFaultModel",
            "FaultReport",
            "FaultySchedule",
            "build_report",
            "degrade_fabric",
        ),
        "repro.faults.plan": (
            "ZERO_FAULTS",
            "CheckpointPolicy",
            "FaultPlan",
            "LinkDegradation",
            "NodeFailure",
            "Straggler",
        ),
    },
)

__all__ = [
    "FaultPlan",
    "NodeFailure",
    "Straggler",
    "LinkDegradation",
    "CheckpointPolicy",
    "ZERO_FAULTS",
    "FaultEvent",
    "CheckpointOverlay",
    "young_interval",
    "daly_interval",
    "expected_slowdown",
    "apply_overlay",
    "FaultySchedule",
    "ChunkFaultModel",
    "FaultReport",
    "build_report",
    "degrade_fabric",
    "degraded_runtime",
    "analytic_fault_report",
    "fault_adjusted_energy",
]
