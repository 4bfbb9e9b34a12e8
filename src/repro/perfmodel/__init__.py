"""Performance and energy model of statevector simulation on ARCHER2.

The pipeline: a circuit is *planned* per gate
(:mod:`repro.statevector.plan`), the plans form an
:class:`~repro.perfmodel.trace.ExecutionTrace`, and
:func:`~repro.perfmodel.trace.cost_trace` prices the trace against the
calibrated machine coefficients.  :func:`~repro.perfmodel.predictor.predict`
wraps the whole pipeline.
"""

from typing import TYPE_CHECKING

from repro import _export_lazily

if TYPE_CHECKING:
    from repro.perfmodel.breakdown import (
        KindBreakdown,
        by_kind,
        render_breakdown,
        timeline_csv,
        top_gates,
    )
    from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
    from repro.perfmodel.comm_cost import effective_bandwidth, exchange_time
    from repro.perfmodel.energy import EnergyReport, energy_report, node_phase_power
    from repro.perfmodel.objectives import (
        ObjectiveVector,
        fusion_local_factor,
        objective_vector,
    )
    from repro.perfmodel.gate_cost import LocalCost, local_cost, numa_level
    from repro.perfmodel.predictor import PREDICTION_BACKENDS, Prediction, predict
    from repro.perfmodel.profile import RuntimeProfile, profile_trace
    from repro.perfmodel.trace import (
        CostedTrace,
        ExecutionTrace,
        GateCost,
        RunConfiguration,
        TraceBuilder,
        cost_trace,
        trace_circuit,
    )

__getattr__, __dir__ = _export_lazily(
    __name__,
    {
        "repro.perfmodel.breakdown": (
            "KindBreakdown",
            "by_kind",
            "render_breakdown",
            "timeline_csv",
            "top_gates",
        ),
        "repro.perfmodel.calibration": ("DEFAULT_CALIBRATION", "Calibration"),
        "repro.perfmodel.comm_cost": ("effective_bandwidth", "exchange_time"),
        "repro.perfmodel.energy": ("EnergyReport", "energy_report", "node_phase_power"),
        "repro.perfmodel.objectives": (
            "ObjectiveVector",
            "fusion_local_factor",
            "objective_vector",
        ),
        "repro.perfmodel.gate_cost": ("LocalCost", "local_cost", "numa_level"),
        "repro.perfmodel.predictor": ("PREDICTION_BACKENDS", "Prediction", "predict"),
        "repro.perfmodel.profile": ("RuntimeProfile", "profile_trace"),
        "repro.perfmodel.trace": (
            "CostedTrace",
            "ExecutionTrace",
            "GateCost",
            "RunConfiguration",
            "TraceBuilder",
            "cost_trace",
            "trace_circuit",
        ),
    },
)

__all__ = [
    "Calibration",
    "DEFAULT_CALIBRATION",
    "exchange_time",
    "effective_bandwidth",
    "LocalCost",
    "local_cost",
    "numa_level",
    "RunConfiguration",
    "ExecutionTrace",
    "TraceBuilder",
    "trace_circuit",
    "GateCost",
    "CostedTrace",
    "cost_trace",
    "RuntimeProfile",
    "profile_trace",
    "EnergyReport",
    "energy_report",
    "node_phase_power",
    "Prediction",
    "predict",
    "PREDICTION_BACKENDS",
    "ObjectiveVector",
    "objective_vector",
    "fusion_local_factor",
    "KindBreakdown",
    "by_kind",
    "top_gates",
    "timeline_csv",
    "render_breakdown",
]
