"""Closed-form resilience costing: the analytic side of the fault model.

The DES injects stragglers and link degradation event by event; this
module prices the same plan the way the lockstep closed form does, so
the two can be differenced (the resilience property suite holds them to
the same <=10% gate the fault-free cross-check uses):

* A straggler stretches every local update it participates in.  In SPMD
  lockstep the slowest rank sets each gate's pace, so the whole job's
  local time scales by the *worst* slowdown (the all-ones rank of the
  participation predicate is a straggler's worst case -- it joins every
  gate).
* A degraded NIC stretches only the bandwidth term of inter-node
  exchanges (setup and per-message latency are CPU-side and unaffected);
  every pairwise exchange generation includes the degraded node, so the
  lockstep gate time scales with the worst link factor.

Energy adjustments follow the paper's phase accounting: ranks waiting
on a straggler or a stretched exchange burn *idle* power, checkpoint
writes burn comm (I/O) power, lost work re-burns the job's average
power, and the switches stay powered for the whole stretched wall time.
"""

from __future__ import annotations

from repro.faults.checkpoint import apply_overlay
from repro.faults.inject import FaultReport, build_report
from repro.faults.plan import FaultPlan
from repro.mpi.datatypes import CommMode
from repro.perfmodel.energy import EnergyReport, node_phase_power
from repro.perfmodel.trace import CostedTrace

__all__ = [
    "degraded_runtime",
    "analytic_fault_report",
    "fault_adjusted_energy",
]


def degraded_runtime(costed: CostedTrace, plan: FaultPlan) -> float:
    """Lockstep wall time with stragglers and link degradation applied.

    Exact for the closed form: per gate, the fixed communication part
    (setup + latencies) is kept, the bandwidth part is divided by the
    worst link factor, and the local part is multiplied by the worst
    straggler slowdown.  A zero plan returns ``costed.runtime_s``
    exactly.
    """
    slowdown = plan.max_slowdown
    link_factor = plan.min_link_factor
    if slowdown == 1.0 and link_factor == 1.0:
        return costed.runtime_s
    config = costed.config
    calib = config.calibration
    blocking = config.comm_mode is CommMode.BLOCKING
    total = 0.0
    for gate in costed.gates:
        local = gate.mem_s + gate.cpu_s
        comm = gate.comm_s
        if comm > 0 and link_factor < 1.0:
            messages = gate.plan.num_messages if blocking else 1
            fixed = calib.exchange_setup + messages * calib.message_latency
            fixed = min(fixed, comm)
            comm = fixed + (comm - fixed) / link_factor
        total += comm + local * slowdown
    return total


def analytic_fault_report(
    costed: CostedTrace, plan: FaultPlan
) -> FaultReport:
    """Price a plan without a replay: degraded lockstep + overlay."""
    base = degraded_runtime(costed, plan)
    overlay = apply_overlay(base, plan, costed.config.num_nodes)
    return build_report(plan, base, overlay)


def fault_adjusted_energy(
    costed: CostedTrace, report: FaultReport
) -> EnergyReport:
    """The job's energy once the fault report's time accounting is paid.

    Three additions on top of the fault-free report:

    * **Stretch** (``base_makespan - fault-free runtime``): ranks held
      up by stragglers, degraded links or retries idle at
      ``P_idle`` while the switches stay on.
    * **Rework**: lost work re-burns the stretched job's average node
      power (the re-executed gates draw what they drew the first time).
    * **Checkpointing**: writes at comm (I/O) power, restarts at idle
      power, switches on throughout the extra wall time.
    """
    config = costed.config
    calib = config.calibration
    nodes = config.num_nodes
    freq, node_type = config.frequency, config.node_type
    idle_power = node_phase_power("idle", freq, node_type, calib)
    comm_power = node_phase_power("comm", freq, node_type, calib)
    switch_power = config.topology.switch_power_total_w()

    stretch_s = max(0.0, report.base_makespan_s - costed.runtime_s)
    node_j = costed.node_energy_j + stretch_s * idle_power * nodes
    switch_j = costed.switch_energy_j + stretch_s * switch_power

    # Average node power over the stretched-but-failure-free job: what
    # one second of re-executed work costs.
    if report.base_makespan_s > 0:
        avg_node_power = node_j / (report.base_makespan_s * nodes)
    else:
        avg_node_power = idle_power

    node_j += (
        report.lost_work_s * avg_node_power * nodes
        + report.checkpoint_write_s * comm_power * nodes
        + report.restart_s * idle_power * nodes
    )
    switch_j += (report.wall_s - report.base_makespan_s) * switch_power

    return EnergyReport(
        node_energy_j=node_j,
        switch_energy_j=switch_j,
        runtime_s=report.wall_s,
        num_nodes=nodes,
    )
