"""Top-level DES replay: trace in, contended timeline out.

:func:`simulate_trace` builds the fabric and rank actors for a trace's
configuration, runs the event loop to exhaustion, and packages the
result.  The fabric's per-flow rate is the *same* calibrated effective
bandwidth the closed-form model prices with
(:func:`repro.perfmodel.comm_cost.effective_bandwidth`), so any
difference between the two predictors comes from what only the DES
captures: message-level serialisation vs pipelining, rendezvous skew
between partially-active gates, and link contention.

**Orbit replay.**  Per-gate costs depend on sizes, not on which rank
pays them, so most rank bits change nothing a rank does: flipping one
maps every rank onto a twin that runs the identical timeline.
:func:`symmetry_mask` collects those bits into a mask ``H``; the replay
then runs one representative rank per orbit (``rank & H == 0``), folds
the fabric's links onto the representatives' (:meth:`Fabric.fold`) and
lets :class:`Timeline` relabel spans for every other rank.  ``H = 0``
is the full replay, and every configuration the fold cannot reproduce
exactly (fault plans, oversubscribed up-links, packed nodes, uneven
switch groups) falls back to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import obs
from repro.circuits.circuit import Circuit
from repro.des.engine import Engine
from repro.des.rank import ReplayContext, rank_process
from repro.des.resources import Fabric, TokenPool
from repro.des.schedule import ScheduleSet, export_schedules
from repro.des.timeline import Timeline, TimelineEvent, utilisation_series
from repro.errors import DesError
from repro.perfmodel.comm_cost import effective_bandwidth
from repro.perfmodel.trace import ExecutionTrace, RunConfiguration, trace_circuit

if TYPE_CHECKING:  # pragma: no cover - annotation only, avoids an import cycle
    from repro.faults.inject import FaultReport
    from repro.faults.plan import FaultPlan

__all__ = ["DesResult", "simulate", "simulate_trace", "symmetry_mask"]

#: Above this rank count, per-link busy intervals are not recorded by
#: default (aggregate utilisation is always available); Table-2-scale
#: replays would otherwise hold millions of interval tuples.
AUTO_INTERVAL_RANK_LIMIT = 256


@dataclass
class DesResult:
    """One contention-aware replay of a run configuration."""

    config: RunConfiguration
    makespan_s: float
    timeline: Timeline
    events_processed: int
    num_exchanges: int
    network_bytes: int
    #: Mean busy fraction of the NIC / up-link pools over the replay.
    nic_utilisation: float
    uplink_utilisation: float
    #: Named (t, busy-fraction) series; empty unless intervals recorded.
    utilisation: dict[str, list[tuple[float, float]]] = field(
        default_factory=dict
    )
    #: Fault-injection accounting (None when no plan was supplied).
    #: When present, ``makespan_s`` already includes the
    #: checkpoint/failure overlay; the pre-overlay replay makespan is
    #: ``faults.base_makespan_s``.
    faults: "FaultReport | None" = None

    @property
    def runtime_s(self) -> float:
        """Predicted wall time (alias mirroring the analytic predictor)."""
        return self.makespan_s


def symmetry_mask(
    schedule: ScheduleSet,
    config: RunConfiguration,
    *,
    uplink_oversubscription: float = 1.0,
) -> int:
    """Rank bits the replay of a fault-free schedule may fold away.

    The schedule's own symmetric bits (:meth:`ScheduleSet.symmetry_mask`),
    or none where the fabric breaks the symmetry:

    * co-located ranks (``ranks_per_node > 1``) queue on one NIC in an
      order the fold cannot reproduce;
    * oversubscribed up-links make flows of one switch group queue;
    * switch groups must tile the nodes in power-of-two blocks.
    """
    nodes, per_switch = config.num_nodes, config.nodes_per_switch
    if (
        config.ranks_per_node > 1
        or uplink_oversubscription > 1
        or (
            nodes > per_switch
            and (per_switch & (per_switch - 1) or nodes % per_switch)
        )
    ):
        return 0
    return schedule.symmetry_mask()


def simulate_trace(
    trace: ExecutionTrace,
    *,
    record_intervals: bool | None = None,
    uplink_oversubscription: float = 1.0,
    faults: "FaultPlan | None" = None,
    _fold: bool = True,
) -> DesResult:
    """Replay a trace's per-rank schedules on the event engine.

    Fully deterministic: no wall clock, no randomness -- two calls with
    the same trace (and the same ``faults`` plan) produce identical
    timelines.  A :class:`~repro.faults.FaultPlan` bends the replay:
    stragglers stretch per-rank compute, degraded NICs slow their links,
    lossy chunks are retransmitted with backoff, and node failures plus
    checkpoint/restart are overlaid on the makespan afterwards
    (coordinated checkpointing freezes every rank, so the overlay
    composes with the timeline instead of rewinding the event heap).

    Fault-free replays run one rank per orbit (see the module notes);
    ``_fold=False`` forces the full replay, which a fault plan always
    takes.  ``events_processed`` counts the replay actually run.
    """
    # Imported lazily: repro.faults imports repro.des at module level,
    # so the reverse edge must not exist at import time.
    from repro.faults.checkpoint import apply_overlay
    from repro.faults.inject import (
        ChunkFaultModel,
        FaultySchedule,
        build_report,
        degrade_fabric,
    )

    config = trace.config
    calib = config.calibration
    num_ranks = config.partition.num_ranks
    if record_intervals is None:
        record_intervals = num_ranks <= AUTO_INTERVAL_RANK_LIMIT
    if faults is not None:
        faults.validate_against(num_ranks, config.num_nodes)
        if faults.is_zero:
            faults = None  # zero plan: byte-identical fault-free path

    schedule: ScheduleSet = export_schedules(trace)
    if faults is not None or not _fold:
        symmetry = 0
    else:
        symmetry = symmetry_mask(
            schedule, config, uplink_oversubscription=uplink_oversubscription
        )
    if faults is not None and faults.stragglers:
        schedule = FaultySchedule(schedule, faults)
    engine = Engine()
    fabric = Fabric(
        config.num_nodes,
        bandwidth=effective_bandwidth(
            config.comm_mode, config.num_nodes, config.frequency, calib
        ),
        nodes_per_switch=config.nodes_per_switch,
        uplink_oversubscription=uplink_oversubscription,
        record_intervals=record_intervals,
    )
    if faults is not None and faults.link_degradations:
        degrade_fabric(fabric, faults)
    # A non-zero mask implies one rank per node: rank bits are node bits.
    fabric.fold(symmetry)
    timeline = Timeline(num_ranks, symmetry=symmetry)
    chunk_faults = None
    if faults is not None and faults.chunk_failure_rate > 0:
        chunk_faults = ChunkFaultModel(faults)
    ctx = ReplayContext(
        engine=engine,
        fabric=fabric,
        schedule=schedule,
        timeline=timeline,
        tokens=[
            TokenPool(engine, config.ranks_per_node)
            for _ in range(config.num_nodes)
        ],
        mode=config.comm_mode,
        setup_s=calib.exchange_setup,
        latency_s=calib.message_latency,
        intranode_bandwidth=calib.intranode_bandwidth,
        ranks_per_node=config.ranks_per_node,
        chunk_faults=chunk_faults,
        symmetry=symmetry,
    )
    for rank in range(num_ranks):
        if rank & symmetry == 0:
            engine.process(rank_process(ctx, rank))
    orbit_size = 1 << bin(symmetry).count("1")
    with obs.span(
        "des.replay",
        ranks=num_ranks,
        nodes=config.num_nodes,
        exchanges=schedule.num_exchanges,
        orbits=num_ranks // orbit_size,
        orbit_size=orbit_size,
    ):
        engine.run()
    if obs.is_enabled():
        # Per-phase accounting of the replay itself: how many timeline
        # spans of each kind (compute/comm/wait) every rank has, plus
        # the raw event-loop and network volumes.
        obs.counter("repro_des_events_total").inc(engine.events_processed)
        obs.counter("repro_des_exchanges_total").inc(schedule.num_exchanges)
        obs.counter("repro_des_network_bytes_total").inc(
            fabric.bytes_on_network()
        )
        for kind, count in sorted(timeline.span_counts().items()):
            obs.counter("repro_des_timeline_spans_total", kind=kind).inc(count)

    if ctx.coordinator.outstanding:
        raise DesError(
            f"replay deadlocked: {ctx.coordinator.outstanding} exchanges "
            f"never found their partner"
        )

    makespan = timeline.makespan
    fault_report = None
    if faults is not None:
        overlay = apply_overlay(makespan, faults, config.num_nodes)
        for event in overlay.events:
            timeline.annotate(
                TimelineEvent(
                    time=event.time_s,
                    kind=event.kind,
                    node=event.node,
                    label=event.detail,
                )
            )
        fault_report = build_report(
            faults,
            makespan,
            overlay,
            chunk_retries=chunk_faults.retries if chunk_faults else 0,
        )
    utilisation: dict[str, list[tuple[float, float]]] = {}
    if record_intervals and makespan > 0:
        nic_series = utilisation_series(fabric.nic_links(), horizon=makespan)
        up_series = utilisation_series(fabric.uplink_links(), horizon=makespan)
        if nic_series:
            utilisation["NIC"] = nic_series
        if up_series:
            utilisation["uplink"] = up_series

    def _pool_utilisation(links) -> float:
        if makespan <= 0 or not links:
            return 0.0
        return sum(link.utilisation(makespan) for link in links) / len(links)

    # Utilisation metrics stay on the pre-overlay replay makespan (the
    # overlay's stretch is spent frozen, not moving bytes); the result's
    # makespan is the wall clock the user actually waits out.
    return DesResult(
        config=config,
        makespan_s=fault_report.wall_s if fault_report else makespan,
        timeline=timeline,
        events_processed=engine.events_processed,
        num_exchanges=schedule.num_exchanges,
        network_bytes=fabric.bytes_on_network(),
        nic_utilisation=_pool_utilisation(fabric.nic_links()),
        uplink_utilisation=_pool_utilisation(fabric.uplink_links()),
        utilisation=utilisation,
        faults=fault_report,
    )


def simulate(
    circuit: Circuit, config: RunConfiguration, **kwargs
) -> DesResult:
    """Plan a circuit and replay it (the one-call DES entry point)."""
    return simulate_trace(trace_circuit(circuit, config), **kwargs)
