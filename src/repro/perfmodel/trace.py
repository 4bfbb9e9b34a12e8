"""Execution traces and their costing.

An :class:`ExecutionTrace` is the ordered list of per-gate plans for one
run configuration.  It can be built two ways -- by the numeric executor
(via :class:`TraceBuilder` as its observer) or directly from a circuit by
the model executor (:func:`trace_circuit`) -- and both produce the same
stream for the same configuration, which integration tests assert.

:func:`cost_trace` prices a trace on a machine configuration, yielding a
:class:`CostedTrace` with per-gate and aggregate time/energy and the
MPI/memory/compute profile of fig. 5.  A gate's cost depends only on
its plan and the configuration, so each distinct plan is priced once per
call and equal plans share one frozen :class:`GateCost` (a pickled
prediction then stores each distinct cost once).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.circuits.circuit import Circuit
from repro.errors import ValidationError
from repro.gates import Gate
from repro.machine.frequency import CpuFrequency
from repro.machine.node import NodeType
from repro.mpi.chunking import MAX_MESSAGE_BYTES
from repro.mpi.datatypes import CommMode
from repro.mpi.topology import NetworkTopology
from repro.perfmodel.calibration import DEFAULT_CALIBRATION, Calibration
from repro.perfmodel.comm_cost import exchange_time
from repro.perfmodel.energy import node_phase_power
from repro.perfmodel.gate_cost import local_cost
from repro.statevector.partition import Partition
from repro.statevector.plan import GatePlan, plan_circuit, sampling_plan

__all__ = [
    "RunConfiguration",
    "ExecutionTrace",
    "TraceBuilder",
    "trace_circuit",
    "GateCost",
    "CostedTrace",
    "cost_trace",
]


@dataclass(frozen=True)
class RunConfiguration:
    """Everything the cost model needs about how a circuit is run."""

    partition: Partition
    node_type: NodeType
    frequency: CpuFrequency
    comm_mode: CommMode = CommMode.BLOCKING
    halved_swaps: bool = False
    max_message: int = MAX_MESSAGE_BYTES
    nodes_per_switch: int = 8
    switch_power_w: float = 235.0
    calibration: Calibration = DEFAULT_CALIBRATION
    #: MPI ranks packed per node.  The paper uses 1 everywhere; the
    #: ``ext-ranks-per-node`` study explores larger values (intra-node
    #: exchanges through shared memory, NIC contention inter-node).
    ranks_per_node: int = 1
    #: Overlap a distributed gate's local update with its exchange
    #: (chunk-pipelined processing of received data).  Neither QuEST nor
    #: the paper's modified version does this; the ``ext-overlap`` study
    #: quantifies what it would buy.  Wall time per distributed gate
    #: becomes ``max(comm, local)`` instead of ``comm + local``.
    overlap_comm_compute: bool = False
    #: Which executor the run uses: ``"serial"`` or ``"pool"``.  Enters
    #: the prediction-cache fingerprint so serial predictions are never
    #: served for pool configurations (their overlap pricing differs).
    executor: str = "serial"
    #: Rank transport of a pool run: ``"shm"`` or ``"tcp"``.
    transport: str = "shm"
    #: Hosts a TCP pool spans (1 = loopback/single host).
    num_hosts: int = 1
    #: Fraction of each distributed gate's exchange the TCP transport's
    #: chunked delivery hides behind the local update (0..1).  Only
    #: priced for ``executor="pool", transport="tcp"`` -- the shm pool
    #: copies between two barriers and hides nothing.
    overlap_factor: float = 1.0
    #: Bitstring samples drawn from the final state (0 = none).  A
    #: non-zero value appends one synthetic sampling step to the trace
    #: -- the per-rank probability-total pass, its scalar gather, and
    #: the per-shot cumulative lookups -- so sampling jobs price the
    #: readout they actually perform.
    shots: int = 0

    def __post_init__(self) -> None:
        if self.shots < 0:
            raise ValidationError(f"shots must be >= 0, got {self.shots}")
        rpn = self.ranks_per_node
        if rpn < 1 or (rpn & (rpn - 1)) != 0:
            raise ValidationError(
                f"ranks_per_node must be a positive power of two, got {rpn}"
            )
        if self.partition.num_ranks % rpn:
            raise ValidationError(
                f"{self.partition.num_ranks} ranks do not pack onto nodes "
                f"of {rpn}"
            )
        if self.executor not in ("serial", "pool"):
            raise ValidationError(
                f"executor must be 'serial' or 'pool', got {self.executor!r}"
            )
        if self.transport not in ("shm", "tcp"):
            raise ValidationError(
                f"transport must be 'shm' or 'tcp', got {self.transport!r}"
            )
        if self.num_hosts < 1:
            raise ValidationError(f"num_hosts must be >= 1, got {self.num_hosts}")
        if not 0.0 <= self.overlap_factor <= 1.0:
            raise ValidationError(
                f"overlap_factor must be in [0, 1], got {self.overlap_factor!r}"
            )

    @property
    def num_nodes(self) -> int:
        """Nodes occupied (ranks / ranks_per_node; the paper used 1:1)."""
        return max(1, self.partition.num_ranks // self.ranks_per_node)

    @property
    def topology(self) -> NetworkTopology:
        """Switch layout of the job."""
        return NetworkTopology(
            self.num_nodes,
            nodes_per_switch=self.nodes_per_switch,
            switch_power_w=self.switch_power_w,
        )


@dataclass
class ExecutionTrace:
    """Ordered per-gate plans for one configuration."""

    config: RunConfiguration
    plans: list[GatePlan] = field(default_factory=list)

    def append(self, plan: GatePlan) -> None:
        """Add the next gate's plan."""
        self.plans.append(plan)

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)

    def distributed_gate_count(self) -> int:
        """Gates that communicated."""
        return sum(1 for p in self.plans if p.communicates)

    def total_bytes_sent_per_rank(self) -> int:
        """Bytes one communicating rank sent over the whole trace."""
        return sum(p.send_bytes for p in self.plans if p.communicates)


class TraceBuilder:
    """Observer for :class:`DistributedStatevector` that records plans."""

    def __init__(self, config: RunConfiguration):
        self.trace = ExecutionTrace(config)

    def __call__(self, index: int, gate: Gate, plan: GatePlan) -> None:
        if index != len(self.trace.plans):
            raise ValueError(
                f"trace out of order: gate index {index}, have "
                f"{len(self.trace.plans)} plans"
            )
        self.trace.append(plan)


def trace_circuit(circuit: Circuit, config: RunConfiguration) -> ExecutionTrace:
    """The model executor: plan every gate without touching amplitudes.

    Works at any scale -- a 44-qubit circuit over 4,096 ranks plans in
    milliseconds because only sizes flow through.  Inside a
    :func:`~repro.statevector.plan.plan_reuse` scope the plans come from
    the scope when the circuit was already planned on this partition.
    """
    trace = ExecutionTrace(
        config,
        plan_circuit(
            circuit,
            config.partition,
            halved_swaps=config.halved_swaps,
            max_message=config.max_message,
        ),
    )
    if config.shots:
        trace.append(sampling_plan(config.partition, config.shots))
    return trace


@dataclass(frozen=True)
class GateCost:
    """Wall time and energy of one gate across the whole job."""

    plan: GatePlan
    comm_s: float
    mem_s: float
    cpu_s: float
    node_energy_j: float
    switch_energy_j: float

    @property
    def total_s(self) -> float:
        """Gate wall time (SPMD lockstep: communication then update)."""
        return self.comm_s + self.mem_s + self.cpu_s

    @property
    def total_energy_j(self) -> float:
        """Node plus switch energy."""
        return self.node_energy_j + self.switch_energy_j


@dataclass
class CostedTrace:
    """A priced trace: per-gate costs and aggregates."""

    config: RunConfiguration
    gates: list[GateCost]

    @property
    def runtime_s(self) -> float:
        """Total wall time."""
        return sum(g.total_s for g in self.gates)

    @property
    def comm_s(self) -> float:
        """Total MPI time."""
        return sum(g.comm_s for g in self.gates)

    @property
    def mem_s(self) -> float:
        """Total memory-streaming time."""
        return sum(g.mem_s for g in self.gates)

    @property
    def cpu_s(self) -> float:
        """Total arithmetic time."""
        return sum(g.cpu_s for g in self.gates)

    @property
    def node_energy_j(self) -> float:
        """Energy from node power counters (what SLURM reports)."""
        return sum(g.node_energy_j for g in self.gates)

    @property
    def switch_energy_j(self) -> float:
        """The paper's estimated network energy."""
        return sum(g.switch_energy_j for g in self.gates)

    @property
    def total_energy_j(self) -> float:
        """Node + switch energy."""
        return self.node_energy_j + self.switch_energy_j


def cost_trace(trace: ExecutionTrace) -> CostedTrace:
    """Price every gate of a trace on its configuration.

    Each distinct plan is priced once; every later gate with an equal
    plan reuses the same :class:`GateCost` object.
    """
    config = trace.config
    calib = config.calibration
    topo = config.topology
    switch_power = topo.switch_power_total_w()
    freq, node_type = config.frequency, config.node_type
    busy_power = node_phase_power("busy", freq, node_type, calib)
    comm_power = node_phase_power("comm", freq, node_type, calib)
    idle_power = node_phase_power("idle", freq, node_type, calib)
    nodes = config.num_nodes

    costs: list[GateCost] = []
    priced: dict[GatePlan, GateCost] = {}
    for plan in trace.plans:
        cost = priced.get(plan)
        if cost is not None:
            costs.append(cost)
            continue
        comm_s = 0.0
        if plan.communicates:
            if plan.comm_rounds > 1:
                # A remap's bucket routing: 2**g - 1 sequential pairwise
                # sub-exchanges, each of one bucket.  Each round is
                # priced on its own partner mask (its top bit decides
                # network vs shared memory) and the rounds serialise.
                per_bytes = plan.send_bytes // plan.comm_rounds
                per_msgs = max(1, plan.num_messages // plan.comm_rounds)
                masks = plan.pair_masks or (None,) * plan.comm_rounds
                for mask in masks:
                    bit = (
                        mask.bit_length() - 1
                        if mask
                        else plan.pair_rank_bit
                    )
                    comm_s += exchange_time(
                        per_bytes,
                        per_msgs,
                        config.comm_mode,
                        nodes,
                        config.frequency,
                        calib,
                        pair_rank_bit=bit,
                        ranks_per_node=config.ranks_per_node,
                    )
            else:
                comm_s = exchange_time(
                    plan.send_bytes,
                    plan.num_messages,
                    config.comm_mode,
                    nodes,
                    config.frequency,
                    calib,
                    pair_rank_bit=plan.pair_rank_bit,
                    ranks_per_node=config.ranks_per_node,
                )
        local = local_cost(
            plan,
            config.partition,
            config.node_type,
            config.frequency,
            calib,
            ranks_per_node=config.ranks_per_node,
        )
        # A gate with no participating ranks still takes no time; SPMD
        # lockstep means wall time is the participating ranks' time.
        active = plan.active_fraction if plan.active_fraction > 0 else 0.0
        mem_s = local.mem_s if active else 0.0
        cpu_s = local.cpu_s if active else 0.0

        if config.overlap_comm_compute and comm_s > 0:
            # Chunk-pipelined overlap: only the exchange time not hidden
            # behind the local update remains on the critical path, so
            # the gate takes max(comm, local).  The *work* (and hence
            # the busy-power energy below) is unchanged.
            comm_s = max(0.0, comm_s - (mem_s + cpu_s))
        elif (
            config.executor == "pool"
            and config.transport == "tcp"
            and comm_s > 0
        ):
            # The TCP transport applies elementwise updates per received
            # chunk, hiding up to overlap_factor of whichever is smaller
            # -- the exchange or the update -- behind the other.
            comm_s -= config.overlap_factor * min(comm_s, mem_s + cpu_s)

        # Node energy: communicating ranks draw comm power during the
        # exchange while the rest idle; active ranks draw busy power
        # during the update while the rest idle.
        comm_energy = comm_s * nodes * (
            plan.comm_fraction * comm_power + (1 - plan.comm_fraction) * idle_power
        )
        busy_energy = (mem_s + cpu_s) * nodes * (
            active * busy_power + (1 - active) * idle_power
        )
        total_s = comm_s + mem_s + cpu_s
        cost = GateCost(
            plan=plan,
            comm_s=comm_s,
            mem_s=mem_s,
            cpu_s=cpu_s,
            node_energy_j=comm_energy + busy_energy,
            switch_energy_j=switch_power * total_s,
        )
        priced[plan] = cost
        costs.append(cost)
    obs.counter("repro_model_pricings_total", outcome="priced").inc(len(priced))
    obs.counter("repro_model_pricings_total", outcome="shared").inc(
        len(costs) - len(priced)
    )
    return CostedTrace(config=config, gates=costs)
