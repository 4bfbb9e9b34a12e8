"""The distributed statevector simulator (QuEST's execution model).

Every rank of the :class:`~repro.statevector.partition.Partition` holds
its slice of the statevector; gates are applied in SPMD lockstep, with
distributed gates driving pairwise buffer exchanges.  The simulator is
exact and deterministic while the communication *schedule* (message
counts, sizes, pairings, blocking vs non-blocking) recorded in
:class:`~repro.mpi.comm.SimComm` matches what QuEST would issue on a
real machine.

Every executor runs a compiled plan through the one step interpreter,
:func:`repro.parallel.stepper.execute_plan`, and differs only in how
that task executes:

* ``executor="serial"`` (default) runs it in this process: one worker
  owns every rank of a lazy :class:`~repro.statevector.slices.RankSlices`
  store, so untouched ranks stay implicit zero slices and every rank
  pair of a distributed gate is updated in place, with no exchange
  copy;
* ``executor="pool"`` places the rank slices and their pair/exchange
  buffers in one named shared-memory segment and replays the plan
  across a persistent worker pool (:mod:`repro.parallel`), or across a
  TCP worker mesh when a host list is set.

Whatever the executor, the parent validates every step before any runs
and logs each step's exchange rounds into the communicator
(:meth:`DistributedStatevector._run_plan`): the copy lists of
:func:`repro.parallel.stepper.exchange_rounds`, which the workers move.
All of it is compiled once per plan and options and kept on the plan
(:func:`_compile_schedule`).  Workers report nothing while they run:
measure outcomes arrive with the run's result, and the parent then
replays the log and the observer callbacks from the plan, one callback
per circuit gate in gate order.  An observer therefore changes neither
the plan nor the run.

Measurement has one path.  Collapse decisions (mid-circuit MEASURE
steps) and shots (:meth:`DistributedStatevector.sample_bitstrings`)
come from the exact integer norms of :mod:`repro.statevector.exact`,
so they do not depend on the partition.  Float queries are array
functions applied to :meth:`DistributedStatevector.gather`: marginals
and ``<Z>`` in :mod:`repro.statevector.measurement`, and
:func:`repro.statevector.fidelity`.

Scale: functional simulation is for correctness work (tests cap out in
the mid twenties of qubits).  Paper-scale runs use the same
:mod:`~repro.statevector.plan` through the model executor instead.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.circuits.circuit import Circuit
from repro.errors import SimulationError, ValidationError
from repro.gates import Gate
from repro.mpi import CommMode, MAX_MESSAGE_BYTES, SimComm, log_exchange_schedule
from repro.mpi.datatypes import Message
from repro.statevector import exact
from repro.statevector.apply_plan import (
    ApplyPlan,
    StepKind,
    compile_gate_plan,
    compile_plan,
    relabels,
)
from repro.statevector.fusion import FusionConfig, resolve_fusion
from repro.statevector.gate_kernels import configured_backend
from repro.statevector.dense import DenseStatevector
from repro.statevector.partition import AMPLITUDE_BYTES, Partition
from repro.statevector.plan import GatePlan, plan_gate
from repro.statevector.slices import RankSlices

__all__ = ["DistributedStatevector"]

#: Callback invoked after each gate with its plan.
Observer = Callable[[int, Gate, GatePlan], None]

#: Tag of the measure reduction's first round (one tag per round).
_REDUCE_TAG_BASE = 1 << 20

#: Bytes each rank sends per reduction round: two float64 partials.
_REDUCE_BYTES = 16


class DistributedStatevector:
    """An ``n``-qubit state distributed over ``2**d`` in-process ranks."""

    def __init__(
        self,
        partition: Partition,
        *,
        comm_mode: CommMode = CommMode.BLOCKING,
        halved_swaps: bool = False,
        max_message: int = MAX_MESSAGE_BYTES,
        observer: Observer | None = None,
        executor: str | None = None,
        fusion: str | FusionConfig | None = None,
        hosts: str | tuple[str, ...] | None = None,
        measure_seed: int = 0,
    ):
        from repro.parallel import resolve_executor, resolve_hosts

        self.partition = partition
        self.comm_mode = comm_mode
        self.halved_swaps = halved_swaps
        self.max_message = max_message
        self.observer = observer
        self.executor = resolve_executor(executor, hosts=hosts)
        self.hosts = resolve_hosts(hosts) if self.executor == "pool" else None
        #: Which rank transport a pool run would use ("shm" or "tcp").
        self.transport = "tcp" if self.hosts else "shm"
        self.fusion = resolve_fusion(fusion)
        self.comm = SimComm(partition.num_ranks)
        self._segment = None
        if self.executor == "pool" and self.transport == "shm":
            from repro.parallel.shm import SharedArray

            # One segment: row 0 holds every rank's slice, row 1 their
            # pair buffers, as QuEST allocates pairStateVec with the
            # register.  The OS hands over zero pages, so a fresh
            # segment *is* |0...0> minus one amp, and pair pages no
            # exchange touches cost nothing.
            self._segment = SharedArray(
                (2, partition.num_ranks, partition.local_amplitudes), np.complex128
            )
            self._local = RankSlices.from_backing(*self._segment.array)
        else:
            # Lazy: slices materialise on first write.  |0...0> touches
            # only rank 0; every other rank stays an implicit zero slice
            # until a distributed gate mixes data into it.
            self._local = RankSlices(
                partition.num_ranks, partition.local_amplitudes
            )
        self._local[0][0] = 1.0  # |0...0>
        self._gate_index = 0
        self.measure_seed = int(measure_seed)
        self._measure_count = 0
        #: ``(qubit, outcome)`` of every mid-circuit measurement applied.
        self.measure_outcomes: list[tuple[int, int]] = []

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero_state(
        cls, num_qubits: int, num_ranks: int, **kwargs
    ) -> "DistributedStatevector":
        """|0...0> over the given partition."""
        return cls(Partition(num_qubits, num_ranks), **kwargs)

    @classmethod
    def from_amplitudes(
        cls, amplitudes: np.ndarray, num_ranks: int, **kwargs
    ) -> "DistributedStatevector":
        """Scatter a full statevector across ranks."""
        amplitudes = np.asarray(amplitudes, dtype=np.complex128)
        from repro.utils.bits import log2_exact

        n = log2_exact(amplitudes.shape[0])
        state = cls(Partition(n, num_ranks), **kwargs)
        per = state.partition.local_amplitudes
        for rank in range(num_ranks):
            state._local[rank][:] = amplitudes[rank * per : (rank + 1) * per]
        return state

    @classmethod
    def from_dense(
        cls, dense: DenseStatevector, num_ranks: int, **kwargs
    ) -> "DistributedStatevector":
        """Scatter a dense simulator's state."""
        return cls.from_amplitudes(dense.amplitudes, num_ranks, **kwargs)

    # -- state access ---------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Register width."""
        return self.partition.num_qubits

    @property
    def num_ranks(self) -> int:
        """Rank count."""
        return self.partition.num_ranks

    def local_array(self, rank: int) -> np.ndarray:
        """A copy of one rank's slice."""
        return self._local.read(rank).copy()

    def gather(self) -> np.ndarray:
        """The full statevector, concatenated in rank order."""
        return np.concatenate([self._local.read(r) for r in range(self.num_ranks)])

    def to_dense(self) -> DenseStatevector:
        """Gather into a dense reference simulator."""
        return DenseStatevector.from_amplitudes(self.gather())

    def norm(self) -> float:
        """Global 2-norm: the per-rank partial sums added in rank order.

        A plain reduction over the parent's slices.  Implicit zero
        slices are skipped (they add exactly nothing), and nothing is
        recorded on the communicator: the modelled Allreduce belongs to
        measurement steps, whose decisions use the exact integer norms.
        """
        total = 0.0
        for rank in range(self.num_ranks):
            if self._local.is_materialized(rank):
                total += float(np.sum(np.abs(self._local.read(rank)) ** 2))
        return float(np.sqrt(total))

    def probability_of(self, global_index: int) -> float:
        """Probability of one basis state (owned by exactly one rank)."""
        rank = self.partition.rank_of(global_index)
        local = self.partition.local_index_of(global_index)
        return float(np.abs(self._local.read(rank)[local]) ** 2)

    def sample_bitstrings(self, shots: int, seed: int = 0) -> np.ndarray:
        """Seed-deterministic basis-state samples from the current state.

        Draws through the exact cumulative search shared by every
        executor and the dense reference, so the shot stream depends
        only on ``(state, seed)`` -- never on the partition.
        """
        slices = [self._local.read(r) for r in range(self.num_ranks)]
        return exact.sample_exact(slices, shots, seed)

    # -- evolution ----------------------------------------------------------------

    def apply_circuit(self, circuit: Circuit) -> "DistributedStatevector":
        """Apply every gate of ``circuit`` in order (via a compiled plan).

        The plan is compiled under this state's fusion config (ctor
        ``fusion=``, else ``$REPRO_FUSION``); block/permutation fusion
        is bounded to the partition's local qubits so every
        communicating gate still reaches the exchange layer
        individually.  An attached observer still sees one callback per
        circuit gate, replayed after the run (:meth:`_replay`).
        """
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width "
                f"{self.num_qubits}"
            )
        plan = compile_plan(
            circuit, fusion=self.fusion, local_qubits=self.partition.local_qubits
        )
        with obs.span(
            "apply_circuit",
            qubits=self.num_qubits,
            ranks=self.num_ranks,
            steps=len(plan.steps),
            executor=self.executor,
        ):
            self._run_plan(plan)
        return self

    def apply_gate(self, gate: Gate) -> "DistributedStatevector":
        """Apply one gate across all ranks (SPMD lockstep)."""
        self._run_plan(
            compile_gate_plan(gate, self.num_qubits, self.partition.local_qubits)
        )
        return self

    # -- the one runner -----------------------------------------------------------

    def _run_plan(self, plan: ApplyPlan) -> None:
        """Run a compiled plan through the step interpreter.

        The plan's first run under this state's partition and exchange
        options compiles its schedule (:func:`_compile_schedule`), which
        validates every step *before* any runs, so errors raise with the
        state untouched on every call.  The task then executes in this
        process, across the shared-memory pool or across the TCP mesh,
        and returns the run's measure outcomes; then the parent appends
        the stored messages and fires the observer (:meth:`_replay`).
        """
        from repro.parallel.stepper import PlanTask, execute_in_process

        key = (self.partition, self.halved_swaps, self.max_message, self.comm_mode)
        base = self._gate_index
        schedule = plan.memoised(key, lambda: _compile_schedule(plan, *key, base))
        task = PlanTask(
            partition=self.partition,
            halved_swaps=self.halved_swaps,
            plan=plan,
            measure_seed=self.measure_seed,
            measure_base=self._measure_count,
            kernels=configured_backend(),
        )
        if self.executor == "serial":
            # One worker owns every rank of the lazy slice store.
            outcomes = execute_in_process(self._local, task)
        elif self.transport == "tcp":
            outcomes = self._execute_tcp(task)
        else:
            outcomes = self._execute_shm(task)
        self._replay(plan, schedule)
        self.measure_outcomes += outcomes
        self._measure_count += len(outcomes)
        self._gate_index += plan.num_gates

    def _replay(self, plan: ApplyPlan, schedule: "_Schedule") -> None:
        """Log the run's messages and fire the observer, after the run.

        Without an observer the whole log goes in at once.  With one,
        every circuit gate the steps cover gets one callback, in gate
        order, with its own :func:`plan_gate`; a step's messages go in
        just before the callback of the step's own gate (a step that
        covers no gate is a local restoring swap, with none).
        """
        if self.observer is None:
            self._log_steps(schedule, 0, len(plan.steps))
            return
        options = dict(halved_swaps=self.halved_swaps, max_message=self.max_message)
        index = 0
        for i, step in enumerate(plan.steps):
            for gate in step.gates:
                if index == schedule.offsets[i]:
                    self._log_steps(schedule, i, i + 1)
                self.observer(
                    self._gate_index + index,
                    gate,
                    plan_gate(gate, self.partition, **options),
                )
                index += 1

    def _log_steps(self, schedule: "_Schedule", lo: int, hi: int) -> None:
        """Append the stored messages of steps ``lo .. hi - 1``, exchange
        tags shifted from the compiling run's first gate to this one's."""
        start = schedule.log_ends[lo - 1] if lo else 0
        end = schedule.log_ends[hi - 1] if hi else 0
        messages = schedule.log[start:end]
        shift = (self._gate_index - schedule.gate_base) << 8
        if shift:
            messages = [
                Message(m.source, m.dest, m.tag + shift * relative, m.nbytes)
                for m, relative in zip(messages, schedule.relative[start:end])
            ]
        self.comm.extend(messages)

    def _execute_shm(self, task) -> list[tuple[int, int]]:
        """Workers attach the state's segment and replay in lockstep;
        returns worker 0's measure outcomes."""
        from repro.parallel import get_pool
        from repro.parallel.stepper import run_plan_worker

        obs.counter("repro_pool_plans_total").inc()
        return get_pool().spmd(run_plan_worker, (self._segment.name, task))[0]

    def _execute_tcp(self, task) -> list[tuple[int, int]]:
        """Ship owned slices over the mesh, take the finals back and
        return the run's measure outcomes.

        Implicit zero slices travel as ``None``.  The communicator still
        records what the *modelled* machine would send, independent of
        which real transport moved the data.
        """
        from repro.parallel.tcp import get_tcp_pool

        obs.counter("repro_pool_plans_total").inc()
        slices = {
            r: (self._local.read(r) if self._local.is_materialized(r) else None)
            for r in range(self.num_ranks)
        }
        finals, outcomes = get_tcp_pool(self.hosts).run_plan(task, slices)
        for rank, amps in finals.items():
            self._local[rank][:] = amps
        return outcomes


class _Schedule(NamedTuple):
    """A plan's run on one partition under one set of exchange options."""

    #: Each step's own gate, counted from the plan's first gate.
    offsets: list[int]
    #: The run's messages with the plan's first gate at ``gate_base``
    #: (that of the run that compiled it), whether each tag is
    #: gate-relative (the measure reduction's are absolute), and where
    #: each step's messages end.
    gate_base: int
    log: list[Message]
    relative: list[bool]
    log_ends: list[int]


def _compile_schedule(
    plan: ApplyPlan,
    partition: Partition,
    halved_swaps: bool,
    max_message: int,
    comm_mode: CommMode,
    gate_base: int,
) -> _Schedule:
    """Validate every step of ``plan`` and fix its run on ``partition``.

    Errors raise before any worker touches the state.  A step's offset
    is that of its own gate: relabelled SWAPs and REMAPs ride ahead of
    it among the covered gates, so a step's tags are its gate's.  The
    log is QuEST's pairwise schedule: per exchange round, one exchange
    per rank pair, lower rank first.  A measurement logs the
    ``log2(R)`` recursive-doubling rounds of its norm Allreduce (each
    rank sends its ``(n0, ntotal)`` doubles to the rank differing at
    rank bit ``r``), though decisions use the exact integer partials.
    """
    from repro.parallel.stepper import step_schedule

    m = partition.local_qubits
    communicates: list[bool] = []
    offsets: list[int] = []
    gate_index = 0
    for step in plan.steps:
        gate = step.gate
        if gate.max_qubit >= partition.num_qubits:
            raise SimulationError(
                f"gate {gate} touches qubit {gate.max_qubit} of a "
                f"{partition.num_qubits}-qubit state"
            )
        gate_plan = plan_gate(
            gate, partition, halved_swaps=halved_swaps, max_message=max_message
        )
        if step.kind is StepKind.SWAP and gate.controls and gate_plan.communicates:
            raise SimulationError(
                "controlled distributed SWAP is not supported (QuEST "
                "decomposes it); remove controls or keep targets local"
            )
        lead = 0
        while lead < step.num_gates - 1 and relabels(step.gates[lead], m):
            lead += 1
        communicates.append(gate_plan.communicates)
        offsets.append(gate_index + lead)
        gate_index += step.num_gates
    kinds, rounds = step_schedule(plan, partition, halved_swaps)
    if any(rounds) and max_message < AMPLITUDE_BYTES:
        raise ValidationError(
            f"max_message {max_message} is smaller than one "
            f"amplitude ({AMPLITUDE_BYTES} B); the exchange cannot "
            "make progress"
        )

    comm = SimComm(partition.num_ranks)
    relative: list[bool] = []
    ends: list[int] = []
    for kind, step_rounds, talks, offset in zip(kinds, rounds, communicates, offsets):
        if talks and kind == "measure":
            for r in range(partition.rank_qubits):
                for rank in range(partition.num_ranks):
                    comm.record_only(
                        rank, rank ^ (1 << r), _REDUCE_TAG_BASE + r, _REDUCE_BYTES
                    )
        elif talks:
            for c in (c for copies in step_rounds for c in copies):
                if c.dst_rank < c.src_rank:
                    log_exchange_schedule(
                        comm,
                        c.dst_rank,
                        c.src_rank,
                        c.length,
                        itemsize=AMPLITUDE_BYTES,
                        mode=comm_mode,
                        max_message=max_message,
                        tag_base=(gate_base + offset) << 8,
                    )
        ends.append(len(comm.message_log))
        relative += [kind != "measure"] * (ends[-1] - len(relative))
    return _Schedule(offsets, gate_base, comm.message_log, relative, ends)
